//! End-to-end and per-layer benchmark of the X-Drop IPU reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! A workload is a set of independent instances (see
//! `workloads.rs`). One run generates them from `--seed`, computes
//! the scalar-kernel oracle, times the set-up, makes one warm-up pass
//! and then makes timed passes over every instance until `--seconds`
//! have passed (at least [`MIN_PASSES`]). Every call's output is
//! checked against the oracle. Generation, oracle and checks stay
//! outside every timed region. The last line of standard output is
//! one JSON object: with `--trace 0` it carries the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of traced passes,
//! whose spans are also written as a Chrome trace under
//! `perfbench/out/`.
//!
//! `wall_s` sums, over the instances, each instance's fastest timed
//! call. A host shared with other tenants slows this code by up to
//! 1.8× in spells of milliseconds to seconds; the fastest of many
//! short calls rejects those spells, where a median or a mean follows
//! the share of the run they cover.

mod spans;
mod workloads;

use spans::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{
    elba_config, ipu_system, ooc_config, pastis_config, Bench, ElbaHifi, IpuOffload, Metrics,
    OocMetaclust, PastisFamilies, Scale, IPU_X, OOC_X,
};
use xdrop_bench::alloc::{self, TrackingAllocator};
use xdrop_core::aligner::AlignerKind;
use xdrop_core::batched::SweepBackend;
use xdrop_core::extension::{Backend, Extender, ExtenderPool};
use xdrop_core::kernel::{host_simd, KernelKind};
use xdrop_core::scoring::{Blosum62, MatchMismatch};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Seed the benchmark is tuned and reported on.
pub(crate) const DEFAULT_SEED: u64 = 1;
/// Seed kept aside to check a claimed gain on inputs the change was
/// not written against.
pub(crate) const HELD_OUT_SEED: u64 = 7_919;

/// Timed passes made even when `--seconds` is already used up.
const MIN_PASSES: usize = 3;
/// Set-up samples timed before the warm-up pass and after every
/// timed pass; `setup_s` is the fastest of them, for the reason
/// `wall_s` keeps fastest calls. Across processes the median sample
/// moved by ±14% with the host's load, the fastest by ±3%.
const SETUP_BLOCK: usize = 40;
/// Host threads of `ipu-offload`. One: a call's few comparisons
/// leave a second worker little to do, and a call on two threads is
/// fast only while both vCPUs are free of the other tenants' load, so
/// its fastest call is further from the host's quiet speed.
const IPU_THREADS: usize = 1;
/// Set-ups per `setup_s` sample.
const SETUP_REPS: usize = 100;

const WORKLOADS: [&str; 4] = [
    "elba-hifi",
    "pastis-families",
    "ipu-offload",
    "ooc-metaclust",
];

/// End-to-end metrics and units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("output_quality", "ratio"),
];

/// Per-layer metrics and units, as `BENCHMARK.json` lists them. A
/// layer a workload does not run reports 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("fasta.parse_s", "s"),
    ("fasta.mib_per_s", "MiB/s"),
    ("fasta.records", "count"),
    ("overlap.s", "s"),
    ("overlap.kmer_matrix_s", "s"),
    ("overlap.spgemm_s", "s"),
    ("overlap.reliable_kmers", "count"),
    ("overlap.nnz", "count"),
    ("overlap.candidates", "count"),
    ("align.s", "s"),
    ("align.cells", "count"),
    ("align.theoretical_cells", "count"),
    ("align.gcups", "GCUPS"),
    ("align.pruned_ratio", "ratio"),
    ("align.max_delta_w", "cells"),
    ("align.workspace_bytes", "bytes"),
    ("elba.graph_s", "s"),
    ("elba.edges", "count"),
    ("elba.contigs", "count"),
    ("pastis.cluster_s", "s"),
    ("pastis.accepted", "count"),
    ("pastis.clusters", "count"),
    ("exec.s", "s"),
    ("exec.threads", "count"),
    ("partition.s", "s"),
    ("plan.s", "s"),
    ("plan.batches", "count"),
    ("plan.host_mib", "MiB"),
    ("plan.reuse_factor", "ratio"),
    ("cluster.s", "s"),
    ("cluster.link_busy", "ratio"),
    ("cluster.device_busy", "ratio"),
    ("cluster.modeled_device_s", "s"),
    ("pipeline.overlap_share", "ratio"),
    ("ooc.windows", "count"),
    ("ooc.source_s", "s"),
    ("ooc.in_core_payload_mib", "MiB"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

/// What one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The dispatch labels of the run header. Resolving them is part of
/// the set-up: the first call detects the host and caches the
/// kernel and sweep backend.
fn resolve_dispatch() -> (&'static str, &'static str, &'static str) {
    (
        host_simd(),
        KernelKind::auto().name(),
        SweepBackend::detect().name(),
    )
}

/// The extender an alignment stage builds for threshold `x`.
fn extender(x: i32, aligner: AlignerKind) -> Extender {
    Extender::new(
        XDropParams::new(x),
        Backend::for_kind(aligner, x, BandPolicy::Grow(256)),
    )
}

/// Times `n` samples of a workload's set-up, lowering `best` to the
/// fastest. A set-up takes well under a microsecond, so one sample
/// is the mean of [`SETUP_REPS`] consecutive set-ups.
fn time_setups<C>(setup: &mut impl FnMut() -> C, n: usize, best: &mut f64) {
    for _ in 0..n {
        let t = Instant::now();
        for _ in 0..SETUP_REPS {
            black_box(setup());
        }
        *best = best.min(t.elapsed().as_secs_f64() / SETUP_REPS as f64);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Prints the run header: labels, not metrics.
fn header(a: &Args, threads: usize, instances: usize, comparisons: u64, cells: u64) {
    let (simd, kernel, sweep) = resolve_dispatch();
    println!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \
         \"host_simd\": \"{simd}\", \"nproc\": {}, \"kernel\": \"{kernel}\", \
         \"sweep\": \"{sweep}\", \"threads\": {threads}, \"instances\": {instances}, \
         \"comparisons\": {comparisons}, \"cells\": {cells}, \"trace\": {}}}}}",
        a.workload,
        a.seed,
        a.scale,
        nproc(),
        u8::from(a.trace)
    );
}

/// One call, its input prepared before the clock starts: returns the
/// output, the call's wall time and its tracked heap high-water above
/// the live heap before the call.
fn timed_call<B: Bench>(b: &B, tr: &mut Tracer) -> (Result<B::Output, String>, f64, f64) {
    let input = b.prepare();
    let base = alloc::current_bytes();
    alloc::reset_peak();
    let t = Instant::now();
    let out = b.call(input, tr);
    let wall = t.elapsed().as_secs_f64();
    let peak = alloc::peak_bytes().saturating_sub(base) as f64 / (1u64 << 20) as f64;
    (out, wall, peak)
}

/// Failed operations of one call; an `Err` counts as one.
fn gate<B: Bench>(b: &B, out: &Result<B::Output, String>) -> u64 {
    match out {
        Ok(o) => b.check(o),
        Err(e) => {
            eprintln!("call failed: {e}");
            1
        }
    }
}

/// The measurement loop of one workload.
fn measure<B: Bench, C>(bs: Vec<B>, mut setup: impl FnMut() -> C, a: &Args) -> Report {
    let per_pass: u64 = bs.iter().map(B::comparisons).sum();
    let cells = bs.iter().map(B::cells).sum();
    header(a, bs[0].threads(), bs.len(), per_pass, cells);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(a.seconds);
    let mut setup_s = f64::INFINITY;
    time_setups(&mut setup, SETUP_BLOCK, &mut setup_s);

    // The warm-up pass: checked, not timed; it gives output_quality.
    let mut off = Tracer::new(false);
    let mut quality = 0.0;
    for b in &bs {
        let (out, _, _) = timed_call(b, &mut off);
        failed += gate(b, &out);
        quality += out.as_ref().map_or(0.0, |o| b.quality(o));
    }
    attempted += per_pass;
    quality /= bs.len() as f64;

    let mut fastest = vec![f64::INFINITY; bs.len()];
    let mut peaks = vec![0.0f64; bs.len()];
    let mut pass_walls = Vec::new();
    let mut on = Tracer::new(true);
    let mut layer_samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    while pass_walls.len() < MIN_PASSES || start.elapsed() < budget {
        let mut pass_wall = 0.0;
        for ((b, best), high) in bs.iter().zip(&mut fastest).zip(&mut peaks) {
            let (out, wall, peak) = timed_call(b, &mut off);
            failed += gate(b, &out);
            *best = best.min(wall);
            *high = high.max(peak);
            pass_wall += wall;
        }
        attempted += per_pass;
        pass_walls.push(pass_wall);
        time_setups(&mut setup, SETUP_BLOCK, &mut setup_s);
        if !a.trace {
            continue;
        }
        // The traced run alternates untraced and traced passes, so
        // the tracing overhead is measured under the same conditions.
        on.begin_iteration();
        for b in &bs {
            let input = b.prepare();
            let out = on.span("iteration", |t| b.call(input, t));
            failed += gate(b, &out);
            if let Ok(o) = &out {
                b.record(o, &mut on);
            }
        }
        attempted += per_pass;
        let mut m = on.counts().clone();
        B::layers(&on, &mut m);
        let traced = on.dur("iteration") - on.probe_dur();
        m.insert("trace.wall_s", traced);
        m.insert(
            "trace.unaccounted_share",
            1.0 - on.child_dur("iteration") / traced,
        );
        for (k, v) in m {
            layer_samples.entry(k).or_default().push(v);
        }
    }

    let mut metrics = Metrics::new();
    let wall_s: f64 = fastest.iter().sum();
    let passes = pass_walls.len();
    if a.trace {
        for (name, _) in PER_LAYER {
            let v = layer_samples.get_mut(name).map_or(0.0, |v| median(v));
            metrics.insert(name, v);
        }
        let untraced = median(&mut pass_walls);
        metrics.insert("trace.untraced_wall_s", untraced);
        metrics.insert("trace.overhead_s", metrics["trace.wall_s"] - untraced);
        write_trace(&on, a);
    } else {
        metrics.insert("wall_s", wall_s);
        metrics.insert("setup_s", setup_s);
        metrics.insert("peak_heap_mib", peaks.iter().sum::<f64>() / bs.len() as f64);
        metrics.insert("output_quality", quality);
    }
    eprintln!(
        "{}: {} instances, {} timed passes ({} calls); wall_s (sum of fastest calls) {:.4}, \
         median pass {:.4}",
        a.workload,
        bs.len(),
        passes,
        passes * bs.len(),
        wall_s,
        median(&mut pass_walls)
    );
    Report {
        attempted,
        failed,
        metrics,
    }
}

fn write_trace(tr: &Tracer, a: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", a.workload, a.seed));
    let res = std::fs::create_dir_all(&dir).and_then(|()| tr.to_chrome().write_json(&path));
    match res {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
}

/// Generates the workload and measures it. A timed set-up builds
/// what the workload's first call needs from the library: its
/// configuration, scorer and extender (or extender pool and
/// `IpuSystem`), and the kernel and sweep dispatch. Generation is
/// not part of it.
fn run(a: &Args) -> Result<Report, String> {
    match a.workload.as_str() {
        "elba-hifi" => {
            let setup = || {
                let cfg = elba_config();
                let ext = extender(cfg.x, cfg.aligner);
                (cfg, MatchMismatch::dna_default(), resolve_dispatch(), ext)
            };
            let (cfg, ..) = setup();
            Ok(measure(
                ElbaHifi::instances(cfg, a.scale, a.seed)?,
                setup,
                a,
            ))
        }
        "pastis-families" => {
            let setup = || {
                let cfg = pastis_config();
                let ext = extender(cfg.x, cfg.aligner);
                (cfg, Blosum62::new(cfg.gap), resolve_dispatch(), ext)
            };
            let (cfg, ..) = setup();
            Ok(measure(
                PastisFamilies::instances(cfg, a.scale, a.seed)?,
                setup,
                a,
            ))
        }
        "ipu-offload" => {
            let setup = || {
                let sys = ipu_system(IPU_THREADS);
                let pool = ExtenderPool::new(
                    XDropParams::new(IPU_X),
                    Backend::for_kind(sys.aligner, IPU_X, sys.policy),
                );
                (sys, MatchMismatch::dna_default(), resolve_dispatch(), pool)
            };
            let (sys, ..) = setup();
            Ok(measure(
                IpuOffload::instances(sys, a.scale, a.seed)?,
                setup,
                a,
            ))
        }
        "ooc-metaclust" => {
            let setup = || {
                let (cfg, spec) = ooc_config();
                let pool = ExtenderPool::new(
                    XDropParams::new(OOC_X),
                    Backend::for_kind(cfg.exec.aligner, OOC_X, cfg.exec.policy),
                );
                ((cfg, spec), Blosum62::new(-2), resolve_dispatch(), pool)
            };
            let (cfg, ..) = setup();
            Ok(measure(
                OocMetaclust::instances(cfg, a.scale, a.seed)?,
                setup,
                a,
            ))
        }
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// The result line: the last line of standard output.
fn result_line(r: &Report, units: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = r.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --self-test",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Tiny-scale checks: every workload on both seeds, traced and not,
/// emits every metric with its unit and no failed operation, the
/// lists match `BENCHMARK.json`, and the gate trips on a corrupted
/// score.
fn self_test() -> Result<(), String> {
    let bench_json =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !bench_json.contains(&entry) {
            return Err(format!("BENCHMARK.json lacks {entry}"));
        }
    }
    for w in WORKLOADS {
        if !bench_json.contains(&format!("\"name\": \"{w}\"")) {
            return Err(format!("BENCHMARK.json lacks workload {w}"));
        }
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for (trace, units) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let a = Args {
                    workload: w.to_string(),
                    seed,
                    seconds: 0.0,
                    trace,
                    scale: Scale::Tiny,
                };
                let r = run(&a)?;
                let line = result_line(&r, units);
                for (name, unit) in units {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    if !line.contains(&entry) || !line.contains(&format!("\"unit\": \"{unit}\"")) {
                        return Err(format!("{w}: metric {name} ({unit}) missing"));
                    }
                }
                if r.failed != 0 || r.attempted == 0 {
                    return Err(format!(
                        "{w} seed {seed}: {} of {} failed",
                        r.failed, r.attempted
                    ));
                }
                if !trace {
                    for (name, _) in END_TO_END {
                        if r.metrics[name] <= 0.0 {
                            return Err(format!("{w} seed {seed}: {name} is not positive"));
                        }
                    }
                }
            }
        }
    }
    let (tiny, seed) = (Scale::Tiny, DEFAULT_SEED);
    gate_trips(ElbaHifi::instances(elba_config(), tiny, seed)?)?;
    gate_trips(PastisFamilies::instances(pastis_config(), tiny, seed)?)?;
    gate_trips(IpuOffload::instances(ipu_system(1), tiny, seed)?)?;
    gate_trips(OocMetaclust::instances(ooc_config(), tiny, seed)?)?;
    Ok(())
}

/// The gate passes a clean output and fails it once one score is
/// corrupted.
fn gate_trips<B: Bench>(bs: Vec<B>) -> Result<(), String> {
    let b = &bs[0];
    let mut out = b.call(b.prepare(), &mut Tracer::new(false))?;
    if b.check(&out) != 0 {
        return Err("clean output failed the gate".into());
    }
    B::corrupt(&mut out);
    if b.check(&out) == 0 {
        return Err("gate passed a corrupted score".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        return match self_test() {
            Ok(()) => {
                eprintln!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(r) => {
            let units = if a.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            println!("{}", result_line(&r, units));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", a.workload);
            ExitCode::FAILURE
        }
    }
}
