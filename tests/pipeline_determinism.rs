//! Differential proptest for the host pipeline: for any small
//! workload and any host thread count, the pipeline's entire output —
//! `ExecOutput`, the planned batches, and every field of the
//! `ClusterReport`, including the recorded Chrome trace — must be
//! bit-identical to the static-chunk reference. Host threading is a
//! wall-clock optimization only; it must never change a modeled bit.

use proptest::prelude::*;
use xdrop_ipu::core::alphabet::Alphabet;
use xdrop_ipu::core::extension::SeedMatch;
use xdrop_ipu::core::scoring::MatchMismatch;
use xdrop_ipu::core::workload::{Comparison, Workload};
use xdrop_ipu::core::xdrop2::BandPolicy;
use xdrop_ipu::partition::pipeline::{run_pipeline, run_pipeline_reference, PipelineConfig};
use xdrop_ipu::partition::plan::PlanConfig;
use xdrop_ipu::sim::spec::IpuSpec;
use xdrop_ipu::sim::trace::{ChromeTrace, TraceEvent};

/// A deterministic workload from a proptest-chosen seed: `n`
/// sequence pairs with a protected seed match and mutations around
/// it.
fn workload(n: usize, seed: u64, err_pct: u64) -> Workload {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new(Alphabet::Dna);
    for _ in 0..n {
        let root: Vec<u8> = (0..260).map(|_| rng.gen_range(0..4)).collect();
        let mut other = root.clone();
        for b in other.iter_mut() {
            if rng.gen_range(0..100) < err_pct {
                *b = (*b + 1) % 4;
            }
        }
        let pos = rng.gen_range(0..200);
        other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
        let h = w.seqs.push(root);
        let v = w.seqs.push(other);
        w.comparisons
            .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
    }
    w
}

fn config(threads: usize, devices: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(15);
    cfg.exec.policy = BandPolicy::Grow(64);
    cfg.exec.host_threads = threads;
    cfg.plan = PlanConfig::partitioned(64).with_min_batches(4);
    cfg.devices = devices;
    cfg.collect_trace = true;
    cfg
}

/// Modeled spans of a trace — everything except the host-meta
/// annotation (which records the requested pool size and therefore
/// legitimately differs across thread counts) and the host
/// partition/plan phase spans (which are wall-clock, not modeled
/// time).
fn spans(trace: &Option<ChromeTrace>) -> Vec<TraceEvent> {
    trace
        .as_ref()
        .expect("trace requested")
        .traceEvents
        .iter()
        .filter(|e| e.cat != "meta" && e.cat != "host")
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The batched inter-sequence kernel is a wall-clock optimization
    /// too: the pipeline under `KernelKind::Batched` (where
    /// workers claim lane-width runs of the LPT order and align them
    /// in one batch call) produces results, batches, report, and
    /// trace bit-identical to the scalar barriered reference for any
    /// thread count.
    #[test]
    fn batched_kernel_pipeline_is_bit_identical(
        n in 8usize..17,
        seed in 0u64..1_000,
        err_pct in 0u64..9,
        devices in 1usize..4,
    ) {
        use xdrop_ipu::core::kernel::KernelKind;
        let w = workload(n, seed, err_pct);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle =
            run_pipeline_reference(&w, &sc, &spec, &config(1, devices)).expect("grow");
        let oracle_spans = spans(&oracle.trace);
        for threads in [1usize, 3, 8] {
            let mut cfg = config(threads, devices);
            cfg.exec.params = cfg.exec.params.with_kernel(KernelKind::Batched);
            let out = run_pipeline(&w, &sc, &spec, &cfg).expect("grow");
            prop_assert_eq!(
                &out.exec.units, &oracle.exec.units,
                "units: batched threads {}", threads
            );
            prop_assert_eq!(
                &out.exec.results, &oracle.exec.results,
                "results: batched threads {}", threads
            );
            prop_assert_eq!(&out.batches, &oracle.batches, "batches: batched threads {}", threads);
            prop_assert_eq!(&out.report, &oracle.report, "report: batched threads {}", threads);
            prop_assert_eq!(
                spans(&out.trace), oracle_spans.clone(),
                "trace: batched threads {}", threads
            );
        }
    }

    #[test]
    fn pipeline_is_bit_identical_for_any_thread_count(
        n in 8usize..17,
        seed in 0u64..1_000,
        err_pct in 0u64..9,
        devices in 1usize..4,
    ) {
        let w = workload(n, seed, err_pct);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle =
            run_pipeline_reference(&w, &sc, &spec, &config(1, devices)).expect("grow");
        let oracle_spans = spans(&oracle.trace);
        for threads in [1usize, 3, 8] {
            let out = run_pipeline(&w, &sc, &spec, &config(threads, devices)).expect("grow");
            prop_assert_eq!(&out.exec.units, &oracle.exec.units, "units: threads {}", threads);
            prop_assert_eq!(
                &out.exec.results, &oracle.exec.results,
                "results: threads {}", threads
            );
            prop_assert_eq!(&out.batches, &oracle.batches, "batches: threads {}", threads);
            prop_assert_eq!(&out.report, &oracle.report, "report: threads {}", threads);
            prop_assert_eq!(
                spans(&out.trace), oracle_spans.clone(),
                "trace: threads {}", threads
            );
        }
    }
}

/// 40 comparisons; every 10th is a 3 kb pair with 8% indels, whose
/// band grows far past δ_b = 8 under `Grow(8)`, and the rest are
/// 100 bp near-identical pairs, whose band stays narrow. An extender reused after a long pair
/// holds a grown workspace, so this is the workload on which a
/// `work_bytes` read off the workspace, instead of the call's own
/// band, depends on which comparisons a thread ran before.
fn mixed_band_workload() -> Workload {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut w = Workload::new(Alphabet::Dna);
    for i in 0..40 {
        let (len, indel_pct) = if i % 10 == 0 { (3_000, 8) } else { (100, 0) };
        let root: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
        let mut mutate = |s: &[u8]| {
            let mut out = Vec::with_capacity(s.len() + s.len() / 8);
            for &b in s {
                match rng.gen_range(0..100) {
                    r if r < indel_pct / 2 => {}
                    r if r < indel_pct => out.extend([rng.gen_range(0..4), b]),
                    r if r < indel_pct + 2 => out.push((b + 1) % 4),
                    _ => out.push(b),
                }
            }
            out
        };
        let mid = len / 2;
        let mut other = mutate(&root[..mid]);
        let seed = SeedMatch::new(mid, other.len(), 17);
        other.extend_from_slice(&root[mid..mid + 17]);
        other.extend(mutate(&root[mid + 17..]));
        let h = w.seqs.push(root);
        let v = w.seqs.push(other);
        w.comparisons.push(Comparison::new(h, v, seed));
    }
    w
}

/// `ExecOutput` is a function of the workload alone under
/// `BandPolicy::Grow`: every unit's stats — `work_bytes` included —
/// equal a fresh extender's, for every kernel, host thread count and
/// out-of-core window size.
#[test]
fn work_bytes_do_not_depend_on_threads_kernel_or_windows() {
    use xdrop_ipu::core::extension::Extender;
    use xdrop_ipu::core::kernel::KernelKind;
    use xdrop_ipu::partition::outofcore::{run_pipeline_out_of_core, windows_of};
    use xdrop_ipu::sim::exec::execute_workload;

    let w = mixed_band_workload();
    let sc = MatchMismatch::dna_default();
    let spec = IpuSpec::gc200();
    let mut cfg = PipelineConfig::new(200);
    cfg.exec.policy = BandPolicy::Grow(8);
    cfg.exec.host_threads = 1;

    // Oracle: one fresh extender per comparison.
    let fresh: Vec<_> = w
        .comparisons
        .iter()
        .map(|c| {
            let mut ext = Extender::new(cfg.exec.params, cfg.exec.backend());
            let out = ext
                .extend(w.seqs.get(c.h), w.seqs.get(c.v), c.seed, &sc)
                .expect("grow");
            [out.left.stats, out.right.stats]
        })
        .collect::<Vec<_>>()
        .concat();
    assert!(
        fresh.iter().any(|s| s.work_bytes > 2 * 8 * 4),
        "the long pairs must grow their band"
    );
    for kernel in KernelKind::ALL {
        for threads in [1usize, 4] {
            let mut c = cfg;
            c.exec.params = c.exec.params.with_kernel(kernel);
            c.exec.host_threads = threads;
            let out = execute_workload(&w, &sc, &c.exec).expect("grow");
            let got: Vec<_> = out.units.iter().map(|u| u.stats).collect();
            let differ = got.iter().zip(&fresh).filter(|(a, b)| a != b).count();
            assert_eq!(differ, 0, "{kernel:?} threads {threads}: units differ");
        }
    }
    let in_core = run_pipeline(&w, &sc, &spec, &cfg).expect("grow");
    let sk = {
        let lens = (0..w.seqs.len() as u32).map(|i| w.seqs.seq_len(i) as u32);
        Workload::skeleton(w.seqs.alphabet, lens.collect(), w.comparisons.clone())
    };
    for window in [1usize, 5, 1_000_000] {
        let windows = windows_of(&w, window).into_iter();
        let out = run_pipeline_out_of_core(&sk, windows, &sc, &spec, &cfg, 2).expect("grow");
        assert_eq!(out.exec.units, in_core.exec.units, "window {window}");
        assert_eq!(out.exec.results, in_core.exec.results, "window {window}");
        assert_eq!(out.report, in_core.report, "window {window}");
    }
}
