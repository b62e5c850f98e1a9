//! `experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <name> [--scale F] [--threads N]
//!   table1     Table 1  optimization ablation
//!   table2     Table 2  dataset statistics
//!   fig1       Figure 1 static band vs X-Drop
//!   fig2       Figure 2 computed region vs X
//!   fig3       Figure 3 memory: 3δ vs 2δ_b across error rates
//!   fig4       Figure 4 tile thread scheduling / races
//!   fig5       Figure 5 GCUPS: IPU vs SeqAn/ksw2/LOGAN
//!   fig6       Figure 6 band spread δ_w vs error rate
//!   fig7       Figure 7 strong scaling 1–32 IPUs
//!   sec61      §6.1     δ_b selection and memory saving
//!   partition  §4.3     batch counts and sequence reuse
//!   elba       §6.3.1   ELBA alignment phase CPU/GPU/IPUs
//!   pastis     §6.3.2   PASTIS alignment step CPU vs IPU
//!   bench      host-kernel A/B (scalar/batched)
//!              plus the i16 sweep per register backend
//!   faults     fault recovery: fault-free vs one device lost
//!   scaling    fleet scaling: windowed out-of-core pipeline,
//!              4-512 devices with host-link contention
//!   all        everything above
//! ```
//!
//! Each experiment prints a table and writes
//! `results/<name>.json`. Scales default to laptop-friendly sizes
//! that keep the simulated machine saturated (the regime the
//! paper's figures live in); `--scale` multiplies them.

use ipu_sim::spec::IpuSpec;
use seqdata::{Dataset, DatasetKind};
use xdrop_bench::exp;
use xdrop_bench::exp::{
    compare, faultbench, fleetscale, kernelbench, partbench, realworld, scaling, search_space,
    table1, table2, tilesched,
};
use xdrop_bench::svg;
use xdrop_pipelines::elba::ElbaConfig;
use xdrop_pipelines::overlap::OverlapConfig;
use xdrop_pipelines::pastis::PastisConfig;

/// Track heap usage so `experiments scaling` can report the peak
/// residency of the windowed out-of-core front end.
#[global_allocator]
static ALLOC: xdrop_bench::alloc::TrackingAllocator = xdrop_bench::alloc::TrackingAllocator;

struct Args {
    name: String,
    scale: f64,
    threads: usize,
    iters: usize,
    trace: bool,
    bench_json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        name: String::new(),
        scale: 1.0,
        threads: 8,
        iters: 3,
        trace: false,
        bench_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a number"))
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a number"))
            }
            "--iters" => {
                args.iters = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--iters needs a number"))
            }
            "--trace" => args.trace = true,
            "--bench-json" => args.bench_json = true,
            "-h" | "--help" => usage(""),
            name if args.name.is_empty() => args.name = name.to_string(),
            other => usage(&format!("unexpected argument {other}")),
        }
    }
    if args.name.is_empty() {
        usage("missing experiment name");
    }
    args
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: experiments <table1|table2|fig1|fig2|fig3|fig4|fig5|fig6|fig7|sec61|partition|elba|pastis|bench|faults|scaling|all> [--scale F] [--threads N] [--iters N] [--trace] [--bench-json]\n\
         \n\
         --iters       with `partition`/`faults`: timing\n\
         \x20             iterations per configuration (default 3;\n\
         \x20             `bench` times each row for at least 0.2 s and\n\
         \x20             `scaling` is modeled time; both ignore it)\n\
         --trace       also dump a Chrome trace_event timeline to\n\
         \x20             results/<name>.trace.json (fig4, fig7, elba, pastis)\n\
         --bench-json  with `bench`/`partition`/`faults`/`scaling`:\n\
         \x20             also write the machine-readable perf baseline\n\
         \x20             BENCH_xdrop.json at the repo root (`partition` adds\n\
         \x20             the serial edge-walk front-end benchmark)"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn scaled(kind: DatasetKind, mult: f64) -> Dataset {
    let mut ds = Dataset::bench_default(kind);
    ds.scale *= mult;
    if let Some(cap) = ds.max_comparisons {
        ds.max_comparisons = Some(((cap as f64 * mult) as usize).max(16));
    }
    ds
}

fn main() {
    let args = parse_args();
    let names: Vec<&str> = if args.name == "all" {
        vec![
            "table2",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig6",
            "sec61",
            "partition",
            "table1",
            "fig5",
            "fig7",
            "elba",
            "pastis",
        ]
    } else {
        vec![args.name.as_str()]
    };
    for name in names {
        run_one(name, &args);
    }
}

fn run_one(name: &str, args: &Args) {
    let t0 = std::time::Instant::now();
    println!("==> {name}");
    match name {
        "table1" => {
            let workloads = [
                ("15% error", DatasetKind::Simulated85),
                ("ELBA Ecoli", DatasetKind::Ecoli),
            ]
            .map(|(label, kind)| (label, scaled(kind, args.scale).generate()));
            let rows = table1::run_on(&workloads, 15, IpuSpec::gc200()).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1)
            });
            println!("{}", table1::render(&rows));
            exp::save_json("table1", &rows);
        }
        "table2" => {
            let rows = table2::run(args.scale);
            println!("{}", table2::render(&rows));
            exp::save_json("table2", &rows);
        }
        "fig1" => {
            let rows = search_space::fig1(7);
            println!("Figure 1: static band vs X-Drop on a 60 bp-indel pair");
            for r in &rows {
                println!(
                    "  {:<18} score {:>6}  cells {:>10}  optimal: {}",
                    r.method, r.score, r.cells, r.optimal
                );
            }
            exp::save_json("fig1", &rows);
        }
        "fig2" => {
            let rows = search_space::fig2((10_000.0 * args.scale) as usize, 3);
            println!("Figure 2: computed region vs X (85% identity pair)");
            for r in &rows {
                println!(
                    "  X = {:<5} cells {:>12}  fraction {:>7.4}  score {}",
                    r.x, r.cells, r.fraction, r.score
                );
            }
            exp::save_json("fig2", &rows);
        }
        "fig3" => {
            let rows = search_space::fig3((20_000.0 * args.scale) as usize, 15, 5);
            println!("Figure 3: working memory, 3δ vs 2δ_b (X = 15)");
            for r in &rows {
                println!(
                    "  {:<10} δ {:>6}  δ_w {:>5}  3δ {:>8} B  2δ_b {:>7} B  {:>6.1}x  save {:>5.1}%",
                    r.label, r.delta, r.delta_w, r.bytes_3delta, r.bytes_2delta_b, r.reduction,
                    100.0 * r.saving
                );
            }
            exp::save_json("fig3", &rows);
        }
        "fig4" => {
            let rows = tilesched::fig4(600, 17);
            println!("Figure 4: intra-tile scheduling (600 skewed units)");
            for r in &rows {
                println!(
                    "  {:<24} cycles {:>10}  util {:>5.2}  races {:>6}  loads {:?}",
                    r.regime, r.cycles, r.utilization, r.races, r.thread_instr
                );
            }
            exp::save_json("fig4", &rows);
            if args.trace {
                exp::save_trace("fig4", &tilesched::fig4_trace(600, 17));
            }
        }
        "fig5" => {
            let datasets: Vec<Dataset> = DatasetKind::table2()
                .into_iter()
                .map(|k| scaled(k, args.scale))
                .collect();
            let rows = compare::run(&datasets, &[5, 10, 15, 20], args.threads);
            println!("{}", compare::render(&rows));
            exp::save_json("fig5", &rows);
            for kind in DatasetKind::table2() {
                let name = kind.name();
                let series = ["IPU", "SeqAn", "ksw2", "LOGAN"]
                    .iter()
                    .map(|tool| svg::Series {
                        label: tool.to_string(),
                        points: rows
                            .iter()
                            .filter(|r| r.dataset == name && &r.tool == tool)
                            .map(|r| (r.x as f64, r.gcups))
                            .collect(),
                    })
                    .collect();
                svg::save_svg(
                    &format!("fig5_{name}"),
                    &svg::LineChart {
                        title: format!("Figure 5 — {name}: GCUPS vs X"),
                        x_label: "X".into(),
                        y_label: "GCUPS (modeled, scale model)".into(),
                        x_scale: svg::Scale::Linear,
                        y_scale: svg::Scale::Log,
                        series,
                    },
                );
            }
        }
        "fig6" => {
            let rows = search_space::fig6(
                (20_000.0 * args.scale) as usize,
                &[5, 10, 15, 20, 50, 100],
                11,
            );
            println!("Figure 6: δ_w vs mismatch rate");
            println!(
                "  err%   {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
                5, 10, 15, 20, 50, 100
            );
            for err in (0..=100).step_by(10) {
                let vals: Vec<String> = [5, 10, 15, 20, 50, 100]
                    .iter()
                    .map(|&x| {
                        rows.iter()
                            .find(|r| r.error_pct == err && r.x == x)
                            .map(|r| r.delta_w.to_string())
                            .unwrap_or_default()
                    })
                    .collect();
                println!(
                    "  {:>4}   {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
                    err, vals[0], vals[1], vals[2], vals[3], vals[4], vals[5]
                );
            }
            exp::save_json("fig6", &rows);
            let series = [5, 10, 15, 20, 50, 100]
                .iter()
                .map(|&x| svg::Series {
                    label: format!("X={x}"),
                    points: rows
                        .iter()
                        .filter(|r| r.x == x)
                        .map(|r| (r.error_pct as f64, r.delta_w as f64))
                        .collect(),
                })
                .collect();
            svg::save_svg(
                "fig6",
                &svg::LineChart {
                    title: "Figure 6 — band spread δ_w vs mismatch rate".into(),
                    x_label: "mismatch %".into(),
                    y_label: "δ_w".into(),
                    x_scale: svg::Scale::Linear,
                    y_scale: svg::Scale::Log,
                    series,
                },
            );
        }
        "fig7" => {
            let datasets = vec![
                scaled(DatasetKind::Ecoli100, args.scale),
                scaled(DatasetKind::Elegans, args.scale),
            ];
            let rows = scaling::run(&datasets, &[5, 10, 15, 20, 50], &[1, 2, 4, 8, 16, 32]);
            println!("Figure 7: strong scaling (seconds; mc = graph partitioning)");
            println!("dataset      X    mode   1dev      2       4       8      16      32");
            for ds in ["ecoli100", "elegans"] {
                for x in [5, 10, 15, 20, 50] {
                    for parted in [false, true] {
                        let series: Vec<String> = [1, 2, 4, 8, 16, 32]
                            .iter()
                            .map(|&d| {
                                rows.iter()
                                    .find(|r| {
                                        r.dataset == ds
                                            && r.x == x
                                            && r.devices == d
                                            && r.partitioned == parted
                                    })
                                    .map(|r| format!("{:7.4}", r.seconds))
                                    .unwrap_or_default()
                            })
                            .collect();
                        println!(
                            "{:<12} {:<4} {:<5} {}",
                            ds,
                            x,
                            if parted { "mc" } else { "sc" },
                            series.join(" ")
                        );
                    }
                }
            }
            exp::save_json("fig7", &rows);
            if args.trace {
                exp::save_trace("fig7", &scaling::trace_run(&datasets[0], 15, 8));
            }
            for ds in ["ecoli100", "elegans"] {
                let mut series = Vec::new();
                for x in [15, 50] {
                    for parted in [false, true] {
                        series.push(svg::Series {
                            label: format!("X={x} {}", if parted { "mc" } else { "sc" }),
                            points: rows
                                .iter()
                                .filter(|r| r.dataset == ds && r.x == x && r.partitioned == parted)
                                .map(|r| (r.devices as f64, r.seconds))
                                .collect(),
                        });
                    }
                }
                svg::save_svg(
                    &format!("fig7_{ds}"),
                    &svg::LineChart {
                        title: format!("Figure 7 — {ds}: time vs devices"),
                        x_label: "IPU devices".into(),
                        y_label: "seconds".into(),
                        x_scale: svg::Scale::Log,
                        y_scale: svg::Scale::Log,
                        series,
                    },
                );
            }
        }
        "sec61" => {
            let rows =
                search_space::sec61(&Dataset::bench_default(DatasetKind::Ecoli), &[10, 15, 30]);
            println!("§6.1: δ_w and memory on E. coli-shaped data");
            for r in &rows {
                println!(
                    "  X = {:<4} δ_w {:>5}  (δ {:>6})  2δ_b {:>7} B vs 3δ {:>8} B  → {:>5.1}x, save {:>5.1}%",
                    r.x, r.delta_w, r.delta, r.bytes_2delta_b, r.bytes_3delta, r.reduction,
                    100.0 * r.saving
                );
            }
            exp::save_json("sec61", &rows);
        }
        "partition" => {
            let datasets = vec![
                scaled(DatasetKind::Ecoli100, args.scale),
                scaled(DatasetKind::Elegans, args.scale),
            ];
            let rows = scaling::partition43(&datasets, 10);
            println!("§4.3: graph partitioning effect");
            for r in &rows {
                println!(
                    "  {:<10} batches {:>4} → {:>4} ({:>+5.1}%)  bytes {:>11} → {:>11}  reuse {:>4.2}x  max-seqs/part {}",
                    r.dataset,
                    r.naive_batches,
                    r.partitioned_batches,
                    -100.0 * r.batch_reduction,
                    r.naive_bytes,
                    r.partitioned_bytes,
                    r.reuse_factor,
                    r.max_seqs_per_partition
                );
            }
            exp::save_json("partition", &rows);
            if args.bench_json {
                // The partitioner front-end benchmark: the serial edge
                // walk on the ~1M-comparison ELBA-shaped ring, merged
                // into the machine-readable baseline.
                let bench_rows = partbench::run(args.scale, args.iters);
                println!("Partitioner front-end: serial greedy edge walk");
                print!("{}", partbench::render(&bench_rows));
                exp::save_json("bench_partition", &bench_rows);
                match kernelbench::write_partition_json(&bench_rows) {
                    Ok(path) => println!("   wrote {}", path.display()),
                    Err(e) => eprintln!("   could not write BENCH_xdrop.json: {e}"),
                }
            }
        }
        "elba" => {
            let cfg = ElbaConfig {
                read_sim: seqdata::reads::ReadSimParams {
                    genome_len: (400_000.0 * args.scale) as usize,
                    coverage: 14.0,
                    read_len_mean: 6_000.0,
                    read_len_sigma: 0.45,
                    min_read_len: 800,
                    max_read_len: 16_000,
                    errors: seqdata::gen::MutationProfile::hifi(),
                    min_overlap: 1_200,
                    seed_k: 17,
                    low_complexity: Some(seqdata::reads::LowComplexity::genomic()),
                    false_pair_rate: 0.10,
                },
                overlap: OverlapConfig::elba(17),
                x: 15,
                aligner: xdrop_core::aligner::AlignerKind::XDrop2,
                min_identity: 0.7,
                fuzz: 60,
            };
            let mut rows = Vec::new();
            for x in [10, 15, 20] {
                rows.extend(realworld::elba(&cfg, &[x], 16, 5));
            }
            println!("{}", realworld::render(&rows));
            exp::save_json("elba", &rows);
            if args.trace {
                exp::save_trace("elba", &realworld::elba_trace(&cfg, 15, 8, 5));
            }
        }
        "bench" => {
            let (rows, backends) = kernelbench::run(args.scale);
            println!("Host-kernel A/B: DP cells/second per kernel");
            print!("{}", kernelbench::render(&rows));
            exp::save_json("bench_kernel", &rows);
            println!("One pair through the i16 fused sweep, per register backend");
            print!("{}", kernelbench::render_backends(&backends));
            exp::save_json("bench_batched", &backends);
            if args.bench_json {
                match kernelbench::write_bench_json(&rows, &backends) {
                    Ok(path) => println!("   wrote {}", path.display()),
                    Err(e) => eprintln!("   could not write BENCH_xdrop.json: {e}"),
                }
            }
        }
        "scaling" => {
            let section = fleetscale::run(args.scale);
            println!(
                "Fleet scaling: windowed pipeline, {} devices with link contention",
                fleetscale::SCALING_DEVICE_SWEEP
                    .last()
                    .copied()
                    .unwrap_or(0)
            );
            print!("{}", fleetscale::render(&section));
            exp::save_json("scaling_fleet", &section);
            if args.bench_json {
                match kernelbench::write_scaling_json(&section) {
                    Ok(path) => println!("   wrote {}", path.display()),
                    Err(e) => eprintln!("   could not write BENCH_xdrop.json: {e}"),
                }
            }
        }
        "faults" => {
            let rows = faultbench::run(args.scale, args.iters);
            println!("Fault recovery: fault-free vs one device lost mid-run");
            print!("{}", faultbench::render(&rows));
            exp::save_json("faults", &rows);
            if args.bench_json {
                match kernelbench::write_faults_json(&rows) {
                    Ok(path) => println!("   wrote {}", path.display()),
                    Err(e) => eprintln!("   could not write BENCH_xdrop.json: {e}"),
                }
            }
        }
        "pastis" => {
            let cfg = PastisConfig::small((3_000.0 * args.scale) as usize);
            let rows = realworld::pastis(&cfg, 8, 6);
            println!("{}", realworld::render(&rows));
            exp::save_json("pastis", &rows);
            if args.trace {
                exp::save_trace("pastis", &realworld::pastis_trace(&cfg, 8, 6));
            }
        }
        other => usage(&format!("unknown experiment {other}")),
    }
    println!("   ({name} took {:.1?})\n", t0.elapsed());
}
