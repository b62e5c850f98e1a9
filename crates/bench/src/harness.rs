//! Shared harness: run a workload end-to-end on the simulated IPU.

use ipu_sim::batch::naive_batches;
use ipu_sim::cluster::{run_cluster_opts, ClusterOptions, ClusterReport};
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::exec::{execute_workload, ExecConfig, ExecOutput};
use ipu_sim::spec::IpuSpec;
use ipu_sim::trace::ChromeTrace;
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::Workload;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;
use xdrop_partition::plan::{PlanConfig, PlanTimings};
use xdrop_partition::plan_stage;

/// Full configuration of one simulated IPU run.
#[derive(Debug, Clone, Copy)]
pub struct IpuRunConfig {
    /// Device model.
    pub spec: IpuSpec,
    /// Number of IPUs pulling from the shared queue.
    pub devices: usize,
    /// Optimization flags (Table 1 axis).
    pub flags: OptFlags,
    /// Instruction-cost calibration.
    pub cost: CostModel,
    /// X-Drop factor.
    pub x: i32,
    /// Band bound δ_b for the memory-restricted kernel.
    pub delta_b: usize,
    /// Use graph-based sequence partitioning (Figure 7
    /// "multicomparison").
    pub partitioned: bool,
    /// Minimum batch count the partitioned planner aims for (must be
    /// ≥ the device count for multi-device scaling to engage).
    pub min_batches: usize,
    /// Host threads for running the kernels (simulation-side only;
    /// `0` = auto-detect).
    pub host_threads: usize,
}

impl IpuRunConfig {
    /// The shipping configuration: BOW IPU, all optimizations,
    /// partitioning on.
    pub fn full(x: i32) -> Self {
        Self {
            spec: IpuSpec::bow(),
            devices: 1,
            flags: OptFlags::full(),
            cost: CostModel::default(),
            x,
            delta_b: 512,
            partitioned: true,
            min_batches: 2,
            host_threads: 0,
        }
    }

    /// Same but on the GC200 (the Mk2 systems of §5).
    pub fn full_gc200(x: i32) -> Self {
        Self {
            spec: IpuSpec::gc200(),
            ..Self::full(x)
        }
    }
}

/// Outcome of one simulated run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IpuRunReport {
    /// Modeled wall-clock (host transfer + device time).
    pub seconds: f64,
    /// On-device time only (compute + exchange, no host link) — the
    /// paper's §5.1 measurement for Table 1 and Figure 5: *"the
    /// total on-device execution time can be derived by
    /// t = cycles / f"*, with GPU/CPU baselines likewise measured
    /// without data transfer.
    pub device_seconds: f64,
    /// The paper's GCUPS metric (theoretical cells / seconds).
    pub gcups: f64,
    /// GCUPS over on-device time (Figure 5 / Table 1 basis).
    pub gcups_device: f64,
    /// Batches executed.
    pub batches: usize,
    /// Host→device bytes.
    pub host_bytes: u64,
    /// Steal races observed.
    pub races: u64,
    /// DP cells actually computed.
    pub cells_computed: u64,
    /// Largest live band width observed (δ_w).
    pub max_delta_w: usize,
    /// Per-comparison total scores.
    pub scores: Vec<i32>,
    /// Fraction of the makespan the host link was busy.
    pub link_busy_fraction: f64,
}

/// Runs the alignment kernels for `w` under `cfg` (the expensive,
/// flag-independent-except-for-LR-splitting part). Reuse the output
/// across scheduling configurations with [`run_ipu_from_exec`].
pub fn exec_for<S: Scorer + Sync>(w: &Workload, scorer: &S, cfg: &IpuRunConfig) -> ExecOutput {
    let exec_cfg = ExecConfig {
        params: XDropParams::new(cfg.x),
        policy: BandPolicy::Grow(cfg.delta_b),
        aligner: xdrop_core::aligner::AlignerKind::XDrop2,
        lr_split: cfg.flags.lr_split,
        host_threads: cfg.host_threads,
    };
    execute_workload(w, scorer, &exec_cfg).expect("grow policy")
}

/// Plans and simulates the run given already-executed kernels.
pub fn run_ipu_from_exec(w: &Workload, exec: &ExecOutput, cfg: &IpuRunConfig) -> IpuRunReport {
    run_ipu_from_exec_traced(w, exec, cfg, false).0
}

/// [`run_ipu_from_exec`], optionally recording the cluster's
/// Chrome-trace timeline (see `ipu_sim::trace`).
pub fn run_ipu_from_exec_traced(
    w: &Workload,
    exec: &ExecOutput,
    cfg: &IpuRunConfig,
    collect_trace: bool,
) -> (IpuRunReport, Option<ChromeTrace>) {
    let plan = if cfg.partitioned {
        PlanConfig::partitioned(cfg.delta_b).with_min_batches(cfg.min_batches)
    } else {
        PlanConfig::naive(cfg.delta_b)
    };
    // `plan_stage` owns the single-tile decision; the unpartitioned
    // all-tile run keeps its uncapped `naive_batches` packing.
    let (batches, timings) = if cfg.partitioned || !cfg.flags.all_tiles {
        plan_stage(w, &exec.units, &cfg.spec, &cfg.flags, &plan)
            .expect("bench workloads fit the tile budget")
    } else {
        (
            naive_batches(w, &exec.units, &cfg.spec, &plan.batch),
            PlanTimings::default(),
        )
    };
    let opts = ClusterOptions {
        host_threads: cfg.host_threads,
        collect_trace,
        streaming: true,
    };
    let (cluster, mut trace): (ClusterReport, Option<ChromeTrace>) = run_cluster_opts(
        &exec.units,
        &batches,
        cfg.devices,
        &cfg.spec,
        &cfg.flags,
        &cfg.cost,
        &opts,
    );
    // Host front-end phases on the dedicated host track, matching
    // `xdrop_partition::pipeline`'s convention: wall-clock spans laid
    // back to back from t = 0, partition first when it ran.
    if let Some(tr) = trace.as_mut() {
        if timings.partition_s > 0.0 {
            tr.push_host_phase("partition", 0.0, timings.partition_s);
        }
        tr.push_host_phase(
            "plan",
            timings.partition_s,
            timings.partition_s + timings.plan_s,
        );
    }
    let races = cluster.batch_reports.iter().map(|b| b.races).sum();
    // On-device time: batches execute back to back across devices.
    let device_seconds: f64 = cluster
        .batch_reports
        .iter()
        .map(ipu_sim::device::BatchReport::device_seconds)
        .sum::<f64>()
        / cfg.devices.max(1) as f64;
    let theoretical = w.theoretical_cells();
    let report = IpuRunReport {
        seconds: cluster.total_seconds,
        device_seconds,
        gcups_device: if device_seconds > 0.0 {
            theoretical as f64 / device_seconds / 1e9
        } else {
            0.0
        },
        gcups: cluster.gcups(w.theoretical_cells()),
        batches: batches.len(),
        host_bytes: cluster.host_bytes,
        races,
        cells_computed: exec.total_cells_computed(),
        max_delta_w: exec.max_delta_w(),
        scores: exec.results.iter().map(|r| r.score).collect(),
        link_busy_fraction: cluster.link_busy_fraction,
    };
    (report, trace)
}

/// Executes `w` on the simulated IPU system described by `cfg`.
pub fn run_ipu<S: Scorer + Sync>(w: &Workload, scorer: &S, cfg: &IpuRunConfig) -> IpuRunReport {
    let exec = exec_for(w, scorer, cfg);
    run_ipu_from_exec(w, &exec, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdata::{Dataset, DatasetKind};
    use xdrop_core::scoring::MatchMismatch;

    fn tiny_workload() -> Workload {
        Dataset::new(DatasetKind::Simulated85, 0.0005).generate() // 20 pairs
    }

    #[test]
    fn full_run_produces_sane_report() {
        let w = tiny_workload();
        let r = run_ipu(&w, &MatchMismatch::dna_default(), &IpuRunConfig::full(15));
        assert!(r.seconds > 0.0);
        assert!(r.gcups > 0.0);
        assert_eq!(r.scores.len(), w.comparisons.len());
        assert!(r.batches >= 1);
        // 15% mismatches on ~10 kb: strong positive scores.
        assert!(r.scores.iter().all(|&s| s > 1_000));
    }

    #[test]
    fn single_tile_much_slower_than_full() {
        let w = tiny_workload();
        let sc = MatchMismatch::dna_default();
        let full = run_ipu(&w, &sc, &IpuRunConfig::full(15));
        let mut one = IpuRunConfig::full(15);
        one.flags = OptFlags::single_tile();
        one.partitioned = false;
        let single = run_ipu(&w, &sc, &one);
        // Only 20 comparisons here, so the full machine is far from
        // saturated; the ratio is bounded by the unit count, not by
        // 1472 × 6. Anything ≥ 5× shows the scheduling axis works.
        assert!(
            single.seconds > 5.0 * full.seconds,
            "single tile {} vs full {}",
            single.seconds,
            full.seconds
        );
        // Scores identical regardless of scheduling.
        assert_eq!(full.scores, single.scores);
    }

    #[test]
    fn partitioning_never_increases_bytes() {
        let w = Dataset::new(DatasetKind::Ecoli, 0.01).generate();
        let sc = MatchMismatch::dna_default();
        let mut cfg = IpuRunConfig::full(15);
        let parted = run_ipu(&w, &sc, &cfg);
        cfg.partitioned = false;
        let naive = run_ipu(&w, &sc, &cfg);
        assert!(parted.host_bytes <= naive.host_bytes);
        assert_eq!(parted.scores, naive.scores);
    }
}
