//! The host pipeline: `Workload` → [`ClusterReport`] in three
//! barriered stages, each parallel inside.
//!
//! 1. [`execute_workload`] aligns every comparison on the work-stealing
//!    pool (`ipu_sim::pool::steal`: LPT claims, units and results
//!    written into their comparison's slots of the final vectors).
//! 2. [`plan_batches_timed`] partitions the comparison graph and packs
//!    the units into batches (graph build, union-find and the sharded
//!    walk run on the same pool).
//! 3. [`run_cluster_faulty`] replays every batch's modeled tile
//!    schedule on the pool, then binds the reports, strictly in batch
//!    order, into the event-driven cluster scheduler.
//!
//! The host stages do not overlap. The paper's §4.4 overlap —
//! batches streaming to devices while others are still being
//! prepared — lives in the *modeled* timeline (the scheduler's late
//! binding and double-buffered fetches), and overlapping the host
//! stages could hide at most the partition + plan + cluster share of
//! a run, 0.1–3.5% on the benchmark workloads (DESIGN.md §9).
//!
//! Determinism: every stage writes by task index and the scheduler
//! consumes reports in batch order, so `ExecOutput`, the batch list
//! and every `ClusterReport` field (including the trace) are
//! bit-identical to [`run_pipeline_reference`] for any thread count.
//! `tests/pipeline_determinism.rs` enforces exactly that.
//!
//! Errors surface in stage order — the smallest-index alignment
//! error, then the plan error, then the cluster error (the smallest
//! batch index) — for every entry point and thread count.

use crate::error::PipelineError;
use crate::plan::{plan_batches_timed, PlanConfig, PlanTimings};
use ipu_sim::batch::Batch;
use ipu_sim::cluster::{run_cluster_faulty, ClusterOptions, ClusterReport};
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::exec::{execute_workload, execute_workload_reference, ExecConfig, ExecOutput};
use ipu_sim::fault::FaultPlan;
use ipu_sim::spec::IpuSpec;
use ipu_sim::trace::ChromeTrace;
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::Workload;

/// Configuration of the full host pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Kernel execution configuration (threads, band policy, LR
    /// split). `exec.host_threads` sizes the pools of both the
    /// alignment and batch-replay stages (`0` = auto).
    pub exec: ExecConfig,
    /// Batch planning configuration.
    pub plan: PlanConfig,
    /// Devices of the simulated cluster.
    pub devices: usize,
    /// Optimization flags.
    pub flags: OptFlags,
    /// Cost calibration.
    pub cost: CostModel,
    /// Record a Chrome-trace timeline of the modeled run.
    pub collect_trace: bool,
}

impl PipelineConfig {
    /// Defaults: X-Drop threshold `x`, partitioned planning with
    /// δ_b = 512, one device, all optimizations.
    pub fn new(x: i32) -> Self {
        Self {
            exec: ExecConfig::new(xdrop_core::XDropParams::new(x)),
            plan: PlanConfig::partitioned(512),
            devices: 1,
            flags: OptFlags::full(),
            cost: CostModel::default(),
            collect_trace: false,
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Exact alignment results and schedulable units.
    pub exec: ExecOutput,
    /// The planned batches.
    pub batches: Vec<Batch>,
    /// The modeled cluster run.
    pub report: ClusterReport,
    /// Chrome trace, when requested.
    pub trace: Option<ChromeTrace>,
}

/// The stage every entry point ends with: replays `batches` over the
/// aligned units on the modeled cluster (`streaming` picks the
/// cluster layer's work-stealing replay over its static-chunk
/// pre-pass oracle; either produces every report before binding), then
/// appends the `partition`/`plan` host phase spans to the trace, laid
/// out back to back from t = 0 on the [`ipu_sim::trace::TID_HOST`]
/// track. Those spans are host wall-clock, so determinism comparisons
/// filter `cat == "host"`.
pub(crate) fn replay_and_assemble(
    exec: ExecOutput,
    batches: Vec<Batch>,
    timings: &PlanTimings,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    streaming: bool,
    faults: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    let (report, mut trace) = run_cluster_faulty(
        &exec.units,
        &batches,
        cfg.devices,
        spec,
        &cfg.flags,
        &cfg.cost,
        &ClusterOptions {
            host_threads: cfg.exec.host_threads,
            collect_trace: cfg.collect_trace,
            streaming,
        },
        faults,
    )?;
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
    Ok(PipelineOutput {
        exec,
        batches,
        report,
        trace,
    })
}

/// The pre-pool pipeline, kept verbatim as the differential oracle
/// (and the baseline the `experiments e2e` benchmark measures
/// [`run_pipeline`] against): static-chunk alignment, full plan,
/// pre-pass batch replay, then scheduling.
pub fn run_pipeline_reference<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_reference_faulty(w, scorer, spec, cfg, &FaultPlan::none())
}

/// [`run_pipeline_reference`] under an injected [`FaultPlan`] — the
/// oracle of the chaos-conformance harness.
pub fn run_pipeline_reference_faulty<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    plan: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    let exec = execute_workload_reference(w, scorer, &cfg.exec)?;
    let (batches, timings) = plan_batches_timed(w, &exec.units, spec, &cfg.plan)?;
    replay_and_assemble(exec, batches, &timings, spec, cfg, false, plan)
}

/// Runs the full pipeline: align → plan → replay → schedule, each
/// stage on a pool of `cfg.exec.host_threads` threads.
pub fn run_pipeline<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_faulty(w, scorer, spec, cfg, &FaultPlan::none())
}

/// [`run_pipeline`] under an injected [`FaultPlan`]: the cluster
/// stage replays the plan's deterministic fault schedule, requeuing
/// failed batches onto surviving devices. With a recoverable plan
/// every output except the modeled timeline and the recovery
/// counters is bit-identical to the fault-free run; an unrecoverable
/// plan surfaces [`PipelineError::Cluster`] naming the smallest
/// batch index that could not complete. When several failure kinds
/// occur in one run the first stage to fail wins (smallest-index
/// alignment error, then plan error, then cluster error), so the
/// surfaced error never depends on thread interleaving.
pub fn run_pipeline_faulty<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    plan: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    let exec = execute_workload(w, scorer, &cfg.exec)?;
    let (batches, timings) = plan_batches_timed(w, &exec.units, spec, &cfg.plan)?;
    replay_and_assemble(exec, batches, &timings, spec, cfg, true, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipu_sim::fault::ClusterError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::error::AlignError;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;
    use xdrop_core::xdrop2::BandPolicy;
    use xdrop_core::XDropParams;

    fn workload(n: usize) -> Workload {
        let mut rng = StdRng::seed_from_u64(23);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..n {
            let root: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1) % 4;
                }
            }
            let pos = rng.gen_range(0..350);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    fn cfg(threads: usize) -> PipelineConfig {
        let mut c = PipelineConfig::new(15);
        c.exec.policy = BandPolicy::Grow(64);
        c.exec.host_threads = threads;
        c.plan = PlanConfig::partitioned(64).with_min_batches(4);
        c.devices = 3;
        c.collect_trace = true;
        c
    }

    #[test]
    fn pipeline_is_bit_identical_to_reference() {
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle = run_pipeline_reference(&w, &sc, &spec, &cfg(1)).unwrap();
        // Traces agree once the host-meta annotation (which records
        // the *requested* pool size) and the wall-clock host phase
        // spans are filtered; compare modeled span events only.
        let spans = |t: &ChromeTrace| {
            t.traceEvents
                .iter()
                .filter(|e| e.cat != "meta" && e.cat != "host")
                .cloned()
                .collect::<Vec<_>>()
        };
        for threads in [1usize, 3, 8] {
            let out = run_pipeline(&w, &sc, &spec, &cfg(threads)).unwrap();
            assert_eq!(out.exec.units, oracle.exec.units, "t={threads}");
            assert_eq!(out.exec.results, oracle.exec.results, "t={threads}");
            assert_eq!(out.batches, oracle.batches, "t={threads}");
            assert_eq!(out.report, oracle.report, "t={threads}");
            assert_eq!(
                spans(out.trace.as_ref().unwrap()),
                spans(oracle.trace.as_ref().unwrap()),
                "t={threads}"
            );
        }
    }

    #[test]
    fn batched_kernel_pipeline_is_bit_identical_to_scalar() {
        use xdrop_core::kernel::KernelKind;
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle = run_pipeline_reference(&w, &sc, &spec, &cfg(1)).unwrap();
        for threads in [1usize, 3, 8] {
            let mut c = cfg(threads);
            c.exec.params = c.exec.params.with_kernel(KernelKind::Batched);
            let out = run_pipeline(&w, &sc, &spec, &c).unwrap();
            assert_eq!(out.exec.units, oracle.exec.units, "t={threads}");
            assert_eq!(out.exec.results, oracle.exec.results, "t={threads}");
            assert_eq!(out.batches, oracle.batches, "t={threads}");
            assert_eq!(out.report, oracle.report, "t={threads}");
        }
    }

    #[test]
    fn naive_planning_matches_reference() {
        let w = workload(20);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let mut c = cfg(8);
        c.plan = PlanConfig::naive(64).with_min_batches(4);
        let out = run_pipeline(&w, &sc, &spec, &c).unwrap();
        c.exec.host_threads = 1;
        let oracle = run_pipeline_reference(&w, &sc, &spec, &c).unwrap();
        assert_eq!(out.report, oracle.report);
        assert_eq!(out.batches, oracle.batches);
    }

    #[test]
    fn align_errors_match_the_reference_for_any_thread_count() {
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let mut c = cfg(1);
        c.exec.policy = BandPolicy::Exact(1);
        c.exec.params = XDropParams::new(1000);
        let want = run_pipeline_reference(&w, &sc, &spec, &c).unwrap_err();
        assert!(matches!(
            want,
            PipelineError::Align(AlignError::BandExceeded { .. })
        ));
        for threads in [1usize, 3, 8] {
            c.exec.host_threads = threads;
            let err = run_pipeline(&w, &sc, &spec, &c).unwrap_err();
            assert_eq!(err, want, "t={threads}");
        }
    }

    #[test]
    fn recoverable_faults_keep_pipeline_output_bit_identical() {
        use ipu_sim::fault::{DeviceDeath, TransientFault};
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let clean = run_pipeline(&w, &sc, &spec, &cfg(1)).unwrap();
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 1,
            at_seconds: 0.0,
        }];
        plan.transients = vec![TransientFault {
            batch: 0,
            failures: 1,
        }];
        assert!(plan.is_recoverable(3));
        for threads in [1usize, 8] {
            let out = run_pipeline_faulty(&w, &sc, &spec, &cfg(threads), &plan).unwrap();
            assert_eq!(out.exec.units, clean.exec.units, "t={threads}");
            assert_eq!(out.exec.results, clean.exec.results, "t={threads}");
            assert_eq!(out.batches, clean.batches, "t={threads}");
            assert_eq!(
                out.report.batch_reports, clean.report.batch_reports,
                "t={threads}"
            );
            assert_eq!(out.report.retries, 1, "t={threads}");
            assert_eq!(out.report.devices_lost, 1, "t={threads}");
        }
    }

    #[test]
    fn cluster_errors_blame_the_smallest_batch() {
        use ipu_sim::fault::TransientFault;
        let w = workload(24);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        // Every batch fails more often than the cap allows: the
        // smallest batch index is blamed for any thread count, by the
        // pipeline and its oracle alike, and the replay pool aborts
        // without deadlocking.
        let mut plan = FaultPlan::none();
        plan.max_retries = 1;
        plan.transients = (0..64)
            .map(|b| TransientFault {
                batch: b,
                failures: 2,
            })
            .collect();
        let want = PipelineError::Cluster(ClusterError::RetriesExhausted {
            batch: 0,
            attempts: 2,
        });
        for threads in [1usize, 8] {
            let c = cfg(threads);
            let err = run_pipeline_faulty(&w, &sc, &spec, &c, &plan).unwrap_err();
            assert_eq!(err, want, "t={threads}");
            let err = run_pipeline_reference_faulty(&w, &sc, &spec, &c, &plan).unwrap_err();
            assert_eq!(err, want, "reference t={threads}");
        }
    }

    #[test]
    fn plan_errors_name_the_smallest_oversized_comparison() {
        // One comparison too big for any tile: alignment itself is
        // cheap (the sequences disagree immediately, so X-Drop gives
        // up fast), but planning must fail, deterministically naming
        // the smallest offending comparison.
        let mut w = workload(24);
        let budget = ipu_sim::batch::BatchConfig::new(64).tile_budget(&IpuSpec::gc200());
        let a = w.seqs.push(vec![0; budget]);
        let b = w.seqs.push(vec![1; budget]);
        w.comparisons[7] = Comparison::new(a, b, SeedMatch::new(0, 0, 1));
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        for threads in [1usize, 8] {
            let err = run_pipeline(&w, &sc, &spec, &cfg(threads)).unwrap_err();
            assert!(
                matches!(
                    err,
                    PipelineError::Partition(crate::error::PartitionError::OversizedComparison {
                        comparison: 7,
                        ..
                    })
                ),
                "threads {threads}: {err}"
            );
        }
    }
}
