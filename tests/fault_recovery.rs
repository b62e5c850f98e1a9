//! Chaos-conformance harness for the fault-injected cluster: for any
//! small workload, any *recoverable* seeded `FaultPlan`, and any host
//! thread count, the pipeline must reproduce the fault-free run's
//! alignment results, units, batches, and per-batch device reports
//! bit-for-bit — faults may only move the modeled timeline and the
//! recovery counters, and those counters must be *exact* against the
//! injected plan; the timeline itself must match the faulty reference.
//! Unrecoverable plans must return the typed `ClusterError` naming the
//! smallest batch index that could not complete, identically for
//! every thread count and for the reference.

use proptest::prelude::*;
use xdrop_ipu::core::alphabet::Alphabet;
use xdrop_ipu::core::extension::SeedMatch;
use xdrop_ipu::core::scoring::MatchMismatch;
use xdrop_ipu::core::workload::{Comparison, Workload};
use xdrop_ipu::core::xdrop2::BandPolicy;
use xdrop_ipu::partition::pipeline::{
    run_pipeline_faulty, run_pipeline_reference, run_pipeline_reference_faulty, PipelineConfig,
    PipelineOutput,
};
use xdrop_ipu::partition::plan::PlanConfig;
use xdrop_ipu::partition::PipelineError;
use xdrop_ipu::sim::fault::{
    BackoffConfig, ClusterError, FaultPlan, FaultPlanSpec, TransientFault,
};
use xdrop_ipu::sim::spec::IpuSpec;
use xdrop_ipu::sim::trace::{ChromeTrace, TraceEvent};

/// A deterministic workload from a proptest-chosen seed: `n`
/// sequence pairs with a protected seed match and mutations around
/// it (alignment always succeeds, so cluster faults are the only
/// error source in play).
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

/// A GC200 with the tile count shrunk to 2, so the small proptest
/// workloads split into several batches (`partition_batches` packs
/// `spec.tiles` partitions per batch — at the real 1472 everything
/// fits in one) and the chaos plans have real schedules to perturb.
fn small_spec() -> IpuSpec {
    let mut spec = IpuSpec::gc200();
    spec.tiles = 2;
    spec
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

/// Modeled spans of a trace, with the host-meta annotation and the
/// wall-clock host phase spans filtered out.
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

/// Replays the scheduler's recovery-overhead arithmetic from the
/// plan and the fault-free per-batch reports, in the same float-op
/// order (batch by batch), so the expectation is bit-exact.
fn expected_recovery_seconds(
    plan: &FaultPlan,
    clean: &PipelineOutput,
    spec: &IpuSpec,
) -> (f64, u64) {
    let nb = clean.report.batch_reports.len();
    let stall_of = |b: u32, a: u32| {
        plan.stalls
            .iter()
            .filter(|s| s.batch == b && s.attempt == a)
            .map(|s| s.extra_seconds)
            .sum::<f64>()
    };
    let mut acc = 0.0f64;
    let mut extra_bytes = 0u64;
    for b in 0..nb as u32 {
        let report = &clean.report.batch_reports[b as usize];
        let failures = plan
            .transients
            .iter()
            .filter(|t| t.batch == b)
            .map(|t| t.failures)
            .sum::<u32>();
        for j in 1..=failures {
            let transfer =
                report.host_bytes as f64 / spec.host_link_bytes_per_s + stall_of(b, j - 1);
            acc += transfer + report.device_seconds() + plan.backoff.delay(j);
            extra_bytes += report.host_bytes;
        }
        // The successful attempt is attempt `failures`; a stall
        // scheduled there inflates its transfer.
        let stall = stall_of(b, failures);
        if stall > 0.0 {
            acc += stall;
        }
    }
    (acc, extra_bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn recoverable_chaos_is_bit_identical_to_fault_free(
        n in 12usize..20,
        wseed in 0u64..1_000,
        fseed in 0u64..1_000,
        err_pct in 0u64..9,
        devices in 2usize..4,
    ) {
        let w = workload(n, wseed, err_pct);
        let sc = MatchMismatch::dna_default();
        let spec = small_spec();
        let clean =
            run_pipeline_reference(&w, &sc, &spec, &config(1, devices)).expect("clean");
        let nb = clean.batches.len();
        // min_batches(4) and devices < 4 guarantee nb >= devices, so
        // every dead-on-arrival device is observed (and counted)
        // before the run completes.
        prop_assert!(nb >= devices);
        // Aggressive but recoverable-by-construction chaos: deaths at
        // t = 0 keep the lost-device and requeue counters exactly
        // predictable; transients stay within the retry cap.
        let plan = FaultPlan::from_seed(fseed, &FaultPlanSpec {
            death_rate: 0.4,
            immediate_deaths: true,
            transient_rate: 0.3,
            stall_rate: 0.2,
            max_stall_seconds: 0.005,
            ..FaultPlanSpec::new(devices, nb)
        });
        prop_assert!(plan.is_recoverable(devices));
        let (expected_recovery, extra_bytes) = expected_recovery_seconds(&plan, &clean, &spec);
        let dead: Vec<u32> = plan.deaths.iter().map(|d| d.device).collect();

        // The faulty reference is the oracle for the modeled
        // timeline under this plan (modeled spans; the meta record
        // tracks the resolved pool size).
        let oracle = run_pipeline_reference_faulty(&w, &sc, &spec, &config(1, devices), &plan)
            .expect("recoverable plan must complete");
        for threads in [1usize, 4, 8] {
            let out = run_pipeline_faulty(&w, &sc, &spec, &config(threads, devices), &plan)
                .expect("recoverable plan must complete");
            // Headline claim: everything the workload computes is
            // bit-identical to the fault-free run.
            prop_assert_eq!(&out.exec.units, &clean.exec.units, "t={}", threads);
            prop_assert_eq!(&out.exec.results, &clean.exec.results, "t={}", threads);
            prop_assert_eq!(&out.batches, &clean.batches, "t={}", threads);
            prop_assert_eq!(
                &out.report.batch_reports, &clean.report.batch_reports,
                "t={}", threads
            );
            // Recovery counters exact against the injected plan.
            prop_assert_eq!(out.report.retries, plan.expected_retries(nb));
            prop_assert_eq!(out.report.requeues, 0u64, "immediate deaths never bind");
            prop_assert_eq!(
                out.report.devices_lost,
                plan.distinct_dead_devices(devices) as u64
            );
            prop_assert_eq!(
                out.report.recovery_seconds.to_bits(),
                expected_recovery.to_bits(),
                "recovery {} vs expected {}",
                out.report.recovery_seconds, expected_recovery
            );
            prop_assert_eq!(
                out.report.host_bytes,
                clean.report.host_bytes + extra_bytes
            );
            // Assignment invariants after recovery: a device dead at
            // t = 0 never fetches or computes anything, and the fault
            // track records each retirement once.
            let tr = out.trace.as_ref().expect("trace requested");
            for &d in &dead {
                prop_assert!(
                    !tr.traceEvents.iter().any(|e| {
                        e.pid == d + 1 && (e.cat == "fetch" || e.cat == "compute")
                    }),
                    "dead device {} was assigned work", d
                );
            }
            let deaths = tr
                .events_in("fault")
                .filter(|e| e.name.starts_with("death"))
                .count() as u64;
            prop_assert_eq!(deaths, out.report.devices_lost);
            // Bit-identical to the faulty reference at every thread
            // count.
            prop_assert_eq!(&out.report, &oracle.report, "t={}", threads);
            prop_assert_eq!(spans(&out.trace), spans(&oracle.trace), "t={}", threads);
        }
    }

    #[test]
    fn unrecoverable_plans_blame_the_smallest_batch(
        n in 12usize..18,
        wseed in 0u64..1_000,
        excess in 1u32..3,
        offset in 0u32..4,
    ) {
        let w = workload(n, wseed, 5);
        let sc = MatchMismatch::dna_default();
        let spec = small_spec();
        let devices = 2;
        let clean =
            run_pipeline_reference(&w, &sc, &spec, &config(1, devices)).expect("clean");
        let nb = clean.batches.len() as u32;
        prop_assert!(nb > offset);
        // Two batches exceed the cap; the smaller index must be the
        // one blamed, with exactly cap + 1 consumed attempts.
        let mut plan = FaultPlan::none();
        plan.max_retries = 1;
        plan.backoff = BackoffConfig::default();
        plan.transients = vec![
            TransientFault { batch: nb - 1, failures: plan.max_retries + excess },
            TransientFault { batch: offset, failures: plan.max_retries + 1 },
        ];
        prop_assert!(!plan.is_recoverable(devices));
        let blamed = plan.first_unrecoverable_batch(nb as usize).expect("unrecoverable");
        let want = PipelineError::Cluster(ClusterError::RetriesExhausted {
            batch: blamed,
            attempts: plan.max_retries + 1,
        });
        let err = run_pipeline_reference_faulty(&w, &sc, &spec, &config(1, devices), &plan)
            .expect_err("plan exceeds the retry cap");
        prop_assert_eq!(&err, &want, "reference");
        for threads in [1usize, 4, 8] {
            let err = run_pipeline_faulty(&w, &sc, &spec, &config(threads, devices), &plan)
                .expect_err("plan exceeds the retry cap");
            prop_assert_eq!(&err, &want, "t={}", threads);
        }
        // Killing every device at t = 0 is the other terminal state:
        // batch 0 is the smallest batch left unservable.
        let doomed = FaultPlan {
            deaths: (0..devices as u32)
                .map(|d| xdrop_ipu::sim::fault::DeviceDeath { device: d, at_seconds: 0.0 })
                .collect(),
            ..FaultPlan::none()
        };
        prop_assert!(!doomed.is_recoverable(devices));
        for threads in [1usize, 8] {
            let err = run_pipeline_faulty(&w, &sc, &spec, &config(threads, devices), &doomed)
                .expect_err("no devices");
            prop_assert_eq!(
                err,
                PipelineError::Cluster(ClusterError::AllDevicesLost { batch: 0 }),
                "t={}", threads
            );
        }
    }
}
