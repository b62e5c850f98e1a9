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
