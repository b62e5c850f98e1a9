//! Differential property tests of the windowed out-of-core path
//! against the whole-input oracle.
//!
//! The contract under test (DESIGN.md §13): for *any* window size —
//! including 1 and windows larger than the dataset — and any host
//! thread count, the skeleton-planned batches equal the in-core plan,
//! and the full windowed pipeline reconstructs every unit, result and
//! [`ClusterReport`] field bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::workload::{Comparison, Workload};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_partition::plan::PlanConfig;
use xdrop_partition::{run_pipeline, run_pipeline_out_of_core, windows_of, PipelineConfig};

/// Host thread counts the determinism contract is quantified over.
const THREADS: [usize; 3] = [1, 4, 8];

/// Random *alignable* workload: mutation clusters compared all-pairs
/// with a shared exact seed, so the execution phase does real X-Drop
/// work on every comparison.
fn alignable_workload(seed: u64, groups: usize, size: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Workload::new(Alphabet::Dna);
    for _ in 0..groups {
        let base = w.seqs.len() as u32;
        let len = rng.gen_range(120..260);
        let pos = len / 2 - 9;
        let root: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
        for _ in 0..size {
            let mut m = root.clone();
            for b in m.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1) % 4;
                }
            }
            m[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            w.seqs.push(m);
        }
        for i in 0..size as u32 {
            for j in i + 1..size as u32 {
                w.comparisons.push(Comparison::new(
                    base + i,
                    base + j,
                    SeedMatch::new(pos, pos, 17),
                ));
            }
        }
    }
    w
}

fn skeleton_of(w: &Workload) -> Workload {
    let lens: Vec<u32> = (0..w.seqs.len() as u32)
        .map(|i| w.seqs.seq_len(i) as u32)
        .collect();
    Workload::skeleton(w.seqs.alphabet, lens, w.comparisons.clone())
}

fn pipeline_cfg(threads: usize) -> PipelineConfig {
    let mut c = PipelineConfig::new(15);
    c.exec.policy = BandPolicy::Grow(64);
    c.exec.host_threads = threads;
    c.plan = PlanConfig::partitioned(64).with_min_batches(3);
    c.devices = 3;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full pipeline differential: units, results, batches and every
    /// `ClusterReport` field bit-identical to the in-core oracle for
    /// random window sizes, thread counts and in-flight depths.
    #[test]
    fn windowed_pipeline_matches_in_core_oracle(
        seed in 0u64..1_000,
        groups in 1usize..4,
        size in 2usize..5,
        wsel in 0usize..3,
        wsize in 2usize..12,
        tsel in 0usize..THREADS.len(),
        in_flight in 1usize..4,
    ) {
        let window = [1usize, wsize, usize::MAX][wsel];
        let w = alignable_workload(seed, groups, size);
        let sk = skeleton_of(&w);
        let sc = MatchMismatch::dna_default();
        let spec = ipu_sim::spec::IpuSpec::gc200();
        let oracle = run_pipeline(&w, &sc, &spec, &pipeline_cfg(1)).unwrap();
        let windows = windows_of(&w, window);
        let out = run_pipeline_out_of_core(
            &sk,
            windows.into_iter(),
            &sc,
            &spec,
            &pipeline_cfg(THREADS[tsel]),
            in_flight,
        )
        .unwrap();
        prop_assert_eq!(&out.exec.units, &oracle.exec.units);
        prop_assert_eq!(&out.exec.results, &oracle.exec.results);
        prop_assert_eq!(&out.batches, &oracle.batches);
        prop_assert_eq!(&out.report, &oracle.report);
    }
}

/// The fixed sweep the ISSUE names — window ∈ {1, small, ≥ dataset} ×
/// threads {1, 4, 8} — as a deterministic (non-sampled) matrix, so
/// the exact promised grid runs on every test invocation.
#[test]
fn promised_window_thread_grid_is_bit_identical() {
    let w = alignable_workload(7, 3, 4);
    let sk = skeleton_of(&w);
    let sc = MatchMismatch::dna_default();
    let spec = ipu_sim::spec::IpuSpec::gc200();
    let oracle = run_pipeline(&w, &sc, &spec, &pipeline_cfg(1)).unwrap();
    assert!(w.comparisons.len() > 6, "grid needs a multi-window input");
    for window in [1usize, 5, w.comparisons.len(), usize::MAX] {
        for threads in THREADS {
            let out = run_pipeline_out_of_core(
                &sk,
                windows_of(&w, window).into_iter(),
                &sc,
                &spec,
                &pipeline_cfg(threads),
                2,
            )
            .unwrap();
            let tag = format!("window {window} threads {threads}");
            assert_eq!(out.exec.units, oracle.exec.units, "{tag}");
            assert_eq!(out.exec.results, oracle.exec.results, "{tag}");
            assert_eq!(out.batches, oracle.batches, "{tag}");
            assert_eq!(out.report, oracle.report, "{tag}");
        }
    }
}
