//! Differential bit-identity proptest for the batched inter-sequence
//! kernel.
//!
//! `batched::align_batch` packs many independent comparisons into
//! `i16` SIMD lanes; its contract is that every lane's outcome is
//! byte-identical to running that comparison alone through the scalar
//! `i32` reference on a fresh workspace — the same score and end
//! position, every [`AlignStats`](xdrop_ipu::core::stats::AlignStats)
//! field, and, under `BandPolicy::Exact`, the same error. These
//! properties drive the batch entry point over random batches of
//! mixed-length related pairs (sizes 1..64) across all band policies
//! and extension directions, for arbitrary lane counts, plus batches
//! with lanes forced through the `i16`-overflow rerun path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::batched::{
    align_batch, align_batch_with_backend, align_batch_with_lanes, BatchTask, SweepBackend,
    TaskView,
};
use xdrop_ipu::core::kernel::{self, KernelKind};
use xdrop_ipu::core::scoring::MatchMismatch;
use xdrop_ipu::core::seqview::{Fwd, Rev};
use xdrop_ipu::core::stats::AlignOutput;
use xdrop_ipu::core::xdrop2::{self, BandPolicy, Workspace};
use xdrop_ipu::core::{Result, XDropParams};

/// One comparison of a batch: a root, a mutated relative, and the
/// direction each side is traversed in.
#[derive(Debug, Clone)]
struct TaskSpec {
    h: Vec<u8>,
    v: Vec<u8>,
    h_rev: bool,
    v_rev: bool,
}

impl TaskSpec {
    fn task(&self) -> BatchTask<'_> {
        let h = if self.h_rev {
            TaskView::Rev(&self.h)
        } else {
            TaskView::Fwd(&self.h)
        };
        let v = if self.v_rev {
            TaskView::Rev(&self.v)
        } else {
            TaskView::Fwd(&self.v)
        };
        BatchTask { h, v }
    }

    /// The scalar `i32` reference on a fresh workspace — the oracle
    /// every batched lane is pinned to.
    fn scalar(&self, params: XDropParams, policy: BandPolicy) -> Result<AlignOutput> {
        let sc = MatchMismatch::dna_default();
        let mut ws = Workspace::<i32>::new();
        match (self.h_rev, self.v_rev) {
            (false, false) => {
                xdrop2::align_views_ty(&Fwd(&self.h), &Fwd(&self.v), &sc, params, policy, &mut ws)
            }
            (false, true) => {
                xdrop2::align_views_ty(&Fwd(&self.h), &Rev(&self.v), &sc, params, policy, &mut ws)
            }
            (true, false) => {
                xdrop2::align_views_ty(&Rev(&self.h), &Fwd(&self.v), &sc, params, policy, &mut ws)
            }
            (true, true) => {
                xdrop2::align_views_ty(&Rev(&self.h), &Rev(&self.v), &sc, params, policy, &mut ws)
            }
        }
    }
}

/// A batch of 1..64 comparisons with deliberately dispersed lengths
/// (each task draws its own length cap), so lane groups mix long and
/// short sequences and lanes retire at different rounds.
fn task_batch() -> impl Strategy<Value = Vec<TaskSpec>> {
    let one = (
        any::<u64>(),
        1usize..200,
        0.0f64..0.4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(seed, max_len, err, h_rev, v_rev)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let root: Vec<u8> = (0..rng.gen_range(0..max_len))
                .map(|_| rng.gen_range(0..4))
                .collect();
            let mut other = Vec::with_capacity(root.len() + 8);
            for &b in &root {
                let r: f64 = rng.gen();
                if r < err * 0.6 {
                    other.push(rng.gen_range(0..4)); // substitution
                } else if r < err * 0.8 {
                    // insertion
                    other.push(rng.gen_range(0..4));
                    other.push(b);
                } else if r < err {
                    // deletion: skip
                } else {
                    other.push(b);
                }
            }
            TaskSpec {
                h: root,
                v: other,
                h_rev,
                v_rev,
            }
        });
    prop::collection::vec(one, 1..64)
}

/// Asserts one lane's batched outcome bit-matches its scalar oracle —
/// result, then every `AlignStats` field by name, then errors.
fn assert_lane_identical(
    t: usize,
    policy: BandPolicy,
    want: &Result<AlignOutput>,
    got: &Result<AlignOutput>,
) -> std::result::Result<(), TestCaseError> {
    match (want, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.result, b.result, "result lane={} {:?}", t, policy);
            let (s, g) = (&a.stats, &b.stats);
            prop_assert_eq!(s.cells_computed, g.cells_computed, "cells lane={}", t);
            prop_assert_eq!(s.antidiagonals, g.antidiagonals, "antidiagonals lane={}", t);
            prop_assert_eq!(s.delta_w, g.delta_w, "delta_w lane={}", t);
            prop_assert_eq!(s.delta, g.delta, "delta lane={}", t);
            prop_assert_eq!(s.work_bytes, g.work_bytes, "work_bytes lane={}", t);
            prop_assert_eq!(s.cells_dropped, g.cells_dropped, "dropped lane={}", t);
            prop_assert_eq!(s.cells_clipped, g.cells_clipped, "clipped lane={}", t);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error lane={} {:?}", t, policy),
        _ => prop_assert!(
            false,
            "outcome mismatch lane={} {:?}: {:?} vs {:?}",
            t,
            policy,
            want,
            got
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: every lane of a mixed-length batch is
    /// bit-identical to its scalar reference, for every band policy
    /// (Exact errors included), any lane count, all four direction
    /// combinations, and every fused-sweep register backend the host
    /// supports (the backends must also be bit-identical to each
    /// other, which the shared oracle transitively enforces).
    #[test]
    fn batched_lanes_bit_match_scalar(
        batch in task_batch(),
        x in 0i32..60,
        db in 1usize..24,
        lanes in 1usize..33,
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let tasks: Vec<BatchTask<'_>> = batch.iter().map(TaskSpec::task).collect();
        for policy in [
            BandPolicy::Grow(db),
            BandPolicy::Exact(db),      // may legitimately error
            BandPolicy::Saturate(db),   // exercises the clipping path
        ] {
            let mut reference: Option<Vec<Result<AlignOutput>>> = None;
            for &backend in &SweepBackend::supported() {
                let (got, report) =
                    align_batch_with_backend(&tasks, &sc, p, policy, lanes, backend);
                prop_assert_eq!(got.len(), tasks.len());
                prop_assert_eq!(report.lanes, lanes.max(1));
                prop_assert_eq!(report.fallbacks, 0);
                prop_assert_eq!(
                    report.sweep_backend, backend,
                    "a supported backend must run unclamped"
                );
                match &reference {
                    None => {
                        // Oracle-check the narrowest backend's lanes;
                        // wider backends are then held to byte
                        // equality with it.
                        for (t, spec) in batch.iter().enumerate() {
                            assert_lane_identical(t, policy, &spec.scalar(p, policy), &got[t])?;
                        }
                        reference = Some(got);
                    }
                    Some(reference) => prop_assert_eq!(
                        reference, &got,
                        "backend {:?} diverged from {:?}", backend, policy
                    ),
                }
            }
        }
    }

    /// Mid-flight refill is invisible in the results: batches built
    /// to churn the lane slots — a spread of short early-terminating
    /// tasks (high divergence, tight x), plus an optional forced
    /// `i16`-overflow lane leaving through the rerun path — are
    /// bit-identical to the scalar reference and across lane widths
    /// {8, 16, 32} × every supported register backend, for every band
    /// policy.
    #[test]
    fn midflight_refill_is_bit_identical(
        batch in task_batch(),
        x in 0i32..12,
        db in 1usize..16,
        force_overflow in any::<bool>(),
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let mut batch = batch;
        if force_overflow {
            // An all-match pair past the i16 domain: this lane leaves
            // its slot through the overflow rerun, so refill also
            // covers slots vacated by non-terminal exits.
            let long: Vec<u8> = (0..34_000).map(|i| (i % 4) as u8).collect();
            batch.insert(batch.len() / 2, TaskSpec {
                h: long.clone(),
                v: long,
                h_rev: false,
                v_rev: false,
            });
        }
        let tasks: Vec<BatchTask<'_>> = batch.iter().map(TaskSpec::task).collect();
        for policy in [
            BandPolicy::Grow(db),
            BandPolicy::Exact(db),
            BandPolicy::Saturate(db),
        ] {
            let mut previous: Option<Vec<Result<AlignOutput>>> = None;
            for lanes in [8usize, 16, 32] {
                let mut first: Option<Vec<Result<AlignOutput>>> = None;
                for &backend in &SweepBackend::supported() {
                    let (got, report) =
                        align_batch_with_backend(&tasks, &sc, p, policy, lanes, backend);
                    prop_assert_eq!(report.sweep_backend, backend);
                    if force_overflow && policy == BandPolicy::Grow(db) {
                        prop_assert!(report.reruns >= 1, "forced lane must rerun");
                    }
                    match &first {
                        None => {
                            // Oracle-check the narrowest backend once
                            // per lane width; wider backends are then
                            // held to byte equality with it.
                            for (t, spec) in batch.iter().enumerate() {
                                assert_lane_identical(t, policy, &spec.scalar(p, policy), &got[t])?;
                            }
                            first = Some(got);
                        }
                        Some(first) => prop_assert_eq!(
                            first, &got,
                            "backend {:?} lanes={} {:?}", backend, lanes, policy
                        ),
                    }
                }
                let got = first.expect("the generic backend always runs");
                if let Some(prev) = &previous {
                    prop_assert_eq!(prev, &got, "lane width changed results");
                }
                previous = Some(got);
            }
        }
    }

    /// The hardware-width entry point agrees with the explicit-lane
    /// one: results never depend on the lane count.
    #[test]
    fn lane_count_never_changes_results(
        batch in task_batch(),
        x in 0i32..40,
        db in 1usize..16,
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let tasks: Vec<BatchTask<'_>> = batch.iter().map(TaskSpec::task).collect();
        let policy = BandPolicy::Grow(db);
        let (hw, _) = align_batch(&tasks, &sc, p, policy);
        for lanes in [1usize, 3, 8] {
            let (got, _) = align_batch_with_lanes(&tasks, &sc, p, policy, lanes);
            prop_assert_eq!(&hw, &got, "lanes={}", lanes);
        }
    }

    /// The f32 cell type reaches the batched kernel through the
    /// generic dispatch (where it takes the definitional scalar
    /// fallback) and stays bit-identical.
    #[test]
    fn batched_kernel_dispatch_is_identical_for_f32(
        batch in task_batch(),
        x in 0i32..40,
        db in 1usize..16,
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        for policy in [BandPolicy::Grow(db), BandPolicy::Saturate(db)] {
            for spec in batch.iter().take(4) {
                let mut ws = Workspace::<f32>::new();
                let want = xdrop2::align_views_ty(
                    &Fwd(&spec.h), &Fwd(&spec.v), &sc, p, policy, &mut ws,
                );
                let mut ws = Workspace::<f32>::new();
                let got = kernel::align_views(
                    KernelKind::Batched, &Fwd(&spec.h), &Fwd(&spec.v), &sc, p, policy, &mut ws,
                );
                assert_lane_identical(0, policy, &want, &got)?;
            }
        }
    }
}

/// A batch where one lane's running score is forced through the
/// `i16` guard band (an all-match pair longer than `i16::MAX`) while
/// its lane-group neighbours stay comfortably in range: the
/// overflowed lane is re-run through the scalar path, the report says
/// so, and every lane still bit-matches its oracle.
#[test]
fn forced_overflow_lane_is_rerun_and_still_identical() {
    let sc = MatchMismatch::dna_default();
    let p = XDropParams::new(4);
    let policy = BandPolicy::Grow(4);
    let long: Vec<u8> = (0..40_000).map(|i| (i % 4) as u8).collect();
    let mut batch: Vec<TaskSpec> = (0..7)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i);
            let h: Vec<u8> = (0..120).map(|_| rng.gen_range(0..4)).collect();
            TaskSpec {
                h: h.clone(),
                v: h,
                h_rev: i % 2 == 0,
                v_rev: i % 2 == 0,
            }
        })
        .collect();
    batch.insert(
        3,
        TaskSpec {
            h: long.clone(),
            v: long,
            h_rev: false,
            v_rev: false,
        },
    );
    let tasks: Vec<BatchTask<'_>> = batch.iter().map(TaskSpec::task).collect();
    let (got, report) = align_batch_with_lanes(&tasks, &sc, p, policy, 8);
    assert_eq!(report.reruns, 1, "exactly the long lane overflows");
    assert_eq!(report.fallbacks, 0);
    for (t, spec) in batch.iter().enumerate() {
        let want = spec.scalar(p, policy);
        let (want, got) = (want.unwrap(), got[t].clone().unwrap());
        assert_eq!(want.result, got.result, "lane {t}");
        assert_eq!(want.stats, got.stats, "lane {t}");
        if t == 3 {
            assert!(
                want.result.best_score > i16::MAX as i32,
                "the forced lane must actually exceed the i16 domain, got {}",
                want.result.best_score
            );
        }
    }
}

/// Masked-tail coverage for the register sweeps: `Saturate(w)` on
/// identical sequences with an effectively unbounded X pins the
/// steady row width to exactly `w` cells, so each width below
/// exercises a specific tail shape — one lone cell, one short of a
/// register (7/15/31), an exact register multiple (8/16/32/64), and
/// one past it (9/17/33). Every supported backend must bit-match the
/// scalar oracle at each width (the AVX-512 sweep has no scalar
/// epilogue at all; a wrong tail mask corrupts the pitch pads and
/// shows up here as a score or stats divergence).
#[test]
fn masked_tail_row_widths_are_bit_identical_per_backend() {
    let sc = MatchMismatch::dna_default();
    let p = XDropParams::new(100_000);
    let mut rng = StdRng::seed_from_u64(97);
    let batch: Vec<TaskSpec> = (0..6)
        .map(|_| {
            let h: Vec<u8> = (0..200).map(|_| rng.gen_range(0..4)).collect();
            TaskSpec {
                h: h.clone(),
                v: h,
                h_rev: false,
                v_rev: false,
            }
        })
        .collect();
    let tasks: Vec<BatchTask<'_>> = batch.iter().map(TaskSpec::task).collect();
    for w in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64] {
        let policy = BandPolicy::Saturate(w);
        for &backend in &SweepBackend::supported() {
            let (got, report) = align_batch_with_backend(&tasks, &sc, p, policy, 8, backend);
            assert_eq!(report.sweep_backend, backend);
            assert_eq!(report.fallbacks, 0);
            for (t, spec) in batch.iter().enumerate() {
                let want = spec.scalar(p, policy).expect("oracle aligns");
                let got = got[t].clone().expect("lane aligns");
                assert_eq!(
                    want.result, got.result,
                    "width {w} backend {backend:?} lane {t}"
                );
                assert_eq!(
                    want.stats, got.stats,
                    "width {w} backend {backend:?} lane {t}"
                );
            }
        }
    }
}
