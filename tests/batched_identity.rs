//! Differential bit-identity suite for the `i16` fused-sweep kernel.
//!
//! `batched::align_views` runs one pair at a time in `i16` lanes, in
//! the caller's reused workspace; its contract is that every outcome
//! is byte-identical to running that pair through the scalar `i32`
//! reference on a fresh workspace — the same score and end position,
//! every [`AlignStats`](xdrop_ipu::core::stats::AlignStats) field,
//! and, under `BandPolicy::Exact`, the same error. These tests run
//! random lists of mixed-length related pairs (1..64 pairs) across
//! all band policies and extension directions through one reused
//! workspace per sweep backend, as the `Extender` runs them, plus
//! pairs forced through the `i16`-overflow rerun, masked tail widths
//! and the arena's re-pitch boundaries.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::aligner::logan_band_width;
use xdrop_ipu::core::batched::{self, SweepBackend, BURST_ROUNDS};
use xdrop_ipu::core::kernel::{self, KernelKind};
use xdrop_ipu::core::scoring::MatchMismatch;
use xdrop_ipu::core::seqview::{Fwd, Rev};
use xdrop_ipu::core::stats::AlignOutput;
use xdrop_ipu::core::xdrop2::{self, BandPolicy, Workspace};
use xdrop_ipu::core::{Result, XDropParams};

/// One comparison: a root, a mutated relative, and the direction
/// each side is traversed in.
#[derive(Debug, Clone)]
struct TaskSpec {
    h: Vec<u8>,
    v: Vec<u8>,
    h_rev: bool,
    v_rev: bool,
}

impl TaskSpec {
    /// The scalar `i32` reference on a fresh workspace — the oracle
    /// every lane is pinned to.
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

impl TaskSpec {
    /// The one-pair kernel ([`batched::align_views`]) at `backend` in
    /// the caller's workspace `ws`.
    fn one_pair(
        &self,
        params: XDropParams,
        policy: BandPolicy,
        backend: SweepBackend,
        ws: &mut Workspace<i32>,
    ) -> Result<AlignOutput> {
        let sc = MatchMismatch::dna_default();
        let (h, v) = (&self.h[..], &self.v[..]);
        match (self.h_rev, self.v_rev) {
            (false, false) => {
                batched::align_views(&Fwd(h), &Fwd(v), &sc, params, policy, backend, ws)
            }
            (false, true) => {
                batched::align_views(&Fwd(h), &Rev(v), &sc, params, policy, backend, ws)
            }
            (true, false) => {
                batched::align_views(&Rev(h), &Fwd(v), &sc, params, policy, backend, ws)
            }
            (true, true) => {
                batched::align_views(&Rev(h), &Rev(v), &sc, params, policy, backend, ws)
            }
        }
    }
}

/// A list of 1..64 comparisons with deliberately dispersed lengths
/// (each draws its own length cap), so a reused workspace sees long
/// and short pairs, wide and narrow bands, in any order.
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

/// Asserts one pair's lane outcome bit-matches its scalar oracle —
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

    /// Every pair of a mixed-length list, run through one reused
    /// workspace, is bit-identical to its scalar reference, for every
    /// band policy (Exact errors included), all four direction
    /// combinations, and every fused-sweep register backend the host
    /// supports (the backends must also be bit-identical to each
    /// other, which the shared oracle transitively enforces).
    #[test]
    fn batched_lanes_bit_match_scalar(
        batch in task_batch(),
        x in 0i32..60,
        db in 1usize..24,
    ) {
        let p = XDropParams::new(x);
        for policy in [
            BandPolicy::Grow(db),
            BandPolicy::Exact(db),      // may legitimately error
            BandPolicy::Saturate(db),   // exercises the clipping path
        ] {
            let mut reference: Option<Vec<Result<AlignOutput>>> = None;
            for backend in SweepBackend::supported() {
                let mut ws = Workspace::new();
                let got: Vec<_> =
                    batch.iter().map(|t| t.one_pair(p, policy, backend, &mut ws)).collect();
                match &reference {
                    None => {
                        // Oracle-check the narrowest backend; wider
                        // backends are then held to byte equality
                        // with it.
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

    /// The f32 cell type reaches the batched kernel through the
    /// generic dispatch (where it runs the `Simd` kernel, which has
    /// no `i16` mapping to lose) and stays bit-identical.
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

/// A list where one pair's running score is forced through the `i16`
/// guard band (an all-match pair longer than `i16::MAX`) between
/// pairs that stay comfortably in range: the overflowed lane is
/// re-run through the scalar path in the same workspace, and every
/// pair before and after it still bit-matches its oracle.
#[test]
fn forced_overflow_lane_is_rerun_and_still_identical() {
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
    for backend in SweepBackend::supported() {
        let mut ws = Workspace::new();
        for (t, spec) in batch.iter().enumerate() {
            let want = spec.scalar(p, policy).expect("oracle aligns");
            let got = spec
                .one_pair(p, policy, backend, &mut ws)
                .expect("lane aligns");
            assert_eq!(want, got, "pair {t} {backend:?}");
            if t == 3 {
                assert!(
                    want.result.best_score > i16::MAX as i32,
                    "the forced pair must actually exceed the i16 domain, got {}",
                    want.result.best_score
                );
            }
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
    for w in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64] {
        let policy = BandPolicy::Saturate(w);
        for backend in SweepBackend::supported() {
            let mut ws = Workspace::new();
            for (t, spec) in batch.iter().enumerate() {
                let want = spec.scalar(p, policy).expect("oracle aligns");
                let got = spec
                    .one_pair(p, policy, backend, &mut ws)
                    .expect("lane aligns");
                assert_eq!(want, got, "width {w} backend {backend:?} pair {t}");
            }
        }
    }
}

/// A random read of `h_len` symbols and a mutated copy of it (`err`
/// substitution/indel rate).
fn related(rng: &mut StdRng, h_len: usize, err: f64) -> (Vec<u8>, Vec<u8>) {
    let h: Vec<u8> = (0..h_len).map(|_| rng.gen_range(0..4)).collect();
    let mut v = Vec::with_capacity(h_len + 8);
    for &b in &h {
        let r: f64 = rng.gen();
        if r < err * 0.6 {
            v.push((b + 1) % 4);
        } else if r < err * 0.8 {
            v.push(rng.gen_range(0..4));
            v.push(b);
        } else if r >= err {
            v.push(b);
        }
    }
    (h, v)
}

/// Window-edge differential for the one-pair kernel: every case, run
/// through one reused workspace per supported sweep backend, equals
/// the scalar reference on a fresh workspace — result, every stats
/// field, and errors. The cases sit on the edges of the per-burst
/// sequence windows: flank lengths 0, 1, `BURST_ROUNDS − 1`,
/// `BURST_ROUNDS`, `BURST_ROUNDS + 1` and `3 × BURST_ROUNDS` on each
/// side in every direction pairing; seeds at both sequence ends (one
/// side empty, the other the whole read); Grow re-pitches in
/// mid-burst (δ_b ∈ {1, 2} on long identical reads); LOGAN's
/// saturating window; `Exact` band overflow errors; and an `i16`
/// guard-band overflow that forces the rerun in the same workspace.
#[test]
fn one_pair_window_edges_match_the_scalar_reference() {
    let mut rng = StdRng::seed_from_u64(0x3D6E);
    let r = BURST_ROUNDS;
    let flanks = [0, 1, r - 1, r, r + 1, 3 * r];
    let mut cases: Vec<(TaskSpec, XDropParams, BandPolicy)> = Vec::new();
    let spec = |h: &[u8], v: &[u8], h_rev: bool, v_rev: bool| TaskSpec {
        h: h.to_vec(),
        v: v.to_vec(),
        h_rev,
        v_rev,
    };
    for &m in &flanks {
        for &n in &flanks {
            let (h, v) = related(&mut rng, m.max(n), 0.05);
            let (h, v) = (&h[..m], &v[..n.min(v.len())]);
            for (h_rev, v_rev) in [(false, false), (true, true), (false, true), (true, false)] {
                for policy in [
                    BandPolicy::Grow(4),
                    BandPolicy::Exact(3),
                    BandPolicy::Saturate(5),
                ] {
                    cases.push((spec(h, v, h_rev, v_rev), XDropParams::new(20), policy));
                }
            }
        }
    }
    // Seeds at both ends of a read: the left side of a seed at 0 and
    // the right side of a seed at the end are empty, the other side
    // is the whole read (reversed on the left).
    let (h, v) = related(&mut rng, 700, 0.02);
    for rev in [false, true] {
        cases.push((
            spec(&h, &v, rev, rev),
            XDropParams::new(15),
            BandPolicy::Grow(512),
        ));
        cases.push((
            spec(&[], &v, rev, rev),
            XDropParams::new(15),
            BandPolicy::Grow(512),
        ));
        cases.push((
            spec(&h, &[], rev, rev),
            XDropParams::new(15),
            BandPolicy::Grow(512),
        ));
    }
    // Grow re-pitches: a one- or two-cell band on long identical or
    // near-identical reads outgrows the row pitch within a burst,
    // more than once.
    let (h, v) = related(&mut rng, 5 * r + 3, 0.01);
    for db in [1, 2] {
        for x in [4, 30, 200] {
            cases.push((
                spec(&h, &h, false, false),
                XDropParams::new(x),
                BandPolicy::Grow(db),
            ));
            cases.push((
                spec(&h, &v, true, true),
                XDropParams::new(x),
                BandPolicy::Grow(db),
            ));
        }
    }
    // LOGAN's saturating window, and a window small enough to clip.
    let (h, v) = related(&mut rng, 6 * r, 0.08);
    for x in [8, 15, 100_000] {
        let policy = BandPolicy::Saturate(logan_band_width(x));
        cases.push((spec(&h, &v, false, false), XDropParams::new(x), policy));
        cases.push((
            spec(&h, &v, true, true),
            XDropParams::new(x),
            BandPolicy::Saturate(3),
        ));
    }
    // `Exact` overflow errors on divergent reads.
    let (h, v) = related(&mut rng, 4 * r, 0.25);
    for db in [1, 2, 5] {
        cases.push((
            spec(&h, &v, false, false),
            XDropParams::new(25),
            BandPolicy::Exact(db),
        ));
    }
    // An all-match pair past the `i16` domain reruns in `ws`.
    let long: Vec<u8> = (0..34_000).map(|i| (i % 4) as u8).collect();
    let overflow = spec(&long, &long, false, false);
    let (params, policy) = (XDropParams::new(4), BandPolicy::Grow(4));
    let best = overflow
        .scalar(params, policy)
        .expect("aligns")
        .result
        .best_score;
    assert!(
        best > i16::MAX as i32,
        "the rerun case leaves the i16 domain: {best}"
    );
    cases.push((overflow, params, policy));
    cases.push((
        spec(&h, &v, true, false),
        XDropParams::new(25),
        BandPolicy::Grow(8),
    ));

    // Each case runs on a fresh workspace (so a small δ_b re-pitches)
    // and on one reused across all cases (stale rows and windows).
    let mut errors = 0;
    for backend in SweepBackend::supported() {
        let mut reused = Workspace::<i32>::new();
        for (i, (spec, params, policy)) in cases.iter().enumerate() {
            let want = spec.scalar(*params, *policy);
            errors += usize::from(want.is_err());
            for ws in [&mut Workspace::new(), &mut reused] {
                let got = spec.one_pair(*params, *policy, backend, ws);
                assert_eq!(want, got, "case {i} {backend:?} {policy:?} x={}", params.x);
            }
        }
    }
    assert!(errors > 0, "no Exact overflow exercised");
}

/// Pitch-boundary differential for the `unsafe` sweeps. Under
/// `Grow(δ_b)` the arena's row pitch starts at `δ_b + 2`; a row of
/// `δ_b + 1` cells forces the first re-pitch and one of `2·δ_b + 1`
/// the second. With X unbounded nothing is dropped, so an `m × n`
/// pair's widest row is exactly `min(m, n) + 1` cells — each case
/// below pins its widest row to `δ_b`, `δ_b + 1` or `2·δ_b + 1`
/// (checked through the oracle's `delta_w`), at register-sized δ_b
/// and one short of them. Square pairs reach the width once; pairs
/// with one side `2·BURST_ROUNDS` longer hold it across burst starts,
/// where a lane at full band stages the longest sequence windows.
/// Every case runs on a fresh workspace and on one whose pitch an
/// earlier, wider pair left larger, in all four directions; every
/// supported backend must equal both the `Generic` backend and the
/// scalar reference, so a masked tail or window pitch that is off by
/// one shows up as a divergence or a bounds panic.
#[test]
fn pitch_boundaries_are_bit_identical_per_backend() {
    let p = XDropParams::unbounded();
    let mut rng = StdRng::seed_from_u64(0x9_17C4);
    let (wide_h, wide_v) = related(&mut rng, 300, 0.05);
    let wide = TaskSpec {
        h: wide_h,
        v: wide_v,
        h_rev: false,
        v_rev: false,
    };
    let mut random = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4)).collect() };
    for db in [7usize, 8, 15, 16, 31, 32] {
        let policy = BandPolicy::Grow(db);
        for width in [db, db + 1, 2 * db + 1] {
            let (short, long) = (width - 1, width - 1 + 2 * BURST_ROUNDS);
            for (m, n) in [(short, short), (long, short), (short, long)] {
                let (h, v) = (random(m), random(n));
                for (h_rev, v_rev) in [(false, false), (true, true), (false, true), (true, false)] {
                    let spec = TaskSpec {
                        h: h.clone(),
                        v: v.clone(),
                        h_rev,
                        v_rev,
                    };
                    let case = format!("δ_b {db} width {width} {m}×{n} ({h_rev}, {v_rev})");
                    let want = spec.scalar(p, policy);
                    let delta_w = want.as_ref().expect("oracle aligns").stats.delta_w;
                    assert_eq!(delta_w, width, "{case}: the case must reach its width");
                    let generic =
                        spec.one_pair(p, policy, SweepBackend::Generic, &mut Workspace::new());
                    assert_eq!(want, generic, "{case} generic");
                    for backend in SweepBackend::supported() {
                        let mut widened = Workspace::new();
                        wide.one_pair(p, BandPolicy::Grow(64), backend, &mut widened)
                            .expect("wide pair aligns");
                        for (ws, label) in
                            [(&mut Workspace::new(), "fresh"), (&mut widened, "widened")]
                        {
                            let got = spec.one_pair(p, policy, backend, ws);
                            assert_eq!(generic, got, "{case} {backend:?} {label} ws");
                        }
                    }
                }
            }
        }
    }
}
