//! The cross-backend differential scenario matrix.
//!
//! The `Aligner` facade makes every backend pair a differential
//! oracle for every other. This suite pins that down in three layers:
//!
//! 1. **Cell accounting** — every (AlignerKind × KernelKind ×
//!    ScoreKind) cell of the request grid is either smoke-run or
//!    explicitly skipped with a typed `InvalidConfig` reason, and the
//!    totals are asserted so a refactor that silently drops a
//!    backend/kernel combination fails loudly.
//! 2. **Differential properties** — score-identical pairs (xdrop2 ≡
//!    xdrop3, f32 ≡ i32, env ≡ programmatic) are pinned bit-equal by
//!    proptest; score-compatible pairs (logan ≤ exact, affine-linear
//!    ≡ xdrop3 under generous X) by their one-sided/conditional laws.
//! 3. **Metamorphic properties** — reverse-complement symmetry,
//!    query/target swap symmetry, and score-unit scaling invariance
//!    hold across all backends at once (with explicitly accounted
//!    exclusions where an engine's model makes the property
//!    inapplicable).
//!
//! Comparability classes are documented in DESIGN.md §15.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::affine::AffineGaps;
use xdrop_ipu::core::aligner::{
    logan_band_width, AlignRequest, Aligner, AlignerKind, Direction, ScoreKind,
};
use xdrop_ipu::core::batched::{self, BatchTask, TaskView};
use xdrop_ipu::core::hirschberg::hirschberg;
use xdrop_ipu::core::kernel::KernelKind;
use xdrop_ipu::core::ksw2::{affine_extend_full, Ksw2Params};
use xdrop_ipu::core::reference;
use xdrop_ipu::core::scoring::Blosum62;
use xdrop_ipu::core::xdrop2;
use xdrop_ipu::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn dna_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

/// A root sequence plus a mutated copy, so the matrix exercises the
/// partially-aligning region of the space instead of random noise.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna_seq(100), any::<u64>(), 0.0f64..0.35).prop_map(|(root, seed, err)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut other = Vec::with_capacity(root.len() + 8);
        for &b in &root {
            let r: f64 = rng.gen();
            if r < err * 0.6 {
                other.push(rng.gen_range(0..4));
            } else if r < err * 0.8 {
                other.push(rng.gen_range(0..4));
                other.push(b);
            } else if r < err {
                // deletion
            } else {
                other.push(b);
            }
        }
        (root, other)
    })
}

fn sc() -> MatchMismatch {
    MatchMismatch::dna_default()
}

/// Deterministic fixture pair for the smoke grid: short enough that
/// `BandPolicy::Exact(64)` always suffices, long enough to leave the
/// seed diagonal.
fn fixture_pair() -> (Vec<u8>, Vec<u8>) {
    let h = encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGTACGT");
    let v = encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGAACGT");
    (h, v)
}

// ---------------------------------------------------------------------------
// 1. Cell accounting: the full (engine × kernel × score type) grid
// ---------------------------------------------------------------------------

/// Band policies a cell is smoked under. Only the paper's
/// two-antidiagonal engine takes a caller band policy; every other
/// engine has one intrinsic window (LOGAN's fixed saturating band,
/// xdrop3's `3δ`, ksw2's adaptive z-drop window, Hirschberg's full
/// width), so one representative policy value covers it.
fn policies_for(kind: AlignerKind) -> &'static [BandPolicy] {
    match kind {
        AlignerKind::XDrop2 => &[
            BandPolicy::Grow(8),
            BandPolicy::Exact(64),
            BandPolicy::Saturate(16),
        ],
        _ => &[BandPolicy::Grow(64)],
    }
}

/// Every cell of the request grid is either run or skipped with a
/// typed reason — and the split is exactly the documented one:
/// 36 cells total, 17 runnable, 19 skipped (DESIGN.md §15).
#[test]
fn matrix_covers_every_cell_with_skip_accounting() {
    let (h, v) = fixture_pair();
    let mut aligner = Aligner::new();
    let scorer = sc();
    let mut run_cells = 0usize;
    let mut skipped_cells = 0usize;
    let mut run_subcells = 0usize;
    let mut total_cells = 0usize;
    for kind in AlignerKind::ALL {
        for kernel in KernelKind::ALL {
            for score in ScoreKind::ALL {
                total_cells += 1;
                let cell = format!("{}×{}×{}", kind.name(), kernel.name(), score.name());
                match kind.cell_support(kernel, score) {
                    Err(_) => {
                        // A skipped cell must fail loudly as a typed
                        // config error, never silently fall back.
                        let req = AlignRequest::new(kind, 10).kernel(kernel).score(score);
                        match aligner.align(&h, &v, &scorer, &req) {
                            Err(AlignError::InvalidConfig(_)) => skipped_cells += 1,
                            other => panic!("cell {cell}: expected InvalidConfig, got {other:?}"),
                        }
                    }
                    Ok(()) => {
                        run_cells += 1;
                        for policy in policies_for(kind) {
                            for direction in Direction::ALL {
                                run_subcells += 1;
                                let req = AlignRequest::new(kind, 10)
                                    .kernel(kernel)
                                    .score(score)
                                    .policy(*policy)
                                    .direction(direction);
                                let out =
                                    aligner.align(&h, &v, &scorer, &req).unwrap_or_else(|e| {
                                        panic!("cell {cell} {policy:?} {direction:?}: {e:?}")
                                    });
                                assert!(
                                    out.score() > 0,
                                    "cell {cell} {policy:?} {direction:?}: no score"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // The documented grid: 6 engines × 3 kernels × 2 score types.
    assert_eq!(total_cells, 6 * 3 * 2);
    // XDrop2 + LoganBand run everywhere (2×3×2); XDrop3 is
    // scalar-only but score-generic (2); Affine/Hirschberg/Ksw2 are
    // scalar+i32 only (3).
    assert_eq!(
        run_cells,
        12 + 2 + 3,
        "runnable cells changed — update DESIGN.md §15"
    );
    assert_eq!(skipped_cells, total_cells - run_cells);
    assert_eq!((total_cells, run_cells, skipped_cells), (36, 17, 19));
    // Sub-cell smoke: XDrop2 cells sweep 3 policies × 2 directions,
    // everything else its intrinsic policy × 2 directions.
    assert_eq!(run_subcells, 6 * 6 + 6 * 2 + 2 * 2 + 3 * 2);
    assert_eq!(run_subcells, 58);
}

/// The skip rules and `AlignRequest::validate` agree cell by cell.
#[test]
fn validate_agrees_with_cell_support() {
    for kind in AlignerKind::ALL {
        for kernel in KernelKind::ALL {
            for score in ScoreKind::ALL {
                let req = AlignRequest::new(kind, 10).kernel(kernel).score(score);
                assert_eq!(
                    req.validate().is_ok(),
                    kind.cell_support(kernel, score).is_ok(),
                    "{} × {} × {}",
                    kind.name(),
                    kernel.name(),
                    score.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Differential properties between comparable backends
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Score-identical class: the paper's two-antidiagonal engine and
    /// the classical three-antidiagonal engine are the same pruning
    /// rule in different memory layouts — results AND work statistics
    /// (cells computed, antidiagonals, live band width) match
    /// bit-for-bit under a sufficient band, for every kernel of the
    /// banded core and both score cell types.
    #[test]
    fn xdrop2_and_xdrop3_bit_identical((h, v) in related_pair(), x in 0i32..50) {
        let scorer = sc();
        let mut a = Aligner::new();
        for score in ScoreKind::ALL {
            let r3 = AlignRequest::new(AlignerKind::XDrop3, x)
                .kernel(KernelKind::Scalar)
                .score(score);
            let three = a.align(&h, &v, &scorer, &r3).unwrap();
            for kernel in KernelKind::ALL {
                let r2 = AlignRequest::new(AlignerKind::XDrop2, x)
                    .kernel(kernel)
                    .score(score)
                    .policy(BandPolicy::Grow(8));
                let two = a.align(&h, &v, &scorer, &r2).unwrap();
                prop_assert_eq!(two.output.result, three.output.result,
                    "{:?} {:?}", kernel, score);
                prop_assert_eq!(two.output.stats.cells_computed, three.output.stats.cells_computed);
                prop_assert_eq!(two.output.stats.antidiagonals, three.output.stats.antidiagonals);
                prop_assert_eq!(two.output.stats.delta_w, three.output.stats.delta_w);
                prop_assert_eq!(two.output.stats.cells_dropped, three.output.stats.cells_dropped);
            }
        }
    }

    /// Score-type invariance: the f32 dual-issue cells must produce
    /// exactly the integer results for every engine that defines both.
    #[test]
    fn f32_cells_match_i32_cells((h, v) in related_pair(), x in 0i32..50) {
        let scorer = sc();
        let mut a = Aligner::new();
        for kind in [AlignerKind::XDrop2, AlignerKind::XDrop3, AlignerKind::LoganBand] {
            let base = AlignRequest::new(kind, x).kernel(KernelKind::Scalar);
            let i = a.align(&h, &v, &scorer, &base.score(ScoreKind::I32)).unwrap();
            let f = a.align(&h, &v, &scorer, &base.score(ScoreKind::F32)).unwrap();
            prop_assert_eq!(i.output.result, f.output.result, "{}", kind.name());
            prop_assert_eq!(i.output.stats, f.output.stats, "{}", kind.name());
        }
    }

    /// Score-compatible class, one-sided law: LOGAN's fixed
    /// saturating window can clip score but never invent it — and
    /// when the window dominates the live band it is exact.
    #[test]
    fn logan_band_bounded_by_exact((h, v) in related_pair(), x in 0i32..50) {
        let scorer = sc();
        let mut a = Aligner::new();
        let exact = a.align(&h, &v, &scorer,
            &AlignRequest::new(AlignerKind::XDrop3, x).kernel(KernelKind::Scalar)).unwrap();
        let logan = a.align(&h, &v, &scorer,
            &AlignRequest::new(AlignerKind::LoganBand, x).kernel(KernelKind::Scalar)).unwrap();
        prop_assert!(logan.score() <= exact.score(),
            "LOGAN {} > exact {}", logan.score(), exact.score());
        if exact.output.stats.delta_w < logan_band_width(x) {
            prop_assert_eq!(logan.output.result, exact.output.result,
                "window {} dominates live band {} but scores differ",
                logan_band_width(x), exact.output.stats.delta_w);
        }
    }

    /// Score-compatible class, conditional law: affine gaps
    /// degenerated to the linear model score exactly like the linear
    /// X-Drop when X is generous enough that the pruning heuristics
    /// cannot diverge.
    #[test]
    fn affine_linear_gaps_match_xdrop3((h, v) in related_pair()) {
        let scorer = sc();
        let mut a = Aligner::new();
        let x = 10_000;
        let exact = a.align(&h, &v, &scorer,
            &AlignRequest::new(AlignerKind::XDrop3, x).kernel(KernelKind::Scalar)).unwrap();
        let affine = a.align(&h, &v, &scorer,
            &AlignRequest::new(AlignerKind::Affine, x)
                .kernel(KernelKind::Scalar)
                .gaps(AffineGaps::linear(scorer.gap()))).unwrap();
        prop_assert_eq!(affine.score(), exact.score());
    }

    /// Model-only class: ksw2 scores in its own scale, so scores are
    /// not comparable — but the biology is. On a pair that aligns
    /// end-to-end under exact X-Drop, ksw2 must also find strong
    /// homology (its match bonus is 2×, its thresholds scale with X).
    #[test]
    fn ksw2_agrees_on_biology((root, seed) in (dna_seq(80), any::<u64>())) {
        prop_assume!(root.len() >= 20);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = root.clone();
        for b in v.iter_mut() {
            if rng.gen_bool(0.03) {
                *b = (*b + 1) % 4;
            }
        }
        let scorer = sc();
        let mut a = Aligner::new();
        let exact = a.align(&root, &v, &scorer,
            &AlignRequest::new(AlignerKind::XDrop3, 50).kernel(KernelKind::Scalar)).unwrap();
        let ksw2 = a.align(&root, &v, &scorer,
            &AlignRequest::new(AlignerKind::Ksw2, 50).kernel(KernelKind::Scalar)).unwrap();
        let min_len = root.len().min(v.len()) as i32;
        if exact.score() > min_len / 2 {
            prop_assert!(ksw2.score() > min_len / 2,
                "xdrop {} but ksw2 {}", exact.score(), ksw2.score());
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Metamorphic properties across all backends at once
// ---------------------------------------------------------------------------

/// DNA complement in code space (A↔T, C↔G). Any byte bijection
/// preserves match/mismatch structure under `MatchMismatch`; the
/// biological complement is the canonical one.
fn revcomp(s: &[u8]) -> Vec<u8> {
    s.iter().rev().map(|&b| 3 - b).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reverse-complement symmetry: extending backwards through the
    /// `op(·)` view transform equals extending forwards over the
    /// reverse-complemented pair — for every engine.
    #[test]
    fn revcomp_symmetry_all_backends((h, v) in related_pair(), x in 0i32..40) {
        let scorer = sc();
        let mut a = Aligner::new();
        let (hrc, vrc) = (revcomp(&h), revcomp(&v));
        for kind in AlignerKind::ALL {
            let base = AlignRequest::new(kind, x).kernel(KernelKind::Scalar);
            let rev = a.align(&h, &v, &scorer, &base.direction(Direction::Reverse)).unwrap();
            let fwd_rc = a.align(&hrc, &vrc, &scorer, &base).unwrap();
            prop_assert_eq!(rev.output.result, fwd_rc.output.result, "{}", kind.name());
        }
    }

    /// Query/target swap symmetry: an antidiagonal-sweep recurrence
    /// is transpose-symmetric, so swapping the sequences transposes
    /// the end point and preserves the score.
    ///
    /// Exclusion, explicitly accounted: `Ksw2` sweeps *rows* of `V`
    /// with an adaptive window over `H` columns (growth right-only),
    /// so its pruning heuristic is tied to an axis — like real ksw2's
    /// banding. The property holds for its pruning-free reference,
    /// which also bounds the windowed engine in both orientations.
    #[test]
    fn swap_symmetry_all_backends((h, v) in related_pair(), x in 0i32..40) {
        const EXACT: [AlignerKind; 5] = [
            AlignerKind::XDrop2,
            AlignerKind::XDrop3,
            AlignerKind::Affine,
            AlignerKind::Hirschberg,
            AlignerKind::LoganBand,
        ];
        assert_eq!(EXACT.len() + 1, AlignerKind::ALL.len());
        let scorer = sc();
        let mut a = Aligner::new();
        for kind in EXACT {
            let req = AlignRequest::new(kind, x).kernel(KernelKind::Scalar);
            let hv = a.align(&h, &v, &scorer, &req).unwrap();
            let vh = a.align(&v, &h, &scorer, &req).unwrap();
            prop_assert_eq!(hv.score(), vh.score(), "{}", kind.name());
            prop_assert_eq!(hv.output.result.end_h, vh.output.result.end_v, "{}", kind.name());
            prop_assert_eq!(hv.output.result.end_v, vh.output.result.end_h, "{}", kind.name());
        }
        // Ksw2: the full-matrix affine reference is transpose-
        // symmetric, and the windowed engine never exceeds it in
        // either orientation.
        let p = Ksw2Params::from_x(x);
        let full_hv = affine_extend_full(&h, &v, &p);
        let full_vh = affine_extend_full(&v, &h, &p);
        prop_assert_eq!(full_hv.best_score, full_vh.best_score);
        prop_assert_eq!(full_hv.end_h, full_vh.end_v);
        let req = AlignRequest::new(AlignerKind::Ksw2, x).kernel(KernelKind::Scalar);
        let win_hv = a.align(&h, &v, &scorer, &req).unwrap();
        let win_vh = a.align(&v, &h, &scorer, &req).unwrap();
        prop_assert!(win_hv.score() <= full_hv.best_score);
        prop_assert!(win_vh.score() <= full_vh.best_score);
    }

    /// Score-unit scaling invariance: multiplying every scoring
    /// constant (match, mismatch, gap, X, affine open/extend) by the
    /// same factor multiplies every score by that factor and changes
    /// no alignment decision.
    ///
    /// Exclusions, explicitly accounted: `LoganBand` (its window
    /// width is a function of X, so scaling X widens the band — the
    /// model intentionally ties geometry to score units) and `Ksw2`
    /// (fixed internal scale; the caller's scorer does not reach it).
    #[test]
    fn score_scaling_invariance((h, v) in related_pair(), x in 0i32..40, c in 2i32..5) {
        const SCALED: [AlignerKind; 4] = [
            AlignerKind::XDrop2,
            AlignerKind::XDrop3,
            AlignerKind::Affine,
            AlignerKind::Hirschberg,
        ];
        const EXCLUDED: [AlignerKind; 2] = [AlignerKind::LoganBand, AlignerKind::Ksw2];
        // Every engine is either scaled or excluded — no cell vanishes.
        assert_eq!(SCALED.len() + EXCLUDED.len(), AlignerKind::ALL.len());
        let base_sc = MatchMismatch::new(1, -1, -1);
        let scaled_sc = MatchMismatch::new(c, -c, -c);
        let mut a = Aligner::new();
        for kind in SCALED {
            let base = a.align(&h, &v, &base_sc,
                &AlignRequest::new(kind, x)
                    .kernel(KernelKind::Scalar)
                    .gaps(AffineGaps::new(-3, -1))).unwrap();
            let scaled = a.align(&h, &v, &scaled_sc,
                &AlignRequest::new(kind, x * c)
                    .kernel(KernelKind::Scalar)
                    .gaps(AffineGaps::new(-3 * c, -c))).unwrap();
            prop_assert_eq!(scaled.score(), c * base.score(), "{}", kind.name());
            prop_assert_eq!(scaled.output.result.end_h, base.output.result.end_h, "{}", kind.name());
            prop_assert_eq!(scaled.output.result.end_v, base.output.result.end_v, "{}", kind.name());
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite: Hirschberg traceback vs a full-matrix CIGAR oracle
// ---------------------------------------------------------------------------

/// Checks an alignment's operation path is valid for (h, v): consumes
/// exactly the sequences and re-scores to its claimed score.
fn check_ops(aln: &reference::Alignment, h: &[u8], v: &[u8], scorer: &MatchMismatch) {
    let (mut i, mut j, mut score) = (0usize, 0usize, 0i32);
    for op in &aln.ops {
        match op {
            reference::AlignOp::Subst => {
                score += scorer.sim(h[i], v[j]);
                i += 1;
                j += 1;
            }
            reference::AlignOp::InsertH => {
                score += scorer.gap();
                i += 1;
            }
            reference::AlignOp::InsertV => {
                score += scorer.gap();
                j += 1;
            }
        }
    }
    assert_eq!(
        (i, j),
        (h.len(), v.len()),
        "ops must consume both sequences"
    );
    assert_eq!(score, aln.score, "ops must re-score to the claimed score");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Hirschberg's linear-space traceback against the quadratic
    /// full-matrix oracle: identical global score, a valid operation
    /// path re-scoring to it, and an oracle-equal CIGAR wherever the
    /// optimum is unique enough to compare (score equality is the
    /// invariant; co-optimal paths may differ in op order).
    #[test]
    fn hirschberg_matches_full_matrix_oracle(h in dna_seq(40), v in dna_seq(40)) {
        let scorer = sc();
        let nw = reference::needleman_wunsch(&h, &v, &scorer);
        let hb = hirschberg(&h, &v, &scorer);
        prop_assert_eq!(hb.score, nw.score);
        check_ops(&hb, &h, &v, &scorer);
        check_ops(&nw, &h, &v, &scorer);
        prop_assert_eq!(hb.end, (h.len(), v.len()));
    }

    /// Facade traceback-on-demand produces a valid path over exactly
    /// the extension's aligned region, for every extension engine.
    #[test]
    fn traceback_on_demand_is_valid((h, v) in related_pair(), x in 1i32..40) {
        let scorer = sc();
        let mut a = Aligner::new();
        for kind in [AlignerKind::XDrop2, AlignerKind::XDrop3, AlignerKind::LoganBand] {
            let req = AlignRequest::new(kind, x).kernel(KernelKind::Scalar).traceback(true);
            let out = a.align(&h, &v, &scorer, &req).unwrap();
            let aln = out.alignment.as_ref().expect("traceback requested");
            let (eh, ev) = (out.output.result.end_h, out.output.result.end_v);
            check_ops(aln, &h[..eh], &v[..ev], &scorer);
            prop_assert_eq!(aln.end, (eh, ev));
        }
    }
}

/// Edge cases the proptest generators reach rarely: empty×empty,
/// empty×nonempty, and single-base pairs, against the oracle.
#[test]
fn hirschberg_edge_cases_match_oracle() {
    let scorer = sc();
    let cases: &[(&[u8], &[u8])] = &[
        (b"", b""),
        (b"", b"\x00\x01\x02\x03"),
        (b"\x00\x01\x02\x03", b""),
        (b"\x00", b"\x00"),
        (b"\x00", b"\x01"),
        (b"\x00", b"\x01\x00\x02"),
        (b"\x00\x00\x00\x00", b"\x00"),
    ];
    for (h, v) in cases {
        let nw = reference::needleman_wunsch(h, v, &scorer);
        let hb = hirschberg(h, v, &scorer);
        assert_eq!(hb.score, nw.score, "h={h:?} v={v:?}");
        check_ops(&hb, h, v, &scorer);
        if h.is_empty() || v.is_empty() {
            // Pure-gap paths are unique: CIGARs must match exactly.
            assert_eq!(hb.cigar(), nw.cigar(), "h={h:?} v={v:?}");
        }
    }
    // Substitution-only pair: the all-M path is unique.
    let h = encode_dna(b"ACGTAC");
    let v = encode_dna(b"ACCTAC");
    let hb = hirschberg(&h, &v, &scorer);
    assert_eq!(hb.cigar(), "6M");
    assert_eq!(hb.score, 4); // 5 matches - 1 mismatch
}

// ---------------------------------------------------------------------------
// Satellite: batched-kernel fallback precedence through the facade
// ---------------------------------------------------------------------------

/// An ineligible scorer (BLOSUM62 has no match/mismatch form, so the
/// batched i16 lanes cannot encode it) routed through `XDrop2` +
/// `Batched` must take the per-task scalar fallback — same results,
/// same typed errors as the direct scalar call, with the fallback
/// visible in `BatchReport::fallbacks`.
#[test]
fn batched_fallback_precedence_for_ineligible_scorer() {
    let scorer = Blosum62::new(-2);
    assert!(
        scorer.as_match_mismatch().is_none(),
        "Blosum62 must be batch-ineligible"
    );
    let h = encode_protein(b"MKVLAARST".repeat(4).as_slice());
    let v = encode_protein(b"MKVLEARST".repeat(4).as_slice());
    let mut a = Aligner::new();

    // Success path: facade + Batched ≡ direct scalar, bit for bit.
    let via_facade = a
        .align(
            &h,
            &v,
            &scorer,
            &AlignRequest::new(AlignerKind::XDrop2, 30)
                .kernel(KernelKind::Batched)
                .policy(BandPolicy::Grow(8)),
        )
        .unwrap();
    let direct = xdrop2::align(
        &h,
        &v,
        &scorer,
        XDropParams::new(30).with_kernel(KernelKind::Scalar),
        BandPolicy::Grow(8),
    )
    .unwrap();
    assert_eq!(via_facade.output, direct);

    // Error path: a band too tight for `Exact` must surface the same
    // typed error from the facade's batched route as from the direct
    // scalar call — fallback must not change error precedence.
    let err_facade = a
        .align(
            &h,
            &v,
            &scorer,
            &AlignRequest::new(AlignerKind::XDrop2, 1000)
                .kernel(KernelKind::Batched)
                .policy(BandPolicy::Exact(2)),
        )
        .unwrap_err();
    let err_direct = xdrop2::align(
        &h,
        &v,
        &scorer,
        XDropParams::new(1000).with_kernel(KernelKind::Scalar),
        BandPolicy::Exact(2),
    )
    .unwrap_err();
    assert_eq!(err_facade, err_direct);
    assert!(matches!(err_facade, AlignError::BandExceeded { .. }));

    // And the fallback is observable: a direct batch call with the
    // ineligible scorer reports one fallback per task.
    let tasks = [
        BatchTask {
            h: TaskView::Fwd(&h),
            v: TaskView::Fwd(&v),
        },
        BatchTask {
            h: TaskView::Rev(&h),
            v: TaskView::Rev(&v),
        },
    ];
    let (outs, report) = batched::align_batch(
        &tasks,
        &scorer,
        XDropParams::new(30).with_kernel(KernelKind::Batched),
        BandPolicy::Grow(8),
    );
    assert_eq!(report.fallbacks, tasks.len());
    assert!(outs.iter().all(|o| o.is_ok()));
}

// ---------------------------------------------------------------------------
// Satellite: env knob ≡ programmatic kernel selection (pure half)
// ---------------------------------------------------------------------------

/// The matrix never touches `XDROP_KERNEL`: requests pin kernels
/// programmatically, and the env resolution (read once per process)
/// maps to exactly the same `KernelKind` values the requests use.
/// The end-to-end subprocess check lives in `kernel_identity.rs`.
#[test]
fn env_resolution_maps_onto_request_kernels() {
    use xdrop_ipu::core::kernel;
    for kind in KernelKind::ALL {
        assert_eq!(
            kernel::KernelKind::resolve_env_value(Some(kind.name())),
            kind
        );
        // A request built with this kernel survives a facade
        // round-trip as the same kernel.
        let req = AlignRequest::new(AlignerKind::XDrop2, 10).kernel(kind);
        assert_eq!(req.params().kernel, kind);
    }
    assert_eq!(
        kernel::KernelKind::resolve_env_value(None),
        KernelKind::Simd
    );
}
