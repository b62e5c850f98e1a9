//! Property-based equivalence and invariant tests for the X-Drop
//! kernels.
//!
//! The central claim of the paper's Algorithm 1 is that the
//! two-antidiagonal, band-restricted kernel computes *exactly* the
//! same alignment as the classical three-antidiagonal formulation —
//! in less memory. These properties check that claim on randomized
//! inputs, plus the invariants the rest of the stack relies on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_core::extension::{extend_seed, SeedMatch};
use xdrop_core::reference::{extend_full, xdrop_full_matrix};
use xdrop_core::scoring::{Blosum62, MatchMismatch};
use xdrop_core::xdrop2::{self, BandPolicy};
use xdrop_core::{xdrop3, XDropParams};

fn dna_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

/// A pair of related sequences: a root plus mutations, so that the
/// interesting (partially-aligning) region of the parameter space is
/// actually exercised rather than just random noise.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna_seq(120), any::<u64>(), 0.0f64..0.4).prop_map(|(root, seed, err)| {
        let mut rng = StdRng::seed_from_u64(seed);
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
        (root, other)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// xdrop3 must agree with the full-matrix specification on
    /// result *and* work accounting.
    #[test]
    fn xdrop3_matches_full_matrix((h, v) in related_pair(), x in 0i32..60) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let a = xdrop_full_matrix(&h, &v, &sc, p);
        let b = xdrop3::align(&h, &v, &sc, p);
        prop_assert_eq!(a.result, b.result);
        prop_assert_eq!(a.stats.cells_computed, b.stats.cells_computed);
        prop_assert_eq!(a.stats.antidiagonals, b.stats.antidiagonals);
        prop_assert_eq!(a.stats.delta_w, b.stats.delta_w);
        prop_assert_eq!(a.stats.cells_dropped, b.stats.cells_dropped);
    }

    /// The memory-restricted kernel (with a sufficient band) is
    /// exactly equivalent to xdrop3.
    #[test]
    fn xdrop2_matches_xdrop3((h, v) in related_pair(), x in 0i32..60, db in 1usize..8) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let a = xdrop3::align(&h, &v, &sc, p);
        let b = xdrop2::align(&h, &v, &sc, p, BandPolicy::Grow(db)).unwrap();
        prop_assert_eq!(a.result, b.result);
        prop_assert_eq!(a.stats.cells_computed, b.stats.cells_computed);
        prop_assert_eq!(a.stats.delta_w, b.stats.delta_w);
        prop_assert_eq!(a.stats.cells_dropped, b.stats.cells_dropped);
    }

    /// Exact band policy: δ_b = δ_w + 1 always suffices, and then the
    /// result equals the unrestricted one.
    #[test]
    fn exact_band_at_delta_w_plus_one((h, v) in related_pair(), x in 0i32..60) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let probe = xdrop3::align(&h, &v, &sc, p);
        let exact = xdrop2::align(&h, &v, &sc, p, BandPolicy::Exact(probe.stats.delta_w + 1))
            .unwrap();
        prop_assert_eq!(probe.result, exact.result);
    }

    /// With an unbounded X, X-Drop equals the full semi-global
    /// extension computed by an entirely independent row-wise DP.
    #[test]
    fn unbounded_x_equals_full_extension((h, v) in related_pair()) {
        let sc = MatchMismatch::dna_default();
        let full = extend_full(&h, &v, &sc);
        let xd = xdrop3::align(&h, &v, &sc, XDropParams::unbounded());
        prop_assert_eq!(full.result.best_score, xd.result.best_score);
        prop_assert_eq!(full.result.end_h, xd.result.end_h);
        prop_assert_eq!(full.result.end_v, xd.result.end_v);
    }

    /// Pruning can only lose score, never invent it; and the score is
    /// monotone non-decreasing in X.
    #[test]
    fn score_monotone_in_x((h, v) in related_pair(), x in 0i32..40) {
        let sc = MatchMismatch::dna_default();
        let small = xdrop3::align(&h, &v, &sc, XDropParams::new(x));
        let large = xdrop3::align(&h, &v, &sc, XDropParams::new(x + 10));
        let full = extend_full(&h, &v, &sc);
        prop_assert!(small.result.best_score <= large.result.best_score);
        prop_assert!(large.result.best_score <= full.result.best_score);
        // Work is monotone too.
        prop_assert!(small.stats.cells_computed <= large.stats.cells_computed);
        prop_assert!(small.stats.delta_w <= large.stats.delta_w);
    }

    /// Basic sanity invariants on every output.
    #[test]
    fn output_invariants((h, v) in related_pair(), x in 0i32..60) {
        let sc = MatchMismatch::dna_default();
        let out = xdrop3::align(&h, &v, &sc, XDropParams::new(x));
        // Score at least 0 (empty extension allowed) and at most
        // min(m, n) * match.
        prop_assert!(out.result.best_score >= 0);
        prop_assert!(out.result.best_score <= h.len().min(v.len()) as i32);
        // End position inside the matrix.
        prop_assert!(out.result.end_h <= h.len());
        prop_assert!(out.result.end_v <= v.len());
        // δ_w bounded by δ.
        prop_assert!(out.stats.delta_w <= out.stats.delta);
        // Cells computed bounded by the full matrix (incl. borders).
        prop_assert!(out.stats.cells_computed <= ((h.len() + 1) * (v.len() + 1)) as u64);
    }

    /// Saturate never over-reports relative to exact X-Drop.
    #[test]
    fn saturate_upper_bounded((h, v) in related_pair(), x in 0i32..60, db in 1usize..12) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let exact = xdrop3::align(&h, &v, &sc, p);
        let sat = xdrop2::align(&h, &v, &sc, p, BandPolicy::Saturate(db)).unwrap();
        prop_assert!(sat.result.best_score <= exact.result.best_score);
    }

    /// Seed extension: score decomposes into left + seed + right, and
    /// the spans contain the seed.
    #[test]
    fn extension_decomposition(
        (h, v) in related_pair(),
        hp in 0usize..40,
        vp in 0usize..40,
        k in 1usize..12,
        x in 0i32..40,
    ) {
        let sc = MatchMismatch::dna_default();
        prop_assume!(hp + k <= h.len() && vp + k <= v.len());
        let seed = SeedMatch::new(hp, vp, k);
        let out = extend_seed(&h, &v, seed, &sc, XDropParams::new(x), BandPolicy::Grow(4))
            .unwrap();
        prop_assert_eq!(
            out.score,
            out.left.result.best_score + out.seed_score + out.right.result.best_score
        );
        prop_assert!(out.h_span.0 <= hp && out.h_span.1 >= hp + k);
        prop_assert!(out.v_span.0 <= vp && out.v_span.1 >= vp + k);
        prop_assert!(out.h_span.1 <= h.len());
        prop_assert!(out.v_span.1 <= v.len());
    }

    /// Protein alignment with BLOSUM62 obeys the same equivalences.
    #[test]
    fn protein_equivalence(root in prop::collection::vec(0u8..20, 0..80), x in 0i32..60) {
        let sc = Blosum62::pastis_default();
        // Mutate a copy.
        let mut rng = StdRng::seed_from_u64(root.len() as u64 * 7 + x as u64);
        let v: Vec<u8> = root
            .iter()
            .map(|&b| if rng.gen_bool(0.15) { rng.gen_range(0..20) } else { b })
            .collect();
        let p = XDropParams::new(x);
        let a = xdrop_full_matrix(&root, &v, &sc, p);
        let b = xdrop3::align(&root, &v, &sc, p);
        let c = xdrop2::align(&root, &v, &sc, p, BandPolicy::Grow(4)).unwrap();
        prop_assert_eq!(a.result, b.result);
        prop_assert_eq!(b.result, c.result);
    }

    /// The self-alignment of any sequence scores the sum of
    /// self-similarities and ends at the corner (for reasonable X).
    #[test]
    fn self_alignment_is_perfect(s in dna_seq(100)) {
        let sc = MatchMismatch::dna_default();
        let out = xdrop2::align(&s, &s, &sc, XDropParams::new(10), BandPolicy::Grow(4)).unwrap();
        prop_assert_eq!(out.result.best_score, s.len() as i32);
        prop_assert_eq!(out.result.end_h, s.len());
        prop_assert_eq!(out.result.end_v, s.len());
    }
}

/// Deterministic regression corpus: a fixed RNG generates mutated
/// pairs at several error rates; all three kernels must agree on all
/// of them. (Complements proptest with stable coverage.)
#[test]
fn regression_corpus_all_kernels_agree() {
    let sc = MatchMismatch::dna_default();
    let mut rng = StdRng::seed_from_u64(0xD0E5);
    for case in 0..60 {
        let len = rng.gen_range(1..300);
        let err: f64 = rng.gen_range(0.0..0.5);
        let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
        let mut v = Vec::with_capacity(len);
        for &b in &h {
            if rng.gen_bool(err) {
                match rng.gen_range(0..3) {
                    0 => v.push(rng.gen_range(0..4)),
                    1 => {
                        v.push(rng.gen_range(0..4));
                        v.push(b);
                    }
                    _ => {}
                }
            } else {
                v.push(b);
            }
        }
        for x in [0, 3, 7, 15, 31, 101] {
            let p = XDropParams::new(x);
            let a = xdrop_full_matrix(&h, &v, &sc, p);
            let b = xdrop3::align(&h, &v, &sc, p);
            let c = xdrop2::align(&h, &v, &sc, p, BandPolicy::Grow(2)).unwrap();
            assert_eq!(a.result, b.result, "case {case} x {x}");
            assert_eq!(b.result, c.result, "case {case} x {x}");
            assert_eq!(
                a.stats.cells_computed, c.stats.cells_computed,
                "case {case} x {x}"
            );
        }
    }
}
