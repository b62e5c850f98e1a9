//! A literal transcription of the paper's **Algorithm 1** pseudocode,
//! kept as a test-only oracle of [`crate::xdrop2`].
//!
//! [`crate::xdrop2`] implements the same algorithm with cleaner
//! bookkeeping (explicit per-diagonal base indices instead of the
//! paper's `L1_inc`/`L2_inc` offset pair) and production concerns
//! (band policies, workspaces). This module keeps a line-by-line port
//! of the listing as published, both as documentation of the
//! correspondence and as a differential test target:
//! `algorithm1_align` must agree with `xdrop2::align` everywhere.
//!
//! The port is generic over its score [`Cell`]. §4.1.4 of the paper
//! (*dual instruction issuing*) moves the IPU kernel's score
//! arithmetic to the floating-point pipeline, because the integer
//! registers spilled in the inner loop; the host cost model keeps
//! that as `dual_issue_speedup`. Every realistic score is a small
//! integer, exactly representable in `f32`, so float cells must
//! score exactly like integer cells: the proptest below runs the
//! listing with `f32` cells and pins it to the production `i32`
//! kernels.
//!
//! Pseudocode (paper, Algorithm 1), with the line numbers used in
//! the comments below:
//!
//! ```text
//!  1: L, U, T', T, k ← 0
//!  2: L1inc, L2inc ← 0
//!  3: A1, A2 ← {−∞, …, −∞}
//!  4: A1[0] ← 0
//!  5: while L ≤ U + 1, increase k by 1:
//!  6:   W2  ← A2 + (−L + L2inc)            ▷ C-style array offsetting
//!  7:   W1  ← A1 + (−L + L2inc + L1inc)
//!  8:   W1' ← A1 + (−L)
//!  9:   wlast ← W1[L − 1]                   ▷ instead of a third anti-diagonal
//! 10:   for i ∈ (L, …, U + 1):
//! 11:     j ← k − i − 1
//! 12:     wnew ← W1[i]
//! 13:     score ← max{ W2[i] − gap, W2[i−1] − gap,
//!                      wlast + sim(H[op(i)], V[op(j)]) }
//! 14:     wlast ← wnew
//! 15:     if score < T − X: score ← −∞
//! 18:     W1'[i] ← score
//! 19:     T' ← max{T', score}
//! 21:   Lprev ← L
//! 22:   L ← max(k + 1 − N, argmin(W1' ≠ −∞))
//! 23:   U ← min(|H| − 1, argmax(W1' ≠ −∞) + 1)
//! 24:   L1inc ← L − Lprev
//! 25:   T ← T'
//! 26:   swap(A1, A2); swap(L1inc, L2inc)
//! ```
//!
//! Reading notes used for this port (the listing is a sketch; these
//! are the interpretations that make it equivalent to the
//! antidiagonal X-Drop it cites): `A1` holds antidiagonal `k − 2`
//! (being overwritten in place with `k`), `A2` holds `k − 1`; the
//! windows `W…` re-base the physical buffers so that logical index
//! `i` (a cell's position along the antidiagonal) addresses the
//! right slot after the band's lower bound moved; `wlast` carries
//! the pre-overwrite value of `W1'[i − 1]`, i.e. the `k − 2` cell
//! one step back, exactly the value a third antidiagonal would have
//! provided.

use crate::scoring::Scorer;
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{XDropParams, NEG_INF};

/// A DP score cell: `i32` (the integer pipeline, what production
/// runs) or `f32` (the paper's dual-issue floating-point pipeline).
trait Cell: Copy + PartialOrd {
    /// The `-∞` sentinel.
    const NEG_INF: Self;
    /// Conversion from an integer score.
    fn from_i32(v: i32) -> Self;
    /// Conversion back to an integer score (exact for valid scores;
    /// `-∞` maps to [`crate::NEG_INF`]).
    fn to_i32(self) -> i32;
    /// Adds an integer penalty or bonus, keeping `-∞` absorbing.
    fn add_i32(self, v: i32) -> Self;
    /// Elementwise maximum.
    fn maxv(self, o: Self) -> Self;
    /// Whether this cell counts as pruned.
    fn is_dropped(self) -> bool;
}

impl Cell for i32 {
    const NEG_INF: Self = NEG_INF;

    fn from_i32(v: i32) -> Self {
        v
    }

    fn to_i32(self) -> i32 {
        self
    }

    fn add_i32(self, v: i32) -> Self {
        self.saturating_add(v)
    }

    fn maxv(self, o: Self) -> Self {
        self.max(o)
    }

    fn is_dropped(self) -> bool {
        crate::is_dropped(self)
    }
}

impl Cell for f32 {
    const NEG_INF: Self = f32::NEG_INFINITY;

    fn from_i32(v: i32) -> Self {
        v as f32
    }

    fn to_i32(self) -> i32 {
        if self.is_dropped() {
            NEG_INF
        } else {
            self as i32
        }
    }

    fn add_i32(self, v: i32) -> Self {
        // -∞ + x = -∞ in IEEE arithmetic: absorbing without a branch,
        // the property the IPU kernel exploits.
        self + v as f32
    }

    fn maxv(self, o: Self) -> Self {
        // NaN cannot occur: -∞ is only ever added to finite values.
        if self >= o {
            self
        } else {
            o
        }
    }

    fn is_dropped(self) -> bool {
        self == f32::NEG_INFINITY
    }
}

/// Algorithm 1, transcribed, with score cells of type `T`. Buffers
/// are allocated at full `δ` (the paper restricts them to `δ_b`; use
/// [`crate::xdrop2`] for that — this port keeps the indexing
/// identical to the listing).
fn algorithm1_align<T: Cell, S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
) -> AlignOutput {
    let (m, n) = (h.len(), v.len());
    let gap = -scorer.gap(); // the listing subtracts `gap`
    let x = params.x;
    let delta = m.min(n) + 1;

    // l.1–2: bounds, best scores, iteration counter, offsets.
    // (Our L/U live on the v-index axis, the candidate range is
    // [l, u + 1] like the listing's (L, …, U + 1).)
    let (mut l, mut u) = (0usize, 0usize);
    let mut t_prime = 0i32;
    let mut t = 0i32;
    let mut k = 0usize;
    // l.3–4: two physical antidiagonals, origin seeded. (The
    // listing seeds A1; for the rotation to line up, the origin —
    // antidiagonal 0, the `k − 1` buffer of the first iteration —
    // must live in the buffer read as W2.)
    let mut a1 = vec![T::NEG_INF; delta + 2];
    let mut a2 = vec![T::NEG_INF; delta + 2];
    a2[0] = T::from_i32(0);
    // Base index of slot 0 of each buffer (this is what the paper's
    // accumulated L1inc/L2inc offsets reconstruct).
    let mut base1 = 0usize; // a1 holds antidiagonal k−2 (empty before k = 1)
    let mut base2 = 0usize; // a2 holds antidiagonal k−1 (the origin)
    let mut live1: Option<(usize, usize)> = None; // live [lo, hi] stored in a1
    let mut live2 = Some((0usize, 0usize));

    let mut best = AlignResult::empty();
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 2 * (delta + 2) * 4,
        ..Default::default()
    };

    // l.5: while L ≤ U + 1, increase k.
    while l <= u + 1 {
        k += 1;
        if k > m + n {
            break;
        }
        // Geometric clamps of the candidate range on antidiagonal k.
        let lo = l.max(k.saturating_sub(m));
        let hi = (u + 1).min(k).min(n);
        if lo > hi {
            break;
        }
        // l.9: wlast ← W1[L − 1]: the k−2 value one slot below the
        // first write.
        let read1 = |a1: &[T], i: usize| -> T {
            match live1 {
                Some((plo, phi)) if i >= plo && i <= phi => a1[i - base1],
                _ => T::NEG_INF,
            }
        };
        let read2 = |a2: &[T], i: usize| -> T {
            match live2 {
                Some((plo, phi)) if i >= plo && i <= phi => a2[i - base2],
                _ => T::NEG_INF,
            }
        };
        let mut wlast = if lo >= 1 {
            read1(&a1, lo - 1)
        } else {
            T::NEG_INF
        };

        let mut t_new = t_prime;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        let mut any = false;
        // l.10: for i in (L, …, U+1) — v-indices of antidiagonal k.
        for i in lo..=hi {
            // l.11: j ← k − i − 1 is the 0-based H symbol; our `j`
            // here is the consumed-prefix length (j symbols of H).
            let j = k - i;
            // l.12: stash the k−2 value at i before overwriting.
            let wnew = read1(&a1, i);
            // l.13: the three-way max.
            let left = read2(&a2, i).add_i32(-gap); // W2[i] − gap
            let up = if i >= 1 {
                read2(&a2, i - 1).add_i32(-gap) // W2[i−1] − gap
            } else {
                T::NEG_INF
            };
            let diag = if i >= 1 && j >= 1 && !wlast.is_dropped() {
                wlast.add_i32(scorer.sim(v[i - 1], h[j - 1]))
            } else {
                T::NEG_INF
            };
            let mut score = diag.maxv(left).maxv(up);
            stats.cells_computed += 1;
            // l.14.
            wlast = wnew;
            // l.15–17: the X-Drop condition.
            if !score.is_dropped() && score.to_i32() < t - x {
                score = T::NEG_INF;
                stats.cells_dropped += 1;
            }
            // l.18: W1'[i] ← score (in-place overwrite of A1).
            a1[i - lo] = score; // W1' re-bases slot 0 to the new L
            if !score.is_dropped() {
                any = true;
                new_lo = new_lo.min(i);
                new_hi = new_hi.max(i);
                // l.19.
                let s = score.to_i32();
                t_new = t_new.max(s);
                if s > best.best_score {
                    best = AlignResult {
                        best_score: s,
                        end_h: j,
                        end_v: i,
                    };
                }
            }
        }
        stats.antidiagonals += 1;
        base1 = lo;
        live1 = Some((lo, hi));
        if !any {
            break;
        }
        // l.21–23: new bounds from the live cells.
        l = new_lo;
        u = new_hi;
        stats.delta_w = stats.delta_w.max(u - l + 1);
        // l.25.
        t_prime = t_new;
        t = t_prime;
        // l.26: swap the physical buffers and their offsets.
        std::mem::swap(&mut a1, &mut a2);
        std::mem::swap(&mut base1, &mut base2);
        std::mem::swap(&mut live1, &mut live2);
    }
    AlignOutput {
        result: best,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{encode_dna, PROTEIN_CODES};
    use crate::kernel::KernelKind;
    use crate::scoring::{Blosum62, MatchMismatch};
    use crate::xdrop2::{self, BandPolicy};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    #[test]
    fn matches_production_kernel_on_fixed_cases() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACGTACGT", b"ACGTACGT"),
            (b"ACGTACGTACGT", b"ACGAACGTTCGT"),
            (b"AAAAAAAAAA", b"TTTTTTTTTT"),
            (b"ACGT", b"ACGTACGTACGTACGT"),
            (b"ACGTAACGTACGT", b"ACGTACGTACGT"),
            (b"A", b"C"),
        ];
        for (h, v) in cases {
            let h = encode_dna(h);
            let v = encode_dna(v);
            for x in [0, 2, 5, 20, 1000] {
                let p = XDropParams::new(x);
                let lit = algorithm1_align::<i32, _>(&h, &v, &sc(), p);
                let prod = xdrop2::align(&h, &v, &sc(), p, BandPolicy::Grow(4)).unwrap();
                assert_eq!(lit.result, prod.result, "x={x}");
                assert_eq!(lit.stats.cells_computed, prod.stats.cells_computed, "x={x}");
                assert_eq!(lit.stats.delta_w, prod.stats.delta_w, "x={x}");
            }
        }
    }

    #[test]
    fn matches_production_kernel_on_random_pairs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA161);
        for _ in 0..40 {
            let len = rng.gen_range(1..200);
            let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut v = h.clone();
            for b in v.iter_mut() {
                if rng.gen_bool(0.2) {
                    *b = (*b + 1) % 4;
                }
            }
            for x in [1, 7, 25] {
                let p = XDropParams::new(x);
                let lit = algorithm1_align::<i32, _>(&h, &v, &sc(), p);
                let prod = xdrop2::align(&h, &v, &sc(), p, BandPolicy::Grow(2)).unwrap();
                assert_eq!(lit.result, prod.result);
                assert_eq!(lit.stats.cells_computed, prod.stats.cells_computed);
            }
        }
    }

    /// A root over `codes` symbols and a relative of it with point
    /// substitutions, insertions and deletions.
    fn related_pair(codes: u8) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        (
            prop::collection::vec(0..codes, 0..120),
            any::<u64>(),
            0.0f64..0.3,
        )
            .prop_map(move |(root, seed, err)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut other = Vec::with_capacity(root.len() + 8);
                for &b in &root {
                    let r: f64 = rng.gen();
                    if r < err * 0.6 {
                        other.push(rng.gen_range(0..codes));
                    } else if r < err * 0.8 {
                        other.push(rng.gen_range(0..codes));
                        other.push(b);
                    } else if r >= err {
                        other.push(b);
                    }
                }
                (root, other)
            })
    }

    /// The listing with `T` cells against the production kernel at
    /// every [`KernelKind`].
    fn assert_listing_matches<T: Cell, S: Scorer>(
        h: &[u8],
        v: &[u8],
        scorer: &S,
        x: i32,
    ) -> std::result::Result<(), TestCaseError> {
        let lit = algorithm1_align::<T, _>(h, v, scorer, XDropParams::new(x));
        for kernel in KernelKind::ALL {
            let p = XDropParams::new(x).with_kernel(kernel);
            let prod = xdrop2::align(h, v, scorer, p, BandPolicy::Grow(4)).unwrap();
            prop_assert_eq!(lit.result, prod.result, "{:?} x={}", kernel, x);
            prop_assert_eq!(lit.stats.cells_computed, prod.stats.cells_computed);
            prop_assert_eq!(lit.stats.delta_w, prod.stats.delta_w);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The paper's dual-issue claim: `f32` score cells align
        /// exactly like `i32` cells, on DNA and on BLOSUM62 pairs,
        /// against both production kernels.
        #[test]
        fn f32_cells_match_the_production_kernels(
            (h, v) in related_pair(4),
            (ph, pv) in related_pair(PROTEIN_CODES as u8),
            x in 0i32..60,
        ) {
            let (dna, protein) = (sc(), Blosum62::pastis_default());
            assert_listing_matches::<f32, _>(&h, &v, &dna, x)?;
            assert_listing_matches::<f32, _>(&ph, &pv, &protein, x)?;
            assert_listing_matches::<i32, _>(&ph, &pv, &protein, x)?;
        }
    }
}
