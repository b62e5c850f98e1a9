//! Affine-gap X-Drop — the Y/Z-drop family (§2.2, §7).
//!
//! The paper implements the original Zhang X-Drop with linear gaps
//! (what SeqAn/LOGAN/ELBA use) and cites its affine-penalty cousins
//! (Y-Drop, Z-Drop) as the variants used by production pipelines
//! like minimap2. This module supplies the affine-gap antidiagonal
//! X-Drop as a library extension: three rolling antidiagonals of
//! `(H, E, F)` Gotoh states with the same dynamic band and drop rule
//! as the linear kernel.
//!
//! A cell is pruned when even its best state falls more than `X`
//! below the running best `H` score:
//! `max(H, E, F) < T − X ⇒ cell ← −∞` — the BLAST-style affine drop
//! condition.

use crate::scoring::Scorer;
use crate::seqview::{Fwd, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{is_dropped, XDropParams, NEG_INF};

/// Affine gap penalties (both negative): a gap of length `k` costs
/// `open + k · ext`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AffineGaps {
    /// One-time gap-open penalty.
    pub open: i32,
    /// Per-symbol gap-extension penalty.
    pub ext: i32,
}

impl AffineGaps {
    /// Creates affine penalties (`open`, `ext` negative).
    pub fn new(open: i32, ext: i32) -> Self {
        Self { open, ext }
    }

    /// Penalties equivalent to a linear gap model: `open = 0`.
    pub fn linear(gap: i32) -> Self {
        Self { open: 0, ext: gap }
    }

    /// Cost of a gap of length `k` (≤ 0).
    pub fn cost(&self, k: usize) -> i32 {
        if k == 0 {
            0
        } else {
            self.open + k as i32 * self.ext
        }
    }
}

#[derive(Clone, Copy)]
struct Cell {
    h: i32,
    e: i32,
    f: i32,
}

impl Cell {
    const DEAD: Cell = Cell {
        h: NEG_INF,
        e: NEG_INF,
        f: NEG_INF,
    };

    #[inline]
    fn best(&self) -> i32 {
        self.h.max(self.e).max(self.f)
    }
}

/// Affine-gap X-Drop semi-global extension.
///
/// # Example
///
/// ```
/// use xdrop_core::affine::{affine_xdrop, AffineGaps};
/// use xdrop_core::scoring::MatchMismatch;
/// use xdrop_core::alphabet::encode_dna;
/// use xdrop_core::XDropParams;
///
/// let h = encode_dna(b"ACGTACGTACGT");
/// let out = affine_xdrop(&h, &h, &MatchMismatch::dna_default(),
///     AffineGaps::new(-3, -1), XDropParams::new(10));
/// assert_eq!(out.result.best_score, 12);
/// ```
pub fn affine_xdrop<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    gaps: AffineGaps,
    params: XDropParams,
) -> AlignOutput {
    affine_xdrop_views(&Fwd(h), &Fwd(v), scorer, gaps, params)
}

/// [`affine_xdrop`] over directional views.
pub fn affine_xdrop_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    gaps: AffineGaps,
    params: XDropParams,
) -> AlignOutput {
    let (m, n) = (h.len(), v.len());
    let x = params.x;
    let oe = gaps.open + gaps.ext;
    let delta = m.min(n) + 1;

    let mut prev2 = vec![Cell::DEAD; delta + 2];
    let mut prev = vec![Cell::DEAD; delta + 2];
    let mut cur = vec![Cell::DEAD; delta + 2];
    prev[0] = Cell {
        h: 0,
        e: NEG_INF,
        f: NEG_INF,
    };
    let mut meta_prev = (0usize, 0usize, 0usize); // (cand_lo, cand_hi, geo_lo)
    let mut meta_prev2 = (1usize, 0usize, 0usize);

    let mut best = AlignResult::empty();
    let mut t_best = 0i32;
    let (mut live_lo, mut live_hi) = (0usize, 0usize);
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 3 * (delta + 2) * std::mem::size_of::<Cell>(),
        ..Default::default()
    };

    let get = |buf: &[Cell], meta: (usize, usize, usize), i: usize| -> Cell {
        if i >= meta.0 && i <= meta.1 {
            buf[i - meta.2]
        } else {
            Cell::DEAD
        }
    };

    for d in 1..=(m + n) {
        let geo_lo = d.saturating_sub(m);
        let geo_hi = d.min(n);
        let cand_lo = live_lo.max(geo_lo);
        let cand_hi = (live_hi + 1).min(geo_hi);
        if cand_lo > cand_hi {
            break;
        }
        let mut t_new = t_best;
        let mut any = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        for i in cand_lo..=cand_hi {
            let j = d - i;
            // E: gap in V — left neighbour (i, j−1) on diag d−1.
            let left = get(&prev, meta_prev, i);
            let e = left
                .h
                .saturating_add(oe)
                .max(left.e.saturating_add(gaps.ext));
            // F: gap in H — up neighbour (i−1, j) on diag d−1.
            let up = if i >= 1 {
                get(&prev, meta_prev, i - 1)
            } else {
                Cell::DEAD
            };
            let f = up.h.saturating_add(oe).max(up.f.saturating_add(gaps.ext));
            // H: substitution — diagonal neighbour on diag d−2.
            let hh = if i >= 1 && j >= 1 {
                let p = get(&prev2, meta_prev2, i - 1);
                if is_dropped(p.h) {
                    NEG_INF
                } else {
                    p.h + scorer.sim(v.at(i - 1), h.at(j - 1))
                }
            } else {
                NEG_INF
            };
            let mut cell = Cell {
                h: hh.max(e).max(f),
                e,
                f,
            };
            stats.cells_computed += 1;
            if !is_dropped(cell.best()) && cell.best() < t_best - x {
                cell = Cell::DEAD;
                stats.cells_dropped += 1;
            }
            cur[i - geo_lo] = cell;
            if !is_dropped(cell.best()) {
                any = true;
                new_lo = new_lo.min(i);
                new_hi = new_hi.max(i);
                if !is_dropped(cell.h) {
                    t_new = t_new.max(cell.h);
                    if cell.h > best.best_score {
                        best = AlignResult {
                            best_score: cell.h,
                            end_h: j,
                            end_v: i,
                        };
                    }
                }
            }
        }
        stats.antidiagonals += 1;
        if !any {
            break;
        }
        live_lo = new_lo;
        live_hi = new_hi;
        stats.delta_w = stats.delta_w.max(live_hi - live_lo + 1);
        t_best = t_new;
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
        meta_prev2 = meta_prev;
        meta_prev = (cand_lo, cand_hi, geo_lo);
    }
    AlignOutput {
        result: best,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::scoring::MatchMismatch;
    use crate::xdrop3;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    /// Quadratic full-matrix affine extension, ground truth.
    fn affine_full(h: &[u8], v: &[u8], scorer: &MatchMismatch, gaps: AffineGaps) -> i32 {
        let (m, n) = (h.len(), v.len());
        let w = m + 1;
        let oe = gaps.open + gaps.ext;
        let mut hm = vec![NEG_INF; (n + 1) * w];
        let mut em = vec![NEG_INF; (n + 1) * w];
        let mut fm = vec![NEG_INF; (n + 1) * w];
        hm[0] = 0;
        let mut best = 0i32;
        for j in 1..=m {
            em[j] = hm[j - 1]
                .saturating_add(oe)
                .max(em[j - 1].saturating_add(gaps.ext));
            hm[j] = em[j];
            best = best.max(hm[j]);
        }
        for i in 1..=n {
            let r = i * w;
            let p = (i - 1) * w;
            fm[r] = hm[p].saturating_add(oe).max(fm[p].saturating_add(gaps.ext));
            hm[r] = fm[r];
            best = best.max(hm[r]);
            for j in 1..=m {
                em[r + j] = hm[r + j - 1]
                    .saturating_add(oe)
                    .max(em[r + j - 1].saturating_add(gaps.ext));
                fm[r + j] = hm[p + j]
                    .saturating_add(oe)
                    .max(fm[p + j].saturating_add(gaps.ext));
                let diag = if hm[p + j - 1] <= NEG_INF / 2 {
                    NEG_INF
                } else {
                    hm[p + j - 1] + scorer.sim(v[i - 1], h[j - 1])
                };
                hm[r + j] = diag.max(em[r + j]).max(fm[r + j]);
                best = best.max(hm[r + j]);
            }
        }
        best
    }

    #[test]
    fn identical_sequences() {
        let s = encode_dna(b"ACGTACGTACGTACGT");
        let out = affine_xdrop(&s, &s, &sc(), AffineGaps::new(-3, -1), XDropParams::new(10));
        assert_eq!(out.result.best_score, 16);
        assert_eq!(out.result.end_h, 16);
    }

    #[test]
    fn long_gap_cheaper_than_linear() {
        // 12-base insertion in V.
        let h = encode_dna(b"ACGTTGCACAGTCCATGGATACGTTGCACAGT");
        let v: Vec<u8> = [&h[..16], &encode_dna(b"TTTTGGGGTTTT")[..], &h[16..]].concat();
        let gaps = AffineGaps::new(-3, -1);
        let aff = affine_xdrop(&h, &v, &sc(), gaps, XDropParams::new(40));
        // 32 matches − (3 + 12) = 17.
        assert_eq!(aff.result.best_score, 32 + gaps.cost(12));
        // Linear −1/base X-Drop pays 12 for the same gap: 20.
        let lin = xdrop3::align(&h, &v, &sc(), XDropParams::new(40));
        assert_eq!(lin.result.best_score, 20);
        // With a steeper linear penalty (−2), affine wins.
        let steep = MatchMismatch::new(1, -1, -2);
        let lin2 = xdrop3::align(&h, &v, &steep, XDropParams::new(40));
        assert!(aff.result.best_score > lin2.result.best_score - 12);
    }

    #[test]
    fn matches_full_reference_with_large_x() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xAF1);
        for _ in 0..40 {
            let len = rng.gen_range(1..120);
            let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut v = Vec::new();
            for &b in &h {
                match rng.gen_range(0..10) {
                    0 => v.push(rng.gen_range(0..4)),
                    1 => {
                        v.push(rng.gen_range(0..4));
                        v.push(b);
                    }
                    2 => {}
                    _ => v.push(b),
                }
            }
            let gaps = AffineGaps::new(-4, -1);
            let full = affine_full(&h, &v, &sc(), gaps);
            let xd = affine_xdrop(&h, &v, &sc(), gaps, XDropParams::new(100_000));
            assert_eq!(xd.result.best_score, full.max(0));
        }
    }

    #[test]
    fn linear_equivalence_when_open_is_zero() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xAF2);
        for _ in 0..30 {
            let len = rng.gen_range(1..100);
            let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut v = h.clone();
            for b in v.iter_mut() {
                if rng.gen_bool(0.15) {
                    *b = (*b + 1) % 4;
                }
            }
            // open = 0 makes affine degenerate to linear; with a
            // generous X both kernels see the same search space.
            let aff = affine_xdrop(
                &h,
                &v,
                &sc(),
                AffineGaps::linear(-1),
                XDropParams::new(10_000),
            );
            let lin = xdrop3::align(&h, &v, &sc(), XDropParams::new(10_000));
            assert_eq!(aff.result.best_score, lin.result.best_score);
        }
    }

    #[test]
    fn small_x_prunes() {
        let h = encode_dna(b"ACGTTGCACAGTCCATGGAT").repeat(10);
        let mut v = h.clone();
        for b in v.iter_mut().skip(40) {
            *b = (*b + 2) % 4;
        }
        let gaps = AffineGaps::new(-4, -1);
        let small = affine_xdrop(&h, &v, &sc(), gaps, XDropParams::new(5));
        let large = affine_xdrop(&h, &v, &sc(), gaps, XDropParams::new(200));
        assert!(small.stats.cells_computed < large.stats.cells_computed);
        assert!(small.result.best_score <= large.result.best_score);
    }

    #[test]
    fn gap_cost_helper() {
        let g = AffineGaps::new(-5, -2);
        assert_eq!(g.cost(0), 0);
        assert_eq!(g.cost(1), -7);
        assert_eq!(g.cost(10), -25);
        assert_eq!(AffineGaps::linear(-1).cost(10), -10);
    }
}
