//! X-Drop alignment with traceback.
//!
//! The IPU kernel (and LOGAN) return only scores and end positions —
//! storing the path needs memory proportional to the *computed
//! region*, which is exactly what a 624 KB tile cannot afford. But
//! downstream consumers (polishing, variant calling, visual
//! inspection) often need the alignment itself, so this host-side
//! variant keeps a 2-bit direction for every computed cell
//! (`O(cells / 4)` bytes — still far less than the full matrix,
//! thanks to the X-Drop band) and reconstructs the path.
//!
//! The DP is the same Zhang antidiagonal X-Drop as
//! [`crate::xdrop3`]; results are differentially tested to agree
//! with it cell for cell.

use crate::reference::{AlignOp, Alignment};
use crate::scoring::Scorer;
use crate::seqview::{Fwd, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{is_dropped, XDropParams, NEG_INF};

/// Per-cell traceback direction, packed two bits each.
const DIR_STOP: u8 = 0;
const DIR_DIAG: u8 = 1;
const DIR_LEFT: u8 = 2; // consumed one H symbol (gap in V)
const DIR_UP: u8 = 3; // consumed one V symbol (gap in H)

/// One stored antidiagonal: candidate interval plus packed
/// directions.
struct DiagRow {
    lo: usize,
    /// 2-bit directions for `i ∈ [lo, hi]`, LSB-first.
    dirs: Vec<u8>,
    len: usize,
}

impl DiagRow {
    fn new(lo: usize, len: usize) -> Self {
        Self {
            lo,
            dirs: vec![0u8; len.div_ceil(4)],
            len,
        }
    }

    #[inline]
    fn set(&mut self, i: usize, dir: u8) {
        let s = i - self.lo;
        debug_assert!(s < self.len);
        self.dirs[s / 4] |= dir << ((s % 4) * 2);
    }

    #[inline]
    fn get(&self, i: usize) -> u8 {
        if i < self.lo || i >= self.lo + self.len {
            return DIR_STOP;
        }
        let s = i - self.lo;
        (self.dirs[s / 4] >> ((s % 4) * 2)) & 0b11
    }
}

/// X-Drop semi-global extension returning both the usual output and
/// the best-scoring path as an [`Alignment`].
///
/// # Example
///
/// ```
/// use xdrop_core::traceback::xdrop_align_with_traceback;
/// use xdrop_core::scoring::MatchMismatch;
/// use xdrop_core::alphabet::encode_dna;
/// use xdrop_core::XDropParams;
///
/// let h = encode_dna(b"ACGTACGTACGT");
/// let (out, aln) = xdrop_align_with_traceback(&h, &h, &MatchMismatch::dna_default(),
///     XDropParams::new(10));
/// assert_eq!(out.result.best_score, 12);
/// assert_eq!(aln.cigar(), "12M");
/// ```
pub fn xdrop_align_with_traceback<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
) -> (AlignOutput, Alignment) {
    xdrop_traceback_views(&Fwd(h), &Fwd(v), scorer, params)
}

/// [`xdrop_align_with_traceback`] over directional views.
pub fn xdrop_traceback_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
) -> (AlignOutput, Alignment) {
    let (m, n) = (h.len(), v.len());
    let gap = scorer.gap();
    let x = params.x;
    let delta = m.min(n) + 1;

    // Rolling score buffers (indexed by i − geo_lo like xdrop3) plus
    // the retained per-diagonal direction rows.
    let mut prev2 = vec![NEG_INF; delta + 2];
    let mut prev = vec![NEG_INF; delta + 2];
    let mut cur = vec![NEG_INF; delta + 2];
    prev[0] = 0;
    let mut meta_prev: (usize, usize, usize) = (0, 0, 0); // (cand_lo, cand_hi, geo_lo)
    let mut meta_prev2: (usize, usize, usize) = (1, 0, 0); // empty

    let mut rows: Vec<DiagRow> = Vec::new();
    let mut best = AlignResult::empty();
    let mut t_best = 0i32;
    let (mut live_lo, mut live_hi) = (0usize, 0usize);
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 3 * (delta + 2) * 4,
        ..Default::default()
    };

    let get = |buf: &[i32], meta: (usize, usize, usize), i: usize| -> i32 {
        if i >= meta.0 && i <= meta.1 {
            buf[i - meta.2]
        } else {
            NEG_INF
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
        let mut row = DiagRow::new(cand_lo, cand_hi - cand_lo + 1);
        let mut t_new = t_best;
        let mut any = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        for i in cand_lo..=cand_hi {
            let j = d - i;
            let diag = if i >= 1 && j >= 1 {
                let p = get(&prev2, meta_prev2, i - 1);
                if is_dropped(p) {
                    NEG_INF
                } else {
                    p + scorer.sim(v.at(i - 1), h.at(j - 1))
                }
            } else {
                NEG_INF
            };
            let left = get(&prev, meta_prev, i).saturating_add(gap);
            let up = if i >= 1 {
                get(&prev, meta_prev, i - 1).saturating_add(gap)
            } else {
                NEG_INF
            };
            let (mut score, dir) = if diag >= left && diag >= up {
                (diag, DIR_DIAG)
            } else if left >= up {
                (left, DIR_LEFT)
            } else {
                (up, DIR_UP)
            };
            stats.cells_computed += 1;
            if !is_dropped(score) && score < t_best - x {
                score = NEG_INF;
                stats.cells_dropped += 1;
            }
            cur[i - geo_lo] = score;
            if !is_dropped(score) {
                row.set(i, dir);
                any = true;
                new_lo = new_lo.min(i);
                new_hi = new_hi.max(i);
                t_new = t_new.max(score);
                if score > best.best_score {
                    best = AlignResult {
                        best_score: score,
                        end_h: j,
                        end_v: i,
                    };
                }
            }
        }
        rows.push(row);
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

    // Traceback from the best cell. rows[d − 1] holds antidiagonal d.
    let mut ops = Vec::new();
    let (mut i, mut j) = (best.end_v, best.end_h);
    while i + j > 0 {
        let d = i + j;
        let dir = if d >= 1 && d - 1 < rows.len() {
            rows[d - 1].get(i)
        } else {
            DIR_STOP
        };
        match dir {
            DIR_DIAG => {
                ops.push(AlignOp::Subst);
                i -= 1;
                j -= 1;
            }
            DIR_LEFT => {
                ops.push(AlignOp::InsertH);
                j -= 1;
            }
            DIR_UP => {
                ops.push(AlignOp::InsertV);
                i -= 1;
            }
            _ => break, // reached the origin's frontier
        }
    }
    ops.reverse();
    // Account the retained traceback memory.
    stats.work_bytes += rows.iter().map(|r| r.dirs.len()).sum::<usize>();
    let alignment = Alignment {
        score: best.best_score,
        ops,
        start: (0, 0),
        end: (best.end_h, best.end_v),
    };
    (
        AlignOutput {
            result: best,
            stats,
        },
        alignment,
    )
}

/// Recomputes an alignment's score from its operations — used to
/// verify tracebacks independently of the DP.
pub fn score_of_path<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    alignment: &Alignment,
) -> i32 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut score = 0i32;
    for op in &alignment.ops {
        match op {
            AlignOp::Subst => {
                score += scorer.sim(v.at(i), h.at(j));
                i += 1;
                j += 1;
            }
            AlignOp::InsertH => {
                score += scorer.gap();
                j += 1;
            }
            AlignOp::InsertV => {
                score += scorer.gap();
                i += 1;
            }
        }
    }
    debug_assert_eq!((j, i), alignment.end);
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::scoring::MatchMismatch;
    use crate::xdrop3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    #[test]
    fn identical_sequences_all_matches() {
        let s = encode_dna(b"ACGTACGTACGTACGT");
        let (out, aln) = xdrop_align_with_traceback(&s, &s, &sc(), XDropParams::new(10));
        assert_eq!(out.result.best_score, 16);
        assert_eq!(aln.cigar(), "16M");
        assert_eq!(score_of_path(&Fwd(&s), &Fwd(&s), &sc(), &aln), 16);
    }

    #[test]
    fn single_insertion_yields_gap_op() {
        let h = encode_dna(b"ACGTTGCACAGTCCATGGAT");
        let v: Vec<u8> = [&h[..10], &[2u8][..], &h[10..]].concat(); // insert G
        let (out, aln) = xdrop_align_with_traceback(&h, &v, &sc(), XDropParams::new(10));
        assert_eq!(out.result.best_score, 20 - 1);
        assert_eq!(aln.gaps(), 1);
        assert_eq!(
            score_of_path(&Fwd(&h), &Fwd(&v), &sc(), &aln),
            out.result.best_score
        );
    }

    #[test]
    fn agrees_with_xdrop3_and_path_scores_check_out() {
        let mut rng = StdRng::seed_from_u64(0x7B);
        for _ in 0..60 {
            let len = rng.gen_range(1..250);
            let h: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            let mut v = Vec::new();
            for &b in &h {
                match rng.gen_range(0..12) {
                    0 => v.push(rng.gen_range(0..4)),
                    1 => {
                        v.push(rng.gen_range(0..4));
                        v.push(b);
                    }
                    2 => {}
                    _ => v.push(b),
                }
            }
            for x in [3, 11, 41] {
                let p = XDropParams::new(x);
                let base = xdrop3::align(&h, &v, &sc(), p);
                let (out, aln) = xdrop_align_with_traceback(&h, &v, &sc(), p);
                assert_eq!(out.result, base.result);
                assert_eq!(out.stats.cells_computed, base.stats.cells_computed);
                // The reconstructed path must reproduce the score
                // and land exactly on the end cell.
                assert_eq!(
                    score_of_path(&Fwd(&h), &Fwd(&v), &sc(), &aln),
                    out.result.best_score
                );
                let h_consumed = aln
                    .ops
                    .iter()
                    .filter(|o| !matches!(o, AlignOp::InsertV))
                    .count();
                let v_consumed = aln
                    .ops
                    .iter()
                    .filter(|o| !matches!(o, AlignOp::InsertH))
                    .count();
                assert_eq!(h_consumed, out.result.end_h);
                assert_eq!(v_consumed, out.result.end_v);
            }
        }
    }

    #[test]
    fn traceback_memory_is_band_not_matrix() {
        // A long, similar pair: traceback rows cover ~δ_w × diags /4
        // bytes, orders of magnitude below the full matrix.
        let mut rng = StdRng::seed_from_u64(9);
        let h: Vec<u8> = (0..4000).map(|_| rng.gen_range(0..4)).collect();
        let mut v = h.clone();
        for b in v.iter_mut() {
            if rng.gen_bool(0.05) {
                *b = (*b + 1) % 4;
            }
        }
        let (out, _aln) = xdrop_align_with_traceback(&h, &v, &sc(), XDropParams::new(10));
        let full_matrix_bytes = (h.len() + 1) * (v.len() + 1) / 4;
        assert!(
            out.stats.work_bytes < full_matrix_bytes / 20,
            "traceback used {} B, full matrix would be {} B",
            out.stats.work_bytes,
            full_matrix_bytes
        );
    }

    #[test]
    fn empty_inputs() {
        let (out, aln) = xdrop_align_with_traceback(&[], &[], &sc(), XDropParams::new(5));
        assert_eq!(out.result, AlignResult::empty());
        assert!(aln.ops.is_empty());
    }
}
