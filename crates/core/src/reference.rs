//! Full dynamic-programming reference aligners.
//!
//! These are deliberately simple quadratic-space implementations used
//! as ground truth for the space-efficient antidiagonal algorithms:
//!
//! * [`needleman_wunsch`] — global alignment.
//! * [`extend_full`] — semi-global extension (anchored at the origin,
//!   free at the far end), computed row-wise with *no* pruning; this
//!   equals X-Drop with `X = ∞`.
//! * [`xdrop_full_matrix`] — X-Drop computed over a fully allocated
//!   matrix with exactly the antidiagonal band rule of Zhang et al.;
//!   [`crate::xdrop3`] and [`crate::xdrop2`] must match it cell for
//!   cell.
//!
//! None of these fit in IPU tile SRAM for the paper's sequence
//! lengths — that is the point of the memory-restricted algorithm.

use crate::scoring::Scorer;
use crate::seqview::{Fwd, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{is_dropped, XDropParams, NEG_INF};

/// One step of an alignment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignOp {
    /// Diagonal move: `H[j]` aligned to `V[i]` (match or mismatch).
    Subst,
    /// Horizontal move: gap in `V` (consumes one `H` symbol).
    InsertH,
    /// Vertical move: gap in `H` (consumes one `V` symbol).
    InsertV,
}

/// A scored alignment with an explicit operation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Total score of the path.
    pub score: i32,
    /// Path operations from the start of the alignment to its end.
    pub ops: Vec<AlignOp>,
    /// End coordinate `(h, v)` of the path.
    pub end: (usize, usize),
}

impl Alignment {
    /// Number of substitution steps in the path.
    pub fn substitutions(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Subst))
            .count()
    }

    /// Number of gap steps in the path.
    pub fn gaps(&self) -> usize {
        self.ops.len() - self.substitutions()
    }

    /// Renders the path as a CIGAR-like string (`M`, `I`, `D` runs),
    /// with `I` consuming `H` and `D` consuming `V`.
    pub fn cigar(&self) -> String {
        let mut out = String::new();
        let mut run_op: Option<AlignOp> = None;
        let mut run_len = 0usize;
        let flush = |op: Option<AlignOp>, len: usize, out: &mut String| {
            if let Some(op) = op {
                let c = match op {
                    AlignOp::Subst => 'M',
                    AlignOp::InsertH => 'I',
                    AlignOp::InsertV => 'D',
                };
                out.push_str(&format!("{len}{c}"));
            }
        };
        for &op in &self.ops {
            if Some(op) == run_op {
                run_len += 1;
            } else {
                flush(run_op, run_len, &mut out);
                run_op = Some(op);
                run_len = 1;
            }
        }
        flush(run_op, run_len, &mut out);
        out
    }
}

fn dp_dims(h: &[u8], v: &[u8]) -> (usize, usize) {
    (h.len(), v.len())
}

/// Global (Needleman-Wunsch) alignment of `h` against `v` with linear
/// gaps, returning the full path.
#[allow(clippy::needless_range_loop)] // index loops over related arrays
pub fn needleman_wunsch<S: Scorer>(h: &[u8], v: &[u8], scorer: &S) -> Alignment {
    let (m, n) = dp_dims(h, v);
    let gap = scorer.gap();
    let width = m + 1;
    let mut dp = vec![0i32; (n + 1) * width];
    for j in 1..=m {
        dp[j] = j as i32 * gap;
    }
    for i in 1..=n {
        dp[i * width] = i as i32 * gap;
        for j in 1..=m {
            let diag = dp[(i - 1) * width + (j - 1)] + scorer.sim(v[i - 1], h[j - 1]);
            let left = dp[i * width + (j - 1)] + gap;
            let up = dp[(i - 1) * width + j] + gap;
            dp[i * width + j] = diag.max(left).max(up);
        }
    }
    // Traceback.
    let mut ops = Vec::with_capacity(m + n);
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let cur = dp[i * width + j];
        if i > 0 && j > 0 && cur == dp[(i - 1) * width + (j - 1)] + scorer.sim(v[i - 1], h[j - 1]) {
            ops.push(AlignOp::Subst);
            i -= 1;
            j -= 1;
        } else if j > 0 && cur == dp[i * width + (j - 1)] + gap {
            ops.push(AlignOp::InsertH);
            j -= 1;
        } else {
            debug_assert!(i > 0 && cur == dp[(i - 1) * width + j] + gap);
            ops.push(AlignOp::InsertV);
            i -= 1;
        }
    }
    ops.reverse();
    Alignment {
        score: dp[n * width + m],
        ops,
        end: (m, n),
    }
}

/// Semi-global extension without pruning: the alignment is anchored
/// at `(0, 0)` and may end anywhere; the best score over all cells is
/// returned. Equivalent to X-Drop with `X = ∞`.
#[allow(clippy::needless_range_loop)] // index loops over related arrays
pub fn extend_full<S: Scorer>(h: &[u8], v: &[u8], scorer: &S) -> AlignOutput {
    let (m, n) = dp_dims(h, v);
    let gap = scorer.gap();
    let mut prev = vec![0i32; m + 1];
    let mut cur = vec![0i32; m + 1];
    for (j, p) in prev.iter_mut().enumerate() {
        *p = j as i32 * gap;
    }
    // Tie-break identical to the antidiagonal algorithms: prefer the
    // lower antidiagonal (i + j), then the lower v-index i. Row-major
    // iteration visits increasing i, so within one row increasing j
    // is increasing antidiagonal; across rows we must compare
    // explicitly.
    let mut best = AlignResult::empty();
    let better = |score: i32, i: usize, j: usize, best: &mut AlignResult| {
        let cand_d = i + j;
        let cur_d = best.end_antidiagonal();
        if score > best.best_score
            || (score == best.best_score && (cand_d < cur_d || (cand_d == cur_d && i < best.end_v)))
        {
            *best = AlignResult {
                best_score: score,
                end_h: j,
                end_v: i,
            };
        }
    };
    for j in 0..=m {
        better(prev[j], 0, j, &mut best);
    }
    let mut cells = m as u64; // row 0 boundary cells beyond origin
    for i in 1..=n {
        cur[0] = i as i32 * gap;
        better(cur[0], i, 0, &mut best);
        for j in 1..=m {
            let diag = prev[j - 1] + scorer.sim(v[i - 1], h[j - 1]);
            let left = cur[j - 1] + gap;
            let up = prev[j] + gap;
            cur[j] = diag.max(left).max(up);
            better(cur[j], i, j, &mut best);
        }
        cells += (m + 1) as u64;
        std::mem::swap(&mut prev, &mut cur);
    }
    let delta = m.min(n) + 1;
    AlignOutput {
        result: best,
        stats: AlignStats {
            cells_computed: cells,
            antidiagonals: (m + n) as u64,
            delta_w: delta,
            delta,
            work_bytes: 2 * (m + 1) * 4,
            cells_dropped: 0,
            cells_clipped: 0,
        },
    }
}

/// X-Drop semi-global extension computed over a fully allocated
/// matrix, following exactly the antidiagonal band rule of Zhang et
/// al.: candidates for antidiagonal `d+1` span `[L_d, U_d + 1]`
/// (clamped to the matrix), the drop test compares against the best
/// score `T` as of antidiagonal `d`, and `T` is updated only after a
/// full sweep.
///
/// This is the semantic specification that [`crate::xdrop3`] and
/// [`crate::xdrop2`] reproduce in `3δ` and `2δ_b` memory.
pub fn xdrop_full_matrix<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
) -> AlignOutput {
    xdrop_full_matrix_views(Fwd(h), Fwd(v), scorer, params)
}

/// [`xdrop_full_matrix`] over directional [`SeqView`]s.
pub fn xdrop_full_matrix_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: HV,
    v: VV,
    scorer: &S,
    params: XDropParams,
) -> AlignOutput {
    let (m, n) = (h.len(), v.len());
    let gap = scorer.gap();
    let x = params.x;
    let width = m + 1;
    let mut dp = vec![NEG_INF; (n + 1) * width];
    dp[0] = 0;

    let mut best = AlignResult::empty();
    let mut t_best = 0i32; // T: best score as of the previous sweep
    let (mut lo, mut hi) = (0usize, 0usize); // live L_d, U_d (v-indices)
    let mut stats = AlignStats {
        delta: m.min(n) + 1,
        work_bytes: (n + 1) * width * 4,
        ..Default::default()
    };
    stats.delta_w = 1;
    stats.cells_computed = 1;

    for d in 1..=(m + n) {
        // Candidate i-range for this antidiagonal (Algorithm 1 l.22-23).
        let geo_lo = d.saturating_sub(m);
        let geo_hi = d.min(n);
        let cand_lo = lo.max(geo_lo);
        let cand_hi = (hi + 1).min(geo_hi);
        if cand_lo > cand_hi {
            break;
        }
        let mut t_new = t_best;
        let mut any_live = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        for i in cand_lo..=cand_hi {
            let j = d - i;
            let diag = if i >= 1 && j >= 1 {
                let p = dp[(i - 1) * width + (j - 1)];
                if is_dropped(p) {
                    NEG_INF
                } else {
                    p + scorer.sim(v.at(i - 1), h.at(j - 1))
                }
            } else {
                NEG_INF
            };
            let left = if j >= 1 {
                dp[i * width + (j - 1)].saturating_add(gap)
            } else {
                NEG_INF
            };
            let up = if i >= 1 {
                dp[(i - 1) * width + j].saturating_add(gap)
            } else {
                NEG_INF
            };
            let mut score = diag.max(left).max(up);
            stats.cells_computed += 1;
            if !is_dropped(score) && score < t_best - x {
                score = NEG_INF;
                stats.cells_dropped += 1;
            }
            if !is_dropped(score) {
                dp[i * width + j] = score;
                any_live = true;
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
        stats.antidiagonals += 1;
        if !any_live {
            break;
        }
        lo = new_lo;
        hi = new_hi;
        stats.delta_w = stats.delta_w.max(hi - lo + 1);
        t_best = t_new;
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

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    #[test]
    fn nw_identical_sequences() {
        let s = encode_dna(b"ACGTACGT");
        let a = needleman_wunsch(&s, &s, &sc());
        assert_eq!(a.score, 8);
        assert_eq!(a.substitutions(), 8);
        assert_eq!(a.gaps(), 0);
        assert_eq!(a.cigar(), "8M");
    }

    #[test]
    fn nw_single_mismatch() {
        let h = encode_dna(b"ACGTACGT");
        let v = encode_dna(b"ACGAACGT");
        let a = needleman_wunsch(&h, &v, &sc());
        assert_eq!(a.score, 6); // 7 matches - 1 mismatch
    }

    #[test]
    fn nw_gap() {
        let h = encode_dna(b"ACGTACGT");
        let v = encode_dna(b"ACGACGT"); // one deletion
        let a = needleman_wunsch(&h, &v, &sc());
        assert_eq!(a.score, 6); // 7 matches - 1 gap
        assert_eq!(a.gaps(), 1);
    }

    #[test]
    fn nw_empty_vs_nonempty() {
        let h = encode_dna(b"ACGT");
        let a = needleman_wunsch(&h, &[], &sc());
        assert_eq!(a.score, -4);
        assert_eq!(a.cigar(), "4I");
    }

    #[test]
    fn extend_full_identical() {
        let s = encode_dna(b"ACGTACGTAC");
        let out = extend_full(&s, &s, &sc());
        assert_eq!(out.result.best_score, 10);
        assert_eq!(out.result.end_h, 10);
        assert_eq!(out.result.end_v, 10);
    }

    #[test]
    fn extend_full_prefers_prefix_on_divergence() {
        // Identical 6-symbol prefix, then total divergence: extension
        // should stop at the prefix.
        let h = encode_dna(b"ACGTACCCCCCCCC");
        let v = encode_dna(b"ACGTACGGGGGGGG");
        let out = extend_full(&h, &v, &sc());
        assert_eq!(out.result.best_score, 6);
        assert_eq!(out.result.end_h, 6);
        assert_eq!(out.result.end_v, 6);
    }

    #[test]
    fn extend_full_empty_inputs() {
        let h = encode_dna(b"ACGT");
        let out = extend_full(&h, &[], &sc());
        assert_eq!(out.result, AlignResult::empty());
        let out = extend_full(&[], &[], &sc());
        assert_eq!(out.result, AlignResult::empty());
    }

    #[test]
    fn xdrop_full_equals_extend_full_when_unbounded() {
        let h = encode_dna(b"ACGTTCGTACGTAAGGTACGTACGTTTT");
        let v = encode_dna(b"ACGTACGTACGTAAGGTACGAACGT");
        let a = extend_full(&h, &v, &sc());
        let b = xdrop_full_matrix(&h, &v, &sc(), XDropParams::unbounded());
        assert_eq!(a.result.best_score, b.result.best_score);
        assert_eq!(a.result.end_h, b.result.end_h);
        assert_eq!(a.result.end_v, b.result.end_v);
    }

    #[test]
    fn xdrop_prunes_hopeless_extension() {
        let h = encode_dna(b"ACGTACGTCCCCCCCCCCCCCCCCCCCC");
        let v = encode_dna(b"ACGTACGTGGGGGGGGGGGGGGGGGGGG");
        let out = xdrop_full_matrix(&h, &v, &sc(), XDropParams::new(3));
        assert_eq!(out.result.best_score, 8);
        // With X = 3 the sweep must terminate long before the full
        // matrix is explored.
        assert!(out.stats.cells_computed < (h.len() * v.len()) as u64 / 2);
        assert!(out.stats.cells_dropped > 0);
    }

    #[test]
    fn xdrop_small_x_smaller_band_than_large_x() {
        let h = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let v = encode_dna(b"ACGAACGTACGTACTTACGTACGAACGTACGT");
        let small = xdrop_full_matrix(&h, &v, &sc(), XDropParams::new(2));
        let large = xdrop_full_matrix(&h, &v, &sc(), XDropParams::new(50));
        assert!(small.stats.cells_computed <= large.stats.cells_computed);
        assert!(small.stats.delta_w <= large.stats.delta_w);
    }

    #[test]
    fn cigar_rendering() {
        let a = Alignment {
            score: 0,
            ops: vec![
                AlignOp::Subst,
                AlignOp::Subst,
                AlignOp::InsertH,
                AlignOp::Subst,
                AlignOp::InsertV,
                AlignOp::InsertV,
            ],
            end: (4, 3),
        };
        assert_eq!(a.cigar(), "2M1I1M2D");
    }
}
