//! Hirschberg's linear-space global alignment.
//!
//! The paper's §2.2 grounds the space-efficiency discussion in the
//! classical result that the *optimal* alignment can be found "in
//! quadratic time and linear space" (Hirschberg 1975; Myers & Miller
//! 1988 — the paper's [25, 26]). This module supplies that
//! algorithm: divide-and-conquer Needleman-Wunsch using two score
//! rows, recovering the full path in `O(min(m, n))` working memory.
//! It is the linear-space *global* counterpart to the paper's
//! linear-space *extension* kernel: the [`crate::aligner`] facade
//! runs it over the region an extension reached to recover the path
//! on demand. It doubles as an independent oracle for
//! [`crate::reference::needleman_wunsch`].

use crate::reference::{AlignOp, Alignment};
use crate::scoring::Scorer;
use crate::NEG_INF;

/// Forward NW score of aligning all of `v` against prefixes of `h`:
/// returns the last DP row (length `h.len() + 1`).
fn nw_last_row<S: Scorer>(h: &[u8], v: &[u8], scorer: &S) -> Vec<i32> {
    let m = h.len();
    let gap = scorer.gap();
    let mut prev: Vec<i32> = (0..=m).map(|j| j as i32 * gap).collect();
    let mut cur = vec![NEG_INF; m + 1];
    for (i, &vc) in v.iter().enumerate() {
        cur[0] = (i + 1) as i32 * gap;
        for j in 1..=m {
            let diag = prev[j - 1] + scorer.sim(vc, h[j - 1]);
            let left = cur[j - 1] + gap;
            let up = prev[j] + gap;
            cur[j] = diag.max(left).max(up);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

/// Like [`nw_last_row`] but on the reversed problem.
fn nw_last_row_rev<S: Scorer>(h: &[u8], v: &[u8], scorer: &S) -> Vec<i32> {
    let hr: Vec<u8> = h.iter().rev().copied().collect();
    let vr: Vec<u8> = v.iter().rev().copied().collect();
    nw_last_row(&hr, &vr, scorer)
}

/// Global alignment in linear space; same score as
/// [`crate::reference::needleman_wunsch`].
///
/// # Example
///
/// ```
/// use xdrop_core::hirschberg::hirschberg;
/// use xdrop_core::scoring::MatchMismatch;
/// use xdrop_core::alphabet::encode_dna;
///
/// let h = encode_dna(b"ACGTACGT");
/// let v = encode_dna(b"ACGAACGT");
/// let aln = hirschberg(&h, &v, &MatchMismatch::dna_default());
/// assert_eq!(aln.score, 6); // 7 matches − 1 mismatch
/// assert_eq!(aln.cigar(), "8M");
/// ```
pub fn hirschberg<S: Scorer>(h: &[u8], v: &[u8], scorer: &S) -> Alignment {
    let mut ops = Vec::with_capacity(h.len() + v.len());
    solve(h, v, scorer, &mut ops);
    let score = score_ops(h, v, scorer, &ops);
    Alignment {
        score,
        ops,
        end: (h.len(), v.len()),
    }
}

fn score_ops<S: Scorer>(h: &[u8], v: &[u8], scorer: &S, ops: &[AlignOp]) -> i32 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut s = 0i32;
    for op in ops {
        match op {
            AlignOp::Subst => {
                s += scorer.sim(v[i], h[j]);
                i += 1;
                j += 1;
            }
            AlignOp::InsertH => {
                s += scorer.gap();
                j += 1;
            }
            AlignOp::InsertV => {
                s += scorer.gap();
                i += 1;
            }
        }
    }
    debug_assert_eq!((i, j), (v.len(), h.len()));
    s
}

fn solve<S: Scorer>(h: &[u8], v: &[u8], scorer: &S, ops: &mut Vec<AlignOp>) {
    // Base cases: one sequence empty, or v of length 1 (solve by a
    // single scan).
    if h.is_empty() {
        ops.extend(std::iter::repeat_n(AlignOp::InsertV, v.len()));
        return;
    }
    if v.is_empty() {
        ops.extend(std::iter::repeat_n(AlignOp::InsertH, h.len()));
        return;
    }
    if v.len() == 1 {
        // Align the single V symbol against the best H position (or
        // take gaps if that's better under the scorer).
        let gap = scorer.gap();
        let all_gaps = (h.len() as i32 + 1) * gap;
        let mut best = (all_gaps, None::<usize>);
        for (j, &hc) in h.iter().enumerate() {
            let s = scorer.sim(v[0], hc) + (h.len() as i32 - 1) * gap;
            if s > best.0 {
                best = (s, Some(j));
            }
        }
        match best.1 {
            Some(j) => {
                ops.extend(std::iter::repeat_n(AlignOp::InsertH, j));
                ops.push(AlignOp::Subst);
                ops.extend(std::iter::repeat_n(AlignOp::InsertH, h.len() - j - 1));
            }
            None => {
                ops.push(AlignOp::InsertV);
                ops.extend(std::iter::repeat_n(AlignOp::InsertH, h.len()));
            }
        }
        return;
    }
    // Divide: split v, find the optimal h split point.
    let mid = v.len() / 2;
    let upper = nw_last_row(h, &v[..mid], scorer);
    let lower = nw_last_row_rev(h, &v[mid..], scorer);
    let m = h.len();
    let mut best_j = 0usize;
    let mut best_s = i64::MIN;
    for j in 0..=m {
        let s = upper[j] as i64 + lower[m - j] as i64;
        if s > best_s {
            best_s = s;
            best_j = j;
        }
    }
    solve(&h[..best_j], &v[..mid], scorer, ops);
    solve(&h[best_j..], &v[mid..], scorer, ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::reference::needleman_wunsch;
    use crate::scoring::MatchMismatch;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    #[test]
    fn identical_sequences() {
        let s = encode_dna(b"ACGTACGTACGT");
        let a = hirschberg(&s, &s, &sc());
        assert_eq!(a.score, 12);
        assert_eq!(a.cigar(), "12M");
    }

    #[test]
    fn empty_cases() {
        let s = encode_dna(b"ACGT");
        assert_eq!(hirschberg(&s, &[], &sc()).cigar(), "4I");
        assert_eq!(hirschberg(&[], &s, &sc()).cigar(), "4D");
        assert!(hirschberg(&[], &[], &sc()).ops.is_empty());
    }

    #[test]
    fn matches_full_matrix_nw_scores() {
        let mut rng = StdRng::seed_from_u64(0x415);
        for _ in 0..60 {
            let hl = rng.gen_range(0..80);
            let vl = rng.gen_range(0..80);
            let h: Vec<u8> = (0..hl).map(|_| rng.gen_range(0..4)).collect();
            let v: Vec<u8> = (0..vl).map(|_| rng.gen_range(0..4)).collect();
            let full = needleman_wunsch(&h, &v, &sc());
            let lin = hirschberg(&h, &v, &sc());
            assert_eq!(lin.score, full.score, "h={hl} v={vl}");
            // Path consumes both sequences entirely.
            let hc = lin
                .ops
                .iter()
                .filter(|o| !matches!(o, AlignOp::InsertV))
                .count();
            let vc = lin
                .ops
                .iter()
                .filter(|o| !matches!(o, AlignOp::InsertH))
                .count();
            assert_eq!((hc, vc), (h.len(), v.len()));
        }
    }

    #[test]
    fn matches_on_related_pairs() {
        let mut rng = StdRng::seed_from_u64(0x416);
        for _ in 0..30 {
            let len = rng.gen_range(1..150);
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
            let full = needleman_wunsch(&h, &v, &sc());
            let lin = hirschberg(&h, &v, &sc());
            assert_eq!(lin.score, full.score);
        }
    }
}
