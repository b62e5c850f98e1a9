//! The classical three-antidiagonal X-Drop (Zhang et al. 1998/2000).
//!
//! This is the formulation used by BLAST, SeqAn and LOGAN: the
//! scoring matrix is swept antidiagonal by antidiagonal, and because
//! a cell only depends on the two previous antidiagonals, three
//! rolling buffers of length `δ = min(|H|, |V|) + 1` suffice — `3δ`
//! working memory. The paper's contribution ([`crate::xdrop2`])
//! shrinks this to `2δ_b`; this module is both the CPU baseline and
//! the differential-testing oracle for it.
//!
//! Buffers are indexed by `i − geo_lo(d)` where `i` is the `V` index
//! of a cell and `geo_lo(d) = max(0, d − |H|)` is the geometric lower
//! bound of antidiagonal `d`; stale slots from earlier sweeps are
//! never cleared — reads are guarded by each stored diagonal's
//! candidate interval instead.

use crate::scoring::Scorer;
use crate::seqview::{Fwd, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{is_dropped, XDropParams, NEG_INF};

/// Reusable buffers for [`align_with_workspace`]; reusing a workspace
/// across the thousands of alignments of a batch avoids per-call
/// allocation, as the IPU kernel does with its tile-static arrays.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: [Vec<i32>; 3],
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            bufs: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    fn ensure(&mut self, delta: usize) {
        for b in &mut self.bufs {
            if b.len() < delta {
                b.resize(delta, NEG_INF);
            }
        }
    }
}

/// Candidate interval of a stored antidiagonal (empty when
/// `cand_lo > cand_hi`).
#[derive(Debug, Clone, Copy)]
struct DiagMeta {
    cand_lo: usize,
    cand_hi: usize,
    geo_lo: usize,
}

impl DiagMeta {
    const EMPTY: DiagMeta = DiagMeta {
        cand_lo: 1,
        cand_hi: 0,
        geo_lo: 0,
    };

    #[inline(always)]
    fn get(&self, buf: &[i32], i: usize) -> i32 {
        if i >= self.cand_lo && i <= self.cand_hi {
            buf[i - self.geo_lo]
        } else {
            NEG_INF
        }
    }
}

/// X-Drop extension of `h` × `v` using `i32` scores and forward
/// access. See [`align_views`] for the general form.
///
/// # Example
///
/// ```
/// use xdrop_core::{xdrop3, XDropParams};
/// use xdrop_core::scoring::MatchMismatch;
/// use xdrop_core::alphabet::encode_dna;
///
/// let h = encode_dna(b"ACGTACGTACGT");
/// let out = xdrop3::align(&h, &h, &MatchMismatch::dna_default(), XDropParams::new(10));
/// assert_eq!(out.result.best_score, 12);
/// assert_eq!(out.stats.work_bytes, 3 * out.stats.delta * 4); // 3δ memory
/// ```
pub fn align<S: Scorer>(h: &[u8], v: &[u8], scorer: &S, params: XDropParams) -> AlignOutput {
    let mut ws = Workspace::new();
    align_views(&Fwd(h), &Fwd(v), scorer, params, &mut ws)
}

/// [`align`] reusing a caller-provided workspace.
pub fn align_with_workspace<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
    ws: &mut Workspace,
) -> AlignOutput {
    align_views(&Fwd(h), &Fwd(v), scorer, params, ws)
}

/// The three-antidiagonal kernel, generic over sequence direction.
pub fn align_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    ws: &mut Workspace,
) -> AlignOutput {
    let (m, n) = (h.len(), v.len());
    let delta = m.min(n) + 1;
    ws.ensure(delta);
    let [b_prev2, b_prev, b_cur] = &mut ws.bufs;
    let gap = scorer.gap();
    let x = params.x;

    // Antidiagonal 0: the origin.
    b_prev[0] = 0;
    let mut meta_prev = DiagMeta {
        cand_lo: 0,
        cand_hi: 0,
        geo_lo: 0,
    };
    let mut meta_prev2 = DiagMeta::EMPTY;

    let mut best = AlignResult::empty();
    let mut t_best = 0i32;
    let (mut live_lo, mut live_hi) = (0usize, 0usize);
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 3 * delta * std::mem::size_of::<i32>(),
        ..Default::default()
    };

    for d in 1..=(m + n) {
        let geo_lo = d.saturating_sub(m);
        let geo_hi = d.min(n);
        let cand_lo = live_lo.max(geo_lo);
        let cand_hi = (live_hi + 1).min(geo_hi);
        if cand_lo > cand_hi {
            break;
        }
        let meta_cur = DiagMeta {
            cand_lo,
            cand_hi,
            geo_lo,
        };

        let mut t_new = t_best;
        let mut any_live = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        for i in cand_lo..=cand_hi {
            let j = d - i;
            let diag = if i >= 1 && j >= 1 {
                let p = meta_prev2.get(b_prev2, i - 1);
                if is_dropped(p) {
                    NEG_INF
                } else {
                    p.saturating_add(scorer.sim(v.at(i - 1), h.at(j - 1)))
                }
            } else {
                NEG_INF
            };
            let left = meta_prev.get(b_prev, i).saturating_add(gap);
            let up = if i >= 1 {
                meta_prev.get(b_prev, i - 1).saturating_add(gap)
            } else {
                NEG_INF
            };
            let mut score = diag.max(left).max(up);
            stats.cells_computed += 1;
            if !is_dropped(score) && score < t_best - x {
                score = NEG_INF;
                stats.cells_dropped += 1;
            }
            b_cur[i - geo_lo] = score;
            if !is_dropped(score) {
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
        live_lo = new_lo;
        live_hi = new_hi;
        stats.delta_w = stats.delta_w.max(live_hi - live_lo + 1);
        t_best = t_new;

        // Rotate: prev → prev2, cur → prev, old prev2 becomes cur.
        std::mem::swap(b_prev2, b_prev);
        std::mem::swap(b_prev, b_cur);
        meta_prev2 = meta_prev;
        meta_prev = meta_cur;
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
    use crate::reference::xdrop_full_matrix;
    use crate::scoring::{Blosum62, MatchMismatch};
    use crate::seqview::Rev;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn assert_matches_reference(h: &[u8], v: &[u8], x: i32) {
        let p = XDropParams::new(x);
        let a = xdrop_full_matrix(h, v, &sc(), p);
        let b = align(h, v, &sc(), p);
        assert_eq!(a.result, b.result, "result mismatch for x={x}");
        assert_eq!(
            a.stats.cells_computed, b.stats.cells_computed,
            "cells mismatch for x={x}"
        );
        assert_eq!(a.stats.antidiagonals, b.stats.antidiagonals);
        assert_eq!(a.stats.delta_w, b.stats.delta_w);
        assert_eq!(a.stats.cells_dropped, b.stats.cells_dropped);
    }

    #[test]
    fn identical_sequences() {
        let s = encode_dna(b"ACGTACGTACGTACGT");
        let out = align(&s, &s, &sc(), XDropParams::new(5));
        assert_eq!(out.result.best_score, 16);
        assert_eq!(out.result.end_h, 16);
        assert_eq!(out.result.end_v, 16);
    }

    #[test]
    fn empty_sequences() {
        let s = encode_dna(b"ACGT");
        let out = align(&s, &[], &sc(), XDropParams::new(5));
        assert_eq!(out.result, AlignResult::empty());
        let out = align(&[], &[], &sc(), XDropParams::new(5));
        assert_eq!(out.result, AlignResult::empty());
    }

    #[test]
    fn matches_reference_on_fixed_cases() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACGTACGT", b"ACGTACGT"),
            (b"ACGTACGTACGT", b"ACGAACGTTCGT"),
            (b"AAAAAAAAAA", b"TTTTTTTTTT"),
            (b"ACGT", b"ACGTACGTACGTACGT"),
            (b"ACGTACGTACGTACGT", b"ACGT"),
            (b"ACGTAACGTACGT", b"ACGTACGTACGT"), // insertion
            (b"ACGTACGTACGT", b"ACGTAACGTACGT"), // deletion
            (b"A", b"A"),
            (b"A", b"C"),
        ];
        for (h, v) in cases {
            let h = encode_dna(h);
            let v = encode_dna(v);
            for x in [0, 1, 2, 5, 20, 1000] {
                assert_matches_reference(&h, &v, x);
            }
        }
    }

    #[test]
    fn reverse_views_equal_reversed_copies() {
        let h = encode_dna(b"ACGTTACGGTACGTACAA");
        let v = encode_dna(b"ACGTTACGTACGTACAAG");
        let hr: Vec<u8> = h.iter().rev().copied().collect();
        let vr: Vec<u8> = v.iter().rev().copied().collect();
        let mut ws = Workspace::new();
        let p = XDropParams::new(4);
        let via_view = align_views(&Rev(&h), &Rev(&v), &sc(), p, &mut ws);
        let via_copy = align(&hr, &vr, &sc(), p);
        assert_eq!(via_view.result, via_copy.result);
        assert_eq!(via_view.stats.cells_computed, via_copy.stats.cells_computed);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        // A long alignment followed by a short one: stale buffer
        // contents must not leak into the second result.
        let mut ws = Workspace::new();
        let long = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let _ = align_with_workspace(&long, &long, &sc(), XDropParams::new(100), &mut ws);
        let short_h = encode_dna(b"ACGT");
        let short_v = encode_dna(b"ACCT");
        let fresh = align(&short_h, &short_v, &sc(), XDropParams::new(100));
        let reused =
            align_with_workspace(&short_h, &short_v, &sc(), XDropParams::new(100), &mut ws);
        assert_eq!(fresh.result, reused.result);
        assert_eq!(fresh.stats.cells_computed, reused.stats.cells_computed);
    }

    #[test]
    fn protein_alignment_blosum() {
        use crate::alphabet::encode_protein;
        let s = Blosum62::pastis_default();
        let h = encode_protein(b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ");
        let v = encode_protein(b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ");
        let out = align(&h, &v, &s, XDropParams::new(49));
        let self_score: i32 = h.iter().map(|&a| s.sim(a, a)).sum();
        assert_eq!(out.result.best_score, self_score);
    }

    #[test]
    fn work_memory_is_three_delta() {
        let h = encode_dna(b"ACGTACGTACGT"); // 12
        let v = encode_dna(b"ACGTACGT"); // 8
        let out = align(&h, &v, &sc(), XDropParams::new(10));
        assert_eq!(out.stats.delta, 9);
        assert_eq!(out.stats.work_bytes, 3 * 9 * 4);
    }

    #[test]
    fn x_zero_follows_only_improving_paths() {
        // With X = 0, any cell below the current best is pruned; on a
        // mismatch-opening pair the extension cannot leave the origin.
        let h = encode_dna(b"TACGT");
        let v = encode_dna(b"CACGT");
        let out = align(&h, &v, &sc(), XDropParams::new(0));
        assert_eq!(out.result.best_score, 0);
    }
}
