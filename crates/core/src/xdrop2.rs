//! The memory-restricted two-antidiagonal X-Drop — **Algorithm 1 of
//! the paper**.
//!
//! Two observations shrink the classical `3δ` working set:
//!
//! 1. *Two antidiagonals suffice* (Gotoh 1982): the values of
//!    antidiagonal `d − 2` are consumed exactly one index behind the
//!    writes of antidiagonal `d`, so `d` can be written **in place**
//!    over `d − 2` with a single one-cell temporary (`w_last` in the
//!    paper's listing, `saved` here).
//! 2. *Only the live band needs storage*: although an antidiagonal
//!    can span `δ = min(|H|, |V|) + 1` cells, the X-Drop condition
//!    keeps only `|U_k − L_k| + 1 ≤ δ_w` of them alive, and on real
//!    long-read data `δ_w ≪ δ` (98.2 % smaller for E. coli at
//!    X = 15, §6.1). The buffers are therefore allocated at a bound
//!    `δ_b` and *re-based* every sweep so that slot 0 always maps to
//!    the current lower bound `L_k` — the paper's `L1_inc`/`L2_inc`
//!    offset bookkeeping, expressed here as a per-diagonal base
//!    index.
//!
//! Total working memory: `2 δ_b` cells, which is what lets six
//! concurrent alignments of 10 kbp+ reads fit in a 624 KB IPU tile.
//!
//! What happens if the band outgrows `δ_b` is a policy decision
//! ([`BandPolicy`]): fail, grow, or clip the band around the current
//! best cell (the "dynamic band constantly realigned to the active
//! iteration position", §3).

use crate::error::{AlignError, Result};
use crate::scoring::Scorer;
use crate::seqview::{Fwd, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::{is_dropped, XDropParams, NEG_INF};

/// What to do when the live band outgrows `δ_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BandPolicy {
    /// Fail with [`AlignError::BandExceeded`]. This is the faithful
    /// IPU-tile behaviour: the buffers are statically sized and the
    /// host must resubmit with a larger `δ_b`.
    Exact(usize),
    /// Double the band (at least to the required width) and keep
    /// going. Convenient on hosts with plenty of memory; the reported
    /// `work_bytes` reflect the band this call grew to, whatever a
    /// reused workspace held before.
    Grow(usize),
    /// Keep `δ_b` fixed and evaluate only the `δ_b` candidate cells
    /// nearest the previous antidiagonal's best cell, clipping the
    /// rest. The result may differ from exact X-Drop (scores can only
    /// be lost, never invented); clipped cells are counted in
    /// [`AlignStats::cells_clipped`].
    Saturate(usize),
}

impl BandPolicy {
    /// The configured band bound `δ_b`.
    #[inline(always)]
    pub fn delta_b(self) -> usize {
        match self {
            BandPolicy::Exact(b) | BandPolicy::Grow(b) | BandPolicy::Saturate(b) => b,
        }
    }
}

/// Reusable band buffers for [`align_with_workspace`].
///
/// `bufs` are the two antidiagonal buffers of Algorithm 1. `lanes`
/// holds the `i16` rows and sequence windows of the default
/// fused-sweep kernel ([`crate::batched::align_views`]) once it has
/// run here, boxed so that a workspace the kernel never uses stays
/// small; it is not part of the modeled `2 δ_b` working set
/// ([`AlignStats::work_bytes`]), which describes the device kernel's
/// footprint.
#[derive(Debug, Default)]
pub struct Workspace {
    pub(crate) bufs: [Vec<i32>; 2],
    pub(crate) lanes: Option<Box<crate::batched::LaneArena>>,
}

impl Workspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            bufs: [Vec::new(), Vec::new()],
            lanes: None,
        }
    }

    /// Grows both band buffers to at least `cap` cells.
    ///
    /// Already-sized workspaces take the early return and never touch
    /// the vectors — `ensure` sits on the per-alignment hot path and
    /// extenders reuse one workspace across thousands of calls.
    #[inline(always)]
    pub(crate) fn ensure(&mut self, cap: usize) {
        if self.capacity() < cap {
            self.grow_to(cap);
        }
    }

    #[cold]
    fn grow_to(&mut self, cap: usize) {
        for b in &mut self.bufs {
            if b.len() < cap {
                b.resize(cap, NEG_INF);
            }
        }
    }

    /// Usable band capacity: the size of the smaller antidiagonal
    /// buffer.
    #[inline(always)]
    pub(crate) fn capacity(&self) -> usize {
        self.bufs[0].len().min(self.bufs[1].len())
    }

    /// Truncates the band buffers to length zero (capacity is kept;
    /// the `i16` lane rows of `lanes` are untouched).
    ///
    /// Calling this between alignments is **never required for
    /// correctness**: every read of a band slot is guarded by the
    /// `DiagMeta` candidate interval of the antidiagonal that last
    /// wrote it *in the current call* (`contains(i)`), and the metas
    /// restart from the origin/`EMPTY` state on every call — so cells
    /// left over from a previous, larger alignment are unreachable,
    /// not merely ignored. The guard is what
    /// `workspace_reuse_is_clean` and the cross-size regression tests
    /// pin down. `reset_len` exists for diagnostics: after it, the
    /// next `ensure` re-fills every cell with `-∞`, so a kernel that
    /// *did* depend on stale contents would fail loudly.
    pub fn reset_len(&mut self) {
        for b in &mut self.bufs {
            b.clear();
        }
    }
}

/// Candidate interval of a stored antidiagonal; slot `0` of its
/// buffer corresponds to `i = base` (`base == cand_lo`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiagMeta {
    pub(crate) cand_lo: usize,
    pub(crate) cand_hi: usize,
}

impl DiagMeta {
    pub(crate) const EMPTY: DiagMeta = DiagMeta {
        cand_lo: 1,
        cand_hi: 0,
    };

    #[inline(always)]
    pub(crate) fn contains(&self, i: usize) -> bool {
        i >= self.cand_lo && i <= self.cand_hi
    }
}

/// Memory-restricted X-Drop extension with `i32` scores and forward
/// sequence access.
///
/// Runs the kernel selected by `params.kernel`
/// (bit-identical to the scalar reference; see [`crate::kernel`]).
pub fn align<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> Result<AlignOutput> {
    let mut ws = Workspace::new();
    crate::kernel::align_views(
        params.kernel,
        &Fwd(h),
        &Fwd(v),
        scorer,
        params,
        policy,
        &mut ws,
    )
}

/// [`align`] reusing a caller-provided workspace across calls.
pub fn align_with_workspace<S: Scorer>(
    h: &[u8],
    v: &[u8],
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    ws: &mut Workspace,
) -> Result<AlignOutput> {
    crate::kernel::align_views(params.kernel, &Fwd(h), &Fwd(v), scorer, params, policy, ws)
}

/// The two-antidiagonal kernel, generic over sequence direction
/// (Algorithm 1 with the `op(·)` transform).
/// **This scalar implementation is the reference** every kernel in
/// [`crate::kernel`] is pinned bit-identical to.
pub fn align_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    ws: &mut Workspace,
) -> Result<AlignOutput> {
    let (m, n) = (h.len(), v.len());
    let delta = m.min(n) + 1;
    let delta_b = policy.delta_b();
    if delta_b == 0 {
        return Err(AlignError::InvalidConfig("δ_b must be nonzero"));
    }
    ws.ensure(delta_b);
    let gap = scorer.gap();
    let x = params.x;

    // bufs[d % 2] holds antidiagonal d; metas[] mirror that.
    let mut metas = [
        DiagMeta {
            cand_lo: 0,
            cand_hi: 0,
        },
        DiagMeta::EMPTY,
    ];
    ws.bufs[0][0] = 0;
    // Degenerate-but-valid: the buffer at index 1 has never been
    // written; its meta is EMPTY so it is never read.

    let mut best = AlignResult::empty();
    let mut t_best = 0i32;
    let (mut live_lo, mut live_hi) = (0usize, 0usize);
    // i-index of the best live cell on the previous antidiagonal;
    // Saturate clips the band around it.
    let mut prev_best_i = 0usize;
    // This call's band capacity: δ_b, doubled (at least to the
    // needed width) under Grow. It is tracked here rather than read
    // off the workspace, so a reused workspace that already owns
    // larger buffers changes neither the band bound nor the reported
    // `work_bytes`.
    let mut cap = delta_b;
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 2 * cap * std::mem::size_of::<i32>(),
        ..Default::default()
    };

    for d in 1..=(m + n) {
        let geo_lo = d.saturating_sub(m);
        let geo_hi = d.min(n);
        let mut cand_lo = live_lo.max(geo_lo);
        let mut cand_hi = (live_hi + 1).min(geo_hi);
        if cand_lo > cand_hi {
            break;
        }
        let width = cand_hi - cand_lo + 1;
        if width > cap {
            match policy {
                BandPolicy::Exact(delta_b) => {
                    return Err(AlignError::BandExceeded {
                        needed: width,
                        delta_b,
                        antidiagonal: d,
                    });
                }
                BandPolicy::Grow(_) => {
                    cap = width.max(2 * cap);
                    ws.ensure(cap);
                    stats.work_bytes = 2 * cap * std::mem::size_of::<i32>();
                }
                BandPolicy::Saturate(delta_b) => {
                    // Clip to the δ_b candidates nearest the previous
                    // best cell (band re-centered every iteration).
                    let half = delta_b / 2;
                    let lo_min = cand_lo;
                    let lo_max = cand_hi + 1 - delta_b;
                    let lo = prev_best_i.saturating_sub(half).clamp(lo_min, lo_max);
                    stats.cells_clipped += (width - delta_b) as u64;
                    cand_lo = lo;
                    cand_hi = lo + delta_b - 1;
                }
            }
        }

        let cur_idx = d % 2;
        let prev_idx = 1 - cur_idx;
        let meta_prev2 = metas[cur_idx]; // antidiagonal d − 2 (same buffer)
        let meta_prev = metas[prev_idx]; // antidiagonal d − 1
                                         // Slot re-basing offset between d and d − 2 (the paper's
                                         // L1_inc + L2_inc combination). Monotone band bounds
                                         // guarantee cand_lo ≥ meta_prev2.cand_lo.
        let shift = cand_lo - meta_prev2.cand_lo.min(cand_lo);
        let in_place = shift == 0;

        let mut t_new = t_best;
        let mut any_live = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        let mut new_best_i = prev_best_i;
        let mut best_on_diag = i32::MIN;
        // `saved` carries the pre-overwrite value of the slot written
        // in the previous inner-loop step — the paper's w_last.
        let mut saved = NEG_INF;

        for i in cand_lo..=cand_hi {
            let w = i - cand_lo;
            // Split borrows: cur and prev are different array elements.
            let diag_old = if i >= 1 && meta_prev2.contains(i - 1) {
                if in_place {
                    saved
                } else {
                    ws.bufs[cur_idx][(i - 1) - meta_prev2.cand_lo]
                }
            } else {
                NEG_INF
            };
            let diag = if is_dropped(diag_old) {
                NEG_INF
            } else {
                // contains(i−1) implies j ≥ 1 on antidiagonal d.
                let j = d - i;
                diag_old.saturating_add(scorer.sim(v.at(i - 1), h.at(j - 1)))
            };
            let left = if meta_prev.contains(i) {
                ws.bufs[prev_idx][i - meta_prev.cand_lo].saturating_add(gap)
            } else {
                NEG_INF
            };
            let up = if i >= 1 && meta_prev.contains(i - 1) {
                ws.bufs[prev_idx][(i - 1) - meta_prev.cand_lo].saturating_add(gap)
            } else {
                NEG_INF
            };
            let mut score = diag.max(left).max(up);
            stats.cells_computed += 1;
            if !is_dropped(score) && score < t_best - x {
                score = NEG_INF;
                stats.cells_dropped += 1;
            }
            saved = ws.bufs[cur_idx][w];
            ws.bufs[cur_idx][w] = score;
            if !is_dropped(score) {
                any_live = true;
                new_lo = new_lo.min(i);
                new_hi = new_hi.max(i);
                t_new = t_new.max(score);
                if score > best_on_diag {
                    best_on_diag = score;
                    new_best_i = i;
                }
                if score > best.best_score {
                    best = AlignResult {
                        best_score: score,
                        end_h: d - i,
                        end_v: i,
                    };
                }
            }
        }
        stats.antidiagonals += 1;
        metas[cur_idx] = DiagMeta { cand_lo, cand_hi };
        if !any_live {
            break;
        }
        live_lo = new_lo;
        live_hi = new_hi;
        prev_best_i = new_best_i;
        stats.delta_w = stats.delta_w.max(live_hi - live_lo + 1);
        t_best = t_new;
    }
    Ok(AlignOutput {
        result: best,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::scoring::MatchMismatch;
    use crate::seqview::Rev;
    use crate::xdrop3;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn assert_matches_xdrop3(h: &[u8], v: &[u8], x: i32, delta_b: usize) {
        let p = XDropParams::new(x);
        let a = xdrop3::align(h, v, &sc(), p);
        let b = align(h, v, &sc(), p, BandPolicy::Grow(delta_b)).unwrap();
        assert_eq!(a.result, b.result, "result mismatch x={x} δ_b={delta_b}");
        assert_eq!(a.stats.cells_computed, b.stats.cells_computed);
        assert_eq!(a.stats.antidiagonals, b.stats.antidiagonals);
        assert_eq!(a.stats.delta_w, b.stats.delta_w);
        assert_eq!(a.stats.cells_dropped, b.stats.cells_dropped);
    }

    #[test]
    fn matches_xdrop3_on_fixed_cases() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"ACGTACGT", b"ACGTACGT"),
            (b"ACGTACGTACGT", b"ACGAACGTTCGT"),
            (b"AAAAAAAAAA", b"TTTTTTTTTT"),
            (b"ACGT", b"ACGTACGTACGTACGT"),
            (b"ACGTACGTACGTACGT", b"ACGT"),
            (b"ACGTAACGTACGT", b"ACGTACGTACGT"),
            (b"ACGTACGTACGT", b"ACGTAACGTACGT"),
            (b"A", b"A"),
            (b"A", b"C"),
            (
                b"ACGTACGTACGTACGTACGTACGTACGTACGT",
                b"ACGAACGTACGTACTTACGTACGAACGTACGT",
            ),
        ];
        for (h, v) in cases {
            let h = encode_dna(h);
            let v = encode_dna(v);
            for x in [0, 1, 2, 5, 20, 1000] {
                for delta_b in [1, 2, 4, 64] {
                    assert_matches_xdrop3(&h, &v, x, delta_b);
                }
            }
        }
    }

    #[test]
    fn exact_policy_fails_when_band_too_small() {
        // With a huge X the band spans the whole matrix; δ_b = 2 must
        // overflow.
        let s = encode_dna(b"ACGTACGTACGTACGT");
        let err = align(
            &s,
            &s,
            &sc(),
            XDropParams::new(10_000),
            BandPolicy::Exact(2),
        )
        .unwrap_err();
        match err {
            AlignError::BandExceeded {
                needed, delta_b, ..
            } => {
                assert!(needed > 2);
                assert_eq!(delta_b, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn exact_policy_succeeds_when_delta_b_ge_delta_w() {
        let h = encode_dna(b"ACGTACGTACGTACGTACGTACGT");
        let v = encode_dna(b"ACGTACGAACGTACGTACTTACGT");
        let p = XDropParams::new(8);
        let probe = align(&h, &v, &sc(), p, BandPolicy::Grow(4)).unwrap();
        // Candidate width can exceed the live width δ_w by 1 (the
        // U + 1 expansion slot).
        let needed = probe.stats.delta_w + 1;
        let exact = align(&h, &v, &sc(), p, BandPolicy::Exact(needed)).unwrap();
        assert_eq!(exact.result, probe.result);
    }

    #[test]
    fn grow_policy_reports_final_allocation() {
        let s = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let out = align(&s, &s, &sc(), XDropParams::new(10_000), BandPolicy::Grow(1)).unwrap();
        assert!(out.stats.work_bytes >= 2 * out.stats.delta_w * 4 - 8);
    }

    #[test]
    fn saturate_policy_never_overreports() {
        let h = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
        let v = encode_dna(b"ACGAACGTACGTACTTACGTACGAACGTACGTTCGTACGA");
        let p = XDropParams::new(50);
        let exact = xdrop3::align(&h, &v, &sc(), p);
        for delta_b in [2, 3, 5, 9, 17] {
            let sat = align(&h, &v, &sc(), p, BandPolicy::Saturate(delta_b)).unwrap();
            assert!(
                sat.result.best_score <= exact.result.best_score,
                "saturate must not invent score (δ_b={delta_b})"
            );
        }
        // A generous δ_b loses nothing.
        let sat = align(&h, &v, &sc(), p, BandPolicy::Saturate(64)).unwrap();
        assert_eq!(sat.result, exact.result);
        assert_eq!(sat.stats.cells_clipped, 0);
    }

    #[test]
    fn saturate_counts_clipped_cells() {
        let s = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let out = align(
            &s,
            &s,
            &sc(),
            XDropParams::new(10_000),
            BandPolicy::Saturate(3),
        )
        .unwrap();
        assert!(out.stats.cells_clipped > 0);
    }

    #[test]
    fn zero_delta_b_rejected() {
        let s = encode_dna(b"ACGT");
        let err = align(&s, &s, &sc(), XDropParams::new(5), BandPolicy::Exact(0)).unwrap_err();
        assert_eq!(err, AlignError::InvalidConfig("δ_b must be nonzero"));
    }

    #[test]
    fn memory_is_two_delta_b() {
        let h = encode_dna(b"ACGTACGTACGTACGTACGT");
        let v = encode_dna(b"ACGTACGTACGTACGTACGA");
        let out = align(&h, &v, &sc(), XDropParams::new(5), BandPolicy::Exact(16)).unwrap();
        assert_eq!(out.stats.work_bytes, 2 * 16 * 4);
        // The whole point: far less than the 3δ of xdrop3.
        let three = xdrop3::align(&h, &v, &sc(), XDropParams::new(5));
        assert!(out.stats.work_bytes < three.stats.work_bytes);
    }

    #[test]
    fn reverse_views_equal_reversed_copies() {
        let h = encode_dna(b"ACGTTACGGTACGTACAA");
        let v = encode_dna(b"ACGTTACGTACGTACAAG");
        let hr: Vec<u8> = h.iter().rev().copied().collect();
        let vr: Vec<u8> = v.iter().rev().copied().collect();
        let mut ws = Workspace::new();
        let p = XDropParams::new(4);
        let via_view =
            align_views(&Rev(&h), &Rev(&v), &sc(), p, BandPolicy::Grow(8), &mut ws).unwrap();
        let via_copy = align(&hr, &vr, &sc(), p, BandPolicy::Grow(8)).unwrap();
        assert_eq!(via_view.result, via_copy.result);
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let mut ws = Workspace::new();
        let long = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let p = XDropParams::new(100);
        let _ = align_with_workspace(&long, &long, &sc(), p, BandPolicy::Grow(4), &mut ws);
        let h = encode_dna(b"ACGT");
        let v = encode_dna(b"ACCT");
        let fresh = align(&h, &v, &sc(), p, BandPolicy::Grow(4)).unwrap();
        let reused = align_with_workspace(&h, &v, &sc(), p, BandPolicy::Grow(4), &mut ws).unwrap();
        assert_eq!(fresh.result, reused.result);
        assert_eq!(fresh.stats, reused.stats);
    }

    /// Regression: one workspace reused back-to-back across
    /// alignments of very different sizes and across all three band
    /// policies must never read stale cells from an earlier, larger
    /// call — the meta-guard invariant documented on
    /// [`Workspace::reset_len`].
    #[test]
    fn workspace_reuse_across_sizes_and_policies() {
        let big = encode_dna(&b"ACGTACGTGGATCCAT".repeat(24)); // 384 bp
        let mid = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let tiny = encode_dna(b"ACGT");
        let seqs: [&[u8]; 5] = [&big, &tiny, &mid, &tiny, &big];
        let policies = [
            BandPolicy::Grow(4),
            BandPolicy::Saturate(8),
            BandPolicy::Grow(64),
            BandPolicy::Exact(512),
            BandPolicy::Saturate(3),
        ];
        let mut ws = Workspace::new();
        // Dirty the workspace with a large, band-heavy alignment.
        let _ = align_with_workspace(
            &big,
            &big,
            &sc(),
            XDropParams::unbounded(),
            BandPolicy::Grow(4),
            &mut ws,
        );
        for x in [2, 25, 10_000] {
            let p = XDropParams::new(x);
            for (s, policy) in seqs.iter().zip(policies) {
                let mut h = s.to_vec();
                if let Some(c) = h.first_mut() {
                    *c = (*c + 1) % 4;
                }
                let fresh = align(&h, s, &sc(), p, policy).unwrap();
                let reused = align_with_workspace(&h, s, &sc(), p, policy, &mut ws).unwrap();
                assert_eq!(fresh.result, reused.result, "policy {policy:?} x={x}");
                // Every field, `work_bytes` under Grow included: a
                // pre-grown workspace must not change the report.
                assert_eq!(fresh.stats, reused.stats, "policy {policy:?} x={x}");
            }
        }
        // reset_len is allowed but never required: results unchanged.
        ws.reset_len();
        assert_eq!(ws.capacity(), 0);
        let p = XDropParams::new(25);
        let after = align_with_workspace(&mid, &mid, &sc(), p, BandPolicy::Grow(4), &mut ws);
        let fresh = align(&mid, &mid, &sc(), p, BandPolicy::Grow(4));
        assert_eq!(after.unwrap().result, fresh.unwrap().result);
    }

    #[test]
    fn ensure_skips_resize_when_already_sized() {
        let mut ws = Workspace::new();
        ws.ensure(64);
        assert_eq!(ws.capacity(), 64);
        let ptrs = [ws.bufs[0].as_ptr(), ws.bufs[1].as_ptr()];
        ws.ensure(16); // smaller: must be a no-op
        ws.ensure(64); // equal: must be a no-op
        assert_eq!([ws.bufs[0].as_ptr(), ws.bufs[1].as_ptr()], ptrs);
        ws.ensure(65); // larger: must grow both buffers
        assert!(ws.capacity() >= 65);
    }

    #[test]
    fn empty_inputs() {
        let s = encode_dna(b"ACGT");
        let out = align(&s, &[], &sc(), XDropParams::new(5), BandPolicy::Exact(4)).unwrap();
        assert_eq!(out.result, AlignResult::empty());
        let out = align(&[], &[], &sc(), XDropParams::new(5), BandPolicy::Exact(1)).unwrap();
        assert_eq!(out.result, AlignResult::empty());
    }
}
