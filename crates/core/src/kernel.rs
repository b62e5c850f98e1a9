//! Lane-parallel antidiagonal kernels with runtime dispatch.
//!
//! The scalar inner loop of [`crate::xdrop2::align_views_ty`] pays a
//! per-cell branch for every liveness guard, a per-cell generic
//! [`SeqView`] fetch, and a per-cell [`Scorer`] call. Scrooge
//! (Lindegger et al.) and LOGAN (Zeni et al.) both show that
//! X-Drop-style aligners are lane-bound and that a branch-free
//! antidiagonal sweep is worth integer factors on commodity CPUs.
//! This module restructures one antidiagonal sweep into three phases
//! over contiguous slices:
//!
//! 1. **Stage** — snapshot the segment of antidiagonal `d − 2` the
//!    sweep will read into the workspace's scratch buffer *before*
//!    any in-place writes. In the scalar kernel every read of `d − 2`
//!    observes pre-overwrite values (through the one-cell `saved`
//!    temporary when writing in place, or because reads stay ahead of
//!    writes when the band base shifts), so staging the whole segment
//!    up front is exact, and it removes the serial dependence between
//!    cells.
//! 2. **Sweep** — compute raw cell scores for the *interior* of the
//!    candidate interval (the cells whose three neighbours are all
//!    stored: a contiguous range, because each guard is an interval)
//!    in fixed-width [`CHUNK`]-cell slices with no per-cell guards.
//!    The few boundary cells keep the scalar per-cell path.
//!    [`KernelKind::Simd`] issues explicit SSE4.1 (or NEON)
//!    `std::arch` intrinsics for the `i32` match/mismatch (DNA) case,
//!    turning the scoring into a vector compare-and-select instead of
//!    a gather; every other case (and a host without those ISAs)
//!    takes the type-generic chunk loop written for the
//!    autovectorizer.
//! 3. **Cutoff** — apply the X-Drop threshold and fold the liveness
//!    reductions (band bounds, per-diagonal best, global best) chunk
//!    at a time: a per-chunk max-reduction decides whether the
//!    strictly-ordered "first maximum wins" scan needs to run at all.
//!
//! ## Bit-identity is the contract
//!
//! Every kernel must produce the *same bytes* as the scalar reference
//! — same [`crate::stats::AlignResult`], same
//! [`crate::stats::AlignStats`] field for field, same
//! [`crate::error::AlignError`] under [`BandPolicy::Exact`]. The IPU
//! simulator's cost model consumes those stats; if a kernel changed
//! `cells_computed` by one cell, every modeled figure would silently
//! shift. The contract is enforced by the `kernel_bit_identity`
//! differential proptest (tier-1) across all [`BandPolicy`] variants,
//! both score cell types, and both extension directions. Kernel
//! choice may therefore only ever change host wall-clock, never
//! results and never modeled time.
//!
//! The one numeric subtlety: the scalar kernel uses `saturating_add`
//! for `i32` cells while the SIMD lanes use wrapping `padd`. These
//! agree because every stored cell is bounded below by
//! `NEG_INF + k·min(gap, mis)` with `k` at most the number of sweeps
//! (sequences would need to be ~10⁹ symbols long before a sum could
//! reach `i32::MIN`), and `NEG_INF = i32::MIN / 4` leaves exactly
//! that headroom by design.

use crate::error::{AlignError, Result};
use crate::scorety::ScoreTy;
use crate::scoring::{MatchMismatch, Scorer};
use crate::seqview::SeqView;
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::xdrop2::{self, BandPolicy, DiagMeta, Workspace};
use crate::XDropParams;

/// Fixed chunk width (cells) of the lane-parallel sweeps.
pub const CHUNK: usize = 16;

/// Environment variable forcing the kernel choice: `scalar`, `simd`,
/// `batched`, or `auto` (= `simd`). Unknown values fall back to
/// `simd` with a one-time stderr warning. Intended for tests and for
/// A/B runs of the bench harness.
pub const KERNEL_ENV: &str = "XDROP_KERNEL";

/// Which antidiagonal inner-loop implementation to run.
///
/// All variants are bit-identical; they differ only in host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// The reference per-cell loop of
    /// [`crate::xdrop2::align_views_ty`].
    Scalar,
    /// Branch-free fixed-width chunks over contiguous slices, with
    /// explicit `std::arch` SSE4.1/NEON lanes for the `i32`
    /// match/mismatch (DNA) case where the host has them (detected at
    /// runtime); every other configuration takes the type-generic
    /// chunk loop, written for the autovectorizer.
    Simd,
    /// Inter-sequence batching ([`crate::batched`]): 8–32 independent
    /// alignments share each vector register in `i16` lanes, with
    /// length bucketing and an overflow-rerun safety net. Selected
    /// explicitly (never by [`KernelKind::auto`]) because its payoff
    /// comes from [`crate::extension::Extender::extend_batch`], which
    /// the executor hands whole claims of comparisons; through the
    /// single-comparison API it runs a batch of one.
    Batched,
}

#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(target_arch = "aarch64")]
fn simd_available() -> bool {
    std::arch::is_aarch64_feature_detected!("neon")
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn simd_available() -> bool {
    false
}

/// The widest SIMD capability detected on this host, as a stable
/// lower-case string: `"avx512bw"`, `"avx2"`, `"sse4.1"`, `"sse2"`
/// (x86-64), `"neon"` (aarch64), or `"generic"`. This is the
/// *capability report* — what the hardware offers — as recorded in
/// `BENCH_xdrop.json`'s host section and the trace meta events; which
/// backend a kernel actually ran is reported separately (e.g.
/// [`crate::batched::BatchReport::sweep_backend`]).
pub fn host_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            "avx512bw"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else if std::arch::is_x86_feature_detected!("sse4.1") {
            "sse4.1"
        } else {
            "sse2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            "neon"
        } else {
            "generic"
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "generic"
    }
}

/// Ordinal tier of [`host_simd`], for numeric consumers (the trace
/// meta event's args can only carry numbers): `4` = avx512bw,
/// `3` = avx2, `2` = sse4.1/neon, `1` = sse2, `0` = generic.
pub fn host_simd_tier() -> u32 {
    match host_simd() {
        "avx512bw" => 4,
        "avx2" => 3,
        "sse4.1" | "neon" => 2,
        "sse2" => 1,
        _ => 0,
    }
}

/// Warns on stderr — once per process per variable — that an
/// environment override held an unrecognized value and what was used
/// instead. Silent fallback hid typos like `XDROP_KERNEL=simd128` for
/// three releases; every env-dispatch path (kernel kind, sweep
/// backend) now routes its unknown-value case through here.
pub(crate) fn warn_unknown_env(once: &std::sync::Once, var: &str, value: &str, fallback: &str) {
    once.call_once(|| {
        eprintln!("warning: unrecognized {var}={value:?}; falling back to {fallback}");
    });
}

impl KernelKind {
    /// Every kernel, scalar first (bench/report ordering).
    pub const ALL: [KernelKind; 3] = [KernelKind::Scalar, KernelKind::Simd, KernelKind::Batched];

    /// Stable lower-case name (`scalar` / `simd` / `batched`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
            KernelKind::Batched => "batched",
        }
    }

    /// Parses a kernel name as accepted by [`KERNEL_ENV`]; `auto` is
    /// `simd`, which detects its intrinsics at runtime.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "simd" | "auto" => Some(KernelKind::Simd),
            "batched" => Some(KernelKind::Batched),
            _ => None,
        }
    }

    /// [`KernelKind::Simd`] unless [`KERNEL_ENV`] forces a kernel.
    ///
    /// The environment variable is read **once per process** and the
    /// resolution cached (same discipline as
    /// [`crate::batched::SweepBackend::resolved`]): mutating
    /// `XDROP_KERNEL` at runtime — e.g. from one test while another
    /// builds an [`XDropParams`] on a sibling thread — cannot change
    /// which kernel later calls select. Programmatic selection goes
    /// through [`XDropParams::with_kernel`] or a per-request
    /// [`crate::aligner::AlignRequest`].
    pub fn auto() -> KernelKind {
        static RESOLVED: std::sync::OnceLock<KernelKind> = std::sync::OnceLock::new();
        *RESOLVED.get_or_init(KernelKind::resolve_env)
    }

    /// Uncached resolution of [`KERNEL_ENV`]: what [`KernelKind::auto`]
    /// caches on first use. Exposed so tests can pin the env-value →
    /// kernel mapping without mutating process state.
    pub fn resolve_env() -> KernelKind {
        KernelKind::resolve_env_value(std::env::var(KERNEL_ENV).ok().as_deref())
    }

    /// Pure form of [`KernelKind::resolve_env`]: resolves an override
    /// value as if `XDROP_KERNEL` held it (`None` = unset). An
    /// unrecognized value resolves to `Simd` but warns loudly (once
    /// per process) instead of silently ignoring the override.
    pub fn resolve_env_value(value: Option<&str>) -> KernelKind {
        static WARNED: std::sync::Once = std::sync::Once::new();
        match value {
            Some(v) => KernelKind::parse(v).unwrap_or_else(|| {
                warn_unknown_env(&WARNED, KERNEL_ENV, v, KernelKind::Simd.name());
                KernelKind::Simd
            }),
            None => KernelKind::Simd,
        }
    }
}

/// Runs the selected kernel. `Scalar` routes to the reference
/// implementation unchanged; `Simd` runs the three-phase
/// lane-parallel loop.
pub fn align_views<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    kind: KernelKind,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    ws: &mut Workspace<T>,
) -> Result<AlignOutput> {
    match kind {
        KernelKind::Scalar => xdrop2::align_views_ty(h, v, scorer, params, policy, ws),
        KernelKind::Simd => lane_parallel(h, v, scorer, params, policy, ws, simd_available()),
        KernelKind::Batched => {
            // The inter-sequence kernel's natural entry point is
            // `crate::batched::align_batch` over a *slice* of tasks
            // (`Extender::extend_batch` hands it whole claims);
            // through the single-comparison API it runs a batch of
            // one. It owns per-lane i16 buffers and therefore ignores
            // `ws`, which no reported statistic depends on.
            if T::as_i32_slice(&[]).is_some() {
                let ho = crate::seqview::collect_view(h);
                let vo = crate::seqview::collect_view(v);
                let task = crate::batched::BatchTask {
                    h: crate::batched::TaskView::Fwd(&ho),
                    v: crate::batched::TaskView::Fwd(&vo),
                };
                let (mut results, _) = crate::batched::align_batch(
                    std::slice::from_ref(&task),
                    scorer,
                    params,
                    policy,
                );
                results.pop().expect("batch of one")
            } else {
                // Non-i32 cells (the f32 dual-issue variant) have no
                // i16 lane mapping; the scalar reference is the
                // definitionally bit-identical fallback.
                xdrop2::align_views_ty(h, v, scorer, params, policy, ws)
            }
        }
    }
}

/// Stages the `d − 2` cells `diag_old(i) = buf[(i − 1) − p2.cand_lo]`
/// for `i ∈ [cand_lo, cand_hi]` into `scratch[0..width]`, writing
/// `-∞` where the `i ≥ 1 && p2.contains(i − 1)` guard fails. Runs
/// before any write of the sweep, which is exactly what the scalar
/// kernel's `saved` temporary observes.
fn stage_diag2<T: ScoreTy>(
    src: &[T],
    scratch: &mut [T],
    cand_lo: usize,
    cand_hi: usize,
    p2: DiagMeta,
) {
    let width = cand_hi - cand_lo + 1;
    let lo_v = cand_lo.max(p2.cand_lo + 1).max(1);
    let hi_v = cand_hi.min(p2.cand_hi.wrapping_add(1));
    if lo_v > hi_v || p2.cand_lo > p2.cand_hi {
        for s in &mut scratch[..width] {
            *s = T::neg_inf();
        }
        return;
    }
    let dst_off = lo_v - cand_lo;
    let len = hi_v - lo_v + 1;
    let src_off = (lo_v - 1) - p2.cand_lo;
    for s in &mut scratch[..dst_off] {
        *s = T::neg_inf();
    }
    scratch[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
    for s in &mut scratch[dst_off + len..width] {
        *s = T::neg_inf();
    }
}

/// One boundary cell of the sweep: the exact scalar recurrence, with
/// `diag_old` read from the staged scratch segment.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn boundary_cell<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    i: usize,
    d: usize,
    cand_lo: usize,
    cur: &mut [T],
    prev: &[T],
    scratch: &[T],
    meta_prev: DiagMeta,
    h: &HV,
    v: &VV,
    scorer: &S,
    gap: i32,
) {
    let w = i - cand_lo;
    let diag_old = scratch[w];
    let diag = if diag_old.is_dropped() {
        T::neg_inf()
    } else {
        // A live staged cell implies i ≥ 1 and j = d − i ≥ 1.
        let j = d - i;
        diag_old.add_i32(scorer.sim(v.at(i - 1), h.at(j - 1)))
    };
    let left = if meta_prev.contains(i) {
        prev[i - meta_prev.cand_lo].add_i32(gap)
    } else {
        T::neg_inf()
    };
    let up = if i >= 1 && meta_prev.contains(i - 1) {
        prev[(i - 1) - meta_prev.cand_lo].add_i32(gap)
    } else {
        T::neg_inf()
    };
    cur[w] = diag.maxv(left).maxv(up);
}

/// Interior sweep, type-generic chunked variant: all guards hold for
/// every cell of `[int_lo, int_hi]`, so the chunk body is a straight
/// select/add/max chain over contiguous slices that the compiler can
/// keep in lanes.
#[allow(clippy::too_many_arguments)]
fn sweep_interior_chunked<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    int_lo: usize,
    int_hi: usize,
    d: usize,
    cand_lo: usize,
    off: usize,
    cur: &mut [T],
    prev: &[T],
    scratch: &[T],
    h: &HV,
    v: &VV,
    scorer: &S,
    gap: i32,
) {
    let mut vbuf = [0u8; CHUNK];
    let mut hbuf = [0u8; CHUNK];
    let mut i0 = int_lo;
    while i0 <= int_hi {
        let clen = CHUNK.min(int_hi - i0 + 1);
        v.fill_fwd(i0 - 1, &mut vbuf[..clen]);
        h.fill_rev(d - i0 - 1, &mut hbuf[..clen]);
        let wbase = i0 - cand_lo;
        for k in 0..clen {
            let w = wbase + k;
            let diag_old = scratch[w];
            let diag = if diag_old.is_dropped() {
                T::neg_inf()
            } else {
                diag_old.add_i32(scorer.sim(vbuf[k], hbuf[k]))
            };
            let left = prev[w + off].add_i32(gap);
            let up = prev[w + off - 1].add_i32(gap);
            cur[w] = diag.maxv(left).maxv(up);
        }
        i0 += clen;
    }
}

/// Interior sweep dispatch. For `i32` cells with a match/mismatch
/// scorer on a host with the detected ISA, the sweep runs explicit
/// `std::arch` intrinsics. Every other configuration (f32 cells,
/// matrix scorers, hosts without SSE4.1/NEON) takes the fully
/// generic chunked sweep, which produces the same bytes.
#[allow(clippy::too_many_arguments)]
fn sweep_interior<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    int_lo: usize,
    int_hi: usize,
    d: usize,
    cand_lo: usize,
    off: usize,
    cur: &mut [T],
    prev: &[T],
    scratch: &[T],
    h: &HV,
    v: &VV,
    scorer: &S,
    gap: i32,
    mm: Option<MatchMismatch>,
    explicit_simd: bool,
) {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if let (true, Some(mm)) = (explicit_simd, mm) {
        if let (Some(prev_i), Some(scr_i)) = (T::as_i32_slice(prev), T::as_i32_slice(scratch)) {
            if let Some(cur_i) = T::as_i32_slice_mut(&mut *cur) {
                sweep_interior_simd(
                    int_lo, int_hi, d, cand_lo, off, cur_i, prev_i, scr_i, h, v, mm,
                );
                return;
            }
        }
    }
    let _ = (mm, explicit_simd);
    sweep_interior_chunked(
        int_lo, int_hi, d, cand_lo, off, cur, prev, scratch, h, v, scorer, gap,
    );
}

/// Explicit-SIMD interior sweep for `i32` DNA scoring: stages each
/// chunk's symbols (one word-level unpack for [`crate::packing`]
/// views), then hands contiguous lanes to the ISA-specific kernel.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(clippy::too_many_arguments)]
fn sweep_interior_simd<HV: SeqView, VV: SeqView>(
    int_lo: usize,
    int_hi: usize,
    d: usize,
    cand_lo: usize,
    off: usize,
    cur: &mut [i32],
    prev: &[i32],
    scratch: &[i32],
    h: &HV,
    v: &VV,
    mm: MatchMismatch,
) {
    let mut vbuf = [0u8; CHUNK];
    let mut hbuf = [0u8; CHUNK];
    let mut i0 = int_lo;
    while i0 <= int_hi {
        let clen = CHUNK.min(int_hi - i0 + 1);
        v.fill_fwd(i0 - 1, &mut vbuf[..clen]);
        h.fill_rev(d - i0 - 1, &mut hbuf[..clen]);
        // SAFETY: the dispatcher only selects this path after runtime
        // detection of the target feature; all slice accesses are in
        // bounds for the interior range (see the interval proof in
        // `lane_parallel`).
        unsafe {
            isa::sweep_chunk(
                cur,
                prev,
                scratch,
                &vbuf,
                &hbuf,
                clen,
                i0 - cand_lo,
                off,
                mm.match_score,
                mm.mismatch_score,
                mm.gap_penalty,
            );
        }
        i0 += clen;
    }
}

/// Cutoff + reduction over one ≤ [`CHUNK`]-cell slice, scalar
/// reference semantics. Returns `(live_mask, chunk_max, drops)`:
/// bit `k` of `live_mask` is set when cell `base + k` survives the
/// X-Drop cutoff, `chunk_max` is the maximum surviving score, and
/// `drops` counts cells pruned by this sweep's threshold.
fn cutoff_chunk_scalar<T: ScoreTy>(
    cur: &mut [T],
    base: usize,
    clen: usize,
    thr: i32,
) -> (u32, i32, u32) {
    let mut live_mask = 0u32;
    let mut drops = 0u32;
    let mut chunk_max = i32::MIN;
    for k in 0..clen {
        let s = cur[base + k];
        if !s.is_dropped() {
            let si = s.to_i32();
            if si < thr {
                cur[base + k] = T::neg_inf();
                drops += 1;
            } else {
                live_mask |= 1 << k;
                chunk_max = chunk_max.max(si);
            }
        }
    }
    (live_mask, chunk_max, drops)
}

/// [`cutoff_chunk_scalar`], vectorized for `i32` cells when the
/// dispatcher enabled explicit SIMD.
fn cutoff_chunk<T: ScoreTy>(
    cur: &mut [T],
    base: usize,
    clen: usize,
    thr: i32,
    use_simd: bool,
) -> (u32, i32, u32) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        if let Some(cur_i) = T::as_i32_slice_mut(&mut *cur) {
            // SAFETY: `use_simd` implies SSE4.1 was detected.
            return unsafe { isa::cutoff_chunk(cur_i, base, clen, thr) };
        }
    }
    let _ = use_simd;
    cutoff_chunk_scalar(cur, base, clen, thr)
}

/// The three-phase lane-parallel outer loop. Control flow (band
/// policies, growth, clipping, termination) is copied line for line
/// from the scalar reference; only the per-antidiagonal inner loop is
/// restructured.
#[allow(clippy::too_many_arguments)]
fn lane_parallel<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    ws: &mut Workspace<T>,
    explicit_simd: bool,
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
    let mm = scorer.as_match_mismatch();

    let mut metas = [
        DiagMeta {
            cand_lo: 0,
            cand_hi: 0,
        },
        DiagMeta::EMPTY,
    ];
    ws.bufs[0][0] = T::from_i32(0);

    let mut best = AlignResult::empty();
    let mut t_best = 0i32;
    let (mut live_lo, mut live_hi) = (0usize, 0usize);
    let mut prev_best_i = 0usize;
    // This call's band capacity, as in the scalar reference.
    let mut cap = delta_b;
    let mut stats = AlignStats {
        cells_computed: 1,
        delta_w: 1,
        delta,
        work_bytes: 2 * cap * std::mem::size_of::<T>(),
        ..Default::default()
    };

    for d in 1..=(m + n) {
        if let Some(cap) = params.max_antidiagonals {
            if stats.antidiagonals as usize >= cap {
                break;
            }
        }
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
                    stats.work_bytes = 2 * cap * std::mem::size_of::<T>();
                }
                BandPolicy::Saturate(delta_b) => {
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
        let width = cand_hi - cand_lo + 1;

        let cur_idx = d % 2;
        let prev_idx = 1 - cur_idx;
        let meta_prev2 = metas[cur_idx];
        let meta_prev = metas[prev_idx];

        // Phase 1: stage the d − 2 segment before any write.
        debug_assert!(ws.scratch.len() >= width);
        stage_diag2(
            &ws.bufs[cur_idx],
            &mut ws.scratch,
            cand_lo,
            cand_hi,
            meta_prev2,
        );

        let mut t_new = t_best;
        let mut any_live = false;
        let (mut new_lo, mut new_hi) = (usize::MAX, 0usize);
        let mut new_best_i = prev_best_i;
        let mut best_on_diag = i32::MIN;

        {
            let (first, second) = ws.bufs.split_at_mut(1);
            let (cur, prev): (&mut [T], &[T]) = if cur_idx == 0 {
                (&mut first[0], &second[0])
            } else {
                (&mut second[0], &first[0])
            };
            let scratch: &[T] = &ws.scratch;

            // Phase 2: raw scores. The interior is the intersection of
            // the three neighbour-validity intervals (diag: staged
            // segment; left: meta_prev; up: meta_prev shifted by one)
            // with the candidate interval — contiguous by
            // construction, so everything inside is branch-free.
            let d_lo = cand_lo.max(meta_prev2.cand_lo + 1).max(1);
            let d_hi = cand_hi.min(meta_prev2.cand_hi.wrapping_add(1));
            let int_lo = d_lo.max(meta_prev.cand_lo + 1);
            let int_hi = d_hi.min(meta_prev.cand_hi);
            let (int_lo, int_hi) = if int_lo <= int_hi && meta_prev.cand_lo <= meta_prev.cand_hi {
                (int_lo, int_hi)
            } else {
                (cand_hi + 1, cand_hi) // empty: prologue covers all
            };
            let pro_end = int_lo.min(cand_hi + 1);
            for i in cand_lo..pro_end {
                boundary_cell(
                    i, d, cand_lo, cur, prev, scratch, meta_prev, h, v, scorer, gap,
                );
            }
            if int_lo <= int_hi {
                debug_assert!(cand_lo >= meta_prev.cand_lo);
                let off = cand_lo - meta_prev.cand_lo;
                sweep_interior(
                    int_lo,
                    int_hi,
                    d,
                    cand_lo,
                    off,
                    cur,
                    prev,
                    scratch,
                    h,
                    v,
                    scorer,
                    gap,
                    mm,
                    explicit_simd,
                );
            }
            for i in (int_hi + 1).max(pro_end)..=cand_hi {
                boundary_cell(
                    i, d, cand_lo, cur, prev, scratch, meta_prev, h, v, scorer, gap,
                );
            }

            // Phase 3: X-Drop cutoff + reductions, chunk at a time.
            let thr = t_best - x;
            let use_simd_cut = explicit_simd;
            let mut base = 0usize;
            while base < width {
                let clen = CHUNK.min(width - base);
                stats.cells_computed += clen as u64;
                let (live_mask, chunk_max, drops) =
                    cutoff_chunk(cur, base, clen, thr, use_simd_cut);
                stats.cells_dropped += u64::from(drops);
                if live_mask != 0 {
                    any_live = true;
                    let first_live = base + live_mask.trailing_zeros() as usize;
                    let last_live = base + (31 - live_mask.leading_zeros() as usize);
                    new_lo = new_lo.min(cand_lo + first_live);
                    new_hi = new_hi.max(cand_lo + last_live);
                    t_new = t_new.max(chunk_max);
                    // The strictly-ordered "first maximum wins" scan
                    // only needs to run when this chunk can actually
                    // improve either maximum.
                    if chunk_max > best_on_diag || chunk_max > best.best_score {
                        let mut mask = live_mask;
                        while mask != 0 {
                            let k = mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            let i = cand_lo + base + k;
                            let s = cur[base + k].to_i32();
                            if s > best_on_diag {
                                best_on_diag = s;
                                new_best_i = i;
                            }
                            if s > best.best_score {
                                best = AlignResult {
                                    best_score: s,
                                    end_h: d - i,
                                    end_v: i,
                                };
                            }
                        }
                    }
                }
                base += clen;
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

/// SSE4.1 lanes for the `i32` DNA case (x86-64).
#[cfg(target_arch = "x86_64")]
mod isa {
    use super::CHUNK;
    use crate::NEG_INF;
    use std::arch::x86_64::*;

    /// Phase-2 chunk: compare-and-select scoring, select-based `-∞`
    /// absorption, unguarded neighbour loads. Wrapping `padd` is
    /// exact here (see the module docs on saturation headroom).
    ///
    /// # Safety
    /// Requires SSE4.1 and `wbase + clen ≤ cur.len()`,
    /// `wbase + off + clen ≤ prev.len()`, `wbase + off ≥ 1`.
    #[target_feature(enable = "sse4.1")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn sweep_chunk(
        cur: &mut [i32],
        prev: &[i32],
        scratch: &[i32],
        vsym: &[u8; CHUNK],
        hsym: &[u8; CHUNK],
        clen: usize,
        wbase: usize,
        off: usize,
        mat: i32,
        mis: i32,
        gap: i32,
    ) {
        debug_assert!(wbase + clen <= cur.len() && wbase + clen <= scratch.len());
        debug_assert!(wbase + off + clen <= prev.len() && wbase + off >= 1);
        let vmat = _mm_set1_epi32(mat);
        let vmis = _mm_set1_epi32(mis);
        let vgap = _mm_set1_epi32(gap);
        let vneg = _mm_set1_epi32(NEG_INF);
        let vliv = _mm_set1_epi32(NEG_INF / 2);
        let mut k = 0usize;
        while k + 4 <= clen {
            let w = wbase + k;
            let dold = _mm_loadu_si128(scratch.as_ptr().add(w) as *const __m128i);
            let a = _mm_setr_epi32(
                vsym[k] as i32,
                vsym[k + 1] as i32,
                vsym[k + 2] as i32,
                vsym[k + 3] as i32,
            );
            let b = _mm_setr_epi32(
                hsym[k] as i32,
                hsym[k + 1] as i32,
                hsym[k + 2] as i32,
                hsym[k + 3] as i32,
            );
            let sim = _mm_blendv_epi8(vmis, vmat, _mm_cmpeq_epi32(a, b));
            let live = _mm_cmpgt_epi32(dold, vliv);
            let diag = _mm_blendv_epi8(vneg, _mm_add_epi32(dold, sim), live);
            let left = _mm_add_epi32(
                _mm_loadu_si128(prev.as_ptr().add(w + off) as *const __m128i),
                vgap,
            );
            let up = _mm_add_epi32(
                _mm_loadu_si128(prev.as_ptr().add(w + off - 1) as *const __m128i),
                vgap,
            );
            let score = _mm_max_epi32(diag, _mm_max_epi32(left, up));
            _mm_storeu_si128(cur.as_mut_ptr().add(w) as *mut __m128i, score);
            k += 4;
        }
        while k < clen {
            let w = wbase + k;
            let dold = scratch[w];
            let diag = if dold > NEG_INF / 2 {
                dold.saturating_add(if vsym[k] == hsym[k] { mat } else { mis })
            } else {
                NEG_INF
            };
            let left = prev[w + off].saturating_add(gap);
            let up = prev[w + off - 1].saturating_add(gap);
            cur[w] = diag.max(left).max(up);
            k += 1;
        }
    }

    /// Phase-3 chunk: vector cutoff + movemask liveness +
    /// max-reduction. Returns `(live_mask, chunk_max, drops)` with
    /// the exact semantics of `cutoff_chunk_scalar`.
    ///
    /// # Safety
    /// Requires SSE4.1 and `base + clen ≤ cur.len()`.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn cutoff_chunk(
        cur: &mut [i32],
        base: usize,
        clen: usize,
        thr: i32,
    ) -> (u32, i32, u32) {
        debug_assert!(base + clen <= cur.len());
        let vliv = _mm_set1_epi32(NEG_INF / 2);
        let vthr = _mm_set1_epi32(thr);
        let vneg = _mm_set1_epi32(NEG_INF);
        let vmin = _mm_set1_epi32(i32::MIN);
        let mut vmax = vmin;
        let mut live_mask = 0u32;
        let mut drops = 0u32;
        let mut k = 0usize;
        while k + 4 <= clen {
            let p = cur.as_mut_ptr().add(base + k);
            let s = _mm_loadu_si128(p as *const __m128i);
            let live0 = _mm_cmpgt_epi32(s, vliv);
            let cut = _mm_and_si128(live0, _mm_cmplt_epi32(s, vthr));
            let s2 = _mm_blendv_epi8(s, vneg, cut);
            _mm_storeu_si128(p as *mut __m128i, s2);
            let live = _mm_andnot_si128(cut, live0);
            live_mask |= (_mm_movemask_ps(_mm_castsi128_ps(live)) as u32) << k;
            drops += (_mm_movemask_ps(_mm_castsi128_ps(cut)) as u32).count_ones();
            vmax = _mm_max_epi32(vmax, _mm_blendv_epi8(vmin, s2, live));
            k += 4;
        }
        let m1 = _mm_max_epi32(vmax, _mm_shuffle_epi32(vmax, 0x4E));
        let m2 = _mm_max_epi32(m1, _mm_shuffle_epi32(m1, 0xB1));
        let mut chunk_max = _mm_cvtsi128_si32(m2);
        while k < clen {
            let s = cur[base + k];
            if s > NEG_INF / 2 {
                if s < thr {
                    cur[base + k] = NEG_INF;
                    drops += 1;
                } else {
                    live_mask |= 1 << k;
                    chunk_max = chunk_max.max(s);
                }
            }
            k += 1;
        }
        (live_mask, chunk_max, drops)
    }
}

/// NEON lanes for the `i32` DNA case (aarch64). Mirrors the SSE4.1
/// phase-2 sweep; phase 3 stays on the scalar chunk reduction there.
#[cfg(target_arch = "aarch64")]
mod isa {
    use super::CHUNK;
    use crate::NEG_INF;
    use std::arch::aarch64::*;

    /// See the SSE4.1 `sweep_chunk`: same contract, NEON intrinsics.
    ///
    /// # Safety
    /// Requires NEON and the same bounds as the SSE4.1 variant.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn sweep_chunk(
        cur: &mut [i32],
        prev: &[i32],
        scratch: &[i32],
        vsym: &[u8; CHUNK],
        hsym: &[u8; CHUNK],
        clen: usize,
        wbase: usize,
        off: usize,
        mat: i32,
        mis: i32,
        gap: i32,
    ) {
        debug_assert!(wbase + clen <= cur.len() && wbase + clen <= scratch.len());
        debug_assert!(wbase + off + clen <= prev.len() && wbase + off >= 1);
        let vmat = vdupq_n_s32(mat);
        let vmis = vdupq_n_s32(mis);
        let vgap = vdupq_n_s32(gap);
        let vneg = vdupq_n_s32(NEG_INF);
        let vliv = vdupq_n_s32(NEG_INF / 2);
        let mut k = 0usize;
        while k + 4 <= clen {
            let w = wbase + k;
            let dold = vld1q_s32(scratch.as_ptr().add(w));
            let a = [
                vsym[k] as i32,
                vsym[k + 1] as i32,
                vsym[k + 2] as i32,
                vsym[k + 3] as i32,
            ];
            let b = [
                hsym[k] as i32,
                hsym[k + 1] as i32,
                hsym[k + 2] as i32,
                hsym[k + 3] as i32,
            ];
            let sim = vbslq_s32(
                vceqq_s32(vld1q_s32(a.as_ptr()), vld1q_s32(b.as_ptr())),
                vmat,
                vmis,
            );
            let live = vcgtq_s32(dold, vliv);
            let diag = vbslq_s32(live, vaddq_s32(dold, sim), vneg);
            let left = vaddq_s32(vld1q_s32(prev.as_ptr().add(w + off)), vgap);
            let up = vaddq_s32(vld1q_s32(prev.as_ptr().add(w + off - 1)), vgap);
            let score = vmaxq_s32(diag, vmaxq_s32(left, up));
            vst1q_s32(cur.as_mut_ptr().add(w), score);
            k += 4;
        }
        while k < clen {
            let w = wbase + k;
            let dold = scratch[w];
            let diag = if dold > NEG_INF / 2 {
                dold.saturating_add(if vsym[k] == hsym[k] { mat } else { mis })
            } else {
                NEG_INF
            };
            let left = prev[w + off].saturating_add(gap);
            let up = prev[w + off - 1].saturating_add(gap);
            cur[w] = diag.max(left).max(up);
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::packing::{PackedRev, PackedSeq};
    use crate::scoring::{Blosum62, MatchMismatch};
    use crate::seqview::{Fwd, Rev};
    use crate::Alphabet;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn mutated(h: &[u8], stride: usize) -> Vec<u8> {
        let mut v = h.to_vec();
        for i in (stride..v.len()).step_by(stride) {
            v[i] = (v[i] + 1) % 4;
        }
        v
    }

    fn assert_identical_output(
        a: &Result<AlignOutput>,
        b: &Result<AlignOutput>,
        ctx: &dyn std::fmt::Debug,
    ) {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.result, b.result, "result {ctx:?}");
                assert_eq!(a.stats, b.stats, "stats {ctx:?}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "error {ctx:?}"),
            (a, b) => panic!("outcome mismatch {ctx:?}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn names_parse_roundtrip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::parse("SIMD"), Some(KernelKind::Simd));
        assert_eq!(KernelKind::parse("  batched "), Some(KernelKind::Batched));
        assert!(KernelKind::parse("avx1024").is_none());
        assert!(KernelKind::parse("chunked").is_none());
        assert_eq!(KernelKind::parse("auto"), Some(KernelKind::Simd));
    }

    #[test]
    fn env_knob_resolution_is_pure() {
        // The override → kernel mapping, without `set_var`: mutating
        // the real environment from a test leaks into sibling threads
        // (`XDropParams::new` reads the cached resolution), so the
        // mapping is pinned through the pure resolver instead. The
        // end-to-end env path runs in a subprocess from
        // `tests/kernel_identity.rs`.
        assert_eq!(
            KernelKind::resolve_env_value(Some("scalar")),
            KernelKind::Scalar
        );
        assert_eq!(
            KernelKind::resolve_env_value(Some("batched")),
            KernelKind::Batched
        );
        assert_eq!(
            KernelKind::resolve_env_value(Some("definitely-not-a-kernel")),
            KernelKind::Simd
        );
        assert_eq!(KernelKind::resolve_env_value(None), KernelKind::Simd);
        // And the cached reader agrees with an uncached resolution of
        // the (unmutated) process environment.
        assert_eq!(KernelKind::auto(), KernelKind::resolve_env());
    }

    #[test]
    fn all_kernels_identical_on_fixed_cases() {
        let base = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(12)); // 240 bp
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (base.clone(), base.clone()),
            (base.clone(), mutated(&base, 7)),
            (base.clone(), mutated(&base, 3)),
            (base[..60].to_vec(), mutated(&base, 5)),
            (encode_dna(b"A"), encode_dna(b"C")),
            (encode_dna(b"ACGT"), Vec::new()),
        ];
        let policies = [
            BandPolicy::Exact(512),
            BandPolicy::Grow(2),
            BandPolicy::Grow(64),
            BandPolicy::Saturate(4),
            BandPolicy::Saturate(17),
        ];
        for (h, v) in &cases {
            for policy in policies {
                for x in [0, 3, 25, 10_000] {
                    let p = XDropParams::new(x);
                    let run = |kind| {
                        let mut ws = Workspace::<i32>::new();
                        align_views(kind, &Fwd(h), &Fwd(v), &sc(), p, policy, &mut ws)
                    };
                    let scalar = run(KernelKind::Scalar);
                    for kind in [KernelKind::Simd, KernelKind::Batched] {
                        assert_identical_output(&scalar, &run(kind), &(kind, policy, x));
                    }
                }
            }
        }
    }

    #[test]
    fn exact_band_error_is_identical() {
        let s = encode_dna(&b"ACGTACGTACGTACGT".repeat(4));
        let p = XDropParams::new(10_000);
        for kind in [KernelKind::Simd, KernelKind::Batched] {
            let mut ws = Workspace::<i32>::new();
            let err = align_views(
                kind,
                &Fwd(&s),
                &Fwd(&s),
                &sc(),
                p,
                BandPolicy::Exact(3),
                &mut ws,
            )
            .unwrap_err();
            let mut ws = Workspace::<i32>::new();
            let ref_err = align_views(
                KernelKind::Scalar,
                &Fwd(&s),
                &Fwd(&s),
                &sc(),
                p,
                BandPolicy::Exact(3),
                &mut ws,
            )
            .unwrap_err();
            assert_eq!(err, ref_err, "{kind:?}");
        }
    }

    #[test]
    fn packed_and_reverse_views_identical() {
        let h = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(10));
        let v = mutated(&h, 9);
        let hp = PackedSeq::pack(&h, Alphabet::Dna);
        let vp = PackedSeq::pack(&v, Alphabet::Dna);
        let p = XDropParams::new(30);
        for policy in [BandPolicy::Grow(8), BandPolicy::Saturate(16)] {
            let mut ws = Workspace::<i32>::new();
            let scalar = align_views(
                KernelKind::Scalar,
                &Fwd(&h),
                &Fwd(&v),
                &sc(),
                p,
                policy,
                &mut ws,
            );
            for kind in [KernelKind::Simd, KernelKind::Batched] {
                let mut ws = Workspace::<i32>::new();
                let packed = align_views(kind, &hp, &vp, &sc(), p, policy, &mut ws);
                assert_identical_output(&scalar, &packed, &("packed", kind, policy));
                let mut ws = Workspace::<i32>::new();
                let rev = align_views(kind, &PackedRev(&hp), &Rev(&v), &sc(), p, policy, &mut ws);
                let mut ws = Workspace::<i32>::new();
                let rev_ref = align_views(
                    KernelKind::Scalar,
                    &Rev(&h),
                    &Rev(&v),
                    &sc(),
                    p,
                    policy,
                    &mut ws,
                );
                assert_identical_output(&rev_ref, &rev, &("packed-rev", kind, policy));
            }
        }
    }

    #[test]
    fn f32_cells_identical_across_kernels() {
        let h = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(8));
        let v = mutated(&h, 6);
        let p = XDropParams::new(20);
        for policy in [BandPolicy::Grow(4), BandPolicy::Saturate(8)] {
            let mut ws = Workspace::<f32>::new();
            let scalar = align_views(
                KernelKind::Scalar,
                &Fwd(&h),
                &Fwd(&v),
                &sc(),
                p,
                policy,
                &mut ws,
            );
            for kind in [KernelKind::Simd, KernelKind::Batched] {
                let mut ws = Workspace::<f32>::new();
                let got = align_views(kind, &Fwd(&h), &Fwd(&v), &sc(), p, policy, &mut ws);
                assert_identical_output(&scalar, &got, &("f32", kind, policy));
            }
        }
    }

    #[test]
    fn blosum62_falls_back_and_stays_identical() {
        use crate::alphabet::encode_protein;
        let h = encode_protein(&b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ".repeat(3));
        let mut v = h.clone();
        for i in (5..v.len()).step_by(11) {
            v[i] = (v[i] + 1) % 20;
        }
        let scb = Blosum62::pastis_default();
        let p = XDropParams::new(12);
        let mut ws = Workspace::<i32>::new();
        let scalar = align_views(
            KernelKind::Scalar,
            &Fwd(&h),
            &Fwd(&v),
            &scb,
            p,
            BandPolicy::Grow(8),
            &mut ws,
        );
        for kind in [KernelKind::Simd, KernelKind::Batched] {
            let mut ws = Workspace::<i32>::new();
            let got = align_views(
                kind,
                &Fwd(&h),
                &Fwd(&v),
                &scb,
                p,
                BandPolicy::Grow(8),
                &mut ws,
            );
            assert_identical_output(&scalar, &got, &("blosum", kind));
        }
    }

    #[test]
    fn workspace_shared_across_kernels_is_clean() {
        // One workspace reused by different kernels back to back —
        // the staging scratch of one call must not leak into the
        // next.
        let h = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(6));
        let v = mutated(&h, 4);
        let p = XDropParams::new(15);
        let mut ws = Workspace::<i32>::new();
        let mut outs = Vec::new();
        for kind in [
            KernelKind::Simd,
            KernelKind::Scalar,
            KernelKind::Simd,
            KernelKind::Scalar,
        ] {
            outs.push(
                align_views(
                    kind,
                    &Fwd(&h),
                    &Fwd(&v),
                    &sc(),
                    p,
                    BandPolicy::Grow(4),
                    &mut ws,
                )
                .unwrap(),
            );
        }
        for o in &outs[1..] {
            assert_eq!(o.result, outs[0].result);
            assert_eq!(o.stats, outs[0].stats);
        }
    }
}
