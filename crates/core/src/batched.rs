//! The `i16` fused-sweep kernel ([`crate::kernel::KernelKind::Batched`],
//! the default).
//!
//! The scalar reference [`xdrop2::align_views`] pays a per-cell
//! branch for every liveness guard, a per-cell [`SeqView`] fetch and
//! a per-cell [`Scorer`] call. Scrooge (Lindegger et al.) and LOGAN
//! (Zeni et al.) show that X-Drop on commodity CPUs is bound by fixed
//! per-round costs once the live band is narrow — which on real
//! long-read data it almost always is (§6.1). This kernel fuses each
//! round into one `i16` pass and keeps the paper's δ_b-bounded working
//! memory:
//!
//! * **Persistent three-plane rows** — the lane owns one row in each
//!   of three rolling planes (row pitch = band capacity + 2 pad
//!   cells). Round *d* writes its classified antidiagonal into plane
//!   `d mod 3`; the `sl`/`su` operands of round *d* are index-shifted
//!   *views* of the plane written in round *d−1* and the `sd` operand
//!   a view of round *d−2*, so no operand is ever staged. The
//!   symbols are read from two small **sequence windows** (see
//!   below), so no sequence is ever copied whole.
//! * **Two substitution sources, one sweep body** — a match/mismatch
//!   scorer (DNA) compares the window symbols in-register; a matrix
//!   scorer (BLOSUM62) first gathers the round's scores
//!   `matrix[V[i−1]][H[j−1]]` into one more `i16` row, as ksw2 does,
//!   and the sweep adds that row. Each register backend compiles one
//!   sweep body per source (`SubSource`); only matrix scorers
//!   allocate the extra row.
//! * **One pair in place** — [`align_views`] runs one lane to
//!   completion in the caller's reused [`Workspace`]: three `i16`
//!   rows of `δ_b + 2` cells and the two windows, no allocation once
//!   warm. The lane vectorizes along its own band row, so packing
//!   several pairs into a register group buys nothing (DESIGN.md
//!   §14.2 records the measurement).
//! * **i16 lanes, fully fused rounds in bursts** — cell values are
//!   stored as `i16`, doubling the cells per register over `i32`.
//!   Each round is **one** branch-free saturating-`i16` pass over
//!   contiguous slices (the register backends lane it into
//!   `vpaddsw`/`vpmaxsw` chains) with the substitution, the X-Drop
//!   cutoff, *and* the max/low-guard reductions all fused in; only
//!   three short positional scans follow, reproducing the scalar
//!   reference's first-maximum-wins reductions exactly (the first
//!   slot holding the diagonal maximum *is* the first-max-wins
//!   argmax). The lane advances `BURST_ROUNDS` rounds per call so its
//!   state stays in registers and the per-call overhead amortizes —
//!   the bands are only a few vectors wide, so fixed costs, not
//!   arithmetic, bound the round rate.
//! * **Overflow detection and rerun** — `i16` can hold scores the
//!   `i32` reference cannot. A guard band bounds every *live* stored
//!   value away from the representable edges by the maximum per-round
//!   score step; the first round a live value escapes the guard band,
//!   the lane is marked overflowed and transparently re-run through
//!   the scalar `i32` reference. See the soundness argument on
//!   `HIGH_GUARD`.
//!
//! ## Arena layout and padding invariants
//!
//! Plane row slot for logical band position `i` of the row with base
//! `b` (= that round's `cand_lo`) is `1 + (i − b)`: slot 0 is a
//! permanent leading `−∞` pad and the sweep writes one trailing `−∞`
//! pad at `width + 1`. The reads of round *d* stay inside
//! `[0, width(src) + 1]` of each source row — i.e. inside the valid
//! cells plus those two pads — because the candidate interval is
//! monotone: `cand_lo(d) ≥ cand_lo(d−1) ≥ cand_lo(d−2)` and
//! `cand_hi(d) ≤ cand_hi(d−1) + 1 ≤ cand_hi(d−2) + 2` (the live
//! interval is a subinterval of the stored row, and the next
//! candidate widens it by at most one on the right). Stale cells
//! beyond the trailing pad — left over from round `d−3` or from an
//! earlier pair in the same workspace — are therefore never read, and
//! a new lane writes only the seed row (`−∞, 0, −∞`) and the two pads
//! round 1 reads as its empty `d − 2` row.
//!
//! ## Sequence windows
//!
//! The sweep reads `V[i − 1]` and `H[d − i − 1]` for every cell `i` of
//! round *d*: `V` ascending and `H` descending in `i`. Neither view is
//! copied whole. Once per burst of [`BURST_ROUNDS`] rounds, the lane
//! stages the symbols the burst can touch into two windows — `V`
//! ascending and `H` descending, so both substitution operands are
//! forward slices. A burst starting after round `d₀` with live
//! interval `[lo, hi]` only visits cells `i ∈ [lo, hi + BURST_ROUNDS]`
//! (the candidate interval moves right by at most one cell per round
//! and never left), so a window of `BURST_ROUNDS + hi − lo + 1 ≤
//! BURST_ROUNDS + stride − 2` symbols covers it — exactly the window
//! length the arena holds. A Grow re-pitch ends the burst, and the
//! next burst restages. One sequence is read forward and one backward
//! per side (`V` on right extensions, `H` on left ones).
//!
//! The substitution runs unconditionally over the whole candidate
//! interval; where a sequence index leaves the real symbols, the
//! window holds the `SEQ_PAD` sentinel (a matrix gather clamps it to
//! the matrix's last row or column). There the `sd` parent is a pad
//! or canonical dropped cell, and `NEG_INF16 + s ≤ DROP16` for every
//! `|s| ≤ MAX_STEP`, so the substitution score is never observable.
//!
//! ## Bit-identity is the contract
//!
//! Every pair's [`AlignOutput`] (result *and* every [`AlignStats`]
//! field) and every [`BandPolicy::Exact`] error must match what the
//! scalar reference [`xdrop2::align_views`] produces for that pair
//! on a fresh workspace. A lane that cannot be proven exact
//! (overflow) is re-run through that reference, so the contract holds
//! by construction on the rerun path and by the guard-band argument
//! on the fast path. Configurations the `i16` domain cannot model at
//! all (a scorer without [`Scorer::substitution`], score steps above
//! [`MAX_STEP`], positive gap penalties) run the scalar reference.

use crate::alphabet::PROTEIN_CODES;
use crate::error::{AlignError, Result};
use crate::scoring::{Scorer, Substitution};
use crate::seqview::SeqView;
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::xdrop2::{self, BandPolicy, Workspace};
use crate::XDropParams;

/// `-∞` sentinel of the `i16` lane domain — `i16::MIN / 4`, mirroring
/// [`crate::NEG_INF`]'s headroom argument: adding a gap penalty (or
/// several) to a dropped cell stays far from the representable edge.
pub const NEG_INF16: i16 = i16::MIN / 4;

/// Dropped-cell threshold of the `i16` domain (`NEG_INF16 / 2`),
/// mirroring [`crate::is_dropped`].
const DROP16: i16 = NEG_INF16 / 2;

/// Largest per-round score step the `i16` lane path accepts: every
/// substitution score and `|gap|` must be at most this for a pair to
/// run in `i16` lanes (otherwise it runs the scalar reference).
/// One antidiagonal round changes a cell by exactly one `sim` or one
/// `gap` application, so this bounds how far a value can move per
/// round — the quantity the guard band is built from.
pub const MAX_STEP: i32 = 1024;

/// Upper guard of the live-value band: `i16::MAX − MAX_STEP`.
///
/// Soundness of the fast path: by induction, while every *live*
/// stored value lies strictly inside `(LOW_GUARD, HIGH_GUARD)`, the
/// next round's candidates derived from live parents lie strictly
/// inside `(DROP16, i16::MAX)` — so the saturating adds cannot
/// actually saturate (the value is exact, equal to the `i32`
/// reference's) and cannot be misclassified as dropped (dropped is
/// `≤ DROP16`). Dropped cells are stored as the canonical
/// [`NEG_INF16`]; with `gap ≤ 0` their derived sums stay `≤ DROP16`
/// and lose every `max` against a live value, exactly like the `i32`
/// sentinel. The first round a live value lands outside the guard
/// band it is still computed exactly — the lane is flagged overflowed
/// *that* round and re-run in `i32`, before any inexact round can
/// happen.
const HIGH_GUARD: i32 = i16::MAX as i32 - MAX_STEP;

/// Lower guard of the live-value band: `DROP16 + MAX_STEP`.
const LOW_GUARD: i32 = DROP16 as i32 + MAX_STEP;

/// Which register width the fused `sweep_row` pass runs at. There is
/// no 256-bit backend: an AVX2 sweep did not beat SSE2 (DESIGN.md §14.1).
///
/// All backends execute the identical per-cell arithmetic (saturating
/// `i16` adds, `max` chains, and the X-Drop classification are
/// lanewise-exact operations), so every backend is bit-identical to
/// the scalar reference — the choice moves host wall-clock only.
/// Enforced by `tests/batched_identity.rs`, which runs every backend
/// the host supports through the differential suites. Callers pin a
/// backend through [`align_views`]' `backend` argument; the default
/// kernel runs [`SweepBackend::detect`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SweepBackend {
    /// The portable scalar body (`sweep_row_generic`), lanes as far
    /// as the autovectorizer allows — the only backend off x86-64.
    #[default]
    Generic,
    /// Explicit 128-bit SSE2 lanes (8 × `i16`) — x86-64 baseline,
    /// always available there, and what an AVX2-only host runs.
    Sse2,
    /// Explicit 512-bit AVX-512BW lanes (32 × `i16`): k-register
    /// masked compare/select classify and masked tail loads/stores,
    /// so ragged row widths need no scalar epilogue.
    Avx512,
}

impl SweepBackend {
    /// Every backend, narrowest first (bench/report ordering).
    pub const ALL: [SweepBackend; 3] = [
        SweepBackend::Generic,
        SweepBackend::Sse2,
        SweepBackend::Avx512,
    ];

    /// Stable lower-case name (`generic` / `sse2` / `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SweepBackend::Generic => "generic",
            SweepBackend::Sse2 => "sse2",
            SweepBackend::Avx512 => "avx512",
        }
    }

    /// Whether this host can execute the backend.
    pub fn is_supported(self) -> bool {
        match self {
            SweepBackend::Generic => true,
            #[cfg(target_arch = "x86_64")]
            SweepBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SweepBackend::Avx512 => std::arch::is_x86_feature_detected!("avx512bw"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every backend this host can execute, narrowest first.
    pub fn supported() -> Vec<SweepBackend> {
        SweepBackend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// Hardware detection: the widest supported backend. Runs on every
    /// default-kernel alignment, so it allocates nothing (`std` caches
    /// the feature probes).
    pub fn detect() -> SweepBackend {
        SweepBackend::Avx512.clamp_to_host()
    }

    /// The widest supported backend at or below this one — the
    /// dispatch guarantee that an explicitly requested backend never
    /// executes intrinsics the host lacks.
    pub fn clamp_to_host(self) -> SweepBackend {
        // `ALL` lists the variants in declaration order.
        SweepBackend::ALL[..=self as usize]
            .iter()
            .copied()
            .rfind(|b| b.is_supported())
            .unwrap_or_default()
    }
}

/// The substitution source of `scorer` if it can run in `i16` lanes:
/// every score and the gap within [`MAX_STEP`] (the guard-band
/// arithmetic), and `gap ≤ 0`, because a positive gap could walk a
/// canonical dropped value back into the live range in `i16` where the
/// `i32` sentinel would have stayed dropped. A matrix's `i8` entries
/// are within [`MAX_STEP`] by type.
fn eligible<S: Scorer>(scorer: &S) -> Option<Substitution<'_>> {
    const _: () = assert!(i8::MIN.unsigned_abs() as i32 <= MAX_STEP);
    let sub = scorer.substitution()?;
    let scores_fit = match sub {
        Substitution::MatchMismatch {
            match_score,
            mismatch_score,
        } => match_score.abs() <= MAX_STEP && mismatch_score.abs() <= MAX_STEP,
        Substitution::Matrix(_) => true,
    };
    let gap = scorer.gap();
    (scores_fit && gap.abs() <= MAX_STEP && gap <= 0).then_some(sub)
}

/// A lane's scores in the `i16` domain: the substitution source and
/// the gap.
#[derive(Debug, Clone, Copy)]
struct LaneScores<Q> {
    sub: Q,
    gap: i16,
}

/// The `i16` fused-sweep kernel on one pair, in the caller's reused
/// workspace — what [`crate::kernel::KernelKind::Batched`] runs.
///
/// One lane runs to completion over three `i16` rows and the two
/// sequence windows held in `ws` (plus a substitution row for a
/// matrix scorer), reading `h` and `v` in place; once `ws` is warm for
/// the band the pair needs, nothing is allocated. An overflowed lane
/// is re-run through the scalar reference in `ws`. A scorer the lanes
/// cannot take runs the scalar reference in `ws` instead. Results are
/// bit-identical to [`xdrop2::align_views`] on a fresh workspace
/// whatever `backend` (clamped to the host) runs the sweep.
pub fn align_views<S: Scorer, HV: SeqView, VV: SeqView>(
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
    ws: &mut Workspace,
) -> Result<AlignOutput> {
    let Some(sub) = eligible(scorer) else {
        return xdrop2::align_views(h, v, scorer, params, policy, ws);
    };
    if policy.delta_b() == 0 {
        return Err(AlignError::InvalidConfig("δ_b must be nonzero"));
    }
    let arena: &mut LaneArena = ws.lanes.get_or_insert_with(Box::default);
    let backend = backend.clamp_to_host();
    // `eligible` bounds every score and the gap by `MAX_STEP`, so the
    // casts are exact.
    #[allow(clippy::cast_possible_truncation)]
    let gap = scorer.gap() as i16;
    #[allow(clippy::cast_possible_truncation)]
    let out = match sub {
        Substitution::MatchMismatch {
            match_score,
            mismatch_score,
        } => {
            let (mat, mis) = (match_score as i16, mismatch_score as i16);
            let scores = LaneScores {
                sub: MatchMismatch16 { mat, mis },
                gap,
            };
            run_lane(h, v, scores, params, policy, backend, arena)
        }
        Substitution::Matrix(m) => {
            let scores = LaneScores {
                sub: Matrix(m),
                gap,
            };
            run_lane(h, v, scores, params, policy, backend, arena)
        }
    };
    match out {
        Some(out) => out,
        None => xdrop2::align_views(h, v, scorer, params, policy, ws),
    }
}

/// Runs one lane over `h` × `v` to completion in `arena`: the lane's
/// result or [`BandPolicy::Exact`] error, or `None` if a live value
/// left the `i16` guard band and the pair must re-run in `i32`.
/// `backend` must be clamped to the host.
fn run_lane<HV: SeqView, VV: SeqView, Q: SubSource>(
    h: &HV,
    v: &VV,
    scores: LaneScores<Q>,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
    arena: &mut LaneArena,
) -> Option<Result<AlignOutput>> {
    let delta_b = policy.delta_b();
    arena.ensure(delta_b + 2, Q::ROW);
    arena.enter();
    let mut lane = Lane::enter(h.len(), v.len(), delta_b);
    loop {
        arena.stage(&mut lane, h, v);
        if let Some(min_stride) = lane_burst(&mut lane, arena, scores, params, policy, backend) {
            // Grow outgrew the row pitch: widen it (at least doubling)
            // and let the paused round re-run its prologue.
            arena.ensure(min_stride.max(2 * arena.stride()), Q::ROW);
        }
        match lane.state {
            LaneState::Active => {}
            LaneState::Done => return Some(Ok(lane.output())),
            LaneState::Failed(e) => return Some(Err(e)),
            LaneState::Overflowed => return None,
        }
    }
}

/// The `i16` working set of the lane, reused across calls: one row in
/// each of three rolling DP planes and the two sequence windows
/// (module docs). [`Workspace`] holds one.
#[derive(Debug, Default)]
pub(crate) struct LaneArena {
    /// Three rows of [`LaneArena::stride`] cells. Row layout: slot 0 =
    /// leading −∞ pad, slots 1..=width = the stored row, slot width+1
    /// = trailing −∞ pad (module docs).
    planes: [Vec<i16>; 3],
    /// `stride − 2 + BURST_ROUNDS` staged `V` symbols, ascending: the
    /// widest burst reach (module docs). Restaged before every burst.
    vwin: Box<[u8]>,
    /// The same for `H`, descending.
    hwin: Box<[u8]>,
    /// `stride` gathered substitution scores, one round's worth — kept
    /// only for matrix scorers ([`Matrix`]); empty otherwise.
    sub: Vec<i16>,
}

impl LaneArena {
    /// Row pitch in cells: at least the lane's band capacity plus the
    /// two pads. Kept across calls: it never shrinks.
    fn stride(&self) -> usize {
        self.planes[0].len()
    }

    /// Widens the row pitch to at least `min_stride`, keeping a wider
    /// pitch from an earlier call, and sizes the substitution row too
    /// when `sub_row`. Allocates only to grow; the rows keep their
    /// cells (growth appends −∞), so a live lane survives a re-pitch.
    /// Windows are restaged by the next burst.
    fn ensure(&mut self, min_stride: usize, sub_row: bool) {
        let stride = self.stride().max(min_stride);
        for p in &mut self.planes {
            p.resize(stride, NEG_INF16);
        }
        if sub_row && self.sub.len() < stride {
            self.sub.resize(stride, 0);
        }
        let bytes = stride - 2 + BURST_ROUNDS;
        if self.vwin.len() < bytes {
            self.vwin = vec![SEQ_PAD; bytes].into();
            self.hwin = vec![SEQ_PAD; bytes].into();
        }
    }

    /// Writes the cells a new lane reads before it has written them:
    /// the seed row `H[0] = {0}` with its pads in plane 0, and the
    /// empty `d − 2` row's two pads in plane 2 (module docs).
    fn enter(&mut self) {
        self.planes[0][..3].copy_from_slice(&[NEG_INF16, 0, NEG_INF16]);
        self.planes[2][..2].fill(NEG_INF16);
    }

    /// Stages the sequence windows for the next burst of `lane` over
    /// `h` × `v`, from the lane's current round and live interval
    /// (module docs).
    fn stage<HV: SeqView, VV: SeqView>(&mut self, lane: &mut Lane, h: &HV, v: &VV) {
        let len = BURST_ROUNDS + lane.live_hi - lane.live_lo + 1;
        let lo = lane.live_lo as isize;
        // Slot t holds V[lo − 1 + t] (cell i = lo + t) ...
        stage_window(v, lo - 1, true, &mut self.vwin[..len]);
        // ... and H[d + BURST_ROUNDS − lo − 1 − t].
        let top = (lane.d + BURST_ROUNDS) as isize - lo - 1;
        stage_window(h, top, false, &mut self.hwin[..len]);
        lane.win_lo = lane.live_lo;
        lane.win_d = lane.d;
    }
}

/// Fills `out[t]` with logical symbol `first + t` of `view`
/// (`ascending`) or `first − t`, and with [`SEQ_PAD`] where that
/// index leaves the view. The in-range run is one bulk
/// [`SeqView::fill_fwd`]/[`SeqView::fill_rev`].
fn stage_window<V: SeqView>(view: &V, first: isize, ascending: bool, out: &mut [u8]) {
    let (len, n) = (view.len() as isize, out.len() as isize);
    let (lo, hi) = if ascending {
        (-first, len - first)
    } else {
        (first + 1 - len, first + 1)
    };
    let (lo, hi) = (lo.clamp(0, n) as usize, hi.clamp(0, n) as usize);
    let hi = hi.max(lo);
    out[..lo].fill(SEQ_PAD);
    out[hi..].fill(SEQ_PAD);
    if lo == hi {
        return;
    }
    if ascending {
        view.fill_fwd((first + lo as isize) as usize, &mut out[lo..hi]);
    } else {
        view.fill_rev((first - lo as isize) as usize, &mut out[lo..hi]);
    }
}

/// Lane DP state — one pair's complete scalar-reference state
/// machine, advanced one antidiagonal per round.
struct Lane {
    m: usize,
    n: usize,
    /// Current antidiagonal; drives the arena ring rotation.
    d: usize,
    /// `live_lo` and `d` when the windows were last staged: window
    /// slot `t` holds `V[win_lo − 1 + t]` and
    /// `H[win_d + BURST_ROUNDS − win_lo − 1 − t]`.
    win_lo: usize,
    win_d: usize,
    /// `cand_lo` of the row each arena plane holds for this lane.
    bases: [usize; 3],
    /// Virtual workspace capacity with fresh-workspace semantics:
    /// starts at `δ_b`, doubles under [`BandPolicy::Grow`] exactly as
    /// `xdrop2::align_views` grows a fresh [`Workspace`].
    cap: usize,
    best: AlignResult,
    t_best: i32,
    live_lo: usize,
    live_hi: usize,
    prev_best_i: usize,
    stats: AlignStats,
    state: LaneState,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LaneState {
    /// Still sweeping antidiagonals.
    Active,
    /// Terminated normally (geometry exhausted or band went dead).
    Done,
    /// A live value escaped the `i16` guard band: discard and re-run
    /// through the `i32` reference.
    Overflowed,
    /// Terminated with the scalar reference's error.
    Failed(AlignError),
}

/// Sequence pad sentinel, staged into the windows wherever a
/// sequence index leaves the view (`V[−1]` at cell `i = 0`, `H[−1]`
/// at `i = d`), so the fused substitution compare runs over the full
/// candidate interval with no per-cell bounds logic. Correctness
/// does not depend on the sentinel's value at all: a pad byte is only
/// read for cells whose diagonal (`sd`) parent is a `−∞` pad or
/// canonical dropped cell — where the compare's outcome is
/// unobservable (see the module padding invariants) — and the two
/// pads can never face *each other* (`i = 0` and `i = d` coincide
/// only at `d = 0`, before the first round).
const SEQ_PAD: u8 = u8::MAX;

impl Lane {
    /// The state of an `m` × `n` pair before round 1; its seed cells
    /// are written by [`LaneArena::enter`].
    fn enter(m: usize, n: usize, delta_b: usize) -> Lane {
        Lane {
            m,
            n,
            d: 0,
            win_lo: 0,
            win_d: 0,
            bases: [0; 3],
            cap: delta_b,
            best: AlignResult::empty(),
            t_best: 0,
            live_lo: 0,
            live_hi: 0,
            prev_best_i: 0,
            stats: AlignStats {
                cells_computed: 1,
                delta_w: 1,
                delta: m.min(n) + 1,
                work_bytes: 2 * delta_b * CELL_BYTES,
                ..Default::default()
            },
            state: LaneState::Active,
        }
    }

    /// The finished lane's outcome.
    fn output(&self) -> AlignOutput {
        AlignOutput {
            result: self.best,
            stats: self.stats,
        }
    }
}

/// The `i32` cell size the modeled `work_bytes` are stated in: the
/// device kernel's footprint is defined by the reference cell type,
/// not by this host kernel's internal `i16` storage — bit-identity
/// of [`AlignStats::work_bytes`] demands the reference's accounting.
const CELL_BYTES: usize = std::mem::size_of::<i32>();

/// Rounds a lane advances per burst before control returns to the
/// caller, and the reach of its sequence windows. Large enough to
/// amortize per-burst fixed costs (backend dispatch, lane-state loads
/// and stores, window staging) over many rounds — the live bands are
/// only a few vectors wide, so those fixed costs, not arithmetic,
/// would otherwise bound the round rate — and small enough that a
/// window stays a few cache lines.
pub const BURST_ROUNDS: usize = 64;

/// [`LOW_GUARD`] in the `i16` domain, for in-register guard tests.
/// The cast is exact: `DROP16 + MAX_STEP = −3072` is well inside
/// `i16` range.
#[allow(clippy::cast_possible_truncation)]
const LOW_GUARD16: i16 = LOW_GUARD as i16;

/// Everything one fused-sweep row hands back to the reduce step.
///
/// `lo_w`/`hi_w` are the first/last kept slots (the next round's live
/// interval) **when the backend's classify masks expose positions for
/// free** (the k-register AVX-512 path); the generic and SSE2 backends
/// leave the `usize::MAX` sentinel and the reduce step recovers the
/// bounds with [`live_bounds`]' end scans, which are O(1) on the
/// typical almost-fully-live row.
#[derive(Debug, Clone, Copy)]
struct RowSweep {
    /// Row maximum over stored values ([`NEG_INF16`] if none kept).
    mx: i16,
    /// Whether any kept cell is `≤ LOW_GUARD`.
    low_hit: bool,
    /// Cells alive before classification but under the X-Drop
    /// threshold (`stats.cells_dropped` contribution).
    dropped: u64,
    /// First kept slot; `usize::MAX` if none kept or not tracked.
    lo_w: usize,
    /// Last kept slot; meaningless unless `lo_w` is set.
    hi_w: usize,
}

impl RowSweep {
    fn new() -> Self {
        RowSweep {
            mx: NEG_INF16,
            low_hit: false,
            dropped: 0,
            lo_w: usize::MAX,
            hi_w: 0,
        }
    }
}

/// First/last kept slot of a stored row, scanned from both ends.
/// Kept slots are exactly the slots `> DROP16`, so this reproduces
/// the scalar reference's live-interval scans. Caller guarantees at
/// least one kept slot (`mx > DROP16`).
#[inline(always)]
fn live_bounds(row: &[i16]) -> (usize, usize) {
    let mut lo = 0usize;
    while row[lo] <= DROP16 {
        lo += 1;
    }
    let mut hi = row.len() - 1;
    while row[hi] <= DROP16 {
        hi -= 1;
    }
    (lo, hi)
}

/// Where the fused sweep's diagonal substitution scores come from,
/// one round at a time. DNA compares the two window symbols
/// in-register ([`MatchMismatch16`]); a matrix scorer gathers the
/// round's scores into the arena's substitution row first
/// ([`Matrix`]), and the sweep adds that row. Either way each backend
/// runs one sweep body, generic over the [`SubRow`] it reads.
trait SubSource: Copy {
    /// Whether the lane needs the arena's substitution row.
    const ROW: bool;
    /// The substitution scores of one round.
    type Row<'a>: SubRow;
    /// The scores of cells `vs[w]` × `hs[w]`; `sub` is the arena's
    /// substitution row (empty unless [`SubSource::ROW`]).
    fn row<'a>(self, vs: &'a [u8], hs: &'a [u8], sub: &'a mut [i16]) -> Self::Row<'a>;
}

/// One round's substitution scores, read by every backend.
///
/// # Safety
///
/// The vector loaders read memory unchecked: callers keep every cell
/// a loader reads below [`SubRow::len`] and call it only on a host
/// with the loader's target features.
trait SubRow: Copy {
    /// Cells in the row.
    fn len(self) -> usize;
    /// The score of cell `w`.
    fn at(self, w: usize) -> i16;
    /// Cells `w .. w + 8`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn sse2(self, w: usize) -> std::arch::x86_64::__m128i;
    /// Cells `w + j` for every set bit `j` of `k`, zero elsewhere;
    /// needs AVX-512BW.
    #[cfg(target_arch = "x86_64")]
    unsafe fn avx512(self, w: usize, k: u32) -> std::arch::x86_64::__m512i;
}

/// A match/mismatch scorer in the `i16` domain: the sweep compares
/// the symbols in-register, so there is no row to fill.
#[derive(Debug, Clone, Copy)]
struct MatchMismatch16 {
    mat: i16,
    mis: i16,
}

impl SubSource for MatchMismatch16 {
    const ROW: bool = false;
    type Row<'a> = Compare<'a>;

    #[inline(always)]
    fn row<'a>(self, vs: &'a [u8], hs: &'a [u8], _sub: &'a mut [i16]) -> Compare<'a> {
        Compare {
            vs,
            hs,
            mat: self.mat,
            mis: self.mis,
        }
    }
}

/// [`MatchMismatch16`]'s round: `mat` where `vs[w] == hs[w]`, else
/// `mis`.
#[derive(Debug, Clone, Copy)]
struct Compare<'a> {
    vs: &'a [u8],
    hs: &'a [u8],
    mat: i16,
    mis: i16,
}

impl SubRow for Compare<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.vs.len().min(self.hs.len())
    }

    #[inline(always)]
    fn at(self, w: usize) -> i16 {
        if self.vs[w] == self.hs[w] {
            self.mat
        } else {
            self.mis
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn sse2(self, w: usize) -> std::arch::x86_64::__m128i {
        use std::arch::x86_64::*;
        // SAFETY: the caller keeps `w + 8 ≤ len`; SSE2 is x86-64
        // baseline.
        unsafe {
            let zero = _mm_setzero_si128();
            let v16 = _mm_unpacklo_epi8(_mm_loadl_epi64(self.vs.as_ptr().add(w).cast()), zero);
            let h16 = _mm_unpacklo_epi8(_mm_loadl_epi64(self.hs.as_ptr().add(w).cast()), zero);
            let eq = _mm_cmpeq_epi16(v16, h16);
            _mm_or_si128(
                _mm_and_si128(eq, _mm_set1_epi16(self.mat)),
                _mm_andnot_si128(eq, _mm_set1_epi16(self.mis)),
            )
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn avx512(self, w: usize, k: u32) -> std::arch::x86_64::__m512i {
        use std::arch::x86_64::*;
        // SAFETY: the byte loads are masked by `k`, whose set bits the
        // caller keeps below `len − w`.
        unsafe {
            let vb = _mm512_maskz_loadu_epi8(u64::from(k), self.vs.as_ptr().add(w).cast());
            let hb = _mm512_maskz_loadu_epi8(u64::from(k), self.hs.as_ptr().add(w).cast());
            let eqk = _mm512_cmpeq_epi16_mask(
                _mm512_cvtepu8_epi16(_mm512_castsi512_si256(vb)),
                _mm512_cvtepu8_epi16(_mm512_castsi512_si256(hb)),
            );
            _mm512_mask_blend_epi16(
                eqk,
                _mm512_set1_epi16(self.mis),
                _mm512_set1_epi16(self.mat),
            )
        }
    }
}

/// A substitution matrix in the lane domain: each round gathers
/// `matrix[vs[w]][hs[w]]` into the arena's substitution row (as
/// ksw2 does), and the sweep adds the row.
#[derive(Debug, Clone, Copy)]
struct Matrix<'m>(&'m [[i8; PROTEIN_CODES]; PROTEIN_CODES]);

impl SubSource for Matrix<'_> {
    const ROW: bool = true;
    type Row<'a> = Gathered<'a>;

    #[inline(always)]
    fn row<'a>(self, vs: &'a [u8], hs: &'a [u8], sub: &'a mut [i16]) -> Gathered<'a> {
        // A [`SEQ_PAD`] byte indexes the last row or column, whose
        // score the sweep never observes there (module docs).
        let code = |c: u8| {
            debug_assert!(
                usize::from(c) < PROTEIN_CODES || c == SEQ_PAD,
                "code {c} is outside the {PROTEIN_CODES}-symbol matrix"
            );
            usize::from(c).min(PROTEIN_CODES - 1)
        };
        let sub = &mut sub[..vs.len()];
        for ((s, &a), &b) in sub.iter_mut().zip(vs).zip(hs) {
            *s = i16::from(self.0[code(a)][code(b)]);
        }
        Gathered(sub)
    }
}

/// [`Matrix`]'s round: the gathered substitution row.
#[derive(Debug, Clone, Copy)]
struct Gathered<'a>(&'a [i16]);

impl SubRow for Gathered<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn at(self, w: usize) -> i16 {
        self.0[w]
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn sse2(self, w: usize) -> std::arch::x86_64::__m128i {
        // SAFETY: the caller keeps `w + 8 ≤ len`.
        unsafe { std::arch::x86_64::_mm_loadu_si128(self.0.as_ptr().add(w).cast()) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    #[inline]
    unsafe fn avx512(self, w: usize, k: u32) -> std::arch::x86_64::__m512i {
        // SAFETY: the load is masked by `k`, whose set bits the caller
        // keeps below `len − w`.
        unsafe { std::arch::x86_64::_mm512_maskz_loadu_epi16(k, self.0.as_ptr().add(w).cast()) }
    }
}

/// Cells `from..width` of one row of the fused sweep, scalar: per
/// cell `i = cand_lo + w`, substitution score, saturating DP `max`,
/// X-Drop classification, and store — with the row maximum, low-guard
/// hit and pruned count accumulated into `acc` in the same pass. The body is branch-free so the
/// autovectorizer can lane it on targets without an explicit backend.
/// This is the reference body; the wide backends lane the identical
/// per-cell arithmetic (saturating adds, `max` chains and the
/// classification are all lanewise-exact operations, so every backend
/// is bit-identical).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_row_generic<R: SubRow>(
    r1s: &[i16],
    r2s: &[i16],
    sub: R,
    orow: &mut [i16],
    from: usize,
    width: usize,
    gap16: i16,
    thr16: i16,
    acc: &mut RowSweep,
) {
    for w in from..width {
        let diag = r2s[w].saturating_add(sub.at(w));
        let up = r1s[w].saturating_add(gap16);
        let lft = r1s[w + 1].saturating_add(gap16);
        let r = diag.max(lft).max(up);
        let alive = r > DROP16;
        let kept = alive & (r >= thr16);
        let v = if kept { r } else { NEG_INF16 };
        orow[w + 1] = v;
        acc.dropped += u64::from(alive & !kept);
        acc.mx = acc.mx.max(v);
        acc.low_hit |= kept & (r <= LOW_GUARD16);
    }
}

/// One row of the fused sweep over explicit SSE2 `i16` lanes — SSE2
/// is x86-64 baseline, so this backend is always available. Eight
/// cells per step: substitution scores, three `paddsw`, two
/// `pmaxsw`, classification by mask, and the row max / low-guard hit
/// / pruned count reduced in-register (the count via `-=` of the
/// all-ones mask, flushed to the wide accumulator every 2¹⁶ cells so
/// the `i16` segment counters cannot wrap). The autovectorizer
/// refused this factor on its own: the `u64` count accumulator pins
/// loop-wide vectorization at two lanes, which is why the kernel
/// lanes the body by hand.
#[cfg(target_arch = "x86_64")]
#[inline]
fn sweep_row_sse2<R: SubRow>(
    r1s: &[i16],
    r2s: &[i16],
    sub: R,
    orow: &mut [i16],
    width: usize,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    use std::arch::x86_64::*;
    debug_assert!(r1s.len() > width && r2s.len() >= width);
    debug_assert!(sub.len() >= width && orow.len() >= width + 2);
    let mut acc = RowSweep::new();
    let vect = width & !7;
    // SAFETY: every load reads at most 16 B ending at index `w + 8`
    // of `r2s`/`sub` (length ≥ `width ≥ vect ≥ w + 8`) or `w + 9` of
    // `r1s` (length ≥ `width + 1`); the store writes
    // `orow[w + 1 .. w + 9]` (length ≥ `width + 2 ≥ w + 10`). SSE2 is
    // unconditionally available on `x86_64`.
    unsafe {
        let vgap = _mm_set1_epi16(gap16);
        let vthr = _mm_set1_epi16(thr16);
        let vdrop = _mm_set1_epi16(DROP16);
        let vneg = _mm_set1_epi16(NEG_INF16);
        let vlow = _mm_set1_epi16(LOW_GUARD16);
        let zero = _mm_setzero_si128();
        let mut vmx = vneg;
        let mut vlowacc = zero;
        let mut w = 0usize;
        while w < vect {
            let seg = (w + (1 << 16)).min(vect);
            let mut dcnt = zero;
            while w < seg {
                let diag = _mm_adds_epi16(_mm_loadu_si128(r2s.as_ptr().add(w).cast()), sub.sse2(w));
                let up = _mm_adds_epi16(_mm_loadu_si128(r1s.as_ptr().add(w).cast()), vgap);
                let lft = _mm_adds_epi16(_mm_loadu_si128(r1s.as_ptr().add(w + 1).cast()), vgap);
                let r = _mm_max_epi16(diag, _mm_max_epi16(lft, up));
                let alive = _mm_cmpgt_epi16(r, vdrop);
                let below = _mm_cmpgt_epi16(vthr, r); // r < thr16
                let kept = _mm_andnot_si128(below, alive);
                let stored = _mm_or_si128(_mm_and_si128(kept, r), _mm_andnot_si128(kept, vneg));
                _mm_storeu_si128(orow.as_mut_ptr().add(w + 1).cast(), stored);
                dcnt = _mm_sub_epi16(dcnt, _mm_and_si128(alive, below));
                vmx = _mm_max_epi16(vmx, stored);
                // kept & (r ≤ LOW_GUARD) ≡ kept & !(r > LOW_GUARD).
                vlowacc = _mm_or_si128(vlowacc, _mm_andnot_si128(_mm_cmpgt_epi16(r, vlow), kept));
                w += 8;
            }
            let pair = _mm_madd_epi16(dcnt, _mm_set1_epi16(1));
            let s1 = _mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0x4E));
            let s2 = _mm_add_epi32(s1, _mm_shuffle_epi32(s1, 0xB1));
            acc.dropped += _mm_cvtsi128_si32(s2) as u32 as u64;
        }
        acc.mx = hmax_epi16(vmx);
        acc.low_hit = _mm_movemask_epi8(vlowacc) != 0;
    }
    sweep_row_generic(r1s, r2s, sub, orow, vect, width, gap16, thr16, &mut acc);
    acc
}

/// One row of the fused sweep, portable: the scalar body, which the
/// autovectorizer lanes as far as the target allows. The only backend
/// on non-x86 targets; [`SweepBackend::Generic`] everywhere.
#[inline]
fn sweep_row_portable<R: SubRow>(
    r1s: &[i16],
    r2s: &[i16],
    sub: R,
    orow: &mut [i16],
    width: usize,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    let mut acc = RowSweep::new();
    sweep_row_generic(r1s, r2s, sub, orow, 0, width, gap16, thr16, &mut acc);
    acc
}

/// Horizontal `max` of eight `i16` lanes via the SSE2 shuffle chain.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn hmax_epi16(v: std::arch::x86_64::__m128i) -> i16 {
    use std::arch::x86_64::*;
    // SAFETY: SSE2 is unconditionally available on `x86_64`.
    unsafe {
        let m1 = _mm_max_epi16(v, _mm_shuffle_epi32(v, 0x4E));
        let m2 = _mm_max_epi16(m1, _mm_shuffle_epi32(m1, 0xB1));
        let m3 = _mm_max_epi16(m2, _mm_shufflelo_epi16(m2, 0xB1));
        _mm_cvtsi128_si32(m3) as i16
    }
}

/// One row of the fused sweep over explicit 512-bit AVX-512BW lanes,
/// thirty-two cells per step, using the native facilities the SSE2
/// backend emulates:
///
/// * the live/drop classify is two k-register compares
///   (`vpcmpgtw`/`vpcmpw`) combined with mask arithmetic — no wide
///   and/andnot/blend chains;
/// * the select of stored values is one `vpblendmw` under the kept
///   mask, the pruned count is a `popcnt` of `alive & below`, and the
///   first/last kept slots and the low-guard hit come straight from
///   the k-registers;
/// * ragged row widths need **no scalar epilogue**: the final partial
///   step runs under the tail mask `(1 << rem) − 1` with masked
///   loads (`vmovdqu16{z}`) and a masked store, so out-of-bounds
///   cells are never read or written and masked lanes stay neutral in
///   the reductions (max under `k`, positional masks under
///   `kept ⊆ k`).
///
/// Bit-identity: every operation is lanewise-exact and masked lanes
/// contribute nothing, so the row bytes and reductions equal
/// [`sweep_row_generic`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn sweep_row_avx512<R: SubRow>(
    r1s: &[i16],
    r2s: &[i16],
    sub: R,
    orow: &mut [i16],
    width: usize,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    use std::arch::x86_64::*;
    debug_assert!(r1s.len() > width && r2s.len() >= width);
    debug_assert!(sub.len() >= width && orow.len() >= width + 2);
    let mut acc = RowSweep::new();
    // SAFETY (in addition to the caller-proved AVX-512BW
    // availability): every load and the store are masked by
    // `k = (1 << min(rem, 32)) − 1`, so lane `j` is touched only when
    // `w + j < width` — `r2s`/`sub` indices stay `< width ≤ len`,
    // `r1s` indices stay `< width + 1 ≤ len`, and the store writes
    // `orow[w + 1 + j]` with `w + 1 + j ≤ width < len`. Masked lanes
    // of `vmovdqu16{z}`/`vmovdqu8{z}` perform no memory access.
    unsafe {
        let vgap = _mm512_set1_epi16(gap16);
        let vthr = _mm512_set1_epi16(thr16);
        let vdrop = _mm512_set1_epi16(DROP16);
        let vneg = _mm512_set1_epi16(NEG_INF16);
        let vlow = _mm512_set1_epi16(LOW_GUARD16);
        let mut vmx = vneg;
        let mut lowacc: __mmask32 = 0;
        let mut dropped = 0u32;
        let mut w = 0usize;
        while w < width {
            let rem = width - w;
            let k: __mmask32 = if rem >= 32 { !0u32 } else { (1u32 << rem) - 1 };
            let diag = _mm512_adds_epi16(
                _mm512_maskz_loadu_epi16(k, r2s.as_ptr().add(w).cast()),
                sub.avx512(w, k),
            );
            let up = _mm512_adds_epi16(
                _mm512_maskz_loadu_epi16(k, r1s.as_ptr().add(w).cast()),
                vgap,
            );
            let lft = _mm512_adds_epi16(
                _mm512_maskz_loadu_epi16(k, r1s.as_ptr().add(w + 1).cast()),
                vgap,
            );
            let r = _mm512_max_epi16(diag, _mm512_max_epi16(lft, up));
            let alive = _mm512_cmpgt_epi16_mask(r, vdrop) & k;
            let below = _mm512_cmplt_epi16_mask(r, vthr);
            let kept = alive & !below;
            let stored = _mm512_mask_blend_epi16(kept, vneg, r);
            _mm512_mask_storeu_epi16(orow.as_mut_ptr().add(w + 1).cast(), k, stored);
            dropped += (alive & below).count_ones();
            vmx = _mm512_mask_max_epi16(vmx, k, vmx, stored);
            lowacc |= _mm512_mask_cmple_epi16_mask(kept, r, vlow);
            if kept != 0 {
                if acc.lo_w == usize::MAX {
                    acc.lo_w = w + kept.trailing_zeros() as usize;
                }
                acc.hi_w = w + 31 - kept.leading_zeros() as usize;
            }
            w += 32;
        }
        acc.dropped = u64::from(dropped);
        let mx256 = _mm256_max_epi16(
            _mm512_castsi512_si256(vmx),
            _mm512_extracti64x4_epi64(vmx, 1),
        );
        acc.mx = hmax_epi16(_mm_max_epi16(
            _mm256_castsi256_si128(mx256),
            _mm256_extracti128_si256(mx256, 1),
        ));
        acc.low_hit = lowacc != 0;
    }
    acc
}

/// One fused-sweep row at the selected register backend. The `unsafe`
/// intrinsic bodies are sound to call here because [`align_views`]
/// clamps the backend to host support before the lane runs a single
/// round. Marked `#[inline(always)]`
/// so the `backend` match folds away inside the per-backend
/// [`lane_burst`] bodies, letting the intrinsic sweeps inline into
/// their feature-matched burst loop (which hoists the broadcast
/// constants out of the round loop).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_row<R: SubRow>(
    backend: SweepBackend,
    r1s: &[i16],
    r2s: &[i16],
    sub: R,
    orow: &mut [i16],
    width: usize,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: `clamp_to_host` admitted the backend, so the
        // required target features were runtime-detected.
        SweepBackend::Avx512 => unsafe {
            sweep_row_avx512(r1s, r2s, sub, orow, width, gap16, thr16)
        },
        SweepBackend::Sse2 => sweep_row_sse2(r1s, r2s, sub, orow, width, gap16, thr16),
        SweepBackend::Generic => sweep_row_portable(r1s, r2s, sub, orow, width, gap16, thr16),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        sweep_row_portable(r1s, r2s, sub, orow, width, gap16, thr16)
    }
}

/// First slot of `row` equal to `mx` — the scalar reference's
/// first-maximum-wins argmax. Caller guarantees `mx` is present: it
/// is the maximum the sweep just stored in this row.
#[allow(clippy::expect_used)] // `mx` is a stored value of `row`
fn row_argmax_generic(row: &[i16], mx: i16) -> usize {
    row.iter().position(|&v| v == mx).expect("live max present")
}

/// [`row_argmax_generic`] over 512-bit masked `vpcmpeqw`: one compare
/// per 32 cells, position read off the k-register. After the fused
/// sweep absorbed the live-interval scans, this argmax is the only
/// remaining pass over the row — on narrow bands a single masked
/// compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
unsafe fn row_argmax_avx512(row: &[i16], mx: i16) -> usize {
    use std::arch::x86_64::*;
    let width = row.len();
    // SAFETY: loads are masked by `(1 << min(rem, 32)) − 1`, so lane
    // `j` reads `row[w + j]` only when `w + j < width`; AVX-512BW is
    // caller-detected.
    unsafe {
        let vmx = _mm512_set1_epi16(mx);
        let mut w = 0usize;
        while w < width {
            let rem = width - w;
            let k: __mmask32 = if rem >= 32 { !0u32 } else { (1u32 << rem) - 1 };
            let vals = _mm512_maskz_loadu_epi16(k, row.as_ptr().add(w).cast());
            let eq = _mm512_mask_cmpeq_epi16_mask(k, vals, vmx);
            if eq != 0 {
                return w + eq.trailing_zeros() as usize;
            }
            w += 32;
        }
    }
    // The caller's `mx` is a stored value of `row`, so some step above
    // returned.
    unreachable!("live max present")
}

/// The first-maximum argmax scan at the selected backend. Soundness
/// of the intrinsic paths follows from the same `clamp_to_host`
/// guarantee as [`sweep_row`]'s.
#[inline(always)]
fn row_argmax(backend: SweepBackend, row: &[i16], mx: i16) -> usize {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: `clamp_to_host` admitted the backend.
        SweepBackend::Avx512 => unsafe { row_argmax_avx512(row, mx) },
        SweepBackend::Sse2 | SweepBackend::Generic => row_argmax_generic(row, mx),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        row_argmax_generic(row, mx)
    }
}

/// Advances the lane by up to [`BURST_ROUNDS`] antidiagonal rounds —
/// prologue, fused sweep, and reductions per round, exactly the
/// scalar reference's control flow. Stops early when the lane leaves
/// [`LaneState::Active`], or when [`BandPolicy::Grow`] needs a wider
/// arena pitch than `stride`: that returns the pitch needed, and the
/// paused round commits **nothing** (prologue mutations happen only
/// once the round is sure to execute), so re-running the prologue
/// after the re-pitch is exact.
///
/// This is the dispatcher: the burst body itself lives in
/// [`lane_burst_impl`] and is compiled once **per backend** — SSE2
/// and generic at the baseline target features, AVX-512BW behind the
/// `#[target_feature]` wrapper [`lane_burst_avx512`]. Multiversioning
/// the whole burst (rather than just the row sweep) is what lets LLVM
/// inline the intrinsic sweeps into the round loop and hoist their
/// broadcast constants across rounds — at the ~40-cell row widths the
/// X-Drop band typically settles into, those per-row fixed costs are
/// a double-digit fraction of the kernel.
fn lane_burst<Q: SubSource>(
    lane: &mut Lane,
    arena: &mut LaneArena,
    scores: LaneScores<Q>,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: `clamp_to_host` admitted the backend, so the
        // required target features were runtime-detected.
        SweepBackend::Avx512 => unsafe { lane_burst_avx512(lane, arena, scores, params, policy) },
        SweepBackend::Sse2 => {
            lane_burst_impl(lane, arena, scores, params, policy, SweepBackend::Sse2)
        }
        SweepBackend::Generic => {
            lane_burst_impl(lane, arena, scores, params, policy, SweepBackend::Generic)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        lane_burst_impl(lane, arena, scores, params, policy, SweepBackend::Generic)
    }
}

/// [`lane_burst_impl`] compiled with AVX-512BW enabled, so the
/// masked sweep and argmax inline into the burst loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn lane_burst_avx512<Q: SubSource>(
    lane: &mut Lane,
    arena: &mut LaneArena,
    scores: LaneScores<Q>,
    params: XDropParams,
    policy: BandPolicy,
) -> Option<usize> {
    lane_burst_impl(lane, arena, scores, params, policy, SweepBackend::Avx512)
}

/// The burst body shared by every backend; see [`lane_burst`].
/// `#[inline(always)]` + a literal `backend` at each call site fold
/// the [`sweep_row`]/[`row_argmax`] dispatch matches at compile time
/// inside each `#[target_feature]` wrapper.
#[inline(always)]
fn lane_burst_impl<Q: SubSource>(
    lane: &mut Lane,
    arena: &mut LaneArena,
    scores: LaneScores<Q>,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
) -> Option<usize> {
    let x = params.x;
    let LaneArena {
        planes,
        vwin,
        hwin,
        sub,
    } = arena;
    let stride = planes[0].len();
    for _ in 0..BURST_ROUNDS {
        // ---- Prologue: candidate interval and band policy on
        // locals; nothing commits before the arena-pitch check.
        let d = lane.d + 1;
        if d > lane.m + lane.n {
            lane.state = LaneState::Done;
            break;
        }
        let geo_lo = d.saturating_sub(lane.m);
        let geo_hi = d.min(lane.n);
        let mut cand_lo = lane.live_lo.max(geo_lo);
        let mut cand_hi = (lane.live_hi + 1).min(geo_hi);
        if cand_lo > cand_hi {
            lane.state = LaneState::Done;
            break;
        }
        let mut width = cand_hi - cand_lo + 1;
        let band_cap = match policy {
            BandPolicy::Exact(b) | BandPolicy::Saturate(b) => b,
            BandPolicy::Grow(_) => lane.cap,
        };
        if width > band_cap {
            match policy {
                BandPolicy::Exact(delta_b) => {
                    lane.state = LaneState::Failed(AlignError::BandExceeded {
                        needed: width,
                        delta_b,
                        antidiagonal: d,
                    });
                    break;
                }
                BandPolicy::Grow(_) => {
                    let new_cap = width.max(2 * lane.cap);
                    if new_cap + 2 > stride {
                        return Some(new_cap + 2);
                    }
                    lane.cap = new_cap;
                    lane.stats.work_bytes = 2 * new_cap * CELL_BYTES;
                }
                BandPolicy::Saturate(delta_b) => {
                    let half = delta_b / 2;
                    let lo_min = cand_lo;
                    let lo_max = cand_hi + 1 - delta_b;
                    let lo = lane.prev_best_i.saturating_sub(half).clamp(lo_min, lo_max);
                    lane.stats.cells_clipped += (width - delta_b) as u64;
                    cand_lo = lo;
                    cand_hi = lo + delta_b - 1;
                    width = delta_b;
                }
            }
        }
        lane.d = d;

        // ---- Fused sweep: one branch-free saturating pass whose
        // operands are index-shifted views of the rows written in
        // rounds d−1 (plane (d+2)%3) and d−2 (plane (d+1)%3), written
        // straight into plane d%3 — no operand staging, no writeback.
        // The substitution scores come from the lane's sequence
        // windows, and the row max / low-guard reductions ride in the
        // same pass.
        let cur = d % 3;
        let [a, b, c] = planes;
        // (write plane, d−1 plane, d−2 plane) for this lane's ring
        // position.
        let (outp, r1, r2): (&mut Vec<i16>, &Vec<i16>, &Vec<i16>) = match cur {
            0 => (a, &*c, &*b),
            1 => (b, &*a, &*c),
            _ => (c, &*b, &*a),
        };
        // Candidate-interval monotonicity (module docs) makes both
        // offsets non-negative and bounds every read by the source
        // row's trailing pad.
        let off1 = cand_lo - lane.bases[(cur + 2) % 3];
        let off2 = cand_lo - lane.bases[(cur + 1) % 3];
        // The lane's X-Drop threshold, clamped into the `i16` domain.
        // Clamping is exact where it matters: below `DROP16` no live
        // value (`> DROP16`) can sit under the threshold either way,
        // and a threshold above `i16::MAX` (only reachable with a
        // negative `x`) can misclassify only a cell equal to
        // `i16::MAX` — which then sits on [`HIGH_GUARD`] and escapes
        // to the exact scalar rerun.
        let thr16 = (lane.t_best - x).clamp(i32::from(DROP16), i32::from(i16::MAX)) as i16;
        // `r1s[w]` = H[d−1][i−1] (up), `r1s[w+1]` = H[d−1][i] (left),
        // `r2s[w]` = H[d−2][i−1] (diagonal), `vs[w]` = V[i−1],
        // `hs[w]` = H[d−i−1], for i = cand_lo + w — read from the
        // burst's windows (module docs), whose [`SEQ_PAD`] cells sit
        // exactly where the diagonal parent is a pad.
        let r1s = &r1[off1..off1 + width + 1];
        let r2s = &r2[off2..off2 + width];
        let t0 = cand_lo - lane.win_lo;
        let vs = &vwin[t0..t0 + width];
        let hs = &hwin[lane.win_d + BURST_ROUNDS - d + t0..][..width];
        let subs = scores.sub.row(vs, hs, sub);
        let orow = &mut outp[..width + 2];
        let sw = sweep_row(backend, r1s, r2s, subs, orow, width, scores.gap, thr16);
        orow[0] = NEG_INF16; // leading pad
        orow[width + 1] = NEG_INF16; // trailing pad
        lane.bases[cur] = cand_lo;

        // ---- Reduce: stats bookkeeping on the sweep's fused
        // reductions plus one short argmax scan over the just-written
        // row. These reproduce the scalar reference's in-order
        // reductions exactly: the first slot holding the diagonal
        // maximum is its first-max-wins argmax, and the first/last
        // kept slots bound the next live interval. The argmax may
        // start at `lo_w` because every earlier slot stores
        // [`NEG_INF16`] `< mx`.
        lane.stats.cells_computed += width as u64;
        lane.stats.cells_dropped += sw.dropped;
        lane.stats.antidiagonals += 1;
        if i32::from(sw.mx) >= HIGH_GUARD || sw.low_hit {
            lane.state = LaneState::Overflowed;
            break;
        }
        if sw.mx <= DROP16 {
            lane.state = LaneState::Done;
            break;
        }
        let (lo_w, hi_w) = if sw.lo_w == usize::MAX {
            live_bounds(&orow[1..=width])
        } else {
            (sw.lo_w, sw.hi_w)
        };
        let best_w = lo_w + row_argmax(backend, &orow[1 + lo_w..=width], sw.mx);
        let smax = i32::from(sw.mx);
        lane.live_lo = cand_lo + lo_w;
        lane.live_hi = cand_lo + hi_w;
        lane.prev_best_i = cand_lo + best_w;
        if smax > lane.best.best_score {
            lane.best = AlignResult {
                best_score: smax,
                end_h: d - (cand_lo + best_w),
                end_v: cand_lo + best_w,
            };
        }
        lane.stats.delta_w = lane.stats.delta_w.max(hi_w - lo_w + 1);
        lane.t_best = lane.t_best.max(smax);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{encode_dna, encode_protein};
    use crate::scoring::{Blosum62, MatchMismatch};
    use crate::seqview::{Fwd, Rev};

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    /// The scalar reference on a fresh workspace.
    fn scalar<S: Scorer, HV: SeqView, VV: SeqView>(
        h: &HV,
        v: &VV,
        scorer: &S,
        params: XDropParams,
        policy: BandPolicy,
    ) -> Result<AlignOutput> {
        xdrop2::align_views(h, v, scorer, params, policy, &mut Workspace::new())
    }

    /// Every supported backend, in `ws`, against the scalar reference.
    fn assert_matches_scalar<S: Scorer, HV: SeqView, VV: SeqView>(
        h: &HV,
        v: &VV,
        scorer: &S,
        params: XDropParams,
        policy: BandPolicy,
        ws: &mut Workspace,
    ) {
        let want = scalar(h, v, scorer, params, policy);
        for backend in SweepBackend::supported() {
            let got = align_views(h, v, scorer, params, policy, backend, ws);
            assert_eq!(want, got, "{backend:?} {policy:?}");
        }
    }

    /// The DNA lane alone (no rerun) at the detected backend, on a
    /// fresh arena.
    fn lane(h: &[u8], v: &[u8], params: XDropParams, policy: BandPolicy) -> Option<AlignOutput> {
        let mut arena = LaneArena::default();
        let sub = MatchMismatch16 { mat: 1, mis: -1 };
        run_lane(
            &Fwd(h),
            &Fwd(v),
            LaneScores { sub, gap: -1 },
            params,
            policy,
            SweepBackend::detect(),
            &mut arena,
        )
        .map(|out| out.expect("lane aligns"))
    }

    #[test]
    fn mixed_direction_pairs_match_scalar() {
        let a = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGT");
        let b = encode_dna(b"ACGTACGAACGTACTTACGTACGAACGT");
        let c = encode_dna(b"TTGGACGTACAA");
        let mut ws = Workspace::new();
        for policy in [
            BandPolicy::Grow(4),
            BandPolicy::Exact(3),
            BandPolicy::Saturate(5),
        ] {
            let p = XDropParams::new(12);
            assert_matches_scalar(&Fwd(&a), &Fwd(&b), &sc(), p, policy, &mut ws);
            assert_matches_scalar(&Rev(&a), &Rev(&b), &sc(), p, policy, &mut ws);
            assert_matches_scalar(&Fwd(&c), &Rev(&a), &sc(), p, policy, &mut ws);
            assert_matches_scalar(&Fwd(&a), &Fwd(&a), &sc(), p, policy, &mut ws);
        }
    }

    #[test]
    fn empty_and_tiny_pairs() {
        let a = encode_dna(b"ACGT");
        let empty: [u8; 0] = [];
        let (p, policy) = (XDropParams::new(5), BandPolicy::Exact(2));
        let mut ws = Workspace::new();
        for (h, v) in [
            (&empty[..], &a[..]),
            (&a, &empty),
            (&empty, &empty),
            (&a[..1], &a[..1]),
        ] {
            assert_matches_scalar(&Fwd(h), &Fwd(v), &sc(), p, policy, &mut ws);
        }
    }

    #[test]
    fn zero_delta_b_is_the_scalar_error() {
        let a = encode_dna(b"ACGT");
        let got = align_views(
            &Fwd(&a),
            &Fwd(&a),
            &sc(),
            XDropParams::new(5),
            BandPolicy::Exact(0),
            SweepBackend::detect(),
            &mut Workspace::new(),
        );
        assert_eq!(got, Err(AlignError::InvalidConfig("δ_b must be nonzero")));
    }

    /// A positive gap penalty breaks the `i16` dropped-sentinel
    /// argument and an oversized step the guard band, so both run the
    /// scalar reference — no lane arena is ever built — and still
    /// match it bit for bit.
    #[test]
    fn ineligible_scorer_runs_the_scalar_reference() {
        let a = encode_dna(b"ACGTACGTACGTACGT");
        let b = encode_dna(b"ACGAACGTACTTACGT");
        for scorer in [
            MatchMismatch::new(2, -3, 1),
            MatchMismatch::new(MAX_STEP + 1, -1, -1),
        ] {
            assert!(eligible(&scorer).is_none());
            let mut ws = Workspace::new();
            let (p, policy) = (XDropParams::new(9), BandPolicy::Grow(4));
            assert_matches_scalar(&Fwd(&a), &Fwd(&b), &scorer, p, policy, &mut ws);
            assert_matches_scalar(&Rev(&a), &Rev(&b), &scorer, p, policy, &mut ws);
            assert!(ws.lanes.is_none(), "{scorer:?} must not enter the lanes");
        }
    }

    /// BLOSUM62 pairs run in the lanes, gathering a substitution row
    /// (a DNA scorer allocates none), and match the reference in every
    /// direction — including one-residue and empty sides, where the
    /// windows hold pad bytes next to real residues.
    #[test]
    fn blosum62_runs_in_the_lanes_and_matches_scalar() {
        let a = encode_protein(&b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ".repeat(3));
        let mut b = a.clone();
        for i in (5..b.len()).step_by(11) {
            b[i] = (b[i] + 1) % 20;
        }
        b.insert(40, 7);
        let w = encode_protein(b"W");
        let scorer = Blosum62::pastis_default();
        assert!(eligible(&scorer).is_some());
        let mut ws = Workspace::new();
        for policy in [
            BandPolicy::Grow(4),
            BandPolicy::Exact(6),
            BandPolicy::Saturate(5),
        ] {
            for x in [3, 49, 1_000] {
                let p = XDropParams::new(x);
                assert_matches_scalar(&Fwd(&a), &Fwd(&b), &scorer, p, policy, &mut ws);
                assert_matches_scalar(&Rev(&a), &Rev(&b), &scorer, p, policy, &mut ws);
                assert_matches_scalar(&Fwd(&w), &Rev(&a), &scorer, p, policy, &mut ws);
                assert_matches_scalar(&Fwd(&[]), &Fwd(&w), &scorer, p, policy, &mut ws);
            }
        }
        let arena = ws.lanes.as_ref().expect("the lanes ran");
        assert_eq!(arena.sub.len(), arena.stride(), "one substitution row");
        let mut dna = Workspace::new();
        let s = encode_dna(b"ACGTACGTTACG");
        assert_matches_scalar(
            &Fwd(&s),
            &Fwd(&s),
            &sc(),
            XDropParams::new(5),
            BandPolicy::Grow(4),
            &mut dna,
        );
        assert!(dna.lanes.expect("the lanes ran").sub.is_empty());
    }

    /// Overflow boundary, high side: identical sequences long enough
    /// for the running best score to land exactly on `i16::MAX`. The
    /// guard band must stop the lane *before* any saturating add can
    /// go inexact, and the rerun must bit-match the `i32` scalar
    /// reference (whose best score is exactly `i16::MAX`).
    #[test]
    fn overflow_at_i16_max_triggers_rerun_and_matches_scalar() {
        let s: Vec<u8> = (0..i16::MAX as usize).map(|i| (i % 4) as u8).collect();
        let (p, policy) = (XDropParams::new(4), BandPolicy::Grow(4));
        assert_eq!(lane(&s, &s, p, policy), None, "guard band must trip");
        let want = scalar(&Fwd(&s), &Fwd(&s), &sc(), p, policy);
        assert_eq!(
            want.as_ref().expect("aligns").result.best_score,
            i32::from(i16::MAX)
        );
        assert_matches_scalar(&Fwd(&s), &Fwd(&s), &sc(), p, policy, &mut Workspace::new());
    }

    /// Overflow boundary, low side: with pruning effectively disabled
    /// and nothing but mismatches, live scores march down towards
    /// `i16::MIN`. The low guard must stop the lane while values are
    /// still exact, and the rerun must bit-match the reference —
    /// including every stats field of the wide saturate band.
    #[test]
    fn overflow_towards_i16_min_triggers_rerun_and_matches_scalar() {
        // h is all-0s, v all-1s: every cell is a mismatch.
        let (h, v) = (vec![0u8; 3600], vec![1u8; 3600]);
        let (p, policy) = (XDropParams::new(1_000_000), BandPolicy::Saturate(8));
        assert_eq!(lane(&h, &v, p, policy), None, "low guard must trip");
        assert_matches_scalar(&Fwd(&h), &Fwd(&v), &sc(), p, policy, &mut Workspace::new());
    }

    /// Scores inside the guard band never rerun: the fast path is
    /// exercised, not silently bypassed.
    #[test]
    fn in_range_scores_stay_on_the_fast_path() {
        let s: Vec<u8> = (0..2000).map(|i| (i % 4) as u8).collect();
        let out = lane(&s, &s, XDropParams::new(4), BandPolicy::Grow(4));
        assert_eq!(out.expect("no rerun").result.best_score, 2000);
    }

    /// `clamp_to_host` walks `ALL` by discriminant: every request lands
    /// on a supported backend at or below it, a supported request is
    /// kept, and `detect` is the widest supported backend.
    #[test]
    fn clamp_to_host_is_supported_and_at_or_below_the_request() {
        for (i, &want) in SweepBackend::ALL.iter().enumerate() {
            assert_eq!(want as usize, i, "ALL is in declaration order");
            let got = want.clamp_to_host();
            assert!(got.is_supported(), "{want:?} clamps to unsupported {got:?}");
            assert!(got as usize <= i, "{want:?} clamps up to {got:?}");
            if want.is_supported() {
                assert_eq!(got, want);
            }
        }
        assert_eq!(
            SweepBackend::supported().last(),
            Some(&SweepBackend::detect())
        );
    }

    /// An overflowing pair reruns in the reused workspace, and every
    /// pair before and after still equals the scalar reference on a
    /// fresh workspace — directions mixed, for every supported
    /// backend.
    #[test]
    fn one_pair_reuses_the_workspace_across_reruns() {
        let long: Vec<u8> = (0..i16::MAX as usize).map(|i| (i % 4) as u8).collect();
        let short = encode_dna(b"ACGTACGTAACGTACGTTACGT");
        let other = encode_dna(b"ACGTTCGTAACGTACCTTACGA");
        let (p, policy) = (XDropParams::new(4), BandPolicy::Grow(4));
        let mut ws = Workspace::new();
        assert_matches_scalar(&Rev(&short), &Fwd(&other), &sc(), p, policy, &mut ws);
        assert_matches_scalar(&Fwd(&long), &Fwd(&long), &sc(), p, policy, &mut ws);
        assert_matches_scalar(&Fwd(&short), &Rev(&other), &sc(), p, policy, &mut ws);
    }
}
