//! Inter-sequence batched kernel: many alignments per vector.
//!
//! The lane-parallel kernels of [`crate::kernel`] vectorize *within*
//! one antidiagonal and plateau once the live band is narrow — which
//! on real long-read data it almost always is (§6.1). Scrooge
//! (Lindegger et al.) and LOGAN (Zeni et al.) both get their large
//! factors from the *other* axis: packing 8–32 **independent**
//! alignments into each vector register, one alignment per lane, so
//! the register is full even when every band is one cell wide. This
//! module is that inter-sequence kernel ([`crate::kernel::KernelKind::Batched`]):
//!
//! * **Persistent lane-major staging** — each lane owns one row in a
//!   three-plane rolling arena (row pitch = band capacity + 2 pad
//!   cells). Round *d* writes its classified antidiagonal into plane
//!   `d mod 3`; the `sl`/`su` operands of round *d* are index-shifted
//!   *views* of the plane written in round *d−1* and the `sd` operand
//!   a view of round *d−2* — the per-operand `copy_from_slice`
//!   staging of the earlier kernel (≈14 B of buffer traffic per
//!   staged cell) disappears. Even the substitution scores are never
//!   staged: the sweep compares the sentinel-padded sequence copies
//!   (materialized once per task, see `Lane::enter`) in-register,
//!   so per-round staging traffic is exactly zero bytes.
//! * **Live-lane compaction with mid-flight refill** — X-Drop's early
//!   exits retire lanes at wildly different rounds. Instead of
//!   sweeping a pack until its slowest member terminates, a lane that
//!   terminates (or leaves for the overflow rerun) is finalized and
//!   its slot refilled from the pending task queue at the top of the
//!   next round, continuous-batching style, so occupancy stays near
//!   1.0 instead of draining to a single straggler. Refill timing
//!   cannot affect results: every lane's computation is a pure
//!   function of its own task (lanes share no state, only the arena
//!   allocation), so each task sees exactly the rounds the scalar
//!   reference would run — see [`BatchReport::occupancy`].
//! * **i16 lanes, fully fused rounds in bursts** — cell values are
//!   stored as `i16`, doubling the lane count per register over the
//!   `i32` kernels. Each round is **one** branch-free saturating-`i16`
//!   pass per lane over contiguous slices (the autovectorizer turns it
//!   into `vpaddsw`/`vpmaxsw` chains) with the substitution compare,
//!   the X-Drop cutoff, *and* the max/live-min reductions all fused
//!   in; only three short positional scans follow, reproducing the
//!   scalar reference's first-maximum-wins reductions exactly (the
//!   first slot holding the diagonal maximum *is* the first-max-wins
//!   argmax). Lanes advance `BURST_ROUNDS` rounds per engine
//!   iteration so lane state stays in registers and the per-lane loop
//!   overhead amortizes — the bands are only a few vectors wide, so
//!   fixed costs, not arithmetic, bound the round rate.
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
//! beyond the trailing pad — left over from round `d−3` of the same
//! lane or from a previous slot occupant — are therefore never read.
//! The substitution compare runs unconditionally over the whole
//! candidate interval against sentinel-padded sequence copies
//! (`SEQ_PAD`): at the interval ends where a sequence index leaves
//! the real symbols, the compared `sd` parent is a pad or canonical
//! dropped cell, and `NEG_INF16 + s ≤ DROP16` for every
//! `|s| ≤ MAX_STEP`, so the compare's outcome there is never
//! observable.
//!
//! ## Bit-identity is still the contract
//!
//! Exactly as for the intra-antidiagonal kernels, every task's
//! [`AlignOutput`] (result *and* every [`AlignStats`] field) and
//! every [`BandPolicy::Exact`] error must match what the scalar
//! reference [`xdrop2::align_views_ty`] produces for that task on a
//! fresh workspace. Lanes that cannot be proven exact (overflow) are
//! re-run through that reference, so the contract holds by
//! construction on the rerun path and by the guard-band argument on
//! the fast path. Configurations the `i16` domain cannot model at
//! all (matrix scorers, score steps above [`MAX_STEP`], positive gap
//! penalties) take a per-task scalar fallback, counted in
//! [`BatchReport::fallbacks`].

use crate::error::{AlignError, Result};
use crate::scoring::{MatchMismatch, Scorer};
use crate::seqview::{Fwd, Rev};
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

/// Largest per-round score step the `i16` lane path accepts:
/// `|match|`, `|mismatch|` and `|gap|` must all be at most this for a
/// batch to run in `i16` lanes (otherwise the whole batch takes the
/// scalar fallback). One antidiagonal round changes a cell by exactly
/// one `sim` or one `gap` application, so this bounds how far a value
/// can move per round — the quantity the guard band is built from.
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

/// A directional byte-slice view of one task sequence — the owned
/// (lifetime-bound, object-safe-free) analogue of
/// [`crate::seqview::SeqView`] the batch API takes, so a batch can
/// mix left extensions (reverse access) and right extensions
/// (forward access) in the same lane group.
#[derive(Debug, Clone, Copy)]
pub enum TaskView<'a> {
    /// Forward access: logical index `i` is physical index `i`.
    Fwd(&'a [u8]),
    /// Reverse access: logical index `i` is physical `len − 1 − i`.
    Rev(&'a [u8]),
}

impl TaskView<'_> {
    /// Number of symbols in the view.
    #[inline(always)]
    pub fn len(&self) -> usize {
        match self {
            TaskView::Fwd(s) | TaskView::Rev(s) => s.len(),
        }
    }

    /// Whether the view is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol at logical position `idx` (`idx < len()`).
    #[inline(always)]
    pub fn at(&self, idx: usize) -> u8 {
        match self {
            TaskView::Fwd(s) => s[idx],
            TaskView::Rev(s) => s[s.len() - 1 - idx],
        }
    }

    /// Forward-order copy: physical index `i` holds logical symbol
    /// `i`, so the staging hot loop indexes a plain slice instead of
    /// branching on the direction per cell.
    fn materialize(&self) -> Vec<u8> {
        match self {
            TaskView::Fwd(s) => s.to_vec(),
            TaskView::Rev(s) => s.iter().rev().copied().collect(),
        }
    }

    /// Reverse-order copy: physical index `t` holds logical symbol
    /// `len − 1 − t`. On antidiagonal `d` the substitution compare
    /// reads logical `H` symbol `d − i − 1` for cell `i`; against
    /// this copy that is physical index `len − d + i` — *forward* in
    /// `i` — so the compare runs over two forward slices and
    /// autovectorizes.
    fn materialize_rev(&self) -> Vec<u8> {
        match self {
            TaskView::Fwd(s) => s.iter().rev().copied().collect(),
            TaskView::Rev(s) => s.to_vec(),
        }
    }
}

/// One alignment task of a batch: an `H` view × `V` view extension.
#[derive(Debug, Clone, Copy)]
pub struct BatchTask<'a> {
    /// Horizontal sequence view.
    pub h: TaskView<'a>,
    /// Vertical sequence view.
    pub v: TaskView<'a>,
}

/// What the batched kernel did with a batch — lane configuration,
/// occupancy/staging counters, and how many lanes left the `i16` fast
/// path.
///
/// The occupancy and staging counters are *observations*, never
/// inputs: no per-task value depends on them, which is why extending
/// the report cannot perturb the bit-identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BatchReport {
    /// Lane count used (vector width in `i16` cells).
    pub lanes: usize,
    /// Register backend the fused sweep ran at ([`SweepBackend`];
    /// results are backend-independent, only wall-clock moves).
    pub sweep_backend: SweepBackend,
    /// Lanes that overflowed the `i16` guard band and were re-run
    /// through the scalar `i32` reference.
    pub reruns: usize,
    /// Tasks that never entered the `i16` path (ineligible scorer or
    /// score magnitudes) and ran the scalar reference directly.
    pub fallbacks: usize,
    /// Engine rounds that swept at least one lane.
    pub rounds: u64,
    /// Sum over rounds of lanes swept that round — the occupancy
    /// numerator ([`BatchReport::occupancy`]).
    pub lane_rounds: u64,
    /// `i16` cells scored in lanes (Σ of swept candidate widths; the
    /// overflow-rerun and fallback cells are not lane cells).
    pub lane_cells: u64,
    /// Bytes copied into staging state: materialized sequence copies,
    /// arena row resets at lane entry, and arena-growth row moves.
    /// Per-round staging is zero — operands are views of persistent
    /// rows and the substitution compare is fused into the sweep. The
    /// pre-refill kernel's equivalent figure was ≈14 B per staged
    /// slot (seven operand buffers re-filled per round); see
    /// [`BatchReport::staged_bytes_per_cell`].
    pub staged_bytes: u64,
    /// Mid-flight slot refills: lanes entered while the pack was
    /// already live.
    pub refills: usize,
    /// Tasks whose sequences were materialized into forward/reverse
    /// copies — exactly once per task entering the `i16` path; rerun
    /// and fallback paths run on the original views and never
    /// re-materialize.
    pub materializations: usize,
}

impl BatchReport {
    /// Mean lane occupancy: swept lane-rounds over `rounds × lanes`.
    /// 1.0 means every slot swept a live task every round; the
    /// pre-refill kernel drained towards `1/lanes` at each bucket
    /// tail. 0.0 when the engine never ran a round.
    pub fn occupancy(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.lane_rounds as f64 / (self.rounds * self.lanes as u64) as f64
        }
    }

    /// Staging traffic per scored lane cell, in bytes
    /// (`staged_bytes / lane_cells`; 0.0 when no lane cells ran).
    pub fn staged_bytes_per_cell(&self) -> f64 {
        if self.lane_cells == 0 {
            0.0
        } else {
            self.staged_bytes as f64 / self.lane_cells as f64
        }
    }
}

/// Runtime lane-width detection: how many `i16` cells one vector
/// register holds on this host — 32 under AVX-512BW, 16 under AVX2,
/// 8 under SSE4.1/NEON, and a generic 8 elsewhere (the flat staged
/// pass still autovectorizes to whatever the target offers).
#[cfg(target_arch = "x86_64")]
pub fn lane_width() -> usize {
    if std::arch::is_x86_feature_detected!("avx512bw") {
        32
    } else if std::arch::is_x86_feature_detected!("avx2") {
        16
    } else {
        8
    }
}

/// Runtime lane-width detection (aarch64): NEON holds 8 × `i16`.
#[cfg(target_arch = "aarch64")]
pub fn lane_width() -> usize {
    8
}

/// Runtime lane-width detection (other targets): generic 8.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn lane_width() -> usize {
    8
}

/// Environment variable forcing the fused-sweep register backend,
/// overriding hardware detection: `generic`, `sse2`, `avx2`,
/// `avx512`, or `auto`. A backend the host cannot run (or an unknown
/// value) produces a loud one-time stderr warning and falls back to
/// detection — never a crash, and never a silent misconfiguration.
/// Resolved once per process and cached; intended for the
/// differential test suites and for per-backend bench rows.
pub const SWEEP_ENV: &str = "XDROP_SWEEP";

/// Which register width the fused `sweep_row` pass runs at.
///
/// All backends execute the identical per-cell arithmetic (saturating
/// `i16` adds, `max` chains, and the X-Drop classification are
/// lanewise-exact operations), so every backend is bit-identical to
/// the scalar reference — the choice moves host wall-clock only.
/// Enforced by `tests/batched_identity.rs`, which runs every backend
/// the host supports through the differential suites.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum SweepBackend {
    /// The portable scalar body (`sweep_row_generic`), lanes as far
    /// as the autovectorizer allows.
    #[default]
    Generic,
    /// Explicit 128-bit SSE2 lanes (8 × `i16`) — x86-64 baseline,
    /// always available there.
    Sse2,
    /// Explicit 256-bit AVX2 lanes (16 × `i16`) with
    /// `vpmovmskb`-based classify counting.
    Avx2,
    /// Explicit 512-bit AVX-512BW lanes (32 × `i16`): k-register
    /// masked compare/select classify and masked tail loads/stores,
    /// so ragged row widths need no scalar epilogue.
    Avx512,
}

impl SweepBackend {
    /// Every backend, narrowest first (bench/report ordering).
    pub const ALL: [SweepBackend; 4] = [
        SweepBackend::Generic,
        SweepBackend::Sse2,
        SweepBackend::Avx2,
        SweepBackend::Avx512,
    ];

    /// Stable lower-case name (`generic` / `sse2` / `avx2` /
    /// `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SweepBackend::Generic => "generic",
            SweepBackend::Sse2 => "sse2",
            SweepBackend::Avx2 => "avx2",
            SweepBackend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as accepted by [`SWEEP_ENV`]. `auto`
    /// resolves through hardware detection; unknown names are `None`
    /// (the env reader warns loudly and falls back to detection).
    pub fn parse(s: &str) -> Option<SweepBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "generic" => Some(SweepBackend::Generic),
            "sse2" => Some(SweepBackend::Sse2),
            "avx2" => Some(SweepBackend::Avx2),
            "avx512" | "avx512bw" => Some(SweepBackend::Avx512),
            "auto" => Some(SweepBackend::detect()),
            _ => None,
        }
    }

    /// Whether this host can execute the backend.
    pub fn is_supported(self) -> bool {
        match self {
            SweepBackend::Generic => true,
            #[cfg(target_arch = "x86_64")]
            SweepBackend::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SweepBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
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

    /// Hardware detection: the widest supported backend.
    pub fn detect() -> SweepBackend {
        *SweepBackend::supported()
            .last()
            .expect("generic always runs")
    }

    /// The widest supported backend at or below this one — the
    /// dispatch guarantee that an explicitly requested (or
    /// env-forced) backend never executes intrinsics the host lacks.
    pub fn clamp_to_host(self) -> SweepBackend {
        if self.is_supported() {
            return self;
        }
        let mut best = SweepBackend::Generic;
        for b in SweepBackend::ALL {
            if b == self {
                break;
            }
            if b.is_supported() {
                best = b;
            }
        }
        best
    }

    /// [`SweepBackend::detect`] unless [`SWEEP_ENV`] forces a
    /// backend, resolved once per process and cached. Unknown or
    /// host-unsupported values warn on stderr (once) and fall back —
    /// the silent-fallback failure mode of the historical
    /// `XDROP_KERNEL` reader is explicitly not reproduced here.
    pub fn resolved() -> SweepBackend {
        static RESOLVED: std::sync::OnceLock<SweepBackend> = std::sync::OnceLock::new();
        *RESOLVED.get_or_init(|| match std::env::var(SWEEP_ENV) {
            Ok(v) => match SweepBackend::parse(&v) {
                Some(b) => {
                    let clamped = b.clamp_to_host();
                    if clamped != b {
                        eprintln!(
                            "warning: {SWEEP_ENV}={v} requests the {} sweep backend but this \
                             host cannot run it; using {}",
                            b.name(),
                            clamped.name()
                        );
                    }
                    clamped
                }
                None => {
                    let det = SweepBackend::detect();
                    eprintln!(
                        "warning: unknown {SWEEP_ENV} value {v:?} (expected generic, sse2, \
                         avx2, avx512, or auto); using auto-detected {}",
                        det.name()
                    );
                    det
                }
            },
            Err(_) => SweepBackend::detect(),
        })
    }
}

/// Whether `scorer` can run in `i16` lanes: a plain match/mismatch
/// scheme whose scores fit the guard-band arithmetic. `gap ≤ 0` is
/// required because a positive gap could walk a canonical dropped
/// value back into the live range in `i16` where the `i32` sentinel
/// would have stayed dropped.
fn eligible<S: Scorer>(scorer: &S) -> Option<MatchMismatch> {
    let mm = scorer.as_match_mismatch()?;
    let ok = mm.match_score.abs() <= MAX_STEP
        && mm.mismatch_score.abs() <= MAX_STEP
        && mm.gap_penalty.abs() <= MAX_STEP
        && mm.gap_penalty <= 0;
    ok.then_some(mm)
}

/// Runs one task through the scalar `i32` reference on a fresh
/// workspace — the oracle the batch results are pinned to, and the
/// rerun/fallback path. Operates on the original [`TaskView`] borrows
/// directly: no sequence is materialized here, so a rerun or fallback
/// never repeats the copy a lane already paid for
/// ([`BatchReport::materializations`] counts lane entries only).
fn scalar_task<S: Scorer>(
    task: &BatchTask<'_>,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> Result<AlignOutput> {
    let mut ws = Workspace::<i32>::new();
    match (task.h, task.v) {
        (TaskView::Fwd(h), TaskView::Fwd(v)) => {
            xdrop2::align_views_ty(&Fwd(h), &Fwd(v), scorer, params, policy, &mut ws)
        }
        (TaskView::Fwd(h), TaskView::Rev(v)) => {
            xdrop2::align_views_ty(&Fwd(h), &Rev(v), scorer, params, policy, &mut ws)
        }
        (TaskView::Rev(h), TaskView::Fwd(v)) => {
            xdrop2::align_views_ty(&Rev(h), &Fwd(v), scorer, params, policy, &mut ws)
        }
        (TaskView::Rev(h), TaskView::Rev(v)) => {
            xdrop2::align_views_ty(&Rev(h), &Rev(v), scorer, params, policy, &mut ws)
        }
    }
}

/// The deterministic task schedule of a batch: indices sorted by
/// descending `|H| + |V|`, tie-broken by **ascending original task
/// index**. The explicit index tiebreak makes the schedule a total
/// order — equal-length tasks always enter lanes in submission order,
/// so bucketing and mid-flight refill are reproducible run to run
/// (and results never depend on the schedule at all; lanes are
/// independent).
pub fn task_order(tasks: &[BatchTask<'_>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_unstable_by_key(|&t| (std::cmp::Reverse(tasks[t].h.len() + tasks[t].v.len()), t));
    order
}

/// Aligns a batch of tasks with the hardware-detected lane width.
///
/// Returns one [`Result`] per task, in task order, plus a
/// [`BatchReport`]. Every outcome is bit-identical to running that
/// task alone through the scalar reference on a fresh workspace.
pub fn align_batch<S: Scorer>(
    tasks: &[BatchTask<'_>],
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> (Vec<Result<AlignOutput>>, BatchReport) {
    align_batch_with_lanes(tasks, scorer, params, policy, lane_width())
}

/// [`align_batch`] with an explicit lane count (bench lane sweeps and
/// tests; results never depend on the lane count, only wall-clock
/// does).
pub fn align_batch_with_lanes<S: Scorer>(
    tasks: &[BatchTask<'_>],
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    lanes: usize,
) -> (Vec<Result<AlignOutput>>, BatchReport) {
    align_batch_with_backend(
        tasks,
        scorer,
        params,
        policy,
        lanes,
        SweepBackend::resolved(),
    )
}

/// [`align_batch_with_lanes`] with the fused-sweep register backend
/// pinned explicitly (differential tests and per-backend bench rows;
/// results never depend on the backend, only wall-clock does). A
/// backend the host cannot execute is clamped to the widest supported
/// one at or below it — the report records what actually ran.
pub fn align_batch_with_backend<S: Scorer>(
    tasks: &[BatchTask<'_>],
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    lanes: usize,
    backend: SweepBackend,
) -> (Vec<Result<AlignOutput>>, BatchReport) {
    let lanes = lanes.max(1);
    let backend = backend.clamp_to_host();
    let mut report = BatchReport {
        lanes,
        sweep_backend: backend,
        ..Default::default()
    };
    let mut out: Vec<Option<Result<AlignOutput>>> = (0..tasks.len()).map(|_| None).collect();
    match eligible(scorer) {
        Some(mm) => {
            let order = task_order(tasks);
            run_engine(
                tasks,
                &order,
                &mm,
                params,
                policy,
                lanes,
                backend,
                &mut out,
                &mut report,
            );
        }
        None => {
            for (task, slot) in tasks.iter().zip(out.iter_mut()) {
                *slot = Some(scalar_task(task, scorer, params, policy));
                report.fallbacks += 1;
            }
        }
    }
    (
        out.into_iter()
            .map(|slot| slot.expect("every task resolved"))
            .collect(),
        report,
    )
}

/// Per-lane DP state — one task's complete scalar-reference state
/// machine, advanced one antidiagonal per round. Lanes are fully
/// independent: the only shared structure is the arena allocation,
/// in which each lane owns its own rows.
struct Lane {
    task: usize,
    /// Reverse-order copy of the `H` view (see
    /// [`TaskView::materialize_rev`] for why reversed) with one
    /// [`SEQ_PAD`] sentinel appended at index `m`; made once at lane
    /// entry and reused for every round. On antidiagonal `d`, cell
    /// `i` reads `hpad[m + i − d]` — in bounds for the whole
    /// candidate interval (`i ≤ d` geometrically, with `i = d`
    /// landing on the sentinel).
    hpad: Vec<u8>,
    /// Forward-order copy of the `V` view with one [`SEQ_PAD`]
    /// sentinel *prepended*: cell `i` reads `vpad[i]` (logical
    /// `V[i − 1]`), with `i = 0` landing on the sentinel.
    vpad: Vec<u8>,
    m: usize,
    n: usize,
    /// The lane's own antidiagonal counter. Refill desynchronizes
    /// lane rounds, so the arena ring rotation is driven by this,
    /// never by a global round number.
    d: usize,
    /// `cand_lo` of the row each arena plane holds for this lane.
    bases: [usize; 3],
    /// Width of the row each arena plane holds (0 = no row yet).
    widths: [usize; 3],
    /// Virtual workspace capacity with fresh-workspace semantics:
    /// starts at `δ_b`, doubles under [`BandPolicy::Grow`] exactly as
    /// `align_views_ty` grows a fresh [`Workspace`].
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
    /// Terminated normally (geometry exhausted, band went dead, or
    /// the antidiagonal cap hit).
    Done,
    /// A live value escaped the `i16` guard band: discard and re-run
    /// through the `i32` reference.
    Overflowed,
    /// Terminated with the scalar reference's error.
    Failed(AlignError),
}

/// Sequence pad sentinel: `hpad[m]` and `vpad[0]` hold this value so
/// the fused substitution compare runs over the full candidate
/// interval with no per-cell bounds logic. Correctness does not
/// depend on the sentinel's value at all: a pad byte is only read for
/// cells whose diagonal (`sd`) parent is a `−∞` pad or canonical
/// dropped cell — where the compare's outcome is unobservable (see
/// the module padding invariants) — and the two pads can never face
/// *each other* (`i = 0` and `i = d` coincide only at `d = 0`, before
/// the first round).
const SEQ_PAD: u8 = u8::MAX;

impl Lane {
    /// Builds the lane state for `tasks[task]` — the one place a
    /// task's sequences are materialized.
    fn enter(task: usize, t: &BatchTask<'_>, delta_b: usize) -> Lane {
        let (h, v) = (t.h, t.v);
        let (m, n) = (h.len(), v.len());
        let mut hpad = h.materialize_rev();
        hpad.push(SEQ_PAD);
        let mut vpad = Vec::with_capacity(n + 1);
        vpad.push(SEQ_PAD);
        vpad.extend_from_slice(&v.materialize());
        Lane {
            task,
            hpad,
            vpad,
            m,
            n,
            d: 0,
            bases: [0; 3],
            // Plane 0 (= round 0 mod 3) holds the seed row H[0] =
            // {cell 0} after the arena rows are reset.
            widths: [1, 0, 0],
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
}

/// The `i32` cell size the modeled `work_bytes` are stated in: the
/// device kernel's footprint is defined by the reference cell type,
/// not by this host kernel's internal `i16` storage — bit-identity
/// of [`AlignStats::work_bytes`] demands the reference's accounting.
const CELL_BYTES: usize = std::mem::size_of::<i32>();

/// Doubles (at least) the arena row pitch, preserving every occupied
/// lane's three rows. Unoccupied rows and the grown tails are reset
/// to the `−∞` sentinel.
fn grow_arena(
    planes: &mut [Vec<i16>; 3],
    slots: &[Option<Lane>],
    k: usize,
    stride: &mut usize,
    min_stride: usize,
    report: &mut BatchReport,
) {
    let old = *stride;
    let new_stride = min_stride.max(2 * old);
    for p in planes.iter_mut() {
        let mut np = vec![NEG_INF16; k * new_stride];
        for (s, slot) in slots.iter().enumerate() {
            if slot.is_some() {
                np[s * new_stride..s * new_stride + old]
                    .copy_from_slice(&p[s * old..(s + 1) * old]);
                report.staged_bytes += 2 * old as u64;
            }
        }
        *p = np;
    }
    *stride = new_stride;
}

/// Rounds a lane advances per engine iteration before control returns
/// to the pack loop. Large enough to amortize per-lane fixed costs
/// (slot dispatch, plane selection, lane-state loads and stores) over
/// many rounds — the live bands are only a few vectors wide, so those
/// fixed costs, not arithmetic, would otherwise bound the round rate
/// — and small enough that a vacated slot waits at most this many
/// rounds for its refill, which is well under 2% of the round count
/// of any task long enough for occupancy to matter.
const BURST_ROUNDS: usize = 64;

/// Runs the whole batch through one persistent lane pack: the scalar
/// reference's control flow replicated per lane over the three-plane
/// rolling arena, with terminated lanes compacted out and their slots
/// refilled from `order`. Lanes advance in [`BURST_ROUNDS`]-round
/// bursts ([`lane_burst`]); lanes are pure functions of their own
/// task, so neither burst nor refill scheduling is observable in any
/// result.
#[allow(clippy::too_many_arguments)]
fn run_engine(
    tasks: &[BatchTask<'_>],
    order: &[usize],
    mm: &MatchMismatch,
    params: XDropParams,
    policy: BandPolicy,
    k: usize,
    backend: SweepBackend,
    out: &mut [Option<Result<AlignOutput>>],
    report: &mut BatchReport,
) {
    let delta_b = policy.delta_b();
    if delta_b == 0 {
        for &t in order {
            out[t] = Some(Err(AlignError::InvalidConfig("δ_b must be nonzero")));
        }
        return;
    }

    // Arena: 3 planes × (k rows of `stride` i16 cells). Row layout:
    // slot 0 = leading −∞ pad, slots 1..=width = the stored row,
    // slot width+1 = trailing −∞ pad (see the module docs for the
    // bounds argument). `stride ≥ max lane cap + 2` is maintained by
    // `grow_arena`.
    let mut stride = delta_b + 2;
    let mut planes: [Vec<i16>; 3] = std::array::from_fn(|_| vec![NEG_INF16; k * stride]);
    let mut slots: Vec<Option<Lane>> = (0..k).map(|_| None).collect();
    let mut next = 0usize;

    loop {
        // ---- Refill: admit pending tasks into vacated slots.
        if next < order.len() {
            let pack_live = slots.iter().any(Option::is_some);
            for (s, slot) in slots.iter_mut().enumerate() {
                if slot.is_none() && next < order.len() {
                    let t = order[next];
                    next += 1;
                    let lane = Lane::enter(t, &tasks[t], delta_b);
                    let rb = s * stride;
                    for p in planes.iter_mut() {
                        p[rb..rb + stride].fill(NEG_INF16);
                    }
                    // Seed cell H[0][0] = 0 in plane 0, slot 1.
                    planes[0][rb + 1] = 0;
                    report.materializations += 1;
                    report.staged_bytes += (lane.m + lane.n) as u64 + 3 * 2 * stride as u64;
                    if pack_live {
                        report.refills += 1;
                    }
                    *slot = Some(lane);
                }
            }
        }
        if slots.iter().all(Option::is_none) {
            break;
        }

        // ---- Bursts: advance every occupied lane up to
        // [`BURST_ROUNDS`] rounds. A lane stops early only to
        // terminate or to request a wider arena pitch (Grow policy),
        // in which case it resumes — with no state committed for the
        // paused round — after the re-pitch below.
        let mut max_exec = 0u64;
        let mut need_stride = 0usize;
        for (s, slot) in slots.iter_mut().enumerate() {
            let Some(lane) = slot.as_mut() else { continue };
            let exec = lane_burst(
                lane,
                &mut planes,
                s * stride,
                stride,
                mm,
                params,
                policy,
                backend,
                &mut need_stride,
                report,
            );
            report.lane_rounds += exec;
            max_exec = max_exec.max(exec);
        }
        // The engine iteration spans `max_exec` logical rounds; a lane
        // that terminated earlier leaves its slot idle for the rest of
        // the iteration (the occupancy denominator sees that).
        report.rounds += max_exec;

        // A lane's band outgrew the row pitch (Grow policy): re-pitch
        // the arena, then let the paused lane re-run its prologue.
        if need_stride > stride {
            grow_arena(&mut planes, &slots, k, &mut stride, need_stride, report);
        }

        // ---- Compact: finalize terminated lanes and vacate their
        // slots for the next iteration's refill.
        for slot in slots.iter_mut() {
            let finished = slot
                .as_ref()
                .is_some_and(|lane| !matches!(lane.state, LaneState::Active));
            if !finished {
                continue;
            }
            let lane = slot.take().expect("checked occupied");
            out[lane.task] = Some(match lane.state {
                LaneState::Done => Ok(AlignOutput {
                    result: lane.best,
                    stats: lane.stats,
                }),
                LaneState::Overflowed => {
                    report.reruns += 1;
                    scalar_task(&tasks[lane.task], mm, params, policy)
                }
                LaneState::Failed(e) => Err(e),
                LaneState::Active => unreachable!("finished lanes are not active"),
            });
        }
    }
}

/// [`LOW_GUARD`] in the `i16` domain, for in-register guard tests.
/// The cast is exact: `DROP16 + MAX_STEP = −3072` is well inside
/// `i16` range.
#[allow(clippy::cast_possible_truncation)]
const LOW_GUARD16: i16 = LOW_GUARD as i16;

/// Everything one fused-sweep row hands back to the reduce step.
///
/// `low_hit` replaces the old live-minimum reduction: the reduce step
/// only ever compared that minimum against [`LOW_GUARD`], so the
/// sweep now answers the question directly ("did any kept cell land
/// at or under the guard?") instead of carrying a horizontal `min`
/// chain per row. `lo_w`/`hi_w` are the first/last kept slots (the
/// next round's live interval) **when the backend's classify masks
/// expose positions for free** (the k-register AVX-512 path); the
/// narrow backends leave the `usize::MAX` sentinel and the reduce
/// step recovers the bounds with [`live_bounds`]' end scans, which
/// are O(1) on the typical almost-fully-live row.
#[derive(Debug, Clone, Copy)]
struct RowSweep {
    /// Row maximum over stored values ([`NEG_INF16`] if none kept).
    mx: i16,
    /// Whether any kept cell is `≤ LOW_GUARD` (≡ old `mn ≤ LOW_GUARD`).
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

/// One row of the fused sweep, scalar: per cell `i = cand_lo + w`,
/// substitution compare, saturating DP `max`, X-Drop classification,
/// and store — with the row maximum, live minimum, and pruned count
/// accumulated in the same pass. The body is branch-free so the
/// autovectorizer can lane it on targets without an explicit backend.
/// This is the reference body; the wide backends lane the identical
/// per-cell arithmetic (saturating adds, `max` chains and the
/// classification are all lanewise-exact operations, so every backend
/// is bit-identical).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_row_generic(
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    from: usize,
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
    mx: &mut i16,
    mn: &mut i16,
    dropped: &mut u64,
) {
    for w in from..width {
        let simw = if vs[w] == hs[w] { mat16 } else { mis16 };
        let diag = r2s[w].saturating_add(simw);
        let up = r1s[w].saturating_add(gap16);
        let lft = r1s[w + 1].saturating_add(gap16);
        let r = diag.max(lft).max(up);
        let alive = r > DROP16;
        let kept = alive & (r >= thr16);
        let v = if kept { r } else { NEG_INF16 };
        orow[w + 1] = v;
        *dropped += u64::from(alive & !kept);
        *mx = (*mx).max(v);
        *mn = (*mn).min(if kept { r } else { i16::MAX });
    }
}

/// One row of the fused sweep over explicit SSE2 `i16` lanes — SSE2
/// is x86-64 baseline, so this backend is always available. Eight
/// cells per step: byte compare → select, three `paddsw`, two
/// `pmaxsw`, classification by mask, and the row max / low-guard hit
/// / pruned count reduced in-register (the count via `-=` of the
/// all-ones mask, flushed to the wide accumulator every 2¹⁶ cells so
/// the `i16` segment counters cannot wrap). The autovectorizer
/// refused this factor on its own: the `u64` count accumulator pins
/// loop-wide vectorization at two lanes, which is why the kernel
/// lanes the body by hand exactly like [`crate::kernel`]'s `isa`
/// modules do.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_row_sse2(
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    use std::arch::x86_64::*;
    debug_assert!(r1s.len() > width && r2s.len() >= width);
    debug_assert!(vs.len() >= width && hs.len() >= width && orow.len() >= width + 2);
    let mut acc = RowSweep::new();
    let vect = width & !7;
    // SAFETY: every load reads at most 16 B ending at index `w + 8`
    // of `r2s`/`vs`/`hs` (length ≥ `width ≥ vect ≥ w + 8`) or
    // `w + 9` of `r1s` (length ≥ `width + 1`); the store writes
    // `orow[w + 1 .. w + 9]` (length ≥ `width + 2 ≥ w + 10`). SSE2 is
    // unconditionally available on `x86_64`.
    unsafe {
        let vmat = _mm_set1_epi16(mat16);
        let vmis = _mm_set1_epi16(mis16);
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
                let v16 = _mm_unpacklo_epi8(_mm_loadl_epi64(vs.as_ptr().add(w).cast()), zero);
                let h16 = _mm_unpacklo_epi8(_mm_loadl_epi64(hs.as_ptr().add(w).cast()), zero);
                let eq = _mm_cmpeq_epi16(v16, h16);
                let sim = _mm_or_si128(_mm_and_si128(eq, vmat), _mm_andnot_si128(eq, vmis));
                let diag = _mm_adds_epi16(_mm_loadu_si128(r2s.as_ptr().add(w).cast()), sim);
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
    let mut mn = i16::MAX;
    sweep_row_generic(
        r1s,
        r2s,
        vs,
        hs,
        orow,
        vect,
        width,
        mat16,
        mis16,
        gap16,
        thr16,
        &mut acc.mx,
        &mut mn,
        &mut acc.dropped,
    );
    acc.low_hit |= mn <= LOW_GUARD16;
    acc
}

/// One row of the fused sweep, portable: the scalar body, which the
/// autovectorizer lanes as far as the target allows. The only backend
/// on non-x86 targets; [`SweepBackend::Generic`] everywhere.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_row_portable(
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    let mut acc = RowSweep::new();
    let mut mn = i16::MAX;
    sweep_row_generic(
        r1s,
        r2s,
        vs,
        hs,
        orow,
        0,
        width,
        mat16,
        mis16,
        gap16,
        thr16,
        &mut acc.mx,
        &mut mn,
        &mut acc.dropped,
    );
    acc.low_hit = mn <= LOW_GUARD16;
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

/// One row of the fused sweep over explicit 256-bit AVX2 lanes —
/// the SSE2 algorithm at twice the width, sixteen cells per step,
/// with the pruned-cell count taken per step from `vpmovmskb` of the
/// classify mask (two set bits per pruned `i16` lane) instead of the
/// segmented `i16` counter, so there is no flush cadence to get
/// wrong. The tail (`width & 15` cells) keeps the scalar epilogue.
///
/// Bit-identity: saturating adds, `max` chains, compares, and
/// byte-blend selects are all lanewise-exact, so the row bytes and
/// reductions equal [`sweep_row_generic`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn sweep_row_avx2(
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    use std::arch::x86_64::*;
    debug_assert!(r1s.len() > width && r2s.len() >= width);
    debug_assert!(vs.len() >= width && hs.len() >= width && orow.len() >= width + 2);
    let mut acc = RowSweep::new();
    let vect = width & !15;
    // SAFETY (in addition to the caller-proved AVX2 availability):
    // every 32 B load ends at index `w + 16` of `r2s`/`vs`/`hs`
    // (length ≥ `width ≥ vect ≥ w + 16`) or `w + 17` of `r1s` (length
    // ≥ `width + 1`); the 32 B store writes `orow[w + 1 .. w + 17]`
    // (length ≥ `width + 2 ≥ w + 18`). The byte loads read 16 B from
    // `vs`/`hs` ending at `w + 16 ≤ width`.
    unsafe {
        let vmat = _mm256_set1_epi16(mat16);
        let vmis = _mm256_set1_epi16(mis16);
        let vgap = _mm256_set1_epi16(gap16);
        let vthr = _mm256_set1_epi16(thr16);
        let vdrop = _mm256_set1_epi16(DROP16);
        let vneg = _mm256_set1_epi16(NEG_INF16);
        let vlow = _mm256_set1_epi16(LOW_GUARD16);
        let mut vmx = vneg;
        let mut vlowacc = _mm256_setzero_si256();
        let mut dropped = 0u32;
        let mut w = 0usize;
        while w < vect {
            let v16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(vs.as_ptr().add(w).cast()));
            let h16 = _mm256_cvtepu8_epi16(_mm_loadu_si128(hs.as_ptr().add(w).cast()));
            let eq = _mm256_cmpeq_epi16(v16, h16);
            let sim = _mm256_blendv_epi8(vmis, vmat, eq);
            let diag = _mm256_adds_epi16(_mm256_loadu_si256(r2s.as_ptr().add(w).cast()), sim);
            let up = _mm256_adds_epi16(_mm256_loadu_si256(r1s.as_ptr().add(w).cast()), vgap);
            let lft = _mm256_adds_epi16(_mm256_loadu_si256(r1s.as_ptr().add(w + 1).cast()), vgap);
            let r = _mm256_max_epi16(diag, _mm256_max_epi16(lft, up));
            let alive = _mm256_cmpgt_epi16(r, vdrop);
            let below = _mm256_cmpgt_epi16(vthr, r); // r < thr16
            let kept = _mm256_andnot_si256(below, alive);
            let stored = _mm256_blendv_epi8(vneg, r, kept);
            _mm256_storeu_si256(orow.as_mut_ptr().add(w + 1).cast(), stored);
            let pruned = _mm256_and_si256(alive, below);
            // Each pruned i16 lane contributes two set mask bytes.
            dropped += (_mm256_movemask_epi8(pruned) as u32).count_ones() / 2;
            vmx = _mm256_max_epi16(vmx, stored);
            // kept & (r ≤ LOW_GUARD) ≡ kept & !(r > LOW_GUARD).
            vlowacc = _mm256_or_si256(
                vlowacc,
                _mm256_andnot_si256(_mm256_cmpgt_epi16(r, vlow), kept),
            );
            w += 16;
        }
        acc.dropped = u64::from(dropped);
        acc.mx = hmax_epi16(_mm_max_epi16(
            _mm256_castsi256_si128(vmx),
            _mm256_extracti128_si256(vmx, 1),
        ));
        acc.low_hit = _mm256_movemask_epi8(vlowacc) != 0;
    }
    let mut mn = i16::MAX;
    sweep_row_generic(
        r1s,
        r2s,
        vs,
        hs,
        orow,
        vect,
        width,
        mat16,
        mis16,
        gap16,
        thr16,
        &mut acc.mx,
        &mut mn,
        &mut acc.dropped,
    );
    acc.low_hit |= mn <= LOW_GUARD16;
    acc
}

/// One row of the fused sweep over explicit 512-bit AVX-512BW lanes,
/// thirty-two cells per step, using the native facilities the
/// narrower backends emulate:
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
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn sweep_row_avx512(
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    use std::arch::x86_64::*;
    debug_assert!(r1s.len() > width && r2s.len() >= width);
    debug_assert!(vs.len() >= width && hs.len() >= width && orow.len() >= width + 2);
    let mut acc = RowSweep::new();
    // SAFETY (in addition to the caller-proved AVX-512BW
    // availability): every load and the store are masked by
    // `k = (1 << min(rem, 32)) − 1`, so lane `j` is touched only when
    // `w + j < width` — `r2s`/`vs`/`hs` indices stay `< width ≤ len`,
    // `r1s` indices stay `< width + 1 ≤ len`, and the store writes
    // `orow[w + 1 + j]` with `w + 1 + j ≤ width < len`. Masked lanes
    // of `vmovdqu16{z}`/`vmovdqu8{z}` perform no memory access.
    unsafe {
        let vmat = _mm512_set1_epi16(mat16);
        let vmis = _mm512_set1_epi16(mis16);
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
            let vb = _mm512_maskz_loadu_epi8(k as u64, vs.as_ptr().add(w).cast());
            let v16 = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(vb));
            let hb = _mm512_maskz_loadu_epi8(k as u64, hs.as_ptr().add(w).cast());
            let h16 = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(hb));
            let eqk = _mm512_cmpeq_epi16_mask(v16, h16);
            let sim = _mm512_mask_blend_epi16(eqk, vmis, vmat);
            let diag =
                _mm512_adds_epi16(_mm512_maskz_loadu_epi16(k, r2s.as_ptr().add(w).cast()), sim);
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
/// intrinsic bodies are sound to call here because
/// [`align_batch_with_backend`] clamps the backend to host support
/// before the engine runs a single round. Marked `#[inline(always)]`
/// so the `backend` match folds away inside the per-backend
/// [`lane_burst`] bodies, letting the intrinsic sweeps inline into
/// their feature-matched burst loop (which hoists the broadcast
/// constants out of the round loop).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_row(
    backend: SweepBackend,
    r1s: &[i16],
    r2s: &[i16],
    vs: &[u8],
    hs: &[u8],
    orow: &mut [i16],
    width: usize,
    mat16: i16,
    mis16: i16,
    gap16: i16,
    thr16: i16,
) -> RowSweep {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: `clamp_to_host` admitted the backend, so the
        // required target features were runtime-detected.
        SweepBackend::Avx512 => unsafe {
            sweep_row_avx512(r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16)
        },
        // SAFETY: as above — AVX2 was runtime-detected.
        SweepBackend::Avx2 => unsafe {
            sweep_row_avx2(r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16)
        },
        SweepBackend::Sse2 => {
            sweep_row_sse2(r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16)
        }
        SweepBackend::Generic => {
            sweep_row_portable(r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16)
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        sweep_row_portable(r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16)
    }
}

/// First slot of `row` equal to `mx` — the scalar reference's
/// first-maximum-wins argmax. Caller guarantees `mx` is present.
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
    unreachable!("live max present")
}

/// [`row_argmax_generic`] over 256-bit `vpcmpeqw` + `vpmovmskb` (two
/// mask bits per `i16` lane; the position is `tzcnt/2`). The
/// sub-16-cell tail falls back to the scalar body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn row_argmax_avx2(row: &[i16], mx: i16) -> usize {
    use std::arch::x86_64::*;
    let width = row.len();
    let vect = width & !15;
    // SAFETY: each 32 B load ends at `row[w + 16]` with
    // `w + 16 ≤ vect ≤ width`; AVX2 is caller-detected.
    unsafe {
        let vmx = _mm256_set1_epi16(mx);
        let mut w = 0usize;
        while w < vect {
            let vals = _mm256_loadu_si256(row.as_ptr().add(w).cast());
            let eq = _mm256_movemask_epi8(_mm256_cmpeq_epi16(vals, vmx)) as u32;
            if eq != 0 {
                return w + eq.trailing_zeros() as usize / 2;
            }
            w += 16;
        }
    }
    vect + row_argmax_generic(&row[vect..], mx)
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
        // SAFETY: as above.
        SweepBackend::Avx2 => unsafe { row_argmax_avx2(row, mx) },
        SweepBackend::Sse2 | SweepBackend::Generic => row_argmax_generic(row, mx),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        row_argmax_generic(row, mx)
    }
}

/// Advances one lane by up to [`BURST_ROUNDS`] antidiagonal rounds —
/// prologue, fused sweep, and reductions per round, exactly the
/// scalar reference's control flow — and returns the number of rounds
/// executed. Stops early when the lane leaves [`LaneState::Active`]
/// or when [`BandPolicy::Grow`] needs a wider arena pitch than
/// `stride`: `need_stride` is raised and the paused round commits
/// **nothing** (prologue mutations happen only once the round is sure
/// to execute), so re-running the prologue after the re-pitch is
/// exact.
///
/// This is the dispatcher: the burst body itself lives in
/// [`lane_burst_impl`] and is compiled once **per backend** behind a
/// matching `#[target_feature]` wrapper. Multiversioning the whole
/// burst (rather than just the row sweep) is what lets LLVM inline
/// the intrinsic sweeps into the round loop and hoist their broadcast
/// constants across rounds — at the ~40-cell row widths the X-Drop
/// band typically settles into, those per-row fixed costs are a
/// double-digit fraction of the kernel.
#[allow(clippy::too_many_arguments)]
fn lane_burst(
    lane: &mut Lane,
    planes: &mut [Vec<i16>; 3],
    rb: usize,
    stride: usize,
    mm: &MatchMismatch,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
    need_stride: &mut usize,
    report: &mut BatchReport,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    match backend {
        // SAFETY: `clamp_to_host` admitted the backend, so the
        // required target features were runtime-detected.
        SweepBackend::Avx512 => unsafe {
            lane_burst_avx512(
                lane,
                planes,
                rb,
                stride,
                mm,
                params,
                policy,
                need_stride,
                report,
            )
        },
        // SAFETY: as above — AVX2 was runtime-detected.
        SweepBackend::Avx2 => unsafe {
            lane_burst_avx2(
                lane,
                planes,
                rb,
                stride,
                mm,
                params,
                policy,
                need_stride,
                report,
            )
        },
        SweepBackend::Sse2 => lane_burst_impl(
            lane,
            planes,
            rb,
            stride,
            mm,
            params,
            policy,
            SweepBackend::Sse2,
            need_stride,
            report,
        ),
        SweepBackend::Generic => lane_burst_impl(
            lane,
            planes,
            rb,
            stride,
            mm,
            params,
            policy,
            SweepBackend::Generic,
            need_stride,
            report,
        ),
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = backend;
        lane_burst_impl(
            lane,
            planes,
            rb,
            stride,
            mm,
            params,
            policy,
            SweepBackend::Generic,
            need_stride,
            report,
        )
    }
}

/// [`lane_burst_impl`] compiled with AVX-512BW enabled, so the
/// masked sweep and argmax inline into the burst loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[allow(clippy::too_many_arguments)]
unsafe fn lane_burst_avx512(
    lane: &mut Lane,
    planes: &mut [Vec<i16>; 3],
    rb: usize,
    stride: usize,
    mm: &MatchMismatch,
    params: XDropParams,
    policy: BandPolicy,
    need_stride: &mut usize,
    report: &mut BatchReport,
) -> u64 {
    lane_burst_impl(
        lane,
        planes,
        rb,
        stride,
        mm,
        params,
        policy,
        SweepBackend::Avx512,
        need_stride,
        report,
    )
}

/// [`lane_burst_impl`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn lane_burst_avx2(
    lane: &mut Lane,
    planes: &mut [Vec<i16>; 3],
    rb: usize,
    stride: usize,
    mm: &MatchMismatch,
    params: XDropParams,
    policy: BandPolicy,
    need_stride: &mut usize,
    report: &mut BatchReport,
) -> u64 {
    lane_burst_impl(
        lane,
        planes,
        rb,
        stride,
        mm,
        params,
        policy,
        SweepBackend::Avx2,
        need_stride,
        report,
    )
}

/// The burst body shared by every backend; see [`lane_burst`].
/// `#[inline(always)]` + a literal `backend` at each call site fold
/// the [`sweep_row`]/[`row_argmax`] dispatch matches at compile time
/// inside each `#[target_feature]` wrapper.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn lane_burst_impl(
    lane: &mut Lane,
    planes: &mut [Vec<i16>; 3],
    rb: usize,
    stride: usize,
    mm: &MatchMismatch,
    params: XDropParams,
    policy: BandPolicy,
    backend: SweepBackend,
    need_stride: &mut usize,
    report: &mut BatchReport,
) -> u64 {
    let x = params.x;
    let gap16 = mm.gap_penalty as i16;
    let (mat16, mis16) = (mm.match_score as i16, mm.mismatch_score as i16);
    let mut exec = 0u64;
    for _ in 0..BURST_ROUNDS {
        // ---- Prologue: candidate interval and band policy on
        // locals; nothing commits before the arena-pitch check.
        let d = lane.d + 1;
        if d > lane.m + lane.n {
            lane.state = LaneState::Done;
            break;
        }
        if let Some(cap) = params.max_antidiagonals {
            if lane.stats.antidiagonals as usize >= cap {
                lane.state = LaneState::Done;
                break;
            }
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
                        *need_stride = (*need_stride).max(new_cap + 2);
                        break;
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
        exec += 1;

        // ---- Fused sweep: one branch-free saturating pass whose
        // operands are index-shifted views of the rows written in
        // rounds d−1 (plane (d+2)%3) and d−2 (plane (d+1)%3), written
        // straight into plane d%3 — no operand staging, no writeback.
        // The substitution compare reads the sentinel-padded sequence
        // copies directly, and the row max / live-min reductions ride
        // in the same pass.
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
        // `hs[w]` = H[d−i−1], for i = cand_lo + w (the sequence reads
        // hit a [`SEQ_PAD`] exactly where the diagonal parent is a
        // pad, so their value never matters there).
        let r1s = &r1[rb + off1..rb + off1 + width + 1];
        let r2s = &r2[rb + off2..rb + off2 + width];
        let vs = &lane.vpad[cand_lo..cand_lo + width];
        let hs = &lane.hpad[lane.m + cand_lo - d..lane.m + cand_lo - d + width];
        let orow = &mut outp[rb..rb + width + 2];
        let sw = sweep_row(
            backend, r1s, r2s, vs, hs, orow, width, mat16, mis16, gap16, thr16,
        );
        orow[0] = NEG_INF16; // leading pad
        orow[width + 1] = NEG_INF16; // trailing pad
        lane.bases[cur] = cand_lo;
        lane.widths[cur] = width;
        report.lane_cells += width as u64;

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
    exec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn assert_batch_matches_scalar(
        tasks: &[BatchTask<'_>],
        scorer: &MatchMismatch,
        params: XDropParams,
        policy: BandPolicy,
        lanes: usize,
    ) -> BatchReport {
        let (got, report) = align_batch_with_lanes(tasks, scorer, params, policy, lanes);
        assert_eq!(got.len(), tasks.len());
        for (t, g) in tasks.iter().zip(&got) {
            let reference = scalar_task(t, scorer, params, policy);
            assert_eq!(&reference, g, "lane vs scalar, lanes={lanes}");
        }
        report
    }

    #[test]
    fn mixed_direction_batch_matches_scalar() {
        let a = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGT");
        let b = encode_dna(b"ACGTACGAACGTACTTACGTACGAACGT");
        let c = encode_dna(b"TTGGACGTACAA");
        let tasks = [
            BatchTask {
                h: TaskView::Fwd(&a),
                v: TaskView::Fwd(&b),
            },
            BatchTask {
                h: TaskView::Rev(&a),
                v: TaskView::Rev(&b),
            },
            BatchTask {
                h: TaskView::Fwd(&c),
                v: TaskView::Rev(&a),
            },
            BatchTask {
                h: TaskView::Fwd(&a),
                v: TaskView::Fwd(&a),
            },
        ];
        for lanes in [1, 2, 8, 16] {
            for policy in [
                BandPolicy::Grow(4),
                BandPolicy::Exact(3),
                BandPolicy::Saturate(5),
            ] {
                let report =
                    assert_batch_matches_scalar(&tasks, &sc(), XDropParams::new(12), policy, lanes);
                assert_eq!(report.lanes, lanes);
                assert_eq!(report.fallbacks, 0);
            }
        }
    }

    #[test]
    fn empty_and_tiny_tasks() {
        let a = encode_dna(b"ACGT");
        let empty: [u8; 0] = [];
        let tasks = [
            BatchTask {
                h: TaskView::Fwd(&empty),
                v: TaskView::Fwd(&a),
            },
            BatchTask {
                h: TaskView::Fwd(&a),
                v: TaskView::Fwd(&empty),
            },
            BatchTask {
                h: TaskView::Fwd(&empty),
                v: TaskView::Fwd(&empty),
            },
            BatchTask {
                h: TaskView::Fwd(&a[..1]),
                v: TaskView::Fwd(&a[..1]),
            },
        ];
        assert_batch_matches_scalar(&tasks, &sc(), XDropParams::new(5), BandPolicy::Exact(2), 4);
    }

    #[test]
    fn zero_delta_b_is_the_scalar_error() {
        let a = encode_dna(b"ACGT");
        let tasks = [BatchTask {
            h: TaskView::Fwd(&a),
            v: TaskView::Fwd(&a),
        }];
        let (got, _) = align_batch(&tasks, &sc(), XDropParams::new(5), BandPolicy::Exact(0));
        assert_eq!(
            got[0],
            Err(AlignError::InvalidConfig("δ_b must be nonzero"))
        );
    }

    #[test]
    fn ineligible_scorer_falls_back_per_task() {
        // Positive gap penalty: the i16 dropped-sentinel argument
        // breaks, so the whole batch must take the scalar fallback —
        // and still match the reference bit for bit.
        let a = encode_dna(b"ACGTACGTACGTACGT");
        let b = encode_dna(b"ACGAACGTACTTACGT");
        let weird = MatchMismatch::new(2, -3, 1);
        let tasks = [
            BatchTask {
                h: TaskView::Fwd(&a),
                v: TaskView::Fwd(&b),
            },
            BatchTask {
                h: TaskView::Rev(&a),
                v: TaskView::Rev(&b),
            },
        ];
        let report = assert_batch_matches_scalar(
            &tasks,
            &weird,
            XDropParams::new(9),
            BandPolicy::Grow(4),
            8,
        );
        assert_eq!(report.fallbacks, tasks.len());
        assert_eq!(report.materializations, 0, "fallbacks never materialize");
        // Oversized score steps likewise.
        let big = MatchMismatch::new(MAX_STEP + 1, -1, -1);
        let (_, report) = align_batch(&tasks, &big, XDropParams::new(9), BandPolicy::Grow(4));
        assert_eq!(report.fallbacks, tasks.len());
    }

    /// Overflow boundary, high side: identical sequences long enough
    /// for the running best score to land exactly on `i16::MAX`. The
    /// guard band must flag the lane *before* any saturating add can
    /// go inexact, the rerun count must be reported, and the result
    /// must bit-match the `i32` scalar reference (whose best score is
    /// exactly `i16::MAX`).
    #[test]
    fn overflow_at_i16_max_triggers_rerun_and_matches_scalar() {
        let len = i16::MAX as usize; // +1 per matched symbol
        let s: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let tasks = [BatchTask {
            h: TaskView::Fwd(&s),
            v: TaskView::Fwd(&s),
        }];
        let (got, report) = align_batch(&tasks, &sc(), XDropParams::new(4), BandPolicy::Grow(4));
        assert_eq!(report.reruns, 1, "guard band must trip the rerun path");
        let out = got[0].as_ref().expect("alignment succeeds");
        assert_eq!(out.result.best_score, i16::MAX as i32);
        let reference = scalar_task(&tasks[0], &sc(), XDropParams::new(4), BandPolicy::Grow(4));
        assert_eq!(reference.as_ref().expect("reference"), out);
    }

    /// Overflow boundary, low side: with pruning effectively disabled
    /// and nothing but mismatches, live scores march down towards
    /// `i16::MIN`. The low guard must flag the lane while values are
    /// still exact, and the rerun must bit-match the reference —
    /// including every stats field of the wide saturate band.
    #[test]
    fn overflow_towards_i16_min_triggers_rerun_and_matches_scalar() {
        // h is all-0s, v all-1s: every cell is a mismatch.
        let h = vec![0u8; 3600];
        let v = vec![1u8; 3600];
        let tasks = [BatchTask {
            h: TaskView::Fwd(&h),
            v: TaskView::Fwd(&v),
        }];
        let params = XDropParams::new(1_000_000);
        let policy = BandPolicy::Saturate(8);
        let (got, report) = align_batch(&tasks, &sc(), params, policy);
        assert_eq!(report.reruns, 1, "low guard must trip the rerun path");
        let reference = scalar_task(&tasks[0], &sc(), params, policy);
        assert_eq!(&reference, &got[0]);
    }

    /// Scores inside the guard band never rerun: the fast path is
    /// exercised, not silently bypassed.
    #[test]
    fn in_range_scores_stay_on_the_fast_path() {
        let s: Vec<u8> = (0..2000).map(|i| (i % 4) as u8).collect();
        let tasks = [BatchTask {
            h: TaskView::Fwd(&s),
            v: TaskView::Fwd(&s),
        }];
        let (got, report) = align_batch(&tasks, &sc(), XDropParams::new(4), BandPolicy::Grow(4));
        assert_eq!(report.reruns, 0);
        assert_eq!(report.fallbacks, 0);
        assert_eq!(got[0].as_ref().unwrap().result.best_score, 2000);
    }

    #[test]
    fn bucketing_is_deterministic_and_by_length() {
        // 5 tasks, lane width 2: the longest two enter first, etc.
        let s: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
        let lens = [60usize, 8, 32, 8, 50];
        let tasks: Vec<BatchTask<'_>> = lens
            .iter()
            .map(|&l| BatchTask {
                h: TaskView::Fwd(&s[..l]),
                v: TaskView::Fwd(&s[..l]),
            })
            .collect();
        let report = assert_batch_matches_scalar(
            &tasks,
            &sc(),
            XDropParams::new(10),
            BandPolicy::Grow(4),
            2,
        );
        assert_eq!(report.reruns, 0);
        // Descending length, equal lengths in submission order.
        assert_eq!(task_order(&tasks), vec![0, 4, 2, 1, 3]);
    }

    /// The schedule tiebreak is the original task index: a batch of
    /// all-equal lengths must keep submission order exactly, however
    /// the contents are shuffled.
    #[test]
    fn equal_length_tasks_schedule_in_submission_order() {
        let s: Vec<u8> = (0..48).map(|i| (i % 4) as u8).collect();
        let shuffles: [&[usize]; 3] = [
            &[0, 1, 2, 3, 4, 5],
            &[5, 3, 1, 0, 2, 4],
            &[2, 0, 5, 4, 3, 1],
        ];
        for starts in shuffles {
            let tasks: Vec<BatchTask<'_>> = starts
                .iter()
                .map(|&o| BatchTask {
                    h: TaskView::Fwd(&s[o..o + 24]),
                    v: TaskView::Fwd(&s[o..o + 24]),
                })
                .collect();
            assert_eq!(
                task_order(&tasks),
                (0..tasks.len()).collect::<Vec<_>>(),
                "equal lengths must schedule by submission index"
            );
            assert_batch_matches_scalar(&tasks, &sc(), XDropParams::new(8), BandPolicy::Grow(4), 4);
        }
    }

    /// One materialization per task, even when the lane overflows and
    /// reruns through the scalar reference (the rerun runs on the
    /// original views).
    #[test]
    fn rerun_does_not_rematerialize() {
        let long: Vec<u8> = (0..i16::MAX as usize).map(|i| (i % 4) as u8).collect();
        let short = encode_dna(b"ACGTACGTACGTACGT");
        let tasks = [
            BatchTask {
                h: TaskView::Fwd(&long),
                v: TaskView::Fwd(&long),
            },
            BatchTask {
                h: TaskView::Rev(&short),
                v: TaskView::Fwd(&short),
            },
        ];
        let (got, report) =
            align_batch_with_lanes(&tasks, &sc(), XDropParams::new(4), BandPolicy::Grow(4), 2);
        assert_eq!(report.reruns, 1);
        assert_eq!(
            report.materializations,
            tasks.len(),
            "exactly one materialization per task, rerun included"
        );
        for (t, g) in tasks.iter().zip(&got) {
            let reference = scalar_task(t, &sc(), XDropParams::new(4), BandPolicy::Grow(4));
            assert_eq!(&reference, g);
        }
    }

    /// Mid-flight refill keeps the pack occupied: a mixed-length
    /// batch over few lanes must report high occupancy, count its
    /// refills, and stage only the substitution bytes per cell.
    #[test]
    fn refill_keeps_occupancy_high_and_staging_lean() {
        let s: Vec<u8> = (0..4096).map(|i| (i % 4) as u8).collect();
        let lens = [4000usize, 600, 550, 500, 450, 400, 350, 300, 250, 200];
        let tasks: Vec<BatchTask<'_>> = lens
            .iter()
            .map(|&l| BatchTask {
                h: TaskView::Fwd(&s[..l]),
                v: TaskView::Fwd(&s[..l]),
            })
            .collect();
        let (_, report) =
            align_batch_with_lanes(&tasks, &sc(), XDropParams::new(20), BandPolicy::Grow(8), 2);
        assert!(report.rounds > 0);
        assert!(
            report.refills > 0,
            "short lanes must refill while the long lane runs"
        );
        let occ = report.occupancy();
        assert!(
            occ > 0.9 && occ <= 1.0,
            "refill should keep both slots busy, got {occ}"
        );
        assert!(report.lane_cells > 0);
        let spc = report.staged_bytes_per_cell();
        assert!(
            spc < 7.0,
            "persistent staging must beat the 14 B/cell operand-copy kernel, got {spc}"
        );
    }

    #[test]
    fn max_antidiagonals_cap_matches_scalar() {
        let a = encode_dna(b"ACGTACGTACGTACGTACGTACGTACGTACGT");
        let tasks = [BatchTask {
            h: TaskView::Fwd(&a),
            v: TaskView::Fwd(&a),
        }];
        let params = XDropParams::new(20).with_max_antidiagonals(7);
        assert_batch_matches_scalar(&tasks, &sc(), params, BandPolicy::Grow(4), 4);
    }
}
