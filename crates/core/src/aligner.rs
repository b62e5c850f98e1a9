//! One `Aligner` facade over every backend.
//!
//! The paper's two-antidiagonal kernel is one point in a family of
//! banded aligners — the classical three-antidiagonal X-Drop, an
//! affine-gap X-Drop, ksw2's affine z-drop, LOGAN's fixed-window GPU
//! band, and Hirschberg's linear-space global traceback. This module
//! puts them behind a single entry point, mirroring sigalign's
//! `DynamicAligner::alignment`: a request names the engine
//! ([`AlignerKind`]), the inner-loop kernel
//! ([`crate::kernel::KernelKind`]), the band policy, the score cell
//! type, the sweep direction, and whether a traceback is wanted; the
//! facade dispatches and returns a uniform [`AlignOutcome`].
//!
//! The engine match lives in one place: a private dispatch, generic
//! over the score cell type, that both [`Aligner::align`] and
//! [`crate::extension::Extender`] call with their own workspaces.
//! The facade adds request validation and traceback-on-demand; an
//! extender adds the seed split and runs the affine engine under the
//! scorer's linear gap model.
//!
//! ## Comparability classes
//!
//! Every backend pair is a differential oracle for every other, but
//! only within its class (see DESIGN.md §15 and
//! `tests/aligner_matrix.rs`):
//!
//! * **score-identical** — `XDrop2`, `XDrop3` (and the SeqAn baseline
//!   built on it): same pruning rule, same linear-gap model. Results
//!   *and* work statistics match bit-for-bit under a sufficient band
//!   (`BandPolicy::Grow`).
//! * **score-compatible** — `LoganBand` (≤ exact, equal when its
//!   fixed window covers the live band) and `Affine` with
//!   [`AffineGaps::linear`] gaps (equal to `XDrop3` when `x` is
//!   generous; the affine pruning heuristic may differ under tight
//!   `x`).
//! * **model-only** — `Ksw2` (its own scoring scale: `mat 2`,
//!   `mis −4`, affine gaps, z-drop) and `Hirschberg` (global, not
//!   extension): agree on *biology* (which pairs are homologous),
//!   not on scores.
//!
//! ## Kernel and score-type support
//!
//! The `KernelKind` axis dispatches the banded two-antidiagonal core,
//! so it applies to `XDrop2` and `LoganBand` (which *is* `XDrop2`
//! under a saturating fixed window). The other engines have exactly
//! one implementation; requesting a non-`Scalar` kernel for them is a
//! typed [`AlignError::InvalidConfig`], never a silent fallback —
//! `tests/aligner_matrix.rs` accounts for every such skipped cell
//! explicitly. Likewise `f32` score cells exist for the
//! `XDrop2`/`XDrop3`/`LoganBand` family only.

use crate::affine::{affine_xdrop_views, AffineGaps};
use crate::error::{AlignError, Result};
use crate::extension::Backend;
use crate::hirschberg::hirschberg;
use crate::kernel::{self, KernelKind};
use crate::ksw2::{ksw2_extend, Ksw2Params};
use crate::reference::Alignment;
use crate::scorety::ScoreTy;
use crate::scoring::Scorer;
use crate::seqview::{Fwd, Rev, SeqView};
use crate::stats::{AlignOutput, AlignResult, AlignStats};
use crate::xdrop2::{self, BandPolicy};
use crate::xdrop3;
use crate::XDropParams;

/// Which alignment engine serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AlignerKind {
    /// The paper's memory-restricted two-antidiagonal X-Drop
    /// (Algorithm 1, [`crate::xdrop2`]).
    XDrop2,
    /// The classical three-antidiagonal X-Drop of Zhang et al.
    /// ([`crate::xdrop3`]; what SeqAn implements).
    XDrop3,
    /// Affine-gap (Gotoh) X-Drop ([`crate::affine`]).
    Affine,
    /// Hirschberg's linear-space *global* alignment with full
    /// traceback ([`crate::hirschberg`]).
    Hirschberg,
    /// LOGAN's fixed-width saturating band: `XDrop2` under
    /// [`BandPolicy::Saturate`] with the warp-rounded window of
    /// [`logan_band_width`]. May clip score, never invents it.
    LoganBand,
    /// ksw2-style affine z-drop extension in its own scoring scale
    /// ([`crate::ksw2`]).
    Ksw2,
}

impl AlignerKind {
    /// Every engine, in the stable report order used by the scenario
    /// matrix.
    pub const ALL: [AlignerKind; 6] = [
        AlignerKind::XDrop2,
        AlignerKind::XDrop3,
        AlignerKind::Affine,
        AlignerKind::Hirschberg,
        AlignerKind::LoganBand,
        AlignerKind::Ksw2,
    ];

    /// Stable lower-case name (`xdrop2` / `xdrop3` / `affine` /
    /// `hirschberg` / `logan-band` / `ksw2`).
    pub fn name(self) -> &'static str {
        match self {
            AlignerKind::XDrop2 => "xdrop2",
            AlignerKind::XDrop3 => "xdrop3",
            AlignerKind::Affine => "affine",
            AlignerKind::Hirschberg => "hirschberg",
            AlignerKind::LoganBand => "logan-band",
            AlignerKind::Ksw2 => "ksw2",
        }
    }

    /// Parses a [`AlignerKind::name`] back to the engine.
    pub fn parse(s: &str) -> Option<AlignerKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "xdrop2" => Some(AlignerKind::XDrop2),
            "xdrop3" => Some(AlignerKind::XDrop3),
            "affine" => Some(AlignerKind::Affine),
            "hirschberg" => Some(AlignerKind::Hirschberg),
            "logan-band" | "logan" => Some(AlignerKind::LoganBand),
            "ksw2" => Some(AlignerKind::Ksw2),
            _ => None,
        }
    }

    /// `true` for the engines built on the banded two-antidiagonal
    /// core, which honor the full `KernelKind` axis and an explicit
    /// [`BandPolicy`].
    pub fn is_banded_core(self) -> bool {
        matches!(self, AlignerKind::XDrop2 | AlignerKind::LoganBand)
    }

    /// Returns `Err(reason)` when the (engine × kernel × score type)
    /// cell is undefined. This is the single source of truth the
    /// scenario matrix's skip accounting checks against.
    pub fn cell_support(
        self,
        kernel: KernelKind,
        score: ScoreKind,
    ) -> std::result::Result<(), &'static str> {
        if self.is_banded_core() {
            return Ok(()); // every kernel × both score cell types
        }
        if kernel != KernelKind::Scalar {
            return Err(
                "kernel dispatch applies to the banded two-antidiagonal core; \
                 this engine has a single implementation — use KernelKind::Scalar",
            );
        }
        match self {
            AlignerKind::XDrop3 => Ok(()), // generic over ScoreTy
            _ if score == ScoreKind::F32 => {
                Err("engine computes i32 score cells only — use ScoreKind::I32")
            }
            _ => Ok(()),
        }
    }
}

/// Score cell type of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ScoreKind {
    /// 32-bit integer cells (the default everywhere).
    I32,
    /// 32-bit float cells — the dual-issue variant the paper's IPU
    /// kernel uses; must produce identical alignments.
    F32,
}

impl ScoreKind {
    /// Both score cell types.
    pub const ALL: [ScoreKind; 2] = [ScoreKind::I32, ScoreKind::F32];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            ScoreKind::I32 => "i32",
            ScoreKind::F32 => "f32",
        }
    }
}

/// Sweep direction: which way the DP consumes the sequences.
///
/// `Reverse` applies the paper's `op(·)` index transform
/// ([`crate::seqview::Rev`]) to both sequences — the left half of a
/// seed-and-extend — without copying or reversing them (engines that
/// have no view-generic inner loop materialize the reversed bytes
/// internally).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// Forward access from the start of both sequences.
    Forward,
    /// Backwards access from the end of both sequences.
    Reverse,
}

impl Direction {
    /// Both directions.
    pub const ALL: [Direction; 2] = [Direction::Forward, Direction::Reverse];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Forward => "forward",
            Direction::Reverse => "reverse",
        }
    }
}

/// LOGAN's fixed band width for a given X-Drop factor: the window
/// must cover the score range a path can fall behind by (`≈ X / gap`
/// on each side) with head-room, rounded up to whole 32-lane warps.
pub fn logan_band_width(x: i32) -> usize {
    const WARP: usize = 32;
    let cells = (8 * x.max(1) as usize).clamp(64, 4096);
    cells.div_ceil(WARP) * WARP
}

/// One fully-specified alignment request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignRequest {
    /// The engine.
    pub kind: AlignerKind,
    /// X-Drop factor (z-drop scale for [`AlignerKind::Ksw2`];
    /// ignored by [`AlignerKind::Hirschberg`]).
    pub x: i32,
    /// Inner-loop kernel for the banded two-antidiagonal core.
    /// Defaults to [`KernelKind::auto`] (cached once per process);
    /// set explicitly with [`AlignRequest::kernel`] for
    /// environment-independent runs — tests must never reach for
    /// `XDROP_KERNEL`.
    pub kernel: KernelKind,
    /// Band policy for [`AlignerKind::XDrop2`].
    /// [`AlignerKind::LoganBand`] has an intrinsic
    /// [`BandPolicy::Saturate`] window and ignores this field; the
    /// remaining engines manage their own windows.
    pub policy: BandPolicy,
    /// Score cell type.
    pub score: ScoreKind,
    /// Sweep direction.
    pub direction: Direction,
    /// Compute an explicit operation path (routed through
    /// [`crate::hirschberg`] over the aligned region) in addition to
    /// the score.
    pub traceback: bool,
    /// Gap model for [`AlignerKind::Affine`];
    /// [`AffineGaps::linear`] degenerates to the linear model of the
    /// X-Drop family.
    pub gaps: AffineGaps,
    /// Optional hard cap on antidiagonal sweeps.
    pub max_antidiagonals: Option<usize>,
}

impl AlignRequest {
    /// A request for `kind` with X-Drop factor `x` and defaults:
    /// auto kernel, `Grow(64)` band, `i32` cells, forward sweep, no
    /// traceback, `(-3, -1)` affine gaps.
    pub fn new(kind: AlignerKind, x: i32) -> Self {
        Self {
            kind,
            x,
            kernel: KernelKind::auto(),
            policy: BandPolicy::Grow(64),
            score: ScoreKind::I32,
            direction: Direction::Forward,
            traceback: false,
            gaps: AffineGaps::new(-3, -1),
            max_antidiagonals: None,
        }
    }

    /// Swaps the engine, keeping every other knob — the differential
    /// idiom: run one request through two engines and compare.
    pub fn kind(mut self, kind: AlignerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Pins the inner-loop kernel (environment-independent).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the band policy.
    pub fn policy(mut self, policy: BandPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the score cell type.
    pub fn score(mut self, score: ScoreKind) -> Self {
        self.score = score;
        self
    }

    /// Sets the sweep direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Requests an explicit traceback.
    pub fn traceback(mut self, traceback: bool) -> Self {
        self.traceback = traceback;
        self
    }

    /// Sets the affine gap model.
    pub fn gaps(mut self, gaps: AffineGaps) -> Self {
        self.gaps = gaps;
        self
    }

    /// Caps the number of antidiagonal sweeps.
    pub fn max_antidiagonals(mut self, n: usize) -> Self {
        self.max_antidiagonals = Some(n);
        self
    }

    /// The [`XDropParams`] this request resolves to.
    pub fn params(&self) -> XDropParams {
        XDropParams {
            x: self.x,
            max_antidiagonals: self.max_antidiagonals,
            kernel: self.kernel,
        }
    }

    /// Checks the (engine × kernel × score type) cell exists; the
    /// typed-error twin of [`AlignerKind::cell_support`].
    pub fn validate(&self) -> Result<()> {
        self.kind
            .cell_support(self.kernel, self.score)
            .map_err(AlignError::InvalidConfig)
    }
}

/// What the facade returns: a uniform score/stats record plus the
/// operation path when one was requested (or when the engine —
/// [`AlignerKind::Hirschberg`] — produces one natively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOutcome {
    /// Alignment result and work statistics, in the engine's scoring
    /// scale.
    pub output: AlignOutput,
    /// Operation path over the aligned region, in request-direction
    /// coordinates. Present iff `traceback` was requested or the
    /// engine is [`AlignerKind::Hirschberg`].
    pub alignment: Option<Alignment>,
}

impl AlignOutcome {
    /// Best score found.
    pub fn score(&self) -> i32 {
        self.output.result.best_score
    }

    /// CIGAR string of the traceback, when one was computed.
    pub fn cigar(&self) -> Option<String> {
        self.alignment.as_ref().map(Alignment::cigar)
    }
}

/// The facade: owns the per-engine workspaces so thousands of
/// requests reuse the same band buffers, exactly like
/// [`crate::extension::Extender`] does for seed extension.
#[derive(Debug, Default)]
pub struct Aligner {
    ws_i32: Workspaces<i32>,
    ws_f32: Workspaces<f32>,
}

impl Aligner {
    /// An aligner with empty workspaces (grown lazily).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one request over `h` × `v`.
    ///
    /// # Example
    ///
    /// ```
    /// use xdrop_core::aligner::{Aligner, AlignerKind, AlignRequest};
    /// use xdrop_core::alphabet::encode_dna;
    /// use xdrop_core::scoring::MatchMismatch;
    ///
    /// let h = encode_dna(b"ACGTACGTACGT");
    /// let v = encode_dna(b"ACGTTCGTACGT");
    /// let mut aligner = Aligner::new();
    /// let req = AlignRequest::new(AlignerKind::XDrop2, 10).traceback(true);
    /// let out = aligner.align(&h, &v, &MatchMismatch::dna_default(), &req).unwrap();
    /// assert!(out.score() > 0);
    /// assert!(out.cigar().is_some());
    /// ```
    pub fn align<S: Scorer>(
        &mut self,
        h: &[u8],
        v: &[u8],
        scorer: &S,
        req: &AlignRequest,
    ) -> Result<AlignOutcome> {
        req.validate()?;
        match req.direction {
            Direction::Forward => self.run(&Fwd(h), &Fwd(v), scorer, req),
            Direction::Reverse => self.run(&Rev(h), &Rev(v), scorer, req),
        }
    }

    fn run<S: Scorer, HV: SeqView, VV: SeqView>(
        &mut self,
        h: &HV,
        v: &VV,
        scorer: &S,
        req: &AlignRequest,
    ) -> Result<AlignOutcome> {
        let backend = Backend::for_kind(req.kind, req.x, req.policy);
        let (params, gaps) = (req.params(), req.gaps);
        let (output, alignment) = match req.score {
            ScoreKind::I32 => dispatch(backend, gaps, h, v, scorer, params, &mut self.ws_i32)?,
            ScoreKind::F32 => dispatch(backend, gaps, h, v, scorer, params, &mut self.ws_f32)?,
        };
        let alignment = match alignment {
            Some(aln) => Some(aln),
            None if req.traceback => {
                // Traceback-on-demand: the extension engines track no
                // path, so recover one over the region they aligned
                // (view coordinates) through the linear-space global
                // aligner.
                let ho = materialize_prefix(h, output.result.end_h);
                let vo = materialize_prefix(v, output.result.end_v);
                Some(hirschberg(&ho, &vo, scorer))
            }
            None => None,
        };
        Ok(AlignOutcome { output, alignment })
    }
}

/// The band buffers of the engines that keep them, for one score cell
/// type: an [`Aligner`] owns one set per cell type, an
/// [`crate::extension::Extender`] one `i32` set.
#[derive(Debug, Default)]
pub(crate) struct Workspaces<T: ScoreTy> {
    xdrop2: xdrop2::Workspace<T>,
    xdrop3: xdrop3::Workspace<T>,
}

/// The one engine dispatch behind both [`Aligner::align`] and
/// [`crate::extension::Extender`]: runs `backend` over `h` × `v` in
/// the caller's workspaces. The band policy comes resolved in
/// `backend`, `gaps` is the affine engine's gap model, and only
/// Hirschberg returns a path.
pub(crate) fn dispatch<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    backend: Backend,
    gaps: AffineGaps,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    ws: &mut Workspaces<T>,
) -> Result<(AlignOutput, Option<Alignment>)> {
    let output = match backend.kind {
        AlignerKind::XDrop2 | AlignerKind::LoganBand => kernel::align_views(
            params.kernel,
            h,
            v,
            scorer,
            params,
            backend.policy,
            &mut ws.xdrop2,
        )?,
        AlignerKind::XDrop3 => xdrop3::align_views_ty(h, v, scorer, params, &mut ws.xdrop3),
        AlignerKind::Affine => affine_xdrop_views(h, v, scorer, gaps, params),
        AlignerKind::Ksw2 => {
            let (ho, vo) = (materialize(h), materialize(v));
            ksw2_extend(&ho, &vo, &Ksw2Params::from_x(params.x))
        }
        AlignerKind::Hirschberg => {
            let (ho, vo) = (materialize(h), materialize(v));
            let aln = hirschberg(&ho, &vo, scorer);
            return Ok((hirschberg_output(&aln, ho.len(), vo.len()), Some(aln)));
        }
    };
    Ok((output, None))
}

fn materialize<V: SeqView>(view: &V) -> Vec<u8> {
    materialize_prefix(view, view.len())
}

fn materialize_prefix<V: SeqView>(view: &V, n: usize) -> Vec<u8> {
    (0..n.min(view.len())).map(|i| view.at(i)).collect()
}

/// Shapes a global [`Alignment`] into the extension-style
/// [`AlignOutput`] record every other engine produces. Global
/// alignment consumes both sequences, so the end point is fixed; the
/// work fields describe Hirschberg's actual cost profile — ~2·m·n
/// computed cells (the divide-and-conquer recursion re-scores each
/// half once) in two rows of working memory.
fn hirschberg_output(aln: &Alignment, m: usize, n: usize) -> AlignOutput {
    let delta = m.min(n) + 1;
    AlignOutput {
        result: AlignResult {
            best_score: aln.score,
            end_h: m,
            end_v: n,
        },
        stats: AlignStats {
            cells_computed: 2 * (m as u64) * (n as u64),
            antidiagonals: (m + n) as u64,
            delta_w: delta,
            delta,
            work_bytes: 2 * (m + 1) * std::mem::size_of::<i32>(),
            cells_dropped: 0,
            cells_clipped: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
    use crate::reference::needleman_wunsch;
    use crate::scoring::MatchMismatch;

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn pair() -> (Vec<u8>, Vec<u8>) {
        (
            encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGT"),
            encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGA"),
        )
    }

    #[test]
    fn facade_matches_direct_engines() {
        let (h, v) = pair();
        let mut a = Aligner::new();
        let direct2 = xdrop2::align(
            &h,
            &v,
            &sc(),
            XDropParams::new(10).with_kernel(KernelKind::Scalar),
            BandPolicy::Grow(64),
        )
        .unwrap();
        let via = a
            .align(
                &h,
                &v,
                &sc(),
                &AlignRequest::new(AlignerKind::XDrop2, 10).kernel(KernelKind::Scalar),
            )
            .unwrap();
        assert_eq!(via.output, direct2);
        let direct3 = xdrop3::align(&h, &v, &sc(), XDropParams::new(10));
        let via3 = a
            .align(
                &h,
                &v,
                &sc(),
                &AlignRequest::new(AlignerKind::XDrop3, 10).kernel(KernelKind::Scalar),
            )
            .unwrap();
        assert_eq!(via3.output.result, direct3.result);
    }

    #[test]
    fn undefined_cells_are_typed_errors() {
        let (h, v) = pair();
        let mut a = Aligner::new();
        let req = AlignRequest::new(AlignerKind::Hirschberg, 10).kernel(KernelKind::Simd);
        assert!(matches!(
            a.align(&h, &v, &sc(), &req).unwrap_err(),
            AlignError::InvalidConfig(_)
        ));
        let req = AlignRequest::new(AlignerKind::Ksw2, 10)
            .kernel(KernelKind::Scalar)
            .score(ScoreKind::F32);
        assert!(matches!(
            a.align(&h, &v, &sc(), &req).unwrap_err(),
            AlignError::InvalidConfig(_)
        ));
    }

    #[test]
    fn traceback_on_demand_scores_the_aligned_region() {
        let (h, v) = pair();
        let mut a = Aligner::new();
        let req = AlignRequest::new(AlignerKind::XDrop2, 10)
            .kernel(KernelKind::Scalar)
            .traceback(true);
        let out = a.align(&h, &v, &sc(), &req).unwrap();
        let aln = out.alignment.as_ref().expect("traceback requested");
        // The recovered path covers exactly the region the extension
        // reached.
        assert_eq!(aln.end, (out.output.result.end_h, out.output.result.end_v));
        assert!(!aln.ops.is_empty());
        assert!(out.cigar().unwrap().ends_with(['M', 'I', 'D']));
    }

    #[test]
    fn hirschberg_kind_is_global_with_native_traceback() {
        let (h, v) = pair();
        let mut a = Aligner::new();
        let out = a
            .align(
                &h,
                &v,
                &sc(),
                &AlignRequest::new(AlignerKind::Hirschberg, 10).kernel(KernelKind::Scalar),
            )
            .unwrap();
        let nw = needleman_wunsch(&h, &v, &sc());
        assert_eq!(out.score(), nw.score);
        assert_eq!(out.alignment.as_ref().unwrap().score, nw.score);
        assert_eq!(out.output.result.end_h, h.len());
        assert_eq!(out.output.result.end_v, v.len());
    }

    #[test]
    fn reverse_direction_equals_materialized_reversal() {
        let (h, v) = pair();
        let hr: Vec<u8> = h.iter().rev().copied().collect();
        let vr: Vec<u8> = v.iter().rev().copied().collect();
        let mut a = Aligner::new();
        for kind in AlignerKind::ALL {
            let base = AlignRequest::new(kind, 10).kernel(KernelKind::Scalar);
            let rev = a
                .align(&h, &v, &sc(), &base.direction(Direction::Reverse))
                .unwrap();
            let fwd = a.align(&hr, &vr, &sc(), &base).unwrap();
            assert_eq!(rev.output.result, fwd.output.result, "{}", kind.name());
        }
    }

    #[test]
    fn names_parse_roundtrip() {
        for kind in AlignerKind::ALL {
            assert_eq!(AlignerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AlignerKind::parse("LOGAN"), Some(AlignerKind::LoganBand));
        assert!(AlignerKind::parse("minimap3").is_none());
    }

    #[test]
    fn logan_band_width_warp_aligned_and_monotone() {
        for x in [1, 5, 20, 100, 10_000] {
            assert_eq!(logan_band_width(x) % 32, 0);
        }
        assert!(logan_band_width(5) <= logan_band_width(100));
        assert_eq!(logan_band_width(1), 64);
        assert_eq!(logan_band_width(10_000), 4096);
    }
}
