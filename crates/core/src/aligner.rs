//! One `Aligner` facade over every backend.
//!
//! The paper evaluates its two-antidiagonal kernel against three
//! other extenders: the classical three-antidiagonal X-Drop (SeqAn),
//! ksw2's affine z-drop, and LOGAN's fixed-window GPU band. This
//! module puts exactly those four behind a single entry point,
//! mirroring sigalign's `DynamicAligner::alignment`: a request names
//! the engine ([`AlignerKind`]), the inner-loop kernel
//! ([`crate::kernel::KernelKind`]), the band policy, the sweep
//! direction, and whether a traceback is wanted; the facade
//! dispatches and returns a uniform [`AlignOutcome`].
//!
//! The engine match lives in one place: a private dispatch that both
//! [`Aligner::align`] and [`crate::extension::Extender`] call with
//! their own workspaces.
//! The facade adds request validation and traceback-on-demand
//! (Hirschberg's linear-space global alignment,
//! [`crate::hirschberg`], over the region the extension reached); an
//! extender adds the seed split.
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
//! * **score-compatible** — `LoganBand`: ≤ exact, equal when its
//!   fixed window covers the live band.
//! * **model-only** — `Ksw2` (its own scoring scale: `mat 2`,
//!   `mis −4`, affine gaps, z-drop): agrees on *biology* (which pairs
//!   are homologous), not on scores.
//!
//! ## Kernel support
//!
//! The `KernelKind` axis dispatches the banded two-antidiagonal core,
//! so it applies to `XDrop2` and `LoganBand` (which *is* `XDrop2`
//! under a saturating fixed window). `XDrop3` and `Ksw2` have exactly
//! one implementation; requesting a non-`Scalar` kernel for them is a
//! typed [`AlignError::InvalidConfig`], never a silent fallback —
//! `tests/aligner_matrix.rs` accounts for every such skipped cell
//! explicitly.

use crate::error::{AlignError, Result};
use crate::extension::Backend;
use crate::hirschberg::hirschberg;
use crate::kernel::{self, KernelKind};
use crate::ksw2::{ksw2_extend, Ksw2Params};
use crate::reference::Alignment;
use crate::scoring::Scorer;
use crate::seqview::{Fwd, Rev, SeqView};
use crate::stats::AlignOutput;
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
    pub const ALL: [AlignerKind; 4] = [
        AlignerKind::XDrop2,
        AlignerKind::XDrop3,
        AlignerKind::LoganBand,
        AlignerKind::Ksw2,
    ];

    /// Stable lower-case name (`xdrop2` / `xdrop3` / `logan-band` /
    /// `ksw2`).
    pub fn name(self) -> &'static str {
        match self {
            AlignerKind::XDrop2 => "xdrop2",
            AlignerKind::XDrop3 => "xdrop3",
            AlignerKind::LoganBand => "logan-band",
            AlignerKind::Ksw2 => "ksw2",
        }
    }

    /// Parses a [`AlignerKind::name`] back to the engine.
    pub fn parse(s: &str) -> Option<AlignerKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "xdrop2" => Some(AlignerKind::XDrop2),
            "xdrop3" => Some(AlignerKind::XDrop3),
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

    /// Returns `Err(reason)` when the (engine × kernel) cell is
    /// undefined. This is the single source of truth the scenario
    /// matrix's skip accounting checks against.
    pub fn cell_support(self, kernel: KernelKind) -> std::result::Result<(), &'static str> {
        if self.is_banded_core() || kernel == KernelKind::Scalar {
            Ok(())
        } else {
            Err(
                "kernel dispatch applies to the banded two-antidiagonal core; \
                 this engine has a single implementation — use KernelKind::Scalar",
            )
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
    /// X-Drop factor (z-drop scale for [`AlignerKind::Ksw2`]).
    pub x: i32,
    /// Inner-loop kernel for the banded two-antidiagonal core.
    /// Defaults to [`KernelKind::auto`] (cached once per process);
    /// set explicitly with [`AlignRequest::kernel`] for
    /// environment-independent runs — tests must never reach for
    /// `XDROP_KERNEL`.
    pub kernel: KernelKind,
    /// Band policy for [`AlignerKind::XDrop2`].
    /// [`AlignerKind::LoganBand`] has an intrinsic
    /// [`BandPolicy::Saturate`] window and ignores this field;
    /// `XDrop3` and `Ksw2` manage their own windows.
    pub policy: BandPolicy,
    /// Sweep direction.
    pub direction: Direction,
    /// Compute an explicit operation path (routed through
    /// [`crate::hirschberg`] over the aligned region) in addition to
    /// the score.
    pub traceback: bool,
}

impl AlignRequest {
    /// A request for `kind` with X-Drop factor `x` and defaults:
    /// auto kernel, `Grow(64)` band, forward sweep, no traceback.
    pub fn new(kind: AlignerKind, x: i32) -> Self {
        Self {
            kind,
            x,
            kernel: KernelKind::auto(),
            policy: BandPolicy::Grow(64),
            direction: Direction::Forward,
            traceback: false,
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

    /// The [`XDropParams`] this request resolves to.
    pub fn params(&self) -> XDropParams {
        XDropParams {
            x: self.x,
            kernel: self.kernel,
        }
    }

    /// Checks the (engine × kernel) cell exists; the typed-error twin
    /// of [`AlignerKind::cell_support`].
    pub fn validate(&self) -> Result<()> {
        self.kind
            .cell_support(self.kernel)
            .map_err(AlignError::InvalidConfig)
    }
}

/// What the facade returns: a uniform score/stats record plus the
/// operation path when one was requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignOutcome {
    /// Alignment result and work statistics, in the engine's scoring
    /// scale.
    pub output: AlignOutput,
    /// Operation path over the aligned region, in request-direction
    /// coordinates. Present iff `traceback` was requested.
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
    ws: Workspaces,
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
        let params = req.params();
        let output = dispatch(backend, h, v, scorer, params, &mut self.ws)?;
        // Traceback-on-demand: the engines track no path, so recover
        // one over the region they aligned (view coordinates) through
        // the linear-space global aligner.
        let alignment = req.traceback.then(|| {
            let ho = materialize_prefix(h, output.result.end_h);
            let vo = materialize_prefix(v, output.result.end_v);
            hirschberg(&ho, &vo, scorer)
        });
        Ok(AlignOutcome { output, alignment })
    }
}

/// The band buffers of the engines that keep them: an [`Aligner`]
/// and an [`crate::extension::Extender`] own one set each.
#[derive(Debug, Default)]
pub(crate) struct Workspaces {
    xdrop2: xdrop2::Workspace,
    xdrop3: xdrop3::Workspace,
}

/// The one engine dispatch behind both [`Aligner::align`] and
/// [`crate::extension::Extender`]: runs `backend` over `h` × `v` in
/// the caller's workspaces. The band policy comes resolved in
/// `backend`.
pub(crate) fn dispatch<S: Scorer, HV: SeqView, VV: SeqView>(
    backend: Backend,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    ws: &mut Workspaces,
) -> Result<AlignOutput> {
    Ok(match backend.kind {
        AlignerKind::XDrop2 | AlignerKind::LoganBand => kernel::align_views(
            params.kernel,
            h,
            v,
            scorer,
            params,
            backend.policy,
            &mut ws.xdrop2,
        )?,
        AlignerKind::XDrop3 => xdrop3::align_views(h, v, scorer, params, &mut ws.xdrop3),
        AlignerKind::Ksw2 => {
            let (ho, vo) = (materialize(h), materialize(v));
            ksw2_extend(&ho, &vo, &Ksw2Params::from_x(params.x))
        }
    })
}

fn materialize<V: SeqView>(view: &V) -> Vec<u8> {
    materialize_prefix(view, view.len())
}

fn materialize_prefix<V: SeqView>(view: &V, n: usize) -> Vec<u8> {
    (0..n.min(view.len())).map(|i| view.at(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::encode_dna;
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
        for kind in [AlignerKind::XDrop3, AlignerKind::Ksw2] {
            let req = AlignRequest::new(kind, 10).kernel(KernelKind::Batched);
            assert!(matches!(
                a.align(&h, &v, &sc(), &req).unwrap_err(),
                AlignError::InvalidConfig(_)
            ));
        }
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
