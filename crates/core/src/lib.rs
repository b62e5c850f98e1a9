//! # xdrop-core
//!
//! Pairwise sequence alignment algorithms reproducing the SC'23 paper
//! *"Space Efficient Sequence Alignment for SRAM-Based Computing:
//! X-Drop on the Graphcore IPU"* (Burchard, Zhao, Langguth, Buluç,
//! Guidi).
//!
//! The crate provides, from slowest/simplest to the paper's
//! contribution:
//!
//! * [`reference`](mod@reference) — full dynamic-programming matrices: global
//!   (Needleman-Wunsch), local (Smith-Waterman), semi-global
//!   extension, and a full-matrix X-Drop used as ground truth for the
//!   space-efficient variants.
//! * [`xdrop3`] — the classical three-antidiagonal X-Drop of Zhang et
//!   al. (the formulation used by SeqAn and LOGAN), requiring `3δ`
//!   working memory with `δ = min(|H|, |V|) + 1`.
//! * [`xdrop2`] — **the paper's contribution**: a two-antidiagonal,
//!   band-restricted X-Drop (Algorithm 1) whose working memory is
//!   `2δ_b` for a user-chosen bound `δ_b ≥ δ_w`, where `δ_w` is the
//!   maximum live band width actually reached during the alignment.
//!   On real long-read data `δ_w ≪ δ`, which is what lets the
//!   algorithm run inside a 624 KB IPU tile.
//! * [`extension`] — seed-and-extend: splitting a seed match into a
//!   left and a right semi-global extension through the `op(·)` index
//!   transform (backwards access instead of sequence reversal).
//!
//! All aligners share the same scoring abstractions ([`scoring`]) and
//! emit the same instrumentation record ([`stats::AlignStats`]) used
//! by the IPU simulator's cost model and by the Figure 2/6
//! reproductions.
//!
//! ## Quick example
//!
//! ```
//! use xdrop_core::prelude::*;
//!
//! let scorer = MatchMismatch::new(1, -1, -1);
//! let h = encode_dna(b"ACGTACGTACGT");
//! let v = encode_dna(b"ACGTTCGTACGT");
//! let out = xdrop2::align(&h, &v, &scorer, XDropParams::new(10), BandPolicy::Grow(8)).unwrap();
//! assert!(out.result.best_score > 0);
//! ```

pub mod affine;
pub mod algorithm1;
pub mod aligner;
pub mod alphabet;
pub mod batched;
pub mod error;
pub mod extension;
pub mod hirschberg;
pub mod kernel;
pub mod ksw2;
pub mod reference;
pub mod scorety;
pub mod scoring;
pub mod seqview;
pub mod stats;
pub mod traceback;
pub mod workload;
pub mod xdrop2;
pub mod xdrop3;

/// Convenient re-exports of the types needed for everyday use.
pub mod prelude {
    pub use crate::aligner::{
        AlignOutcome, AlignRequest, Aligner, AlignerKind, Direction, ScoreKind,
    };
    pub use crate::alphabet::{decode_dna, encode_dna, encode_protein, Alphabet};
    pub use crate::error::{AlignError, Result};
    pub use crate::extension::{extend_seed, ExtendOutcome, SeedMatch};
    pub use crate::kernel::KernelKind;
    pub use crate::scoring::{Blosum62, MatchMismatch, Scorer};
    pub use crate::seqview::{Fwd, Rev, SeqView};
    pub use crate::stats::{AlignResult, AlignStats};
    pub use crate::workload::{Comparison, SeqId, SeqSet, Workload};
    pub use crate::xdrop2::{self, BandPolicy};
    pub use crate::xdrop3;
    pub use crate::XDropParams;
}

pub use alphabet::Alphabet;
pub use error::{AlignError, Result};
pub use scoring::{Blosum62, MatchMismatch, Scorer};
pub use stats::{AlignResult, AlignStats};

/// Sentinel for "minus infinity" scores.
///
/// `i32::MIN / 4` leaves ample headroom so that adding a gap penalty
/// (or several) to a dropped cell can never wrap around.
pub const NEG_INF: i32 = i32::MIN / 4;

/// Returns `true` for scores that should be treated as dropped cells.
///
/// Anything at or below `NEG_INF / 2` is considered `-∞`; this
/// absorbs sums such as `NEG_INF + gap` without an explicit branch in
/// the inner loop.
#[inline(always)]
pub fn is_dropped(score: i32) -> bool {
    score <= NEG_INF / 2
}

/// Parameters shared by every X-Drop aligner in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct XDropParams {
    /// The X-Drop threshold: a cell whose score falls more than `x`
    /// below the best score seen so far is pruned to `-∞`.
    pub x: i32,
    /// Optional hard cap on the number of antidiagonals processed
    /// (`None` means run until the live band empties).
    pub max_antidiagonals: Option<usize>,
    /// Which antidiagonal inner-loop implementation runs the
    /// alignment. All kernels are bit-identical (see [`kernel`]);
    /// this only affects host wall-clock, never results or the
    /// modeled IPU cost.
    pub kernel: kernel::KernelKind,
}

impl XDropParams {
    /// X-Drop parameters with threshold `x`, no iteration cap, and
    /// the default kernel ([`kernel::KernelKind::auto`]).
    pub fn new(x: i32) -> Self {
        Self {
            x,
            max_antidiagonals: None,
            kernel: kernel::KernelKind::auto(),
        }
    }

    /// Effectively disables pruning, making X-Drop equivalent to the
    /// full semi-global extension (useful for testing; see Figure 2c).
    pub fn unbounded() -> Self {
        Self {
            x: i32::MAX / 8,
            max_antidiagonals: None,
            kernel: kernel::KernelKind::auto(),
        }
    }

    /// Limits the number of antidiagonal sweeps.
    pub fn with_max_antidiagonals(mut self, n: usize) -> Self {
        self.max_antidiagonals = Some(n);
        self
    }

    /// Forces a specific antidiagonal kernel.
    pub fn with_kernel(mut self, kernel: kernel::KernelKind) -> Self {
        self.kernel = kernel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neg_inf_has_headroom() {
        // Adding many gap penalties to NEG_INF must stay "dropped"
        // and must not overflow.
        let mut v = NEG_INF;
        for _ in 0..1000 {
            v = v.checked_add(-100).expect("no overflow");
        }
        assert!(is_dropped(v));
    }

    #[test]
    fn dropped_threshold() {
        assert!(is_dropped(NEG_INF));
        assert!(is_dropped(NEG_INF + 10_000));
        assert!(!is_dropped(0));
        assert!(!is_dropped(-1_000_000));
    }

    #[test]
    fn params_builders() {
        let p = XDropParams::new(15).with_max_antidiagonals(100);
        assert_eq!(p.x, 15);
        assert_eq!(p.max_antidiagonals, Some(100));
        assert!(XDropParams::unbounded().x > 1_000_000);
    }
}
