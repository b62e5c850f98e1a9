//! SeqAn-style CPU X-Drop.
//!
//! SeqAn's `extendSeed(..., GappedXDrop())` implements the same
//! Zhang antidiagonal algorithm as [`xdrop_core::xdrop3`] — three
//! rolling antidiagonals, linear gaps — which is exactly what ELBA
//! and PASTIS call on the CPU (§2.4). This module is a thin,
//! seed-aware wrapper giving the baseline a name and the workload
//! runner a uniform interface.

use xdrop_core::aligner::AlignerKind;
use xdrop_core::extension::{Backend, ExtendOutcome, Extender, SeedMatch};
use xdrop_core::scoring::Scorer;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// A reusable SeqAn-style extender (three-antidiagonal backend).
pub struct SeqAnAligner {
    ext: Extender,
}

impl SeqAnAligner {
    /// SeqAn extender with X-Drop factor `x`.
    pub fn new(x: i32) -> Self {
        Self {
            ext: Extender::new(
                XDropParams::new(x),
                Backend::for_kind(AlignerKind::XDrop3, x, BandPolicy::Grow(64)),
            ),
        }
    }

    /// Extends `seed` on `h` × `v` in both directions.
    pub fn extend<S: Scorer>(
        &mut self,
        h: &[u8],
        v: &[u8],
        seed: SeedMatch,
        scorer: &S,
    ) -> ExtendOutcome {
        self.ext
            .extend(h, v, seed, scorer)
            .expect("three-diagonal backend cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::encode_dna;
    use xdrop_core::extension::extend_seed;
    use xdrop_core::scoring::MatchMismatch;

    #[test]
    fn agrees_with_memory_restricted_kernel() {
        let h = encode_dna(b"ACGTACGTAAGGTACGTACGTACGTTTGGACGT");
        let v = encode_dna(b"ACGTACGAAAGGTACGTACGTACTTTTGGACGA");
        let seed = SeedMatch::new(12, 12, 8);
        let sc = MatchMismatch::dna_default();
        let mut seqan = SeqAnAligner::new(10);
        let a = seqan.extend(&h, &v, seed, &sc);
        let b = extend_seed(
            &h,
            &v,
            seed,
            &sc,
            XDropParams::new(10),
            BandPolicy::Grow(16),
        )
        .unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.h_span, b.h_span);
        assert_eq!(a.v_span, b.v_span);
        // The whole point of the paper: same answer, 3δ vs 2δ_b.
        assert!(a.stats().work_bytes > b.stats().work_bytes);
    }

    #[test]
    fn reusable_across_calls() {
        let s = encode_dna(b"ACGTACGTACGTACGT");
        let sc = MatchMismatch::dna_default();
        let mut seqan = SeqAnAligner::new(10);
        let first = seqan.extend(&s, &s, SeedMatch::new(4, 4, 8), &sc);
        let second = seqan.extend(&s, &s, SeedMatch::new(4, 4, 8), &sc);
        assert_eq!(first.score, second.score);
        assert_eq!(first.score, 16);
    }
}
