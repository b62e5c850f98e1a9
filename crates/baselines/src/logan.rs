//! LOGAN-style GPU X-Drop (Zeni et al., IPDPS 2020).
//!
//! LOGAN processes antidiagonals in warp-lockstep on a GPU: each
//! alignment gets a thread block, the band is a *fixed-width* window
//! re-centered on the best cell of the previous antidiagonal, and
//! every lane of a warp computes a cell whether it is live or not.
//! Two consequences the paper's Figure 5 exposes:
//!
//! * at small `X` the live band is much narrower than the fixed
//!   window, so most lanes do wasted work (and per-alignment launch
//!   overhead dominates on HiFi data) — the IPU wins by 10×;
//! * at large `X` the live band approaches the window and the GPU's
//!   raw throughput closes the gap to 2.55×.
//!
//! The algorithmic part is the facade's
//! [`AlignerKind::LoganBand`](xdrop_core::aligner::AlignerKind::LoganBand)
//! engine: the memory-restricted kernel under a saturating window of
//! [`logan_band_width`] cells, which may miss the optimum when the
//! window saturates, like the real tool. This module adds the padded
//! lane work the SIMT timing model ([`crate::models::GpuModel`])
//! charges.

use xdrop_core::aligner::logan_band_width;
use xdrop_core::stats::AlignStats;

/// Warp width of the modeled GPU.
pub const WARP: usize = 32;

/// Lane work of one LOGAN extension side, dead lanes included: every
/// lane of the window computes every antidiagonal sweep. The window
/// is LOGAN's band for `x`, clipped to the side's longest
/// antidiagonal `δ = min(|H|, |V|) + 1` and rounded up to whole warps.
pub fn padded_cells(stats: &AlignStats, x: i32) -> u64 {
    let lanes = logan_band_width(x).min(stats.delta).div_ceil(WARP) * WARP;
    stats.antidiagonals * lanes as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::aligner::{AlignRequest, Aligner, AlignerKind};
    use xdrop_core::alphabet::encode_dna;
    use xdrop_core::kernel::KernelKind;
    use xdrop_core::scoring::MatchMismatch;

    /// One LOGAN side's stats over `h` × `v`.
    fn logan(h: &[u8], v: &[u8], x: i32) -> AlignStats {
        let req = AlignRequest::new(AlignerKind::LoganBand, x).kernel(KernelKind::Scalar);
        let out = Aligner::new().align(h, v, &MatchMismatch::dna_default(), &req);
        out.unwrap().output.stats
    }

    /// `h` with every `step`-th symbol (from `first`) substituted.
    fn mutated(h: &[u8], first: usize, step: usize) -> Vec<u8> {
        let mut v = h.to_vec();
        for i in (first..v.len()).step_by(step) {
            v[i] = (v[i] + 1) % 4;
        }
        v
    }

    #[test]
    fn window_is_clipped_to_the_longest_antidiagonal() {
        let h = encode_dna(b"ACGTACGTACGTACGT").repeat(32); // 512
        let v = mutated(&h, 31, 37);
        for (len, x) in [(512, 5), (512, 60), (40, 60), (0, 5)] {
            let st = logan(&h[..len], &v[..len], x);
            assert_eq!(st.delta, len + 1, "len={len}");
            let lanes = logan_band_width(x).min(len + 1).div_ceil(WARP) * WARP;
            assert_eq!(padded_cells(&st, x), st.antidiagonals * lanes as u64);
        }
    }

    #[test]
    fn padded_cells_exceed_live_cells_at_small_x() {
        // 5% error HiFi-like pair: live band tiny, window 64+.
        let h = encode_dna(b"ACGTACGTACGTACGT").repeat(32); // 512
        let st = logan(&h, &mutated(&h, 31, 37), 5);
        assert!(
            padded_cells(&st, 5) > 2 * st.cells_computed,
            "padded {} vs live {}",
            padded_cells(&st, 5),
            st.cells_computed
        );
    }

    #[test]
    fn padding_ratio_shrinks_as_x_grows() {
        let h = encode_dna(b"ACGTACGTACGTACGT").repeat(64); // 2048
        let v = mutated(&h, 7, 11); // ~9% error: band grows with X
        let ratio = |x: i32| {
            let st = logan(&h, &v, x);
            padded_cells(&st, x) as f64 / st.cells_computed.max(1) as f64
        };
        let (r_small, r_large) = (ratio(3), ratio(60));
        assert!(
            r_large < r_small,
            "padding waste should shrink with X: small {r_small}, large {r_large}"
        );
    }
}
