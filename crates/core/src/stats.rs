//! Alignment results and instrumentation.
//!
//! Every aligner in this crate returns an [`AlignOutput`]: the scored
//! [`AlignResult`] plus an [`AlignStats`] record describing *how much
//! work* the dynamic program actually did. The stats drive the IPU
//! simulator's cycle-cost model, the `δ_b` selection experiment
//! (Figure 6 / §6.1), and the search-space figures (Figure 2).

/// Outcome of one semi-global extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlignResult {
    /// Best score found (`T` in Algorithm 1). Zero for an empty
    /// extension (aligning nothing is always allowed).
    pub best_score: i32,
    /// Number of `H` symbols consumed on the best-scoring path end.
    pub end_h: usize,
    /// Number of `V` symbols consumed on the best-scoring path end.
    pub end_v: usize,
}

impl AlignResult {
    /// The empty extension: score 0 at the origin.
    pub fn empty() -> Self {
        Self {
            best_score: 0,
            end_h: 0,
            end_v: 0,
        }
    }

    /// Antidiagonal index at which the best score was found.
    pub fn end_antidiagonal(&self) -> usize {
        self.end_h + self.end_v
    }
}

/// Work and memory accounting for one alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlignStats {
    /// DP cells actually evaluated (the gray area of Figure 2).
    pub cells_computed: u64,
    /// Antidiagonal sweeps performed (`k` at termination).
    pub antidiagonals: u64,
    /// Maximum live band width `δ_w = max_k (U_k − L_k + 1)` — the
    /// quantity Figure 6 measures and `δ_b` must dominate.
    pub delta_w: usize,
    /// Theoretical maximum antidiagonal length
    /// `δ = min(|H|, |V|) + 1`.
    pub delta: usize,
    /// Bytes of DP working memory the algorithm allocated
    /// (`3δ` × 4 B for the three-antidiagonal variant, `2δ_b` × 4 B
    /// for the memory-restricted one).
    pub work_bytes: usize,
    /// Number of cells pruned by the X-Drop condition.
    pub cells_dropped: u64,
    /// Number of candidate cells never evaluated because the
    /// [`crate::xdrop2::BandPolicy::Saturate`] policy clipped the
    /// band to `δ_b` (always zero for the other policies and
    /// algorithms).
    pub cells_clipped: u64,
}

impl AlignStats {
    /// Theoretical full-matrix cell count `|H| × |V|`, the numerator
    /// of the paper's GCUPS metric.
    pub fn theoretical_cells(h_len: usize, v_len: usize) -> u64 {
        h_len as u64 * v_len as u64
    }

    /// Merges another stats record into this one (used when combining
    /// left and right seed extensions).
    pub fn merge(&mut self, other: &AlignStats) {
        self.cells_computed += other.cells_computed;
        self.antidiagonals += other.antidiagonals;
        self.delta_w = self.delta_w.max(other.delta_w);
        self.delta = self.delta.max(other.delta);
        self.work_bytes = self.work_bytes.max(other.work_bytes);
        self.cells_dropped += other.cells_dropped;
        self.cells_clipped += other.cells_clipped;
    }
}

/// An [`AlignResult`] together with its [`AlignStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AlignOutput {
    /// The alignment outcome.
    pub result: AlignResult,
    /// Work/memory accounting.
    pub stats: AlignStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result() {
        let r = AlignResult::empty();
        assert_eq!(r.best_score, 0);
        assert_eq!(r.end_antidiagonal(), 0);
    }

    #[test]
    fn theoretical_cells() {
        assert_eq!(AlignStats::theoretical_cells(10, 20), 200);
        assert_eq!(AlignStats::theoretical_cells(0, 20), 0);
    }

    #[test]
    fn merge_combines() {
        let mut a = AlignStats {
            cells_computed: 10,
            antidiagonals: 5,
            delta_w: 3,
            delta: 100,
            work_bytes: 800,
            cells_dropped: 2,
            cells_clipped: 0,
        };
        let b = AlignStats {
            cells_computed: 20,
            antidiagonals: 7,
            delta_w: 9,
            delta: 50,
            work_bytes: 400,
            cells_dropped: 1,
            cells_clipped: 4,
        };
        a.merge(&b);
        assert_eq!(a.cells_computed, 30);
        assert_eq!(a.antidiagonals, 12);
        assert_eq!(a.delta_w, 9);
        assert_eq!(a.delta, 100);
        assert_eq!(a.work_bytes, 800);
        assert_eq!(a.cells_dropped, 3);
        assert_eq!(a.cells_clipped, 4);
    }
}
