//! Tile SRAM accounting (§4, §4.1.1).
//!
//! Everything a tile works on must fit in its 624 KB: the resident
//! sequences, the seed-extension list, one output slot per extension,
//! and — because each of the six hardware threads runs its own
//! alignment with no sharing — *six* copies of the `2δ_b` band
//! workspace.

use xdrop_core::workload::{Comparison, Workload};

/// Bytes of one seed-extension descriptor as laid out on the tile:
/// two sequence references, two seed positions, seed length and
/// flags — comfortably 24 bytes.
pub const SEED_ENTRY_BYTES: usize = 24;

/// Bytes of one extension output tuple (score, end positions for
/// left and right).
pub const OUTPUT_ENTRY_BYTES: usize = 24;

/// Score cell size in bytes (`f32`/`i32`).
pub const CELL_BYTES: usize = 4;

/// Sequence bytes a tile holds for one comparison: both sequences,
/// or one when the comparison is a self-comparison (`h == v`).
pub fn comparison_seq_bytes(w: &Workload, c: &Comparison) -> usize {
    let h = w.seqs.seq_len(c.h);
    if c.h == c.v {
        h
    } else {
        h + w.seqs.seq_len(c.v)
    }
}

/// Working memory of one thread's kernel: two band antidiagonals.
pub fn thread_workspace_bytes(delta_b: usize) -> usize {
    2 * delta_b * CELL_BYTES
}

/// Total SRAM needed by a tile holding `seq_bytes` of sequence data
/// and `n_units` seed extensions, running `threads` concurrent
/// kernels with band bound `delta_b`.
pub fn tile_bytes(seq_bytes: usize, n_units: usize, threads: usize, delta_b: usize) -> usize {
    seq_bytes
        + n_units * (SEED_ENTRY_BYTES + OUTPUT_ENTRY_BYTES)
        + threads * thread_workspace_bytes(delta_b)
}

/// Maximum sequence payload a tile can hold for a given
/// configuration (0 if the workspaces alone overflow the SRAM).
pub fn seq_budget(sram: usize, n_units: usize, threads: usize, delta_b: usize) -> usize {
    sram.saturating_sub(tile_bytes(0, n_units, threads, delta_b))
}

/// The three-antidiagonal footprint for comparison: `3δ` cells per
/// thread. Used to reproduce the paper's headline "55× less memory".
pub fn thread_workspace_bytes_3diag(delta: usize) -> usize {
    3 * delta * CELL_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_threads_multiply_workspace() {
        let one = tile_bytes(0, 0, 1, 1000);
        let six = tile_bytes(0, 0, 6, 1000);
        assert_eq!(six, 6 * one);
    }

    #[test]
    fn paper_memory_reduction_example() {
        // §6.1: for E. coli at X = 15, δ_w = 339 on ~19 kb longest
        // sequences; choosing δ_b = 339 vs δ = 19000 saves ~98 %.
        let restricted = thread_workspace_bytes(339);
        let full = thread_workspace_bytes_3diag(19_000);
        let saving = 1.0 - restricted as f64 / full as f64;
        assert!(saving > 0.98, "saving {saving}");
        // And the reduction factor is in the tens (paper: up to 55×).
        let factor = full as f64 / restricted as f64;
        assert!(factor > 50.0 && factor < 100.0, "factor {factor}");
    }

    #[test]
    fn large_sequences_do_not_fit_unrestricted() {
        // Six threads × 3δ for 10 kb sequences exceed 624 KB SRAM
        // once sequences are resident too — the motivating problem.
        let sram = 624 * 1024;
        let delta = 10_000;
        let six_threads_3diag = 6 * thread_workspace_bytes_3diag(delta);
        let with_seqs = six_threads_3diag + 12 * 10_000; // 6 pairs resident
        assert!(with_seqs > sram);
        // The restricted version fits easily with δ_b = 400.
        assert!(tile_bytes(12 * 10_000, 6, 6, 400) < sram);
    }

    #[test]
    fn seq_budget_saturates() {
        assert_eq!(seq_budget(100, 10, 6, 1000), 0);
        let b = seq_budget(624 * 1024, 10, 6, 400);
        assert!(b > 500_000);
    }
}
