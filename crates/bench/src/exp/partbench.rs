//! `experiments partition --bench-json` — partitioner front-end
//! benchmark.
//!
//! Measures real host wall-clock (fit check + graph build + edge
//! walk) of the serial greedy partitioner
//! ([`xdrop_partition::greedy::greedy_partitions_with_load_cap`]) on
//! a synthetic ELBA-shaped workload: a ring of ~100 k sequences each
//! overlapping its 10 nearest neighbours, ~1 M comparisons at scale
//! 1.0 — one giant connected component, as in long-read overlap
//! graphs. Reports one `"serial"` row: edges/second and the sequence
//! `reuse_factor` the walk achieves, against the paper's budget of
//! under a second and ≥ 2× reuse (§4.3).
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- partition --bench-json
//! ```

use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
use xdrop_core::workload::{Comparison, Workload};
use xdrop_partition::greedy::greedy_partitions_with_load_cap;
use xdrop_partition::plan::reuse_stats;

/// One measured partitioner run. The row shape predates the serial
/// walk being the only one: `mode`, `threads`, `shards` and
/// `speedup_vs_serial` always read `"serial"`, 1, 1 and 1.0.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PartitionBenchRow {
    /// Always `"serial"`.
    pub mode: String,
    /// Host threads (always 1: the walk runs on the calling thread).
    pub threads: usize,
    /// Always 1.
    pub shards: usize,
    /// Comparisons (graph edges) in the workload.
    pub comparisons: usize,
    /// Best-of-iterations wall-clock: fit check + graph build + edge
    /// walk.
    pub seconds: f64,
    /// `comparisons / seconds`.
    pub edges_per_sec: f64,
    /// Always 1.0.
    pub speedup_vs_serial: f64,
    /// Sequence reuse factor (`naive / unique` transfer bytes) of
    /// the produced partitioning.
    pub reuse_factor: f64,
    /// CPU cores available on the measuring host (the walk uses one).
    pub host_cores: usize,
}

/// The command documented to regenerate the partition section of
/// `BENCH_xdrop.json`.
pub const PARTITION_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- partition --bench-json";

/// Tile budget / kernel threads / δ_b matching the criterion
/// partitioner benchmark (`benches/partition.rs`).
const BUDGET: usize = 500_000;
const TILE_THREADS: usize = 6;
const DELTA_B: usize = 256;

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The ELBA-shaped ring workload: `~100_000 × scale` sequences of
/// 500–2000 symbols, each compared against its 10 successors (mod
/// n) — a single giant overlap component, as in long-read data.
pub fn elba_workload(scale: f64) -> Workload {
    let n = ((100_000.0 * scale) as usize).max(64);
    let degree = 10usize;
    let mut w = Workload::new(Alphabet::Dna);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    for _ in 0..n {
        let len = 500 + next(1_500) as usize;
        w.seqs.push(vec![0u8; len]);
    }
    let s = SeedMatch::new(0, 0, 1);
    for i in 0..n {
        for d in 1..=degree {
            w.comparisons
                .push(Comparison::new(i as u32, ((i + d) % n) as u32, s));
        }
    }
    w
}

/// Runs the benchmark. `scale` multiplies the workload size; `iters`
/// is how many times the walk runs (best time wins).
pub fn run(scale: f64, iters: usize) -> Vec<PartitionBenchRow> {
    let w = elba_workload(scale);
    let m = w.comparisons.len();
    let mut best = f64::INFINITY;
    let mut parts = Vec::new();
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        parts = greedy_partitions_with_load_cap(&w, BUDGET, TILE_THREADS, DELTA_B, None)
            .expect("ring comparisons fit the budget");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    vec![PartitionBenchRow {
        mode: "serial".to_string(),
        threads: 1,
        shards: 1,
        comparisons: m,
        seconds: best,
        edges_per_sec: m as f64 / best,
        speedup_vs_serial: 1.0,
        reuse_factor: reuse_stats(&w, &parts).reuse_factor,
        host_cores: host_cores(),
    }]
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[PartitionBenchRow]) -> String {
    let cores = rows.first().map_or(0, |r| r.host_cores);
    let mut s = format!(
        "mode             edges    seconds     Medges/s      reuse   ({cores} host cores)\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<9} {:>12} {:>10.4} {:>12.2} {:>10.3}\n",
            r.mode,
            r.comparisons,
            r.seconds,
            r.edges_per_sec / 1e6,
            r.reuse_factor
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_bench_emits_one_serial_row() {
        // Tiny scale: the row shape is the test, not the timing.
        let rows = run(0.003, 1);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.mode.as_str(), r.threads, r.shards), ("serial", 1, 1));
        assert_eq!(r.speedup_vs_serial, 1.0);
        assert!(r.seconds > 0.0 && r.edges_per_sec > 0.0);
        assert!(r.reuse_factor >= 1.0);
        assert!(render(&rows).contains("serial"));
    }
}
