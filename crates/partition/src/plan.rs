//! Batch planning: partitions (or the naive layout) → device batches.

use crate::error::PartitionError;
#[cfg(test)]
use crate::greedy::greedy_partitions;
use crate::greedy::{greedy_partitions_with_load_cap, Partition};
use ipu_sim::batch::{naive_batches, Batch, BatchConfig, TileAssignment};
use ipu_sim::exec::WorkUnit;
use ipu_sim::spec::IpuSpec;
use xdrop_core::workload::Workload;

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanConfig {
    /// Tile batching configuration (δ_b, threads, SRAM fraction).
    pub batch: BatchConfig,
    /// Use the graph-based sequence partitioner (the paper's
    /// *multicomparison* mode in Figure 7); `false` falls back to
    /// the naive per-comparison transfer.
    pub use_partitioning: bool,
    /// Lower bound on the number of batches the partitioned plan
    /// aims for (via the per-partition load cap). Multi-device runs
    /// need at least one batch per device in flight; the paper's
    /// full-size workloads produce hundreds of batches naturally.
    pub min_batches: usize,
    /// Ignored: the partitioner is one serial walk. Kept for the
    /// benchmark harness, which still reads it.
    pub shards: usize,
    /// Ignored: the partitioner runs on the calling thread. Kept for
    /// the benchmark harness, which still sets it.
    pub host_threads: usize,
    /// Ignored: the planner reads the comparison list whole on every
    /// path. Kept for the benchmark harness, which still sets it.
    pub window_comparisons: Option<usize>,
}

impl PlanConfig {
    /// Partitioning enabled with the given δ_b.
    pub fn partitioned(delta_b: usize) -> Self {
        Self {
            batch: BatchConfig::new(delta_b),
            use_partitioning: true,
            min_batches: 2,
            shards: 0,
            host_threads: 0,
            window_comparisons: None,
        }
    }

    /// Naive mode (the Figure 7 "single comparison" baseline).
    pub fn naive(delta_b: usize) -> Self {
        Self {
            batch: BatchConfig::new(delta_b),
            use_partitioning: false,
            min_batches: 2,
            shards: 0,
            host_threads: 0,
            window_comparisons: None,
        }
    }

    /// Requests at least `n` batches from the partitioned plan.
    pub fn with_min_batches(mut self, n: usize) -> Self {
        self.min_batches = n.max(1);
        self
    }

    /// Sets [`PlanConfig::host_threads`], which the planner ignores.
    /// Kept for the benchmark harness, which still calls it.
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Sets [`PlanConfig::window_comparisons`], which the planner
    /// ignores. Kept for the benchmark harness, which still calls it.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window_comparisons = Some(window.max(1));
        self
    }
}

/// The global work-unit list grouped by comparison index, as a flat
/// CSR (counts → prefix sum → scatter) instead of a `Vec<Vec<u32>>`:
/// one allocation for millions of comparisons rather than one each.
struct UnitsByComparison {
    offsets: Vec<u32>,
    units: Vec<u32>,
}

impl UnitsByComparison {
    fn build(units: &[WorkUnit], n_comparisons: usize) -> Self {
        let mut counts = vec![0u32; n_comparisons + 1];
        for u in units {
            counts[u.cmp as usize + 1] += 1;
        }
        for i in 0..n_comparisons {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets[..n_comparisons].to_vec();
        let mut flat = vec![0u32; units.len()];
        for (ui, u) in units.iter().enumerate() {
            flat[cursor[u.cmp as usize] as usize] = ui as u32;
            cursor[u.cmp as usize] += 1;
        }
        Self {
            offsets,
            units: flat,
        }
    }

    /// Unit indices of comparison `ci`, in original unit order.
    fn of(&self, ci: u32) -> &[u32] {
        let lo = self.offsets[ci as usize] as usize;
        let hi = self.offsets[ci as usize + 1] as usize;
        &self.units[lo..hi]
    }
}

/// Converts partitions into batches: partitions are sorted by
/// descending load and distributed `spec.tiles` per batch, so each
/// batch mixes similarly-sized partitions (the BSP compute phase is
/// bounded by the slowest tile).
pub fn partition_batches(
    w: &Workload,
    units: &[WorkUnit],
    partitions: &[Partition],
    spec: &IpuSpec,
) -> Vec<Batch> {
    let by_cmp = UnitsByComparison::build(units, w.comparisons.len());
    let mut order: Vec<usize> = (0..partitions.len()).collect();
    // Index tiebreak keeps the (previously stability-provided) order
    // of equal loads while allowing the cheaper unstable sort.
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(partitions[i].est_load), i));
    let mut batches: Vec<Batch> = Vec::new();
    for (rank, &pi) in order.iter().enumerate() {
        let p = &partitions[pi];
        if rank % spec.tiles == 0 {
            batches.push(Batch::default());
        }
        let mut tile = TileAssignment {
            units: Vec::new(),
            transfer_bytes: p.seq_bytes,
            est_load: p.est_load,
        };
        for &ci in &p.comparisons {
            tile.units.extend_from_slice(by_cmp.of(ci));
        }
        // Largest-estimate-first within the tile: work stealing then
        // picks up the heavy extensions early (LPT). The insertion
        // order here is per-comparison, not ascending unit index, so
        // an unstable sort needs the position decoration to keep
        // equal estimates in insertion order (the modeled tie-grab
        // races depend on it).
        let mut decorated: Vec<(usize, u32)> = tile.units.iter().copied().enumerate().collect();
        decorated.sort_unstable_by_key(|&(pos, ui)| {
            (std::cmp::Reverse(units[ui as usize].est_complexity), pos)
        });
        tile.units.clear();
        tile.units.extend(decorated.into_iter().map(|(_, ui)| ui));
        batches.last_mut().expect("batch exists").tiles.push(tile);
    }
    batches
}

/// Wall-clock split of one planning run, for the host phase spans in
/// the Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanTimings {
    /// Seconds spent in the fit check, graph build and greedy edge
    /// walk (zero in naive mode).
    pub partition_s: f64,
    /// Seconds spent turning partitions into batches.
    pub plan_s: f64,
}

/// Plans batches for a workload according to `cfg`.
///
/// The partitioned path runs the serial greedy walk
/// ([`greedy_partitions_with_load_cap`]) under a per-partition load
/// cap derived from `cfg.min_batches`. Fails with
/// [`PartitionError::OversizedComparison`] (smallest index) when a
/// single comparison cannot fit a tile.
pub fn plan_batches(
    w: &Workload,
    units: &[WorkUnit],
    spec: &IpuSpec,
    cfg: &PlanConfig,
) -> Result<Vec<Batch>, PartitionError> {
    plan_batches_timed(w, units, spec, cfg).map(|(batches, _)| batches)
}

/// [`plan_batches`] also reporting where the wall-clock went.
pub fn plan_batches_timed(
    w: &Workload,
    units: &[WorkUnit],
    spec: &IpuSpec,
    cfg: &PlanConfig,
) -> Result<(Vec<Batch>, PlanTimings), PartitionError> {
    // Bound each tile's (or partition's) estimated load so that at
    // least `min_batches` batches of `spec.tiles` slots exist — both
    // modes get the same batch granularity, as on full-size data
    // where memory pressure alone yields hundreds of batches.
    let cap =
        (w.total_complexity() / (cfg.min_batches.max(1) as u64 * spec.tiles as u64).max(1)).max(1);
    let start = std::time::Instant::now();
    if cfg.use_partitioning {
        let parts = greedy_partitions_with_load_cap(
            w,
            cfg.batch.tile_budget(spec),
            cfg.batch.threads,
            cfg.batch.delta_b,
            Some(cap),
        )?;
        let partition_s = start.elapsed().as_secs_f64();
        let plan_start = std::time::Instant::now();
        let batches = partition_batches(w, units, &parts, spec);
        Ok((
            batches,
            PlanTimings {
                partition_s,
                plan_s: plan_start.elapsed().as_secs_f64(),
            },
        ))
    } else {
        let batch = BatchConfig {
            max_load_per_tile: Some(cap),
            ..cfg.batch
        };
        let batches = naive_batches(w, units, spec, &batch);
        Ok((
            batches,
            PlanTimings {
                partition_s: 0.0,
                plan_s: start.elapsed().as_secs_f64(),
            },
        ))
    }
}

/// Host-transfer statistics comparing naive and partitioned layouts
/// (§4.3's −52 % / −44 % batch reductions, ≥2× sequence reuse).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReuseStats {
    /// Bytes transferred if every comparison ships both sequences.
    pub naive_bytes: u64,
    /// Bytes transferred with partition-level deduplication.
    pub unique_bytes: u64,
    /// `naive / unique` — the sequence reuse effectiveness.
    pub reuse_factor: f64,
    /// Largest number of sequences co-resident in one partition
    /// (the paper packed up to 41).
    pub max_seqs_per_partition: usize,
    /// Number of partitions produced.
    pub partitions: usize,
}

/// Computes [`ReuseStats`] for a partitioning of `w`.
pub fn reuse_stats(w: &Workload, partitions: &[Partition]) -> ReuseStats {
    let naive_bytes: u64 = w
        .comparisons
        .iter()
        .map(|c| (w.seqs.seq_len(c.h) + w.seqs.seq_len(c.v)) as u64)
        .sum();
    let unique_bytes: u64 = partitions.iter().map(|p| p.seq_bytes).sum();
    ReuseStats {
        naive_bytes,
        unique_bytes,
        reuse_factor: if unique_bytes == 0 {
            1.0
        } else {
            naive_bytes as f64 / unique_bytes as f64
        },
        max_seqs_per_partition: partitions.iter().map(|p| p.seqs.len()).max().unwrap_or(0),
        partitions: partitions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::stats::AlignStats;
    use xdrop_core::workload::Comparison;

    /// A clustered workload: groups of sequences all compared within
    /// the group (high reuse), plus matching fake units (2 per
    /// comparison, as under LR splitting).
    fn clustered(groups: usize, group_size: usize, len: usize) -> (Workload, Vec<WorkUnit>) {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..groups {
            let base = w.seqs.len() as u32;
            for _ in 0..group_size {
                w.seqs.push(vec![0; len]);
            }
            for i in 0..group_size as u32 {
                for j in i + 1..group_size as u32 {
                    w.comparisons.push(Comparison::new(
                        base + i,
                        base + j,
                        SeedMatch::new(0, 0, 1),
                    ));
                }
            }
        }
        let mut units = Vec::new();
        for (ci, c) in w.comparisons.iter().enumerate() {
            for side in [
                Some(xdrop_core::extension::Side::Left),
                Some(xdrop_core::extension::Side::Right),
            ] {
                units.push(WorkUnit {
                    cmp: ci as u32,
                    side,
                    stats: AlignStats {
                        cells_computed: 1_000,
                        antidiagonals: 50,
                        ..Default::default()
                    },
                    score: 0,
                    est_complexity: w.complexity(c) / 2,
                });
            }
        }
        (w, units)
    }

    #[test]
    fn partitioned_plan_covers_all_units() {
        let (w, units) = clustered(20, 8, 2_000);
        let spec = IpuSpec::gc200();
        let batches = plan_batches(&w, &units, &spec, &PlanConfig::partitioned(64)).unwrap();
        let mut seen = vec![0; units.len()];
        for b in &batches {
            for t in &b.tiles {
                for &u in &t.units {
                    seen[u as usize] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "each unit scheduled exactly once"
        );
    }

    #[test]
    fn partitioning_reduces_transfer_bytes() {
        let (w, units) = clustered(20, 8, 2_000);
        let spec = IpuSpec::gc200();
        let naive: u64 = plan_batches(&w, &units, &spec, &PlanConfig::naive(64))
            .unwrap()
            .iter()
            .map(Batch::transfer_bytes)
            .sum();
        let parted: u64 = plan_batches(&w, &units, &spec, &PlanConfig::partitioned(64))
            .unwrap()
            .iter()
            .map(Batch::transfer_bytes)
            .sum();
        assert!(
            (parted as f64) < naive as f64 * 0.6,
            "partitioned {parted} vs naive {naive}"
        );
    }

    #[test]
    fn reuse_stats_on_clusters() {
        let (w, _) = clustered(10, 8, 2_000);
        let cfg = PlanConfig::partitioned(64);
        let spec = IpuSpec::gc200();
        let parts = greedy_partitions(
            &w,
            cfg.batch.tile_budget(&spec),
            cfg.batch.threads,
            cfg.batch.delta_b,
        )
        .unwrap();
        let rs = reuse_stats(&w, &parts);
        // Each group: 28 comparisons × 2 seqs naive vs 8 unique.
        assert!(rs.reuse_factor > 3.0, "reuse {}", rs.reuse_factor);
        assert!(rs.max_seqs_per_partition >= 8);
        assert_eq!(rs.naive_bytes, 10 * 28 * 2 * 2_000);
    }

    #[test]
    fn lr_units_stay_with_their_partition() {
        let (w, units) = clustered(5, 4, 1_000);
        let spec = IpuSpec::gc200();
        let batches = plan_batches(&w, &units, &spec, &PlanConfig::partitioned(64)).unwrap();
        for b in &batches {
            for t in &b.tiles {
                // Units on a tile must come in left/right pairs of
                // the same comparison.
                let mut cmps: Vec<u32> = t.units.iter().map(|&u| units[u as usize].cmp).collect();
                cmps.sort_unstable();
                for pair in cmps.chunks(2) {
                    assert_eq!(pair[0], pair[1]);
                }
            }
        }
    }

    #[test]
    fn batches_bounded_by_tile_count() {
        let (w, units) = clustered(3, 4, 100_000);
        let tiny_spec = IpuSpec {
            tiles: 2,
            ..IpuSpec::gc200()
        };
        let batches = plan_batches(&w, &units, &tiny_spec, &PlanConfig::partitioned(64)).unwrap();
        for b in &batches {
            assert!(b.tiles.len() <= 2);
        }
        // 3 partitions (one per group at this size) → 2 batches.
        assert!(batches.len() >= 2);
    }
}
