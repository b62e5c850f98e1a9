//! Batching: distributing work units across tiles under SRAM
//! constraints (§4.2).
//!
//! A batch is one BSP round: every tile receives its sequences and
//! seed list, computes, and the device synchronizes. The batcher
//! must (a) respect each tile's 624 KB, and (b) minimize the longest
//! tile runtime, for which the paper uses the worst-case quadratic
//! estimate `|H| × |V|` per comparison, since the real X-Drop
//! runtime is input-dependent and unknowable in advance.
//!
//! This module implements the *naive* batcher: work units are packed
//! by estimate (longest-processing-time-first) and every unit ships
//! its own copy of both sequences — the state of the art before the
//! paper's graph partitioning, which `xdrop-partition` provides and
//! which cuts the transferred bytes and batch count (−52 % on
//! E. coli 100×).

use crate::exec::WorkUnit;
use crate::mem;
use crate::spec::IpuSpec;
use xdrop_core::workload::Workload;

/// Batcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchConfig {
    /// Band bound δ_b each thread workspace is sized for.
    pub delta_b: usize,
    /// Threads per tile that need workspaces.
    pub threads: usize,
    /// Fraction of tile SRAM available for alignment data (the rest
    /// is code, stacks, and Poplar runtime).
    pub sram_fraction: f64,
    /// Optional cap on the summed work estimate per tile per batch.
    /// The paper's full-size workloads produce hundreds of batches
    /// from memory pressure alone; scale-model experiments use this
    /// to keep the batch count proportionate so multi-device
    /// pipelining has work to distribute.
    pub max_load_per_tile: Option<u64>,
}

impl BatchConfig {
    /// Defaults matching the paper's configuration (δ_b sized for
    /// X = 15-ish HiFi data, six threads, ~85 % of SRAM usable).
    pub fn new(delta_b: usize) -> Self {
        Self {
            delta_b,
            threads: 6,
            sram_fraction: 0.85,
            max_load_per_tile: None,
        }
    }

    /// Usable bytes per tile.
    pub fn tile_budget(&self, spec: &IpuSpec) -> usize {
        (spec.tile_sram_bytes as f64 * self.sram_fraction) as usize
    }
}

/// Work and data assigned to one tile for one batch.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TileAssignment {
    /// Indices into the global work-unit list, in queue order.
    pub units: Vec<u32>,
    /// Bytes of sequence data transferred to this tile for this
    /// batch (duplicates included if the batcher did not dedup).
    pub transfer_bytes: u64,
    /// Sum of work estimates (load-balance key).
    pub est_load: u64,
}

/// One BSP batch: per-tile assignments.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Batch {
    /// Assignments, one entry per occupied tile (≤ spec.tiles).
    pub tiles: Vec<TileAssignment>,
}

impl Batch {
    /// Total bytes host → device for this batch.
    pub fn transfer_bytes(&self) -> u64 {
        self.tiles.iter().map(|t| t.transfer_bytes).sum()
    }

    /// Total number of units in the batch.
    pub fn unit_count(&self) -> usize {
        self.tiles.iter().map(|t| t.units.len()).sum()
    }
}

/// Sequence bytes one unit ships under the naive scheme: its
/// comparison's sequences, per unit (no reuse).
fn unit_seq_bytes(w: &Workload, u: &WorkUnit) -> usize {
    mem::comparison_seq_bytes(w, &w.comparisons[u.cmp as usize])
}

/// Packs `units` into batches for a device with `spec.tiles` tiles:
/// units are taken largest-estimate-first and placed on the
/// least-loaded tile that still has memory; when no tile can take a
/// unit, the batch is sealed and a new one starts.
pub fn naive_batches(
    w: &Workload,
    units: &[WorkUnit],
    spec: &IpuSpec,
    cfg: &BatchConfig,
) -> Vec<Batch> {
    let budget = cfg.tile_budget(spec);
    let mut order: Vec<u32> = (0..units.len() as u32).collect();
    // Index tiebreak keeps the (previously stability-provided) order
    // of equal estimates while allowing the cheaper unstable sort.
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(units[i as usize].est_complexity), i));

    let mut batches = Vec::new();
    let mut tiles: Vec<TileAssignment> = vec![TileAssignment::default(); spec.tiles];
    let mut tile_mem: Vec<usize> =
        vec![mem::tile_bytes(0, 0, cfg.threads, cfg.delta_b); spec.tiles];
    let mut any = false;

    for &ui in &order {
        let u = &units[ui as usize];
        let seq_bytes = unit_seq_bytes(w, u);
        let need = seq_bytes + mem::SEED_ENTRY_BYTES + mem::OUTPUT_ENTRY_BYTES;
        // Least-loaded tile with room (memory and, if configured,
        // load headroom — a tile always accepts its first unit).
        let mut best: Option<usize> = None;
        for (ti, t) in tiles.iter().enumerate() {
            let load_ok = cfg
                .max_load_per_tile
                .map(|cap| t.units.is_empty() || t.est_load + u.est_complexity <= cap)
                .unwrap_or(true);
            if tile_mem[ti] + need <= budget && load_ok {
                match best {
                    Some(b) if tiles[b].est_load <= t.est_load => {}
                    _ => best = Some(ti),
                }
            }
        }
        match best {
            Some(ti) => {
                tiles[ti].units.push(ui);
                tiles[ti].transfer_bytes += seq_bytes as u64;
                tiles[ti].est_load += u.est_complexity;
                tile_mem[ti] += need;
                any = true;
            }
            None => {
                // Seal the batch and retry on a fresh one.
                batches.push(Batch {
                    tiles: tiles
                        .iter()
                        .filter(|t| !t.units.is_empty())
                        .cloned()
                        .collect(),
                });
                tiles = vec![TileAssignment::default(); spec.tiles];
                tile_mem = vec![mem::tile_bytes(0, 0, cfg.threads, cfg.delta_b); spec.tiles];
                let ti = 0;
                assert!(
                    tile_mem[ti] + need <= budget,
                    "single unit exceeds tile memory: {} + {} > {}",
                    tile_mem[ti],
                    need,
                    budget
                );
                tiles[ti].units.push(ui);
                tiles[ti].transfer_bytes += seq_bytes as u64;
                tiles[ti].est_load += u.est_complexity;
                tile_mem[ti] += need;
                any = true;
            }
        }
    }
    if any {
        batches.push(Batch {
            tiles: tiles
                .iter()
                .filter(|t| !t.units.is_empty())
                .cloned()
                .collect(),
        });
    }
    batches
}

/// Restricts batches to a single tile (the Table 1 "Single tile"
/// row): all units serialized onto tile 0, split into batches that
/// fit its memory.
pub fn single_tile_batches(
    w: &Workload,
    units: &[WorkUnit],
    spec: &IpuSpec,
    cfg: &BatchConfig,
) -> Vec<Batch> {
    let one_tile = IpuSpec { tiles: 1, ..*spec };
    naive_batches(w, units, &one_tile, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::stats::AlignStats;
    use xdrop_core::workload::Comparison;

    fn workload_and_units(n: usize, seq_len: usize) -> (Workload, Vec<WorkUnit>) {
        let mut w = Workload::new(Alphabet::Dna);
        let mut units = Vec::new();
        for i in 0..n {
            let h = w.seqs.push(vec![0; seq_len]);
            let v = w.seqs.push(vec![1; seq_len]);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(0, 0, 1)));
            units.push(WorkUnit {
                cmp: i as u32,
                side: None,
                stats: AlignStats::default(),
                score: 0,
                est_complexity: (seq_len * seq_len) as u64,
            });
        }
        (w, units)
    }

    #[test]
    fn all_units_assigned_exactly_once() {
        let (w, units) = workload_and_units(500, 2_000);
        let batches = naive_batches(&w, &units, &IpuSpec::gc200(), &BatchConfig::new(256));
        let mut seen = vec![0usize; units.len()];
        for b in &batches {
            for t in &b.tiles {
                for &u in &t.units {
                    seen[u as usize] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn memory_budget_respected() {
        let (w, units) = workload_and_units(2_000, 10_000);
        let spec = IpuSpec::gc200();
        let cfg = BatchConfig::new(256);
        let budget = cfg.tile_budget(&spec);
        let batches = naive_batches(&w, &units, &spec, &cfg);
        for b in &batches {
            for t in &b.tiles {
                let bytes: usize = t
                    .units
                    .iter()
                    .map(|&u| unit_seq_bytes(&w, &units[u as usize]))
                    .sum();
                let total = mem::tile_bytes(bytes, t.units.len(), cfg.threads, cfg.delta_b);
                assert!(total <= budget, "{total} > {budget}");
            }
        }
    }

    #[test]
    fn big_sequences_force_multiple_batches_on_one_tile() {
        let (w, units) = workload_and_units(40, 25_000);
        let spec = IpuSpec::gc200();
        let batches = single_tile_batches(&w, &units, &spec, &BatchConfig::new(256));
        // 50 KB per unit, ~530 KB budget → ~10 units per batch.
        assert!(batches.len() >= 4, "got {} batches", batches.len());
        for b in &batches {
            assert!(b.tiles.len() <= 1);
        }
    }

    #[test]
    fn naive_transfer_duplicates_sequences() {
        let (w, units) = workload_and_units(10, 1_000);
        let batches = naive_batches(&w, &units, &IpuSpec::gc200(), &BatchConfig::new(64));
        let total: u64 = batches.iter().map(Batch::transfer_bytes).sum();
        assert_eq!(total, 10 * 2 * 1_000);
        assert_eq!(batches.iter().map(Batch::unit_count).sum::<usize>(), 10);
    }

    #[test]
    fn empty_units_empty_batches() {
        let (w, _) = workload_and_units(1, 100);
        let batches = naive_batches(&w, &[], &IpuSpec::gc200(), &BatchConfig::new(64));
        assert!(batches.is_empty());
    }

    #[test]
    fn load_balanced_across_tiles() {
        let (w, units) = workload_and_units(1_472 * 2, 1_000);
        let batches = naive_batches(&w, &units, &IpuSpec::gc200(), &BatchConfig::new(64));
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.tiles.len(), 1_472);
        assert!(b.tiles.iter().all(|t| t.units.len() == 2));
    }
}
