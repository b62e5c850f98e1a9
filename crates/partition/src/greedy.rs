//! The greedy edge-walk partitioner (§4.3).
//!
//! Quoting the paper: *"Take a vertex in the graph and walk linearly
//! through the edge list. Add the starting vertex to the partition
//! and the adjacent vertex to the edge. Continue to walk through the
//! edges and add the adjacent vertex to the partition until adding a
//! new vertex would exceed the memory limit of the partition; start
//! a new partition."* The goal is a set of edge partitions whose
//! union of endpoint sequences fits in one tile's SRAM, so that each
//! sequence is transferred once per partition rather than once per
//! comparison. The walk is deliberately cheap — the paper budgets
//! under a second for this step even on millions of comparisons —
//! so it runs once over the whole graph, serially, on the calling
//! thread (DESIGN.md §10 records why there is no parallel walk).

use crate::error::PartitionError;
use crate::graph::ComparisonGraph;
use ipu_sim::mem;
use xdrop_core::workload::{SeqId, Workload};

/// One partition: a set of comparisons plus the unique sequences
/// they touch.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Partition {
    /// Unique sequence ids resident on the tile.
    pub seqs: Vec<SeqId>,
    /// Comparison indices assigned to this partition.
    pub comparisons: Vec<u32>,
    /// Bytes of the unique sequences (the tile's transfer payload).
    pub seq_bytes: u64,
    /// Sum of the quadratic work estimates of the comparisons.
    pub est_load: u64,
}

/// State of one in-progress partition during the walk.
struct Builder {
    part: Partition,
    mem_used: usize,
}

impl Builder {
    fn new(threads: usize, delta_b: usize) -> Self {
        Self {
            part: Partition::default(),
            mem_used: mem::tile_bytes(0, 0, threads, delta_b),
        }
    }
}

/// Checks that every comparison fits an otherwise empty tile: its
/// two sequences, one seed/output entry, and the thread workspaces.
/// Returns the *smallest* offending comparison index (the
/// executor's convention for alignment errors too), checked before
/// the walk starts so the walk itself cannot fail.
pub(crate) fn comparison_fit_error(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
) -> Option<PartitionError> {
    let base = mem::tile_bytes(0, 0, threads, delta_b);
    let per_edge = mem::SEED_ENTRY_BYTES + mem::OUTPUT_ENTRY_BYTES;
    for (ci, c) in w.comparisons.iter().enumerate() {
        let needed = base + per_edge + mem::comparison_seq_bytes(w, c);
        if needed > budget_bytes {
            return Some(PartitionError::OversizedComparison {
                comparison: ci as u32,
                needed_bytes: needed,
                budget_bytes,
            });
        }
    }
    None
}

/// Runs the greedy partitioner.
///
/// `budget_bytes` is the usable SRAM per tile; `threads` × `delta_b`
/// determine the workspace overhead that must also fit. Returns
/// [`PartitionError::OversizedComparison`] (smallest index) if a
/// single comparison cannot fit a tile by itself — such a workload
/// must be filtered upstream, as on the real machine.
pub fn greedy_partitions(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
) -> Result<Vec<Partition>, PartitionError> {
    greedy_partitions_with_load_cap(w, budget_bytes, threads, delta_b, None)
}

/// [`greedy_partitions`] with an additional cap on the summed work
/// estimate per partition.
///
/// Memory alone can pack hundreds of cheap comparisons onto one
/// tile, making it the BSP straggler; bounding the estimated load
/// (§4.2 uses the quadratic `|H|×|V|` bound as the runtime proxy)
/// keeps partitions schedulable. A comparison whose own estimate
/// exceeds the cap still gets a partition to itself.
///
/// Visits vertices in ascending id order and claims each incident
/// edge at its smaller endpoint (a self-comparison at its only one),
/// so every comparison is claimed exactly once, in CSR order.
pub fn greedy_partitions_with_load_cap(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
    max_load: Option<u64>,
) -> Result<Vec<Partition>, PartitionError> {
    if let Some(e) = comparison_fit_error(w, budget_bytes, threads, delta_b) {
        return Err(e);
    }
    let g = ComparisonGraph::build(w);
    let n = w.seqs.len();
    let mut parts: Vec<Partition> = Vec::new();
    // Which partition a sequence is currently resident in; stamped
    // with the builder generation to avoid clearing.
    let mut resident_gen = vec![u32::MAX; n];
    let mut generation = 0u32;
    let mut b = Builder::new(threads, delta_b);

    let per_edge = mem::SEED_ENTRY_BYTES + mem::OUTPUT_ENTRY_BYTES;
    let seal = |b: &mut Builder, parts: &mut Vec<Partition>, generation: &mut u32| {
        if !b.part.comparisons.is_empty() {
            parts.push(std::mem::take(&mut b.part));
        }
        b.mem_used = mem::tile_bytes(0, 0, threads, delta_b);
        *generation += 1;
    };

    for v in 0..n as SeqId {
        for &(u, ci) in g.neighbours(v) {
            if u < v {
                continue;
            }
            let c = &w.comparisons[ci as usize];
            // Bytes this edge adds: sequences not yet resident.
            let mut add = per_edge;
            for s in [c.h, c.v] {
                if resident_gen[s as usize] != generation {
                    add += w.seqs.seq_len(s);
                }
            }
            // Avoid double counting h == v.
            if c.h == c.v && resident_gen[c.h as usize] != generation {
                add -= w.seqs.seq_len(c.h);
            }
            let over_load = max_load
                .map(|cap| {
                    !b.part.comparisons.is_empty() && b.part.est_load + w.complexity(c) > cap
                })
                .unwrap_or(false);
            if b.mem_used + add > budget_bytes || over_load {
                assert!(
                    !b.part.comparisons.is_empty(),
                    "comparison {ci} alone exceeds the tile budget"
                );
                seal(&mut b, &mut parts, &mut generation);
                // Recompute the edge's footprint against the empty
                // partition.
                let mut fresh = per_edge + w.seqs.seq_len(c.h);
                if c.h != c.v {
                    fresh += w.seqs.seq_len(c.v);
                }
                assert!(
                    b.mem_used + fresh <= budget_bytes,
                    "comparison {ci} alone exceeds the tile budget"
                );
            }
            for s in [c.h, c.v] {
                if resident_gen[s as usize] != generation {
                    resident_gen[s as usize] = generation;
                    b.part.seqs.push(s);
                    b.part.seq_bytes += w.seqs.seq_len(s) as u64;
                    b.mem_used += w.seqs.seq_len(s);
                }
            }
            b.mem_used += per_edge;
            b.part.comparisons.push(ci);
            b.part.est_load += w.complexity(c);
        }
    }
    seal(&mut b, &mut parts, &mut generation);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::workload::Comparison;

    /// `n` sequences of `len` bytes in a path: 0-1, 1-2, 2-3, …
    fn path_workload(n: usize, len: usize) -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..n {
            w.seqs.push(vec![0; len]);
        }
        for i in 0..n - 1 {
            w.comparisons.push(Comparison::new(
                i as u32,
                (i + 1) as u32,
                SeedMatch::new(0, 0, 1),
            ));
        }
        w
    }

    #[test]
    fn every_comparison_assigned_exactly_once() {
        let w = path_workload(100, 1_000);
        let parts = greedy_partitions(&w, 64 * 1024, 6, 64).unwrap();
        let mut seen = vec![0; w.comparisons.len()];
        for p in &parts {
            for &ci in &p.comparisons {
                seen[ci as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn partitions_respect_budget() {
        let w = path_workload(200, 2_000);
        let budget = 96 * 1024;
        let parts = greedy_partitions(&w, budget, 6, 64).unwrap();
        for p in &parts {
            let bytes = p.seq_bytes as usize
                + p.comparisons.len() * (mem::SEED_ENTRY_BYTES + mem::OUTPUT_ENTRY_BYTES)
                + mem::tile_bytes(0, 0, 6, 64);
            assert!(bytes <= budget, "partition uses {bytes} > {budget}");
        }
    }

    #[test]
    fn path_reuse_approaches_two() {
        // On a path of equal-length sequences, each new comparison
        // adds one new sequence — the paper's "reuse effectiveness
        // of 2×" for same-length sequences.
        let w = path_workload(1_000, 1_000);
        let parts = greedy_partitions(&w, 200 * 1024, 6, 64).unwrap();
        let naive_bytes: u64 = w
            .comparisons
            .iter()
            .map(|c| (w.seqs.seq_len(c.h) + w.seqs.seq_len(c.v)) as u64)
            .sum();
        let unique_bytes: u64 = parts.iter().map(|p| p.seq_bytes).sum();
        let reuse = naive_bytes as f64 / unique_bytes as f64;
        assert!(reuse > 1.8, "reuse factor {reuse}");
    }

    #[test]
    fn star_reuse_is_high() {
        // A hub sequence compared against many leaves: the hub is
        // stored once per partition instead of once per comparison.
        let mut w = Workload::new(Alphabet::Dna);
        let hub = w.seqs.push(vec![0; 1_000]);
        for _ in 0..50 {
            let leaf = w.seqs.push(vec![1; 1_000]);
            w.comparisons
                .push(Comparison::new(hub, leaf, SeedMatch::new(0, 0, 1)));
        }
        let parts = greedy_partitions(&w, 200 * 1024, 6, 64).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].seqs.len(), 51);
        assert_eq!(parts[0].seq_bytes, 51 * 1_000);
    }

    #[test]
    fn tight_budget_many_partitions() {
        let w = path_workload(50, 10_000);
        // Budget fits ~2 sequences + workspaces.
        let budget = mem::tile_bytes(0, 0, 6, 64) + 25_000;
        let parts = greedy_partitions(&w, budget, 6, 64).unwrap();
        assert!(parts.len() >= 24, "got {} partitions", parts.len());
    }

    #[test]
    fn oversized_comparison_is_a_typed_error() {
        let w = path_workload(3, 1_000_000);
        let err = greedy_partitions(&w, 64 * 1024, 6, 64).unwrap_err();
        // The smallest offending index is reported even though every
        // comparison is oversized.
        match err {
            PartitionError::OversizedComparison {
                comparison,
                needed_bytes,
                budget_bytes,
            } => {
                assert_eq!(comparison, 0);
                assert_eq!(budget_bytes, 64 * 1024);
                assert!(needed_bytes > 2_000_000);
            }
        }
    }

    #[test]
    fn self_comparison_counts_sequence_once() {
        let mut w = Workload::new(Alphabet::Dna);
        let a = w.seqs.push(vec![0; 1_000]);
        w.comparisons
            .push(Comparison::new(a, a, SeedMatch::new(0, 0, 1)));
        let parts = greedy_partitions(&w, 64 * 1024, 6, 64).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].seq_bytes, 1_000);
        assert_eq!(parts[0].seqs, vec![a]);
    }

    #[test]
    fn empty_workload_no_partitions() {
        let w = Workload::new(Alphabet::Dna);
        assert!(greedy_partitions(&w, 64 * 1024, 6, 64).unwrap().is_empty());
    }
}
