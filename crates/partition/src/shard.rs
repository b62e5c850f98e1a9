//! Sharded parallel execution of the greedy edge walk.
//!
//! The walk in [`crate::greedy`] is inherently sequential — each
//! edge's memory cost depends on which sequences the current
//! partition already holds. To scale it with host cores without
//! giving up determinism, the vertex axis is cut into contiguous
//! *vertex-range shards* and the walk runs independently per shard:
//! a shard walks its own vertices in ascending id order and claims
//! every incident edge whose other endpoint is not below the range
//! (those belong to an earlier shard), so the global edge set is
//! partitioned exactly by the shard of each edge's smaller endpoint.
//! Shard results are concatenated in shard order.
//!
//! Shard boundaries are *discovered via connected components*: a
//! parallel union-find (atomic CAS linking the larger root under the
//! smaller, so the final representative of every component is its
//! minimum vertex id regardless of interleaving) labels the
//! components, and the boundary scan prefers cuts no component
//! spans — then no sequence is ever resident in two shards and the
//! result has exactly the serial walk's transfer bytes. When one
//! giant component spans everything (the usual shape of a long-read
//! overlap graph), cuts fall back to balanced edge-count quantiles
//! and the small reuse loss from cross-shard sequence duplication is
//! *measured* by the `experiments partition` benchmark rather than
//! assumed away.
//!
//! Determinism: the CSR ([`ComparisonGraph::build`], serial), the
//! component labels, and the boundary scan are all bit-stable for
//! any thread count — the union-find and the per-shard walks are the
//! parallel parts — and shards only ever run whole, into slots keyed
//! by shard index. The shard count is therefore the *only* knob that
//! changes output — and one shard is byte-for-byte the serial walk,
//! kept as the differential oracle.

use crate::error::PartitionError;
use crate::graph::ComparisonGraph;
use crate::greedy::{comparison_fit_error, walk_range, Partition};
use ipu_sim::pool::{self, resolve_threads, Claim, Order, SharedSlots};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, Ordering};
use xdrop_core::workload::{SeqId, Workload};

/// Shard count used when the caller passes `0`; chosen so the walk
/// parallelizes past 8 host threads while keeping boundary effects
/// (a handful of duplicated sequences per cut) negligible against
/// paper-scale workloads.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// Workloads below this many comparisons run as a single shard under
/// the default shard count: the serial walk is already sub-millisecond
/// there and boundary effects would be all that sharding adds.
pub const SHARD_MIN_COMPARISONS: usize = 1 << 14;

/// Comparisons claimed per [`pool::steal`] grab during union-find.
const UNION_GRAIN: usize = 1 << 10;

/// Finds the root of `x` with path halving. Parent pointers only
/// ever decrease (links go larger-root → smaller-root), so relaxed
/// ordering suffices: a stale read just costs another hop.
fn find(parents: &[AtomicU32], mut x: u32) -> u32 {
    loop {
        let p = parents[x as usize].load(Ordering::Relaxed);
        if p == x {
            return x;
        }
        let gp = parents[p as usize].load(Ordering::Relaxed);
        if gp != p {
            // Path halving; losing the race is harmless.
            let _ =
                parents[x as usize].compare_exchange(p, gp, Ordering::Relaxed, Ordering::Relaxed);
        }
        x = p;
    }
}

/// Unites the components of `a` and `b`, always linking the larger
/// root under the smaller. Retries until both sides agree, so at
/// quiescence every component's root is its minimum vertex id — a
/// canonical labeling no interleaving can change.
fn union(parents: &[AtomicU32], a: u32, b: u32) {
    loop {
        let ra = find(parents, a);
        let rb = find(parents, b);
        if ra == rb {
            return;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        if parents[hi as usize]
            .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
    }
}

/// Labels every vertex with its connected component's representative
/// — the minimum vertex id of the component — using a parallel
/// union-find over the comparison list (`host_threads` pool threads,
/// `0` = auto). The labeling is identical for any thread count.
pub fn connected_components(w: &Workload, host_threads: usize) -> Vec<SeqId> {
    let parents: Vec<AtomicU32> = (0..w.seqs.len() as u32).map(AtomicU32::new).collect();
    let Ok(()) = pool::steal(
        w.comparisons.len(),
        Order::Ascending,
        UNION_GRAIN,
        resolve_threads(host_threads),
        (),
        || (),
        |(), claim: &mut Claim<'_, (), Infallible>| {
            for &ci in claim.tasks() {
                let c = &w.comparisons[ci as usize];
                union(&parents, c.h, c.v);
            }
        },
    );
    // Serial finalize: parents always point strictly downward, so one
    // ascending pass resolves every chain (reps of smaller ids are
    // final by the time they are read).
    let mut reps = vec![0 as SeqId; parents.len()];
    for v in 0..parents.len() {
        let p = parents[v].load(Ordering::Relaxed) as usize;
        reps[v] = if p == v { v as SeqId } else { reps[p] };
    }
    reps
}

/// Contiguous vertex-range shards: shard `s` owns vertices
/// `bounds[s]..bounds[s + 1]` (and every edge whose smaller endpoint
/// lies in that range).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Range boundaries; `bounds[0] == 0`, last element is the
    /// vertex count, length is `shards + 1`.
    pub bounds: Vec<SeqId>,
}

impl ShardPlan {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the plan is the trivial single shard.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }
}

/// Cuts the vertex axis into at most `shards` ranges of roughly
/// equal *owned-edge* count, preferring boundaries no connected
/// component spans (`reps` from [`connected_components`]).
///
/// A cut before vertex `v` is *clean* when every component touching
/// `0..v` ends below `v` — then no edge crosses it and no sequence is
/// duplicated across it. Once a shard reaches its (remaining-based)
/// edge target the scan keeps extending it a bounded amount while
/// hunting for a clean cut; inside one giant component the fallback
/// is the plain quantile cut.
pub fn discover_shards(
    w: &Workload,
    g: &ComparisonGraph,
    reps: &[SeqId],
    shards: usize,
) -> ShardPlan {
    let n = w.seqs.len();
    let m = w.comparisons.len();
    let k = shards.clamp(1, n.max(1));
    if k == 1 || m == 0 {
        return ShardPlan {
            bounds: vec![0, n as SeqId],
        };
    }
    // Highest vertex id in each component (indexed by representative).
    let mut comp_max = vec![0 as SeqId; n];
    for v in 0..n {
        comp_max[reps[v] as usize] = v as SeqId;
    }
    let mut bounds: Vec<SeqId> = vec![0];
    // Max component end among vertices already scanned: a cut before
    // `v` is clean iff `open_max < v`.
    let mut open_max = 0 as SeqId;
    let mut remaining = m as u64;
    let mut acc = 0u64;
    for v in 0..n {
        let shards_left = (k - (bounds.len() - 1)) as u64;
        if shards_left <= 1 {
            break;
        }
        let target = remaining.div_ceil(shards_left);
        // Owned edges of v: incident edges whose other endpoint is
        // not smaller (parallel edges and self-loops count once each,
        // exactly as the walk claims them).
        let owned = g
            .neighbours(v as SeqId)
            .iter()
            .filter(|&&(u, _)| u >= v as SeqId)
            .count() as u64;
        acc += owned;
        open_max = open_max.max(comp_max[reps[v] as usize]);
        let clean = open_max <= v as SeqId;
        // Extend past the target by up to 25 % hunting for a clean
        // component boundary before cutting mid-component.
        if v + 1 < n && acc >= target && (clean || acc >= target + target / 4) {
            bounds.push((v + 1) as SeqId);
            remaining -= acc;
            acc = 0;
        }
    }
    bounds.push(n as SeqId);
    ShardPlan { bounds }
}

/// The sharded parallel partitioner: bit-identical to
/// [`crate::greedy::greedy_partitions_with_load_cap`] at one shard,
/// independent of `host_threads` always.
///
/// `shards == 0` picks [`DEFAULT_SHARD_COUNT`] (collapsing to one
/// shard below [`SHARD_MIN_COMPARISONS`] comparisons, where the
/// serial walk is already instantaneous); any explicit count is
/// honored as-is. `host_threads == 0` auto-detects.
pub fn sharded_partitions(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
    max_load: Option<u64>,
    shards: usize,
    host_threads: usize,
) -> Result<Vec<Partition>, PartitionError> {
    if let Some(e) = comparison_fit_error(w, budget_bytes, threads, delta_b) {
        return Err(e);
    }
    let n = w.seqs.len() as SeqId;
    let m = w.comparisons.len();
    let k = if shards == 0 {
        if m < SHARD_MIN_COMPARISONS {
            1
        } else {
            DEFAULT_SHARD_COUNT
        }
    } else {
        shards
    };
    let g = ComparisonGraph::build(w);
    if k <= 1 {
        return Ok(walk_range(
            w,
            &g,
            0,
            n,
            budget_bytes,
            threads,
            delta_b,
            max_load,
        ));
    }
    let reps = connected_components(w, host_threads);
    let plan = discover_shards(w, &g, &reps, k);
    let k = plan.len();
    let Ok(parts) = pool::steal(
        k,
        Order::Ascending,
        1,
        resolve_threads(host_threads),
        SharedSlots::new(k, 1, Vec::new()),
        || (),
        |(), claim: &mut Claim<'_, _, Infallible>| {
            for &si in claim.tasks() {
                let (lo, hi) = (plan.bounds[si as usize], plan.bounds[si as usize + 1]);
                claim.slot(si)[0] =
                    walk_range(w, &g, lo, hi, budget_bytes, threads, delta_b, max_load);
            }
        },
    );
    // Concatenate in shard order: output depends on the shard plan
    // only, never on which thread ran which shard.
    Ok(parts.into_vec().into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_partitions_with_load_cap;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::workload::Comparison;

    /// A band workload: `n` sequences, comparisons `(i, i + d)` for
    /// `d ∈ 1..=deg` — the id-local shape of a long-read overlap
    /// graph (one giant component).
    fn band(n: usize, deg: usize, len: usize) -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..n {
            w.seqs.push(vec![0; len]);
        }
        for i in 0..n {
            for d in 1..=deg {
                if i + d < n {
                    w.comparisons.push(Comparison::new(
                        i as u32,
                        (i + d) as u32,
                        SeedMatch::new(0, 0, 1),
                    ));
                }
            }
        }
        w
    }

    /// Disjoint clusters: `groups` all-pairs cliques of `size`.
    fn clusters(groups: usize, size: usize, len: usize) -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..groups {
            let base = w.seqs.len() as u32;
            for _ in 0..size {
                w.seqs.push(vec![0; len]);
            }
            for i in 0..size as u32 {
                for j in i + 1..size as u32 {
                    w.comparisons.push(Comparison::new(
                        base + i,
                        base + j,
                        SeedMatch::new(0, 0, 1),
                    ));
                }
            }
        }
        w
    }

    #[test]
    fn components_label_with_minimum_id() {
        let w = clusters(7, 5, 100);
        for threads in [1usize, 3, 8] {
            let reps = connected_components(&w, threads);
            for (v, &rep) in reps.iter().enumerate() {
                assert_eq!(rep, (v as u32 / 5) * 5, "vertex {v}, threads {threads}");
            }
        }
    }

    #[test]
    fn single_shard_is_bit_identical_to_serial() {
        let w = band(400, 6, 700);
        let serial = greedy_partitions_with_load_cap(&w, 200 * 1024, 6, 64, Some(50_000)).unwrap();
        for threads in [1usize, 3, 8] {
            let sharded =
                sharded_partitions(&w, 200 * 1024, 6, 64, Some(50_000), 1, threads).unwrap();
            assert_eq!(sharded, serial, "threads {threads}");
        }
    }

    #[test]
    fn output_is_thread_count_independent() {
        let w = band(600, 8, 500);
        let oracle = sharded_partitions(&w, 200 * 1024, 6, 64, None, 5, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let out = sharded_partitions(&w, 200 * 1024, 6, 64, None, 5, threads).unwrap();
            assert_eq!(out, oracle, "threads {threads}");
        }
    }

    #[test]
    fn every_comparison_assigned_exactly_once_across_shards() {
        let w = band(500, 9, 400);
        for shards in [1usize, 3, 7, 64] {
            let parts = sharded_partitions(&w, 150 * 1024, 6, 64, None, shards, 4).unwrap();
            let mut seen = vec![0u32; w.comparisons.len()];
            for p in &parts {
                for &ci in &p.comparisons {
                    seen[ci as usize] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "shards {shards}: every comparison exactly once"
            );
        }
    }

    #[test]
    fn clean_cuts_fall_on_component_boundaries() {
        // Disjoint components of 6 vertices each: every cut must land
        // on a multiple of 6, and then no sequence can be resident in
        // two shards — cut-induced duplication is exactly zero.
        let w = clusters(24, 6, 800);
        let g = ComparisonGraph::build(&w);
        let reps = connected_components(&w, 4);
        let plan = discover_shards(&w, &g, &reps, 6);
        assert_eq!(plan.len(), 6);
        for &b in &plan.bounds {
            assert_eq!(b % 6, 0, "cut at {b} splits a component");
        }
        let parts = sharded_partitions(&w, 120 * 1024, 6, 64, None, 6, 4).unwrap();
        for p in &parts {
            let lo = *p.seqs.iter().min().unwrap();
            let hi = *p.seqs.iter().max().unwrap();
            let s = plan.bounds.iter().rposition(|&b| b <= lo).unwrap();
            assert!(hi < plan.bounds[s + 1], "partition spans a shard cut");
        }
    }

    #[test]
    fn default_shard_count_collapses_on_small_workloads() {
        let w = band(300, 4, 600);
        let serial = greedy_partitions_with_load_cap(&w, 200 * 1024, 6, 64, None).unwrap();
        let auto = sharded_partitions(&w, 200 * 1024, 6, 64, None, 0, 8).unwrap();
        assert_eq!(auto, serial);
    }

    #[test]
    fn oversized_comparison_reports_smallest_index() {
        let mut w = band(40, 2, 500);
        // Make comparisons 11 and 5 oversized; 5 must be reported.
        let big = w.seqs.push(vec![0; 10_000_000]);
        w.comparisons[11] = Comparison::new(big, big, SeedMatch::new(0, 0, 1));
        w.comparisons[5] = Comparison::new(big, big, SeedMatch::new(0, 0, 1));
        let err = sharded_partitions(&w, 64 * 1024, 6, 64, None, 4, 8).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::OversizedComparison { comparison: 5, .. }
        ));
    }

    #[test]
    fn discover_shards_balances_owned_edges() {
        let w = band(2_000, 10, 10);
        let g = ComparisonGraph::build(&w);
        let reps = connected_components(&w, 1);
        let plan = discover_shards(&w, &g, &reps, 8);
        assert_eq!(plan.len(), 8);
        let m = w.comparisons.len() as u64;
        for s in 0..plan.len() {
            let owned: u64 = (plan.bounds[s]..plan.bounds[s + 1])
                .map(|v| g.neighbours(v).iter().filter(|&&(u, _)| u >= v).count() as u64)
                .sum();
            // Remaining-based targets with 25 % clean-cut slack keep
            // every shard within a factor ~2 of the ideal.
            assert!(
                owned <= m.div_ceil(8) * 2,
                "shard {s} owns {owned} of {m} edges"
            );
        }
    }
}
