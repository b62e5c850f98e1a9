//! The comparison graph: sequences as vertices, seed extensions as
//! edges.
//!
//! ELBA and PASTIS both materialize a sparse |sequences| ×
//! |sequences| overlap matrix; the paper reinterprets it as an
//! adjacency matrix (§5.3). Here the graph is built straight from a
//! [`Workload`]'s comparison list — the same information — as a CSR
//! structure supporting the vertex-major edge walk of the greedy
//! partitioner. Parallel edges (several seeds for one sequence pair)
//! are kept: each is a distinct unit of work.

use ipu_sim::pool::{self, resolve_threads, Claim, Order, SharedSlots};
use std::convert::Infallible;
use xdrop_core::workload::{SeqId, Workload};

/// Below this many comparisons the parallel build falls back to the
/// serial one: the graph fits in cache and thread startup dominates.
const PARALLEL_BUILD_MIN_COMPARISONS: usize = 1 << 14;

/// CSR adjacency over sequences; edge payloads are comparison
/// indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonGraph {
    /// CSR row offsets, length `n_vertices + 1`.
    offsets: Vec<u32>,
    /// Flattened incident lists: `(neighbour, comparison index)`.
    edges: Vec<(SeqId, u32)>,
    /// Number of comparisons the graph was built from.
    n_comparisons: usize,
}

impl ComparisonGraph {
    /// Builds the graph from a workload. Every comparison appears in
    /// the incident list of *both* endpoints (an undirected
    /// multigraph); self-comparisons appear once.
    pub fn build(w: &Workload) -> Self {
        let n = w.seqs.len();
        let mut degree = vec![0u32; n];
        for c in &w.comparisons {
            degree[c.h as usize] += 1;
            if c.h != c.v {
                degree[c.v as usize] += 1;
            }
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut edges = vec![(0u32, 0u32); offsets[n] as usize];
        let mut cursor = offsets[..n].to_vec();
        for (ci, c) in w.comparisons.iter().enumerate() {
            let e = (c.v, ci as u32);
            edges[cursor[c.h as usize] as usize] = e;
            cursor[c.h as usize] += 1;
            if c.h != c.v {
                let e = (c.h, ci as u32);
                edges[cursor[c.v as usize] as usize] = e;
                cursor[c.v as usize] += 1;
            }
        }
        Self {
            offsets,
            edges,
            n_comparisons: w.comparisons.len(),
        }
    }

    /// Assembles a graph from pre-built CSR arrays — the back end of
    /// the windowed builder in [`crate::outofcore`], which produces
    /// exactly the arrays [`ComparisonGraph::build`] would.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        edges: Vec<(SeqId, u32)>,
        n_comparisons: usize,
    ) -> Self {
        Self {
            offsets,
            edges,
            n_comparisons,
        }
    }

    /// [`ComparisonGraph::build`] parallelized over `host_threads`
    /// pool threads (`0` = auto).
    ///
    /// The comparison list is cut into contiguous chunks; each chunk
    /// gets a private degree histogram (chunks claimed on
    /// [`pool::steal`]), the histograms are combined into the global
    /// CSR offsets by an exclusive prefix sum — per vertex, *and*
    /// across chunks in chunk order — and each chunk then scatters
    /// its edges into [`SharedSlots`] starting at its per-vertex
    /// write base. Because chunk order equals comparison order, every
    /// edge lands in exactly the slot the serial build would have
    /// used: the result is bit-identical for any thread count and
    /// any claim interleaving.
    pub fn build_parallel(w: &Workload, host_threads: usize) -> Self {
        let n = w.seqs.len();
        let m = w.comparisons.len();
        let threads = resolve_threads(host_threads).min(m.max(1));
        if threads <= 1 || m < PARALLEL_BUILD_MIN_COMPARISONS {
            return Self::build(w);
        }
        // More chunks than threads so a skewed chunk (hub vertices)
        // cannot straggle the whole phase.
        let n_chunks = (threads * 4).min(m);
        let chunk_len = m.div_ceil(n_chunks);
        let chunk_range = |c: usize| ((c * chunk_len).min(m), ((c + 1) * chunk_len).min(m));

        // Phase 1: per-chunk degree histograms.
        let Ok(hist) = pool::steal(
            n_chunks,
            Order::Ascending,
            1,
            threads,
            SharedSlots::new(n_chunks, 1, Vec::new()),
            || (),
            |(), claim: &mut Claim<'_, _, Infallible>| {
                for &c in claim.tasks() {
                    let (lo, hi) = chunk_range(c as usize);
                    let mut h = vec![0u32; n];
                    for cmp in &w.comparisons[lo..hi] {
                        h[cmp.h as usize] += 1;
                        if cmp.h != cmp.v {
                            h[cmp.v as usize] += 1;
                        }
                    }
                    claim.slot(c)[0] = h;
                }
            },
        );
        let mut hist = hist.into_vec();

        // Phase 2 (serial, O(chunks × n)): exclusive prefix sum over
        // (vertex, chunk). Each chunk's histogram is rewritten in
        // place into its per-vertex write base.
        let mut offsets = vec![0u32; n + 1];
        let mut total = 0u32;
        for v in 0..n {
            offsets[v] = total;
            for h in hist.iter_mut() {
                let count = h[v];
                h[v] = total;
                total += count;
            }
        }
        offsets[n] = total;

        // Phase 3: parallel scatter into slots keyed by edge
        // position; every slot is written exactly once (bases are
        // disjoint by construction) and the pool's join provides the
        // happens-before for the read below.
        let edges = SharedSlots::<(SeqId, u32)>::new(total as usize, 1, (0, 0));
        let Ok(()) = pool::steal(
            n_chunks,
            Order::Ascending,
            1,
            threads,
            (),
            || (),
            |(), claim: &mut Claim<'_, (), Infallible>| {
                for &c in claim.tasks() {
                    let (lo, hi) = chunk_range(c as usize);
                    let mut cursor = hist[c as usize].clone();
                    for (ci, cmp) in w.comparisons[lo..hi].iter().enumerate() {
                        let ci = (lo + ci) as u32;
                        // SAFETY: cursor slots of this chunk are
                        // disjoint from every other chunk's; each
                        // advances monotonically within its reserved
                        // span.
                        unsafe {
                            edges.write(cursor[cmp.h as usize] as usize, (cmp.v, ci));
                        }
                        cursor[cmp.h as usize] += 1;
                        if cmp.h != cmp.v {
                            unsafe {
                                edges.write(cursor[cmp.v as usize] as usize, (cmp.h, ci));
                            }
                            cursor[cmp.v as usize] += 1;
                        }
                    }
                }
            },
        );

        Self {
            offsets,
            edges: edges.into_vec(),
            n_comparisons: m,
        }
    }

    /// Number of vertices (sequences).
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of comparisons (edges, counting parallel edges).
    pub fn n_edges(&self) -> usize {
        self.n_comparisons
    }

    /// Incident `(neighbour, comparison)` list of vertex `v`.
    pub fn neighbours(&self, v: SeqId) -> &[(SeqId, u32)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Degree of vertex `v` (incident comparisons).
    pub fn degree(&self, v: SeqId) -> usize {
        self.neighbours(v).len()
    }

    /// Mean degree — the reuse potential the partitioner exploits.
    pub fn mean_degree(&self) -> f64 {
        if self.n_vertices() == 0 {
            return 0.0;
        }
        self.edges.len() as f64 / self.n_vertices() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::workload::Comparison;

    fn triangle() -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..3 {
            w.seqs.push(vec![0; 10]);
        }
        let s = SeedMatch::new(0, 0, 1);
        w.comparisons.push(Comparison::new(0, 1, s));
        w.comparisons.push(Comparison::new(1, 2, s));
        w.comparisons.push(Comparison::new(0, 2, s));
        w
    }

    #[test]
    fn triangle_degrees() {
        let g = ComparisonGraph::build(&triangle());
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_kept() {
        let mut w = triangle();
        // Second seed between 0 and 1.
        w.comparisons
            .push(Comparison::new(0, 1, SeedMatch::new(2, 2, 1)));
        let g = ComparisonGraph::build(&w);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn self_loop_counted_once() {
        let mut w = Workload::new(Alphabet::Dna);
        w.seqs.push(vec![0; 10]);
        w.comparisons
            .push(Comparison::new(0, 0, SeedMatch::new(0, 0, 1)));
        let g = ComparisonGraph::build(&w);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbours(0), &[(0, 0)]);
    }

    #[test]
    fn neighbour_payloads_are_comparison_indices() {
        let g = ComparisonGraph::build(&triangle());
        let mut cis: Vec<u32> = g.neighbours(0).iter().map(|&(_, ci)| ci).collect();
        cis.sort_unstable();
        assert_eq!(cis, vec![0, 2]);
    }

    #[test]
    fn empty_graph() {
        let w = Workload::new(Alphabet::Dna);
        let g = ComparisonGraph::build(&w);
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    /// A messy workload big enough to clear the parallel threshold:
    /// hubs, self-loops, parallel edges, isolated vertices.
    fn messy(n_seqs: usize, m: usize) -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..n_seqs {
            w.seqs.push(vec![0; 8]);
        }
        let mut state = 0x2545F491u64;
        let mut next = |bound: usize| {
            // xorshift — deterministic, no rand dependency needed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        let s = SeedMatch::new(0, 0, 1);
        for i in 0..m {
            let h = next(n_seqs);
            // Mix of hub edges, self-loops, and repeats.
            let v = match i % 7 {
                0 => 0,            // hub
                1 => h,            // self-loop
                _ => next(n_seqs), // random
            };
            w.comparisons.push(Comparison::new(h, v, s));
        }
        w
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        let w = messy(500, super::PARALLEL_BUILD_MIN_COMPARISONS + 1_000);
        let serial = ComparisonGraph::build(&w);
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                ComparisonGraph::build_parallel(&w, threads),
                serial,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn small_workload_falls_back_to_serial() {
        let w = triangle();
        assert_eq!(
            ComparisonGraph::build_parallel(&w, 8),
            ComparisonGraph::build(&w)
        );
    }
}
