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

use xdrop_core::workload::{SeqId, Workload};

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
}
