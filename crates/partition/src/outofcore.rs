//! The out-of-core (windowed) host pipeline.
//!
//! [`crate::pipeline::run_pipeline`] holds the whole workload —
//! every sequence payload — in memory for the duration of the run.
//! At paper scale (millions of comparisons, §6) that is gigabytes of
//! host RAM for bytes the aligner touches exactly once. This module
//! runs the same pipeline over a *stream of windows*: self-contained
//! sub-workloads (a few thousand comparisons plus only the payloads
//! they reference) produced by a bounded-memory generator such as
//! `seqdata`'s `Dataset::windows`.
//!
//! The split of responsibilities:
//!
//! * **Planning is metadata-only.** Batch planning and graph
//!   partitioning read sequence *lengths* and the comparison list,
//!   never payload bytes ([`ipu_sim::exec::planning_units`] and both
//!   planners), so a lengths-only skeleton workload
//!   ([`xdrop_core::workload::Workload::skeleton`]) drives them
//!   byte-identically to the resident pool.
//! * **The partitioner front end streams.** [`GraphStitcher`] builds
//!   the CSR comparison graph from comparison windows in two
//!   streaming passes (count, then scatter) producing exactly the
//!   arrays [`ComparisonGraph::build`] would; [`ComponentStitcher`]
//!   folds each window into the sharded walk's union-find, whose
//!   canonical min-id labeling is invariant to how the edge list is
//!   chunked. [`sharded_partitions_windowed`] is therefore
//!   bit-identical to [`sharded_partitions`] for *any* window size.
//! * **Execution is per-window.** Alignment results depend only on
//!   the two payloads and the seed, so executing each window's local
//!   workload and remapping its unit/result slots by the window's
//!   comparison base reconstructs the whole-input
//!   [`ExecOutput`] slot for slot. Windows execute in order on the
//!   shared pool; generation runs ahead on a producer thread behind
//!   a bounded channel, so at most `in_flight + 1` windows of
//!   payload are ever resident.
//! * **The cluster model is unchanged.** The scheduler consumes the
//!   reconstructed units and the skeleton-planned batches, so every
//!   [`ClusterReport`] field is bit-identical to the in-core run.
//!
//! Peak residency: `O(window)` payload bytes plus `O(n)` *metadata*
//! (comparisons, lengths, work units) — the latter is ~25× smaller
//! per comparison than the payloads it replaces (see DESIGN.md §13).

use crate::error::{PartitionError, PipelineError, WindowStreamError};
use crate::graph::ComparisonGraph;
use crate::greedy::{comparison_fit_error, Partition};
use crate::pipeline::{replay_and_assemble, PipelineConfig, PipelineOutput};
use crate::plan::plan_batches_timed;
use crate::shard::{
    finalize_reps, union_comparisons, walk_shards, DEFAULT_SHARD_COUNT, SHARD_MIN_COMPARISONS,
};
use ipu_sim::exec::{execute_workload, planning_units, ExecOutput, UnitResult, WorkUnit};
use ipu_sim::fault::FaultPlan;
use ipu_sim::spec::IpuSpec;
use std::sync::atomic::AtomicU32;
use std::sync::mpsc;
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::{Comparison, SeqId, Workload};

/// One self-contained slice of a workload: a local [`Workload`]
/// whose sequence slots map to global ids through `seq_ids`, holding
/// the comparisons `cmp_base .. cmp_base + workload.comparisons.len()`
/// of the global comparison list (with ids rewritten local).
///
/// This mirrors `seqdata`'s `Window` without depending on the
/// generator crate — any bounded-memory producer can feed the
/// windowed pipeline.
#[derive(Debug, Clone)]
pub struct WorkloadWindow {
    /// Global index of the window's first comparison.
    pub cmp_base: usize,
    /// Global [`SeqId`] of each local sequence slot.
    pub seq_ids: Vec<SeqId>,
    /// The window's comparisons over locally-resident payloads.
    pub workload: Workload,
}

/// Chops an in-core workload into [`WorkloadWindow`]s of `target`
/// comparisons (the last may be short). The differential oracle for
/// the windowed pipeline — and a convenient adapter when the data
/// already fits in memory.
pub fn windows_of(w: &Workload, target: usize) -> Vec<WorkloadWindow> {
    let target = target.max(1);
    let mut out = Vec::new();
    let mut cmp_base = 0;
    while cmp_base < w.comparisons.len() {
        let hi = (cmp_base + target).min(w.comparisons.len());
        let mut seq_ids: Vec<SeqId> = Vec::new();
        let mut local: std::collections::HashMap<SeqId, SeqId> = std::collections::HashMap::new();
        let mut lw = Workload::new(w.seqs.alphabet);
        for c in &w.comparisons[cmp_base..hi] {
            for gid in [c.h, c.v] {
                if let std::collections::hash_map::Entry::Vacant(e) = local.entry(gid) {
                    let lid = lw.seqs.push(w.seqs.get(gid).to_vec());
                    seq_ids.push(gid);
                    e.insert(lid);
                }
            }
            lw.comparisons
                .push(Comparison::new(local[&c.h], local[&c.v], c.seed));
        }
        out.push(WorkloadWindow {
            cmp_base,
            seq_ids,
            workload: lw,
        });
        cmp_base = hi;
    }
    out
}

/// Streaming connected components: absorbs comparison windows into
/// the sharded walk's parallel union-find. Union-find state
/// composes — the quiescent parent forest (larger root linked under
/// smaller) does not depend on how the edge list was chunked — so
/// [`ComponentStitcher::finish`] returns exactly
/// [`crate::shard::connected_components`]' labels for any window
/// size and any thread count.
pub struct ComponentStitcher {
    parents: Vec<AtomicU32>,
}

impl ComponentStitcher {
    /// A stitcher over `n_seqs` vertices, all initially isolated.
    pub fn new(n_seqs: usize) -> Self {
        Self {
            parents: (0..n_seqs as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Folds one window of comparisons into the component forest
    /// (`host_threads` pool threads, `0` = auto).
    pub fn absorb(&self, comparisons: &[Comparison], host_threads: usize) {
        union_comparisons(&self.parents, comparisons, host_threads);
    }

    /// Canonical per-vertex component representatives (the minimum
    /// vertex id of each component).
    pub fn finish(&self) -> Vec<SeqId> {
        finalize_reps(&self.parents)
    }
}

/// Streaming CSR builder, pass 1: per-vertex degree counting over
/// comparison windows. [`GraphStitcher::into_scatter`] turns the
/// histogram into offsets for pass 2.
pub struct GraphStitcher {
    degree: Vec<u32>,
}

impl GraphStitcher {
    /// A builder over `n_seqs` vertices.
    pub fn new(n_seqs: usize) -> Self {
        Self {
            degree: vec![0u32; n_seqs],
        }
    }

    /// Counts one window of comparisons (both endpoints, self-loops
    /// once — exactly as [`ComparisonGraph::build`]).
    pub fn count(&mut self, comparisons: &[Comparison]) {
        for c in comparisons {
            self.degree[c.h as usize] += 1;
            if c.h != c.v {
                self.degree[c.v as usize] += 1;
            }
        }
    }

    /// Seals the degree pass and prepares the scatter pass.
    pub fn into_scatter(self) -> GraphScatter {
        let n = self.degree.len();
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + self.degree[i];
        }
        let cursor = offsets[..n].to_vec();
        let edges = vec![(0u32, 0u32); offsets[n] as usize];
        GraphScatter {
            offsets,
            cursor,
            edges,
            next_ci: 0,
        }
    }
}

/// Streaming CSR builder, pass 2: scatters each window's edges into
/// their final slots. Windows must be replayed in the same order as
/// the count pass; comparison indices are assigned sequentially, so
/// the finished arrays are bit-identical to the in-core build.
pub struct GraphScatter {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    edges: Vec<(SeqId, u32)>,
    next_ci: u32,
}

impl GraphScatter {
    /// Scatters one window of comparisons.
    pub fn scatter(&mut self, comparisons: &[Comparison]) {
        for c in comparisons {
            let ci = self.next_ci;
            self.next_ci += 1;
            self.edges[self.cursor[c.h as usize] as usize] = (c.v, ci);
            self.cursor[c.h as usize] += 1;
            if c.h != c.v {
                self.edges[self.cursor[c.v as usize] as usize] = (c.h, ci);
                self.cursor[c.v as usize] += 1;
            }
        }
    }

    /// The finished graph.
    pub fn finish(self) -> ComparisonGraph {
        ComparisonGraph::from_parts(self.offsets, self.edges, self.next_ci as usize)
    }
}

/// [`sharded_partitions`](crate::shard::sharded_partitions) with the
/// graph build and component labeling streamed over comparison
/// windows of `window` comparisons instead of consuming the list
/// whole. Bit-identical to the whole-input walk for any `window`
/// (including 1 and ≥ the comparison count) and any `host_threads`.
///
/// `w` may be a skeleton workload — only lengths and comparisons are
/// read.
#[allow(clippy::too_many_arguments)]
pub fn sharded_partitions_windowed(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
    max_load: Option<u64>,
    shards: usize,
    host_threads: usize,
    window: usize,
) -> Result<Vec<Partition>, PartitionError> {
    if let Some(e) = comparison_fit_error(w, budget_bytes, threads, delta_b) {
        return Err(e);
    }
    let n = w.seqs.len();
    let m = w.comparisons.len();
    let window = window.max(1);
    let k = if shards == 0 {
        if m < SHARD_MIN_COMPARISONS {
            1
        } else {
            DEFAULT_SHARD_COUNT
        }
    } else {
        shards
    };
    // Streamed CSR build: count pass, then scatter pass, folding the
    // union-find along with the counts so the comparison list is
    // walked twice and never needed whole (here windows are chunks
    // of the already-resident metadata; the real out-of-core entry
    // point streams the same chunks from the generator).
    let mut stitch = GraphStitcher::new(n);
    let comps = ComponentStitcher::new(n);
    for chunk in w.comparisons.chunks(window) {
        stitch.count(chunk);
        comps.absorb(chunk, host_threads);
    }
    let mut scatter = stitch.into_scatter();
    for chunk in w.comparisons.chunks(window) {
        scatter.scatter(chunk);
    }
    let g = scatter.finish();
    let reps = comps.finish();
    Ok(walk_shards(
        w,
        &g,
        &reps,
        k,
        budget_bytes,
        threads,
        delta_b,
        max_load,
        host_threads,
    ))
}

/// Runs the full pipeline out-of-core: batches are planned from the
/// lengths-only `skeleton`, windows are executed in order as the
/// producer iterator yields them (at most `in_flight` windows
/// buffered ahead of the one executing), and the reconstructed
/// global units feed the unchanged cluster model. Every output field
/// — and, when the run fails, the error — is identical to
/// [`crate::pipeline::run_pipeline`] on the in-core workload the
/// windows concatenate to.
///
/// `skeleton` must cover the same sequences and comparisons as the
/// window stream ([`xdrop_core::workload::Workload::skeleton`];
/// a full resident workload works too — only metadata is read). The
/// windows must tile the skeleton's comparisons in order; a gap, an
/// overlap or a wrong total is a [`PipelineError::Window`], surfaced
/// in stream order alongside the alignment errors.
pub fn run_pipeline_out_of_core<S, I>(
    skeleton: &Workload,
    windows: I,
    scorer: &S,
    spec: &IpuSpec,
    cfg: &PipelineConfig,
    in_flight: usize,
) -> Result<PipelineOutput, PipelineError>
where
    S: Scorer + Sync,
    I: Iterator<Item = WorkloadWindow> + Send,
{
    let n = skeleton.comparisons.len();
    let upc = if cfg.exec.lr_split { 2 } else { 1 };

    // Plan from metadata alone — identical batches to the in-core
    // plan (planning_units reads lengths and seeds only). Planning
    // first lets the planning units go before any payload arrives; a
    // plan error still waits for execution, which fails first in
    // stage order.
    let punits = planning_units(skeleton, cfg.exec.lr_split);
    let planned = plan_batches_timed(skeleton, &punits, spec, &cfg.plan);
    drop(punits);

    // Execute windows in order; generation runs ahead on a producer
    // thread behind a bounded channel (`in_flight` slots), so peak
    // payload residency is the executing window plus the buffer.
    let mut units = vec![WorkUnit::default(); n * upc];
    let mut results = vec![UnitResult::default(); n];
    let mut exec_err: Option<PipelineError> = None;
    let mut seen = 0usize;
    let (tx, rx) = mpsc::sync_channel::<WorkloadWindow>(in_flight.max(1));
    crossbeam::thread::scope(|s| {
        s.spawn(move |_| {
            for w in windows {
                if tx.send(w).is_err() {
                    return; // consumer bailed: stop generating
                }
            }
        });
        // Windows run in order, so the first failing window holds
        // the globally smallest failing comparison — the same one the
        // in-core executor blames. The loop owns the receiver, so
        // breaking out of it unblocks the producer.
        for win in rx {
            let wn = win.workload.comparisons.len();
            if let Err(e) = check_window(win.cmp_base, wn, seen, n) {
                exec_err = Some(e.into());
                break;
            }
            match execute_workload(&win.workload, scorer, &cfg.exec) {
                Ok(out) => {
                    results[seen..seen + wn].copy_from_slice(&out.results);
                    for (slot, mut u) in out.units.into_iter().enumerate() {
                        u.cmp += seen as u32;
                        units[seen * upc + slot] = u;
                    }
                }
                Err(e) => {
                    exec_err = Some(e.into());
                    break;
                }
            }
            seen += wn;
        }
    })
    .expect("scope");
    if let Some(e) = exec_err {
        return Err(e);
    }
    if seen != n {
        return Err(WindowStreamError::WrongTotal {
            covered: seen,
            total: n,
        }
        .into());
    }
    let (batches, timings) = planned?;
    replay_and_assemble(
        ExecOutput { units, results },
        batches,
        &timings,
        spec,
        cfg,
        true,
        &FaultPlan::none(),
    )
}

/// Checks that a window of `len` comparisons starting at `cmp_base`
/// continues a stream that has covered `0..seen` of `total`.
fn check_window(
    cmp_base: usize,
    len: usize,
    seen: usize,
    total: usize,
) -> Result<(), WindowStreamError> {
    if cmp_base != seen {
        return Err(WindowStreamError::Misplaced {
            expected: seen,
            found: cmp_base,
        });
    }
    if seen + len > total {
        return Err(WindowStreamError::WrongTotal {
            covered: seen + len,
            total,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use crate::plan::PlanConfig;
    use crate::shard::{connected_components, sharded_partitions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::xdrop2::BandPolicy;

    /// Clustered alignable workload: groups compared all-pairs, with
    /// real DNA payloads so the pipeline can align them.
    fn workload(groups: usize, size: usize) -> Workload {
        let mut rng = StdRng::seed_from_u64(77);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..groups {
            let base = w.seqs.len() as u32;
            let root: Vec<u8> = (0..300).map(|_| rng.gen_range(0..4)).collect();
            for _ in 0..size {
                let mut m = root.clone();
                for b in m.iter_mut() {
                    if rng.gen_bool(0.05) {
                        *b = (*b + 1) % 4;
                    }
                }
                let pos = 140;
                m[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
                w.seqs.push(m);
            }
            for i in 0..size as u32 {
                for j in i + 1..size as u32 {
                    w.comparisons.push(Comparison::new(
                        base + i,
                        base + j,
                        SeedMatch::new(140, 140, 17),
                    ));
                }
            }
        }
        w
    }

    fn skeleton_of(w: &Workload) -> Workload {
        let lens: Vec<u32> = (0..w.seqs.len() as u32)
            .map(|i| w.seqs.seq_len(i) as u32)
            .collect();
        Workload::skeleton(w.seqs.alphabet, lens, w.comparisons.clone())
    }

    #[test]
    fn stitched_components_match_whole_input() {
        let w = workload(9, 5);
        let oracle = connected_components(&w, 1);
        for window in [1usize, 7, 1_000_000] {
            for threads in [1usize, 4, 8] {
                let st = ComponentStitcher::new(w.seqs.len());
                for chunk in w.comparisons.chunks(window) {
                    st.absorb(chunk, threads);
                }
                assert_eq!(st.finish(), oracle, "window {window} threads {threads}");
            }
        }
    }

    #[test]
    fn stitched_graph_matches_whole_input() {
        let w = workload(6, 6);
        let oracle = ComparisonGraph::build(&w);
        for window in [1usize, 13, 1_000_000] {
            let mut st = GraphStitcher::new(w.seqs.len());
            for chunk in w.comparisons.chunks(window) {
                st.count(chunk);
            }
            let mut sc = st.into_scatter();
            for chunk in w.comparisons.chunks(window) {
                sc.scatter(chunk);
            }
            assert_eq!(sc.finish(), oracle, "window {window}");
        }
    }

    #[test]
    fn windowed_partitions_match_whole_input() {
        let w = workload(12, 6);
        for shards in [1usize, 4] {
            let oracle =
                sharded_partitions(&w, 150 * 1024, 6, 64, Some(50_000), shards, 1).unwrap();
            for window in [1usize, 29, 1_000_000] {
                for threads in [1usize, 8] {
                    let parts = sharded_partitions_windowed(
                        &w,
                        150 * 1024,
                        6,
                        64,
                        Some(50_000),
                        shards,
                        threads,
                        window,
                    )
                    .unwrap();
                    assert_eq!(parts, oracle, "shards {shards} window {window} t {threads}");
                }
            }
        }
    }

    #[test]
    fn windowed_partitions_work_on_a_skeleton() {
        let w = workload(12, 6);
        let sk = skeleton_of(&w);
        let oracle = sharded_partitions(&w, 150 * 1024, 6, 64, None, 4, 1).unwrap();
        let parts = sharded_partitions_windowed(&sk, 150 * 1024, 6, 64, None, 4, 4, 37).unwrap();
        assert_eq!(parts, oracle);
    }

    fn cfg(threads: usize) -> PipelineConfig {
        let mut c = PipelineConfig::new(15);
        c.exec.policy = BandPolicy::Grow(64);
        c.exec.host_threads = threads;
        c.plan = PlanConfig::partitioned(64).with_min_batches(4);
        c.devices = 3;
        c.collect_trace = true;
        c
    }

    #[test]
    fn out_of_core_pipeline_is_bit_identical_to_in_core() {
        let w = workload(8, 4);
        let sk = skeleton_of(&w);
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let oracle = run_pipeline(&w, &sc, &spec, &cfg(1)).unwrap();
        for window in [1usize, 9, 1_000_000] {
            for threads in [1usize, 4, 8] {
                for in_flight in [1usize, 4] {
                    let windows = windows_of(&w, window);
                    let out = run_pipeline_out_of_core(
                        &sk,
                        windows.into_iter(),
                        &sc,
                        &spec,
                        &cfg(threads),
                        in_flight,
                    )
                    .unwrap();
                    let tag = format!("window {window} threads {threads} if {in_flight}");
                    assert_eq!(out.exec.units, oracle.exec.units, "{tag}");
                    assert_eq!(out.exec.results, oracle.exec.results, "{tag}");
                    assert_eq!(out.batches, oracle.batches, "{tag}");
                    assert_eq!(out.report, oracle.report, "{tag}");
                }
            }
        }
    }

    #[test]
    fn out_of_core_errors_blame_smallest_comparison() {
        let mut w = workload(4, 4);
        // Force a band failure on every comparison; the windowed path
        // must blame the same (smallest) one for any window size.
        let sc = MatchMismatch::dna_default();
        let spec = IpuSpec::gc200();
        let mut c = cfg(4);
        c.exec.policy = BandPolicy::Exact(1);
        c.exec.params = xdrop_core::XDropParams::new(1000);
        w.comparisons.truncate(6);
        let sk = skeleton_of(&w);
        for window in [1usize, 4] {
            let windows = windows_of(&w, window);
            let err =
                run_pipeline_out_of_core(&sk, windows.into_iter(), &sc, &spec, &c, 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    PipelineError::Align(xdrop_core::error::AlignError::BandExceeded { .. })
                ),
                "window {window}: {err}"
            );
        }
    }
}
