//! # xdrop-partition
//!
//! Graph-based sequence partitioning (§4.3 of the paper) plus the
//! batch planner that feeds the IPU simulator.
//!
//! Many-to-many pipelines align each sequence against many others;
//! shipping both sequences with every comparison (the state of the
//! art before the paper) transfers the same bytes over the slow host
//! link again and again. The paper instead treats sequences as the
//! vertices of a *comparison graph* whose edges are the seed
//! extensions, partitions the edges greedily under the tile memory
//! budget, and stores each partition's vertex set **once** per tile
//! — cutting batch counts by ~50 % and improving 32-device strong
//! scaling by up to 3.59×.
//!
//! * [`graph`] — the comparison graph (CSR adjacency).
//! * [`greedy`] — the paper's linear edge-walk partitioner: one
//!   serial walk over the whole graph.
//! * [`plan`] — turns partitions (or the naive layout) into
//!   [`ipu_sim::Batch`]es and reports reuse statistics.
//! * [`pipeline`] — the host pipeline: align → plan → replay →
//!   schedule, the align and replay stages on the work-stealing
//!   pool, bit-identical for any thread count.
//! * [`outofcore`] — the windowed out-of-core pipeline: skeleton
//!   planning with the in-core partitioner, then bounded-residency
//!   window execution, each window checked against the skeleton;
//!   bit-identical to the in-core run for any window size.
//! * [`error`] — typed partitioner/pipeline errors.

pub mod driver;
pub mod error;
pub mod graph;
pub mod greedy;
pub mod outofcore;
pub mod pipeline;
pub mod plan;

pub use driver::{IpuSystem, SystemReport};
pub use error::{PartitionError, PipelineError, WindowStreamError};
pub use graph::ComparisonGraph;
pub use greedy::{greedy_partitions, greedy_partitions_with_load_cap, Partition};
pub use outofcore::{run_pipeline_out_of_core, windows_of, WorkloadWindow};
pub use pipeline::{plan_stage, run_pipeline, run_pipeline_faulty, PipelineConfig, PipelineOutput};
pub use plan::{plan_batches, reuse_stats, PlanConfig, ReuseStats};

use xdrop_core::workload::Workload;

/// [`greedy_partitions_with_load_cap`]; the last two arguments (a
/// shard count and a host thread count) are ignored. Kept for the
/// benchmark harness, which still calls it.
pub fn sharded_partitions(
    w: &Workload,
    budget_bytes: usize,
    threads: usize,
    delta_b: usize,
    max_load: Option<u64>,
    _shards: usize,
    _host_threads: usize,
) -> Result<Vec<Partition>, PartitionError> {
    greedy_partitions_with_load_cap(w, budget_bytes, threads, delta_b, max_load)
}
