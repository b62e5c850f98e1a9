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
//! * [`graph`] — the comparison graph (CSR adjacency, serial and
//!   bit-identical parallel builds).
//! * [`greedy`] — the paper's linear edge-walk partitioner.
//! * [`shard`] — the sharded parallel edge walk: vertex-range shards
//!   discovered via connected components, deterministic for any
//!   thread count, single shard == serial oracle.
//! * [`plan`] — turns partitions (or the naive layout) into
//!   [`ipu_sim::Batch`]es and reports reuse statistics.
//! * [`pipeline`] — the host pipeline: align → plan → replay →
//!   schedule, each stage on a work-stealing pool, bit-identical to
//!   the static-chunk reference for any thread count.
//! * [`outofcore`] — the windowed out-of-core pipeline: streamed
//!   graph build + component stitching, skeleton planning, and
//!   bounded-residency window execution, bit-identical to the
//!   in-core run for any window size.
//! * [`error`] — typed partitioner/pipeline errors.

pub mod driver;
pub mod error;
pub mod graph;
pub mod greedy;
pub mod outofcore;
pub mod pipeline;
pub mod plan;
pub mod shard;

pub use driver::{IpuSystem, SystemReport};
pub use error::{PartitionError, PipelineError, WindowStreamError};
pub use graph::ComparisonGraph;
pub use greedy::{greedy_partitions, greedy_partitions_with_load_cap, Partition};
pub use outofcore::{
    run_pipeline_out_of_core, sharded_partitions_windowed, windows_of, ComponentStitcher,
    GraphScatter, GraphStitcher, WorkloadWindow,
};
pub use pipeline::{
    run_pipeline, run_pipeline_faulty, run_pipeline_reference, run_pipeline_reference_faulty,
    PipelineConfig, PipelineOutput,
};
pub use plan::{plan_batches, reuse_stats, PlanConfig, ReuseStats};
pub use shard::{sharded_partitions, DEFAULT_SHARD_COUNT};
