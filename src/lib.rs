//! # xdrop-ipu — facade crate
//!
//! One-stop re-export of the full reproduction stack for the SC'23
//! paper *"Space Efficient Sequence Alignment for SRAM-Based
//! Computing: X-Drop on the Graphcore IPU"*:
//!
//! * [`core`] — the alignment algorithms (the memory-restricted
//!   two-antidiagonal X-Drop and its references).
//! * [`sim`] — the IPU machine-model simulator.
//! * [`partition`] — graph-based sequence partitioning and batch
//!   planning.
//! * [`data`] — sequence generation, datasets, FASTA I/O.
//! * [`baselines`] — SeqAn/ksw2/LOGAN comparators and their
//!   hardware models.
//! * [`pipelines`] — ELBA-mini and PASTIS-mini.
//!
//! See the runnable programs in `examples/` for end-to-end usage,
//! and the `experiments` binary in `crates/bench` for the
//! table/figure reproductions.

pub use ipu_sim as sim;
pub use seqdata as data;
pub use xdrop_baselines as baselines;
pub use xdrop_core as core;
pub use xdrop_partition as partition;
pub use xdrop_pipelines as pipelines;

/// Convenience prelude: the names most programs need.
pub mod prelude {
    pub use ipu_sim::{
        naive_batches, run_cluster, BatchConfig, ClusterError, CostModel, ExecConfig, FaultPlan,
        IpuSpec, OptFlags,
    };
    pub use seqdata::{Dataset, DatasetKind};
    pub use xdrop_core::prelude::*;
    pub use xdrop_partition::{
        greedy_partitions_with_load_cap, plan_batches, IpuSystem, PartitionError, PipelineError,
        PlanConfig,
    };
}
