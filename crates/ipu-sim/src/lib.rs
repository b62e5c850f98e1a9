//! # ipu-sim
//!
//! A deterministic cycle-cost simulator of the Graphcore IPU machine
//! model, substituting for the hardware the paper ran on (GC200 and
//! BOW systems; see `DESIGN.md` for the substitution argument).
//!
//! The paper's own on-device timing methodology is cycle counting:
//! *"The number of cycles to execute a given program is deterministic
//! if the input and configuration parameters are identical … the
//! total on-device execution time can be derived by t = cycles / f"*
//! (§5.1). This crate reproduces that methodology in software:
//!
//! * [`spec`] — machine constants of the GC200 and BOW (tiles, SRAM,
//!   threads, clocks, exchange and host-link bandwidths).
//! * [`cost`] — instruction-cost model mapping the *measured* work of
//!   an alignment ([`xdrop_core::stats::AlignStats`]) to tile
//!   instructions, with the optimization flags of Table 1.
//! * [`exec`] — actually runs the memory-restricted X-Drop kernel on
//!   every comparison (the scores are real; only time is modeled).
//! * [`mem`] — tile SRAM accounting (sequences + seed list + six
//!   thread workspaces must fit in 624 KB).
//! * [`tile`] — intra-tile thread scheduling: 6-way temporal
//!   multithreading, static round-robin vs *eventual work stealing*
//!   including the tie-grab race model of §4.1.3.
//! * [`batch`] — the naive (no-reuse) batcher, the baseline the graph
//!   partitioner of `xdrop-partition` improves on.
//! * [`device`] / [`cluster`] — BSP batch execution on one IPU and
//!   the multi-IPU shared-queue driver with prefetch overlap and
//!   host-link contention (§4.4).

pub mod batch;
pub mod cluster;
pub mod cost;
pub mod device;
pub mod exec;
pub mod fault;
pub mod mem;
pub mod pool;
pub mod spec;
pub mod tile;
pub mod trace;

pub use batch::{naive_batches, Batch, BatchConfig, TileAssignment};
pub use cluster::{
    run_cluster, run_cluster_faulty, run_cluster_opts, run_cluster_reference, BatchScheduler,
    ClusterOptions, ClusterReport,
};
pub use cost::{CostModel, OptFlags};
pub use device::{run_batch_on_device, BatchReport, BatchScratch};
pub use exec::{execute_workload, planning_units, ExecConfig, UnitResult, WorkUnit};
pub use fault::{
    BackoffConfig, ClusterError, DeviceDeath, FaultPlan, FaultPlanSpec, LinkStall, TransientFault,
};
pub use pool::{resolve_threads, SharedSlots};
pub use spec::IpuSpec;
pub use trace::{ChromeTrace, TraceBuilder, TraceEvent};
