//! # xdrop-baselines
//!
//! The comparator tools of the paper's evaluation (§5.1), each
//! modeled as an engine of the [`xdrop_core::aligner`] facade plus a
//! hardware timing model:
//!
//! * SeqAn — the CPU X-Drop (the three-antidiagonal Zhang
//!   formulation, [`AlignerKind::XDrop3`](xdrop_core::aligner::AlignerKind::XDrop3)),
//!   the strongest CPU baseline in Figure 5.
//! * ksw2 — an affine-gap extension with z-drop
//!   ([`xdrop_core::ksw2`]); because it penalizes long gaps less,
//!   its search space is larger and its effective GCUPS lower (§6.2).
//! * [`logan`] — the LOGAN GPU X-Drop: a fixed-width re-centered
//!   band processed in warp-lockstep, run under an A100-class SIMT
//!   cost model; the module computes its padded lane work.
//! * [`banded`] — the classic *static* banded aligner of Figure 1
//!   (left), kept to demonstrate why a static band fails on
//!   indel-rich long reads.
//! * [`models`] — the calibrated CPU/GPU throughput models that
//!   convert measured kernel work into the paper's GCUPS metric
//!   (constants documented in `EXPERIMENTS.md`).
//! * [`runner`] — the multi-threaded benchmark runner (the paper's
//!   OpenMP harness) executing a workload through any comparator.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod banded;
pub mod logan;
pub mod models;
pub mod runner;

pub use models::{CpuModel, GpuModel};
pub use runner::{run_workload, ToolReport};
