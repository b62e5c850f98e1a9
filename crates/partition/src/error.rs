//! Typed errors of the partitioning front-end and the pipeline.
//!
//! The partitioner used to `assert!` when a single comparison could
//! not fit a tile by itself; on a library boundary that is a denial
//! of service, not a diagnostic. [`PartitionError`] carries the
//! offending comparison index — always the *smallest* such index,
//! matching the executor's smallest-failing-index convention, so the
//! report is deterministic for any thread count — and
//! [`PipelineError`] unifies it with the kernel-side
//! [`AlignError`], the cluster's [`ClusterError`] and the out-of-core
//! [`WindowStreamError`] on the pipeline's public result type.

use ipu_sim::fault::ClusterError;
use xdrop_core::error::AlignError;

/// Errors produced by the graph partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// A single comparison's two sequences (plus per-edge metadata
    /// and workspace overhead) exceed the tile budget on their own,
    /// so no partitioning can place it. `comparison` is the smallest
    /// offending comparison index.
    OversizedComparison {
        /// Smallest comparison index that cannot fit a tile.
        comparison: u32,
        /// Bytes the comparison needs on an otherwise empty tile
        /// (sequences + seed/output entries + workspaces).
        needed_bytes: usize,
        /// The tile budget it was checked against.
        budget_bytes: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::OversizedComparison {
                comparison,
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "comparison {comparison} alone needs {needed_bytes} B, \
                 exceeding the {budget_bytes} B tile budget"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// How an out-of-core window stream failed to tile the skeleton's
/// comparison list `0..total` in order, or to match its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowStreamError {
    /// A window started at comparison `found` where `expected` was
    /// next: windows were skipped or arrived out of order when
    /// `found > expected`, and overlap (or repeat) when
    /// `found < expected`.
    Misplaced {
        /// The comparison index the next window had to start at.
        expected: usize,
        /// Where the window actually started.
        found: usize,
    },
    /// The windows covered `covered` comparisons but the skeleton
    /// has `total`: the stream ended early or ran past the end.
    WrongTotal {
        /// Comparisons covered so far (the whole stream when short).
        covered: usize,
        /// The skeleton's comparison count.
        total: usize,
    },
    /// The window's contents disagree with the skeleton at global
    /// comparison `cmp` (the smallest such index): a local sequence
    /// slot without a global id, a local id out of range, or global
    /// ids, seed or lengths that differ from the skeleton
    /// comparison's.
    Mismatch {
        /// Global index of the first disagreeing comparison.
        cmp: usize,
    },
}

impl std::fmt::Display for WindowStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowStreamError::Misplaced { expected, found } => write!(
                f,
                "window starts at comparison {found}, expected {expected}"
            ),
            WindowStreamError::WrongTotal { covered, total } => write!(
                f,
                "windows cover {covered} comparisons, the skeleton has {total}"
            ),
            WindowStreamError::Mismatch { cmp } => {
                write!(f, "window disagrees with the skeleton at comparison {cmp}")
            }
        }
    }
}

impl std::error::Error for WindowStreamError {}

/// Errors surfaced by the host pipeline: a kernel refused an
/// alignment, an out-of-core window stream was malformed, the
/// planner could not place a comparison, or the modeled cluster
/// could not complete a batch under an injected fault plan.
///
/// When more than one kind of failure occurs in a run, the first
/// stage to fail wins — alignment (or, out of core, the window
/// stream, in stream order), then planning, then the cluster — so
/// the surfaced error never depends on thread interleaving or on
/// which entry point ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// An alignment kernel failed (smallest comparison index wins).
    Align(AlignError),
    /// The out-of-core window stream did not tile the skeleton or
    /// disagreed with it.
    Window(WindowStreamError),
    /// The partitioner failed (smallest comparison index wins).
    Partition(PartitionError),
    /// The fault-injected cluster lost every device or exhausted a
    /// batch's retry budget (smallest batch index wins — batches
    /// bind in submission order).
    Cluster(ClusterError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Align(e) => write!(f, "alignment failed: {e}"),
            PipelineError::Window(e) => write!(f, "malformed window stream: {e}"),
            PipelineError::Partition(e) => write!(f, "partitioning failed: {e}"),
            PipelineError::Cluster(e) => write!(f, "cluster execution failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AlignError> for PipelineError {
    fn from(e: AlignError) -> Self {
        PipelineError::Align(e)
    }
}

impl From<WindowStreamError> for PipelineError {
    fn from(e: WindowStreamError) -> Self {
        PipelineError::Window(e)
    }
}

impl From<PartitionError> for PipelineError {
    fn from(e: PartitionError) -> Self {
        PipelineError::Partition(e)
    }
}

impl From<ClusterError> for PipelineError {
    fn from(e: ClusterError) -> Self {
        PipelineError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = PartitionError::OversizedComparison {
            comparison: 7,
            needed_bytes: 2_000_000,
            budget_bytes: 500_000,
        };
        let s = e.to_string();
        assert!(s.contains("comparison 7"));
        assert!(s.contains("2000000"));
        let p: PipelineError = e.into();
        assert!(p.to_string().contains("partitioning failed"));
    }
}
