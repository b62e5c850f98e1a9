//! # seqdata
//!
//! Sequence-data substrate for the X-Drop reproduction: random
//! sequence generation and mutation models ([`gen`]), a long-read
//! sequencing and overlap simulator ([`reads`]), dataset descriptors
//! fitted to the paper's Table 2 ([`datasets`]), minimal FASTA I/O
//! ([`fasta`]) and distribution statistics ([`stats`]).
//!
//! The paper evaluates on PacBio HiFi reads of *E. coli* (29× and
//! 291×) and *C. elegans* (40×), plus a synthetic dataset of
//! 15 %-error pairs, none of which ship with this repository. The
//! substitution (documented in `DESIGN.md`) is to *simulate* the
//! sequencing process: sample reads from a random genome with the
//! published length distributions and error profiles, detect
//! overlapping read pairs exactly as an assembler's k-mer stage
//! would, and emit the same detached sequences-plus-seeds workload
//! representation the IPU tiles consume.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod datasets;
pub mod fasta;
pub mod gen;
pub mod reads;
pub mod stats;
pub mod window;

pub use datasets::{Dataset, DatasetKind};
pub use gen::{MutationProfile, PairSpec};
pub use reads::ReadSimParams;
pub use stats::{Distribution, WorkloadStats};
pub use window::{DatasetMeta, Window, WindowIter};
