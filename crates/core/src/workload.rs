//! Many-to-many alignment workloads.
//!
//! The unit of work in ELBA/PASTIS-style pipelines is a *comparison*:
//! a pair of sequences plus a seed match to extend. The paper's tile
//! data structures (§4.1.1) deliberately keep the sequence set
//! *detached* from the seed list — a sequence is stored once per tile
//! and referenced by any number of comparisons, which is what the
//! graph partitioner (§4.3) exploits to cut host-to-device traffic.
//! These types mirror that representation host-side.

use crate::alphabet::Alphabet;
use crate::extension::SeedMatch;

/// An indexed pool of encoded sequences.
///
/// Two representations share this type: the ordinary *resident* pool
/// holding every payload, and a *skeleton* pool (see
/// [`SeqSet::skeleton`]) that records only lengths — what the
/// out-of-core planners operate on when the payload bytes are
/// streamed window by window and never fully resident.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SeqSet {
    /// Alphabet all sequences are encoded in.
    pub alphabet: Alphabet,
    seqs: Vec<Vec<u8>>,
    /// Lengths-only mode: when set, `seqs` is empty and lengths come
    /// from here; [`SeqSet::get`] is unavailable.
    lens: Option<Vec<u32>>,
}

impl SeqSet {
    /// An empty pool.
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            alphabet,
            seqs: Vec::new(),
            lens: None,
        }
    }

    /// A lengths-only pool: `len`/`seq_len`/`total_bytes` behave as
    /// if `lens[i]` bytes were stored for sequence `i`, but no
    /// payload is resident and [`SeqSet::get`] panics. Batch
    /// planning and graph partitioning read only lengths, so a
    /// skeleton drives them byte-identically to the resident pool.
    pub fn skeleton(alphabet: Alphabet, lens: Vec<u32>) -> Self {
        Self {
            alphabet,
            seqs: Vec::new(),
            lens: Some(lens),
        }
    }

    /// Whether this pool is lengths-only.
    pub fn is_skeleton(&self) -> bool {
        self.lens.is_some()
    }

    /// Adds a sequence and returns its id.
    pub fn push(&mut self, seq: Vec<u8>) -> SeqId {
        assert!(
            self.lens.is_none(),
            "cannot push payloads into a skeleton SeqSet"
        );
        let id = self.seqs.len() as SeqId;
        self.seqs.push(seq);
        id
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        match &self.lens {
            Some(lens) => lens.len(),
            None => self.seqs.len(),
        }
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence with id `id`. Panics on a skeleton pool — the
    /// payload was never materialized.
    pub fn get(&self, id: SeqId) -> &[u8] {
        assert!(
            self.lens.is_none(),
            "sequence payloads are not resident in a skeleton SeqSet"
        );
        &self.seqs[id as usize]
    }

    /// Length in symbols of sequence `id`.
    pub fn seq_len(&self, id: SeqId) -> usize {
        match &self.lens {
            Some(lens) => lens[id as usize] as usize,
            None => self.seqs[id as usize].len(),
        }
    }

    /// Iterates over `(id, sequence)` pairs. Panics on a skeleton
    /// pool.
    pub fn iter(&self) -> impl Iterator<Item = (SeqId, &[u8])> {
        assert!(
            self.lens.is_none(),
            "sequence payloads are not resident in a skeleton SeqSet"
        );
        self.seqs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SeqId, s.as_slice()))
    }

    /// Total bytes of sequence payload (1 byte per symbol, as stored
    /// in tile SRAM).
    pub fn total_bytes(&self) -> usize {
        match &self.lens {
            Some(lens) => lens.iter().map(|&l| l as usize).sum(),
            None => self.seqs.iter().map(Vec::len).sum(),
        }
    }
}

/// Index of a sequence within a [`SeqSet`].
pub type SeqId = u32;

/// One planned pairwise comparison: two sequences and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Comparison {
    /// Id of the `H` sequence.
    pub h: SeqId,
    /// Id of the `V` sequence.
    pub v: SeqId,
    /// Seed match to extend.
    pub seed: SeedMatch,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(h: SeqId, v: SeqId, seed: SeedMatch) -> Self {
        Self { h, v, seed }
    }
}

/// A full many-to-many workload: a sequence pool plus the comparisons
/// to run on it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    /// The sequence pool.
    pub seqs: SeqSet,
    /// The comparisons (seed extensions) to perform.
    pub comparisons: Vec<Comparison>,
}

impl Workload {
    /// An empty workload.
    pub fn new(alphabet: Alphabet) -> Self {
        Self {
            seqs: SeqSet::new(alphabet),
            comparisons: Vec::new(),
        }
    }

    /// A lengths-only workload (see [`SeqSet::skeleton`]): enough for
    /// complexity estimates, batch planning and graph partitioning,
    /// with no sequence payload resident.
    pub fn skeleton(alphabet: Alphabet, lens: Vec<u32>, comparisons: Vec<Comparison>) -> Self {
        Self {
            seqs: SeqSet::skeleton(alphabet, lens),
            comparisons,
        }
    }

    /// Work estimate for one comparison: the paper batches by the
    /// worst-case quadratic cost `|H| × |V|` (§4.2).
    pub fn complexity(&self, c: &Comparison) -> u64 {
        self.seqs.seq_len(c.h) as u64 * self.seqs.seq_len(c.v) as u64
    }

    /// Sum of [`Self::complexity`] over all comparisons.
    pub fn total_complexity(&self) -> u64 {
        self.comparisons.iter().map(|c| self.complexity(c)).sum()
    }

    /// Theoretical GCUPS numerator: total `|H| × |V|` cells.
    pub fn theoretical_cells(&self) -> u64 {
        self.total_complexity()
    }

    /// Left-extension lengths `(h, v)` of a comparison — how far the
    /// backwards extension can at most run. A seed past a sequence's
    /// end saturates at that sequence's length, so planning estimates
    /// stay within [`Self::complexity`] (no overflow) even for an
    /// invalid seed, which the extension itself reports.
    pub fn left_lens(&self, c: &Comparison) -> (usize, usize) {
        (
            c.seed.h_pos.min(self.seqs.seq_len(c.h)),
            c.seed.v_pos.min(self.seqs.seq_len(c.v)),
        )
    }

    /// Right-extension lengths `(h, v)` of a comparison; `0` for a
    /// seed that ends past a sequence's end.
    pub fn right_lens(&self, c: &Comparison) -> (usize, usize) {
        let rest = |len: usize, pos: usize| len.saturating_sub(pos.saturating_add(c.seed.k));
        (
            rest(self.seqs.seq_len(c.h), c.seed.h_pos),
            rest(self.seqs.seq_len(c.v), c.seed.v_pos),
        )
    }

    /// Checks every comparison references valid sequences and seeds.
    pub fn validate(&self) -> crate::error::Result<()> {
        for c in &self.comparisons {
            if c.h as usize >= self.seqs.len() || c.v as usize >= self.seqs.len() {
                return Err(crate::error::AlignError::SeedOutOfBounds {
                    seed: (c.seed.h_pos, c.seed.v_pos),
                    lens: (0, 0),
                });
            }
            c.seed
                .validate(self.seqs.seq_len(c.h), self.seqs.seq_len(c.v))?;
        }
        Ok(())
    }
}

/// One self-contained slice of a workload: a local [`Workload`]
/// whose sequence slots map to global ids through `seq_ids`, holding
/// the comparisons `cmp_base .. cmp_base + workload.comparisons.len()`
/// of the global comparison list (with ids rewritten local).
/// Bounded-memory generators produce windows and the out-of-core
/// pipeline consumes them.
#[derive(Debug, Clone)]
pub struct Window {
    /// Global index of the window's first comparison.
    pub cmp_base: usize,
    /// Global [`SeqId`] of each local sequence slot.
    pub seq_ids: Vec<SeqId>,
    /// The window's comparisons over locally-resident payloads.
    pub workload: Workload,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Workload {
        let mut w = Workload::new(Alphabet::Dna);
        let a = w.seqs.push(vec![0; 10]);
        let b = w.seqs.push(vec![1; 20]);
        w.comparisons
            .push(Comparison::new(a, b, SeedMatch::new(2, 4, 3)));
        w
    }

    #[test]
    fn seqset_basics() {
        let w = tiny();
        assert_eq!(w.seqs.len(), 2);
        assert!(!w.seqs.is_empty());
        assert_eq!(w.seqs.seq_len(0), 10);
        assert_eq!(w.seqs.get(1), &[1u8; 20][..]);
        assert_eq!(w.seqs.total_bytes(), 30);
        assert_eq!(w.seqs.iter().count(), 2);
    }

    #[test]
    fn complexity_is_product() {
        let w = tiny();
        assert_eq!(w.complexity(&w.comparisons[0]), 200);
        assert_eq!(w.total_complexity(), 200);
        assert_eq!(w.theoretical_cells(), 200);
    }

    #[test]
    fn extension_lengths() {
        let w = tiny();
        let c = &w.comparisons[0];
        assert_eq!(w.left_lens(c), (2, 4));
        assert_eq!(w.right_lens(c), (10 - 2 - 3, 20 - 4 - 3));
        // Seeds past the end saturate at the sequence bounds (10, 20).
        for (seed, left, right) in [
            (SeedMatch::new(9, 19, 5), (9, 19), (0, 0)),
            (SeedMatch::new(usize::MAX, 4, 3), (10, 4), (0, 13)),
        ] {
            let c = Comparison::new(0, 1, seed);
            assert_eq!((w.left_lens(&c), w.right_lens(&c)), (left, right));
        }
    }

    #[test]
    fn validate_catches_bad_seed() {
        let mut w = tiny();
        assert!(w.validate().is_ok());
        w.comparisons
            .push(Comparison::new(0, 1, SeedMatch::new(9, 0, 5)));
        assert!(w.validate().is_err());
    }

    #[test]
    fn skeleton_reports_lengths_without_payload() {
        let full = tiny();
        let lens: Vec<u32> = (0..full.seqs.len() as u32)
            .map(|i| full.seqs.seq_len(i) as u32)
            .collect();
        let sk = Workload::skeleton(Alphabet::Dna, lens, full.comparisons.clone());
        assert!(sk.seqs.is_skeleton());
        assert_eq!(sk.seqs.len(), full.seqs.len());
        assert_eq!(sk.seqs.total_bytes(), full.seqs.total_bytes());
        for i in 0..full.seqs.len() as u32 {
            assert_eq!(sk.seqs.seq_len(i), full.seqs.seq_len(i));
        }
        let c = &full.comparisons[0];
        assert_eq!(sk.complexity(c), full.complexity(c));
        assert_eq!(sk.left_lens(c), full.left_lens(c));
        assert_eq!(sk.right_lens(c), full.right_lens(c));
        assert!(sk.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn skeleton_get_panics() {
        let sk = Workload::skeleton(Alphabet::Dna, vec![10], Vec::new());
        let _ = sk.seqs.get(0);
    }

    #[test]
    fn validate_catches_bad_id() {
        let mut w = tiny();
        w.comparisons
            .push(Comparison::new(7, 1, SeedMatch::new(0, 0, 1)));
        assert!(w.validate().is_err());
    }
}
