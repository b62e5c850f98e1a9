//! Overlap detection as sparse matrix algebra (`A Aᵀ` / `A S Aᵀ`).
//!
//! `A` is the |sequences| × |reliable k-mers| matrix whose nonzero
//! `(s, m)` stores the first position of k-mer `m` on sequence `s`.
//! The sparse product `C = A Aᵀ` then has a nonzero `(i, j)` exactly
//! when sequences `i` and `j` share a reliable k-mer; the semiring
//! accumulates the number of shared k-mers and the first two seed
//! position pairs. Pairs with at least `min_seeds` shared k-mers
//! (both pipelines use 2, §5.3) become workload comparisons.
//!
//! For PASTIS, each sequence also emits *substitute* k-mers
//! (BLOSUM62-conservative single substitutions) — the `S` in
//! `A S Aᵀ` — so quasi-exact protein seeds are found too.
//!
//! [`build_kmer_matrix`] builds `A` one CSR row at a time, with no
//! hash map, per-k-mer allocation or global triplet sort; the tests
//! keep the `HashMap` builder it replaced as its bit-identity oracle.

use crate::kmer;
use crate::spmat::{spgemm, Csr};
use xdrop_core::alphabet::Alphabet;
use xdrop_core::extension::SeedMatch;
use xdrop_core::workload::{Comparison, SeqSet, Workload};

/// Overlap-detection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OverlapConfig {
    /// k-mer length (ELBA: 17/31 on DNA; PASTIS: 6 on protein).
    pub k: usize,
    /// Minimum shared k-mers per pair (both pipelines require 2).
    pub min_seeds: u32,
    /// Reliable-range lower bound: k-mers must occur in ≥ this many
    /// sequences.
    pub min_kmer_freq: u32,
    /// Reliable-range upper bound (repeat masking).
    pub max_kmer_freq: u32,
    /// For protein: minimum BLOSUM62 score for a position to be
    /// substituted when emitting quasi-exact k-mers (`None` = exact
    /// k-mers only).
    pub substitute_min_score: Option<i32>,
    /// Emit one comparison per *distinct* seed (up to two per pair)
    /// instead of one per pair. Real pipelines align a pair from
    /// several seeds and keep the best; the paper's detached tile
    /// data structures exist precisely so these extra seeds do not
    /// retransmit the sequences (§4.1.1) — they become parallel
    /// edges in the comparison graph.
    pub multi_seed: bool,
}

impl OverlapConfig {
    /// ELBA-style DNA configuration.
    pub fn elba(k: usize) -> Self {
        Self {
            k,
            min_seeds: 2,
            min_kmer_freq: 2,
            max_kmer_freq: 64,
            substitute_min_score: None,
            multi_seed: false,
        }
    }

    /// PASTIS-style protein configuration (k = 6, substitute
    /// k-mers on).
    pub fn pastis() -> Self {
        Self {
            k: 6,
            min_seeds: 2,
            min_kmer_freq: 2,
            max_kmer_freq: 256,
            substitute_min_score: Some(2),
            multi_seed: false,
        }
    }

    /// Checks the configuration can run on `alphabet`: `k` must lie
    /// in `1..=`[`kmer::max_k`] (a k-mer packs into one `u64`) and the
    /// reliable range must not be empty.
    pub fn validate(&self, alphabet: Alphabet) -> Result<(), OverlapConfigError> {
        let max_k = kmer::max_k(alphabet);
        if !(1..=max_k).contains(&self.k) {
            return Err(OverlapConfigError::KOutOfRange { k: self.k, max_k });
        }
        if self.min_kmer_freq > self.max_kmer_freq {
            return Err(OverlapConfigError::EmptyFrequencyRange {
                min: self.min_kmer_freq,
                max: self.max_kmer_freq,
            });
        }
        Ok(())
    }
}

/// Why an [`OverlapConfig`] cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapConfigError {
    /// `k` is outside `1..=max_k` for the alphabet.
    KOutOfRange {
        /// The configured k-mer length.
        k: usize,
        /// The longest k-mer that packs into one `u64`.
        max_k: usize,
    },
    /// `min_kmer_freq > max_kmer_freq`: no k-mer is reliable.
    EmptyFrequencyRange {
        /// The configured lower bound.
        min: u32,
        /// The configured upper bound.
        max: u32,
    },
}

impl std::fmt::Display for OverlapConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OverlapConfigError::KOutOfRange { k, max_k } => {
                write!(f, "k = {k} is outside 1..={max_k} for this alphabet")
            }
            OverlapConfigError::EmptyFrequencyRange { min, max } => write!(
                f,
                "min_kmer_freq = {min} exceeds max_kmer_freq = {max}: no k-mer is reliable"
            ),
        }
    }
}

impl std::error::Error for OverlapConfigError {}

/// Accumulator for one overlap-candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OverlapAcc {
    count: u32,
    first: (u32, u32),
    second: (u32, u32),
}

/// Builds the |sequences| × |reliable k-mers| position matrix.
///
/// Returns the matrix and the number of reliable k-mers. With
/// substitution enabled, a sequence's row also contains entries for
/// the conservative single-substitution neighbours of its k-mers
/// (at the same position). A row sorts the `(id, pos)` pairs of its
/// reliable k-mers (ids by binary search in the ascending reliable
/// vector) and keeps the first position per id.
pub fn build_kmer_matrix(seqs: &SeqSet, cfg: &OverlapConfig) -> (Csr<u32>, usize) {
    let (k, alphabet) = (cfg.k, seqs.alphabet);
    let freq = cfg.min_kmer_freq as usize..=cfg.max_kmer_freq as usize;
    let reliable = kmer::reliable_kmers(seqs.iter().map(|(_, s)| s), k, alphabet, freq);
    let subs = (cfg.substitute_min_score)
        .filter(|_| alphabet == Alphabet::Protein)
        .map(kmer::SubTable::new);
    let mut m = Csr {
        rows: seqs.len(),
        cols: reliable.len(),
        indptr: vec![0],
        indices: Vec::new(),
        values: Vec::new(),
    };
    // One row's `id << 32 | pos` keys, which sort by id, then position.
    let mut row: Vec<u64> = Vec::new();
    for (_, s) in seqs.iter() {
        row.clear();
        let mut emit = |km: u64, pos: u32| {
            if let Ok(id) = reliable.binary_search(&km) {
                row.push(((id as u64) << 32) | u64::from(pos));
            }
        };
        kmer::for_each_kmer(s, k, alphabet, |km, pos| match &subs {
            Some(t) => t.for_each(km, k, |e| emit(e, pos)),
            None => emit(km, pos),
        });
        row.sort_unstable();
        row.dedup_by_key(|key| *key >> 32);
        m.indices.extend(row.iter().map(|&key| (key >> 32) as u32));
        m.values.extend(row.iter().map(|&key| key as u32));
        m.indptr.push(m.indices.len());
    }
    (m, reliable.len())
}

/// Detects overlaps and returns them as an alignment [`Workload`]
/// sharing the input sequence pool.
///
/// # Panics
///
/// When [`OverlapConfig::validate`] rejects `cfg` for the pool's
/// alphabet.
pub fn detect_overlaps(seqs: &SeqSet, cfg: &OverlapConfig) -> Workload {
    if let Err(e) = cfg.validate(seqs.alphabet) {
        panic!("invalid overlap configuration: {e}");
    }
    let (a, _) = build_kmer_matrix(seqs, cfg);
    let at = a.transpose();
    let c = spgemm(
        &a,
        &at,
        |&pa, &pb| OverlapAcc {
            count: 1,
            first: (pa, pb),
            second: (u32::MAX, u32::MAX),
        },
        |acc, v| {
            if acc.count == 1 && v.first != acc.first {
                acc.second = v.first;
            }
            acc.count += 1;
        },
    );
    let mut w = Workload {
        seqs: seqs.clone(),
        comparisons: Vec::new(),
    };
    for i in 0..c.rows {
        for (j, acc) in c.row(i) {
            // Upper triangle only; no self-overlaps.
            if (j as usize) <= i || acc.count < cfg.min_seeds {
                continue;
            }
            // Seed(s): the first shared k-mer always, the second
            // distinct one too under multi_seed (a parallel edge in
            // the comparison graph — no sequence retransmission).
            let (h, v) = (i as u32, j);
            let second =
                (cfg.multi_seed && acc.second != (u32::MAX, u32::MAX)).then_some(acc.second);
            for (hp, vp) in std::iter::once(acc.first).chain(second) {
                let seed = SeedMatch::new(hp as usize, vp as usize, cfg.k);
                // Validate defensively: substitution seeds are
                // quasi-exact but must stay in bounds.
                if seed.validate(w.seqs.seq_len(h), w.seqs.seq_len(v)).is_ok() {
                    w.comparisons.push(Comparison::new(h, v, seed));
                }
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;

    /// Three reads from one genome: 0–600, 400–1000, 1200–1800.
    /// Reads 0 and 1 overlap by 200 bp; read 2 overlaps nothing.
    fn read_set() -> SeqSet {
        let mut rng = StdRng::seed_from_u64(99);
        let genome: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..4)).collect();
        let mut set = SeqSet::new(Alphabet::Dna);
        set.push(genome[0..600].to_vec());
        set.push(genome[400..1000].to_vec());
        set.push(genome[1200..1800].to_vec());
        set
    }

    #[test]
    fn overlapping_reads_detected() {
        let set = read_set();
        let w = detect_overlaps(&set, &OverlapConfig::elba(17));
        assert_eq!(w.comparisons.len(), 1, "exactly the 0–1 pair");
        let c = &w.comparisons[0];
        assert_eq!((c.h, c.v), (0, 1));
        // Seed must be an exact shared 17-mer.
        let h = w.seqs.get(c.h);
        let v = w.seqs.get(c.v);
        assert_eq!(
            &h[c.seed.h_pos..c.seed.h_pos + 17],
            &v[c.seed.v_pos..c.seed.v_pos + 17]
        );
        // And the positions must be consistent with the 400-offset.
        assert_eq!(c.seed.h_pos as i64 - c.seed.v_pos as i64, 400);
    }

    #[test]
    fn multi_seed_emits_parallel_edges() {
        let set = read_set();
        let mut cfg = OverlapConfig::elba(17);
        cfg.multi_seed = true;
        let w = detect_overlaps(&set, &cfg);
        assert_eq!(w.comparisons.len(), 2, "two seeds for the 0–1 pair");
        assert_eq!(
            (w.comparisons[0].h, w.comparisons[0].v),
            (w.comparisons[1].h, w.comparisons[1].v)
        );
        assert_ne!(w.comparisons[0].seed, w.comparisons[1].seed);
        // Both seeds are exact and consistent with the genomic
        // offset.
        for c in &w.comparisons {
            let h = w.seqs.get(c.h);
            let v = w.seqs.get(c.v);
            assert_eq!(
                &h[c.seed.h_pos..c.seed.h_pos + 17],
                &v[c.seed.v_pos..c.seed.v_pos + 17]
            );
            assert_eq!(c.seed.h_pos as i64 - c.seed.v_pos as i64, 400);
        }
    }

    #[test]
    fn min_seeds_threshold() {
        let set = read_set();
        let mut cfg = OverlapConfig::elba(17);
        // An overlap of 200 bp shares ~184 17-mers; demanding more
        // kills it.
        cfg.min_seeds = 1_000;
        let w = detect_overlaps(&set, &cfg);
        assert!(w.comparisons.is_empty());
    }

    #[test]
    fn repeat_masking_suppresses_repeats() {
        // All sequences share a repeat; reliable-range filtering with
        // max_kmer_freq below the repeat count must suppress it.
        //
        // Each prefix is forced to end in a distinct base so that
        // the k-mers straddling the prefix/repeat junction are
        // unique per sequence; otherwise two prefixes agreeing on
        // their last j bases (probability 4^-j per pair) would share
        // a junction k-mer of sub-repeat frequency and witness a
        // legitimate (non-repeat) overlap, turning this into a test
        // of RNG luck.
        let mut set = SeqSet::new(Alphabet::Dna);
        let repeat: Vec<u8> = (0..60).map(|i| ((i * 7) % 4) as u8).collect();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..4u8 {
            let mut s: Vec<u8> = (0..100).map(|_| rng.gen_range(0..4)).collect();
            s[99] = i;
            s.extend_from_slice(&repeat);
            set.push(s);
        }
        let mut cfg = OverlapConfig::elba(17);
        cfg.max_kmer_freq = 3; // repeat occurs in 4 sequences
        let w = detect_overlaps(&set, &cfg);
        assert!(
            w.comparisons.is_empty(),
            "repeat-only matches must be masked"
        );
    }

    #[test]
    fn protein_substitute_kmers_find_quasi_exact_overlaps() {
        use xdrop_core::alphabet::encode_protein;
        // Two proteins identical except one conservative substitution
        // (W→Y, BLOSUM62 = 2) inside every shared k-mer window.
        let mut set = SeqSet::new(Alphabet::Protein);
        let a = encode_protein(b"MKTAYIAKQRQISFVKSHFSRQWEERLGLIEV");
        let mut b = a.clone();
        let w_code = encode_protein(b"W")[0];
        let y_code = encode_protein(b"Y")[0];
        let wpos = a.iter().position(|&c| c == w_code).unwrap();
        b[wpos] = y_code;
        set.push(a);
        set.push(b);
        let mut cfg = OverlapConfig::pastis();
        cfg.min_kmer_freq = 1; // tiny example: most k-mers unique
        let exact_only = OverlapConfig {
            substitute_min_score: None,
            ..cfg
        };
        let w_exact = detect_overlaps(&set, &exact_only);
        let w_sub = detect_overlaps(&set, &cfg);
        // Both find the pair (plenty of exact seeds away from the
        // substitution), but substitution finds strictly more seeds.
        assert_eq!(w_exact.comparisons.len(), 1);
        assert_eq!(w_sub.comparisons.len(), 1);
    }

    #[test]
    fn n_windows_share_no_seed_with_concrete_kmers() {
        // Packed with `N = 4` OR-ed into 2-bit slots, "AN" would equal
        // "CA" and "GN" would equal "TA": two reads sharing only those
        // aliased pairs (enough to clear `min_seeds = 2`) must get no
        // comparison.
        use xdrop_core::alphabet::encode_dna;
        let mut set = SeqSet::new(Alphabet::Dna);
        set.push(encode_dna(b"ANTTGN"));
        set.push(encode_dna(b"CATA"));
        let cfg = OverlapConfig::elba(2);
        let (a, reliable) = build_kmer_matrix(&set, &cfg);
        assert_eq!((reliable, a.nnz()), (0, 0));
        assert!(detect_overlaps(&set, &cfg).comparisons.is_empty());
        // The concrete k-mers around the `N`s still seed.
        set.push(encode_dna(b"TTGG"));
        let w = detect_overlaps(&set, &cfg);
        let pairs: Vec<_> = w.comparisons.iter().map(|c| (c.h, c.v)).collect();
        assert_eq!(pairs, vec![(0, 2)]);
    }

    #[test]
    fn empty_input() {
        let set = SeqSet::new(Alphabet::Dna);
        let w = detect_overlaps(&set, &OverlapConfig::elba(17));
        assert!(w.comparisons.is_empty());
    }

    #[test]
    fn validate_rejects_unpackable_k_and_empty_frequency_range() {
        for (alphabet, max_k) in [(Alphabet::Dna, 32), (Alphabet::Protein, 12)] {
            assert_eq!(kmer::max_k(alphabet), max_k);
            for k in [1, max_k] {
                assert_eq!(OverlapConfig::elba(k).validate(alphabet), Ok(()));
            }
            for k in [0, max_k + 1, 64] {
                assert_eq!(
                    OverlapConfig::elba(k).validate(alphabet),
                    Err(OverlapConfigError::KOutOfRange { k, max_k })
                );
            }
        }
        let mut cfg = OverlapConfig::pastis();
        cfg.min_kmer_freq = cfg.max_kmer_freq + 1;
        assert!(matches!(
            cfg.validate(Alphabet::Protein),
            Err(OverlapConfigError::EmptyFrequencyRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "k = 33 is outside 1..=32")]
    fn detect_overlaps_rejects_an_unpackable_k() {
        detect_overlaps(&read_set(), &OverlapConfig::elba(33));
    }
}
