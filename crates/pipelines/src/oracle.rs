//! The pre-rolling overlap builder, kept as the oracle of
//! [`crate::overlap::build_kmer_matrix`] and
//! [`crate::overlap::detect_overlaps`]: per-position packing,
//! `HashMap` k-mer counting, an allocating substitute enumeration, a
//! global triplet sort, and one seed `Vec` per candidate pair. It
//! departs from the code it preserves in one rule, which it shares
//! with the new builder: a window holding a code that does not fit
//! the packing width (DNA `N`) is not a k-mer.

use crate::kmer::{bits, max_k};
use crate::overlap::OverlapConfig;
use crate::spmat::{spgemm, Csr};
use proptest::prelude::*;
use std::collections::HashMap;
use xdrop_core::alphabet::{Alphabet, PROTEIN_CODES};
use xdrop_core::extension::SeedMatch;
use xdrop_core::scoring::BLOSUM62;
use xdrop_core::workload::{Comparison, SeqSet};

/// Packs `seq[pos .. pos + k]`, or `None` when the window holds a
/// code `≥ 2^bits` (the `N` rule).
pub(crate) fn pack(seq: &[u8], pos: usize, k: usize, alphabet: Alphabet) -> Option<u64> {
    let b = bits(alphabet);
    assert!(k <= max_k(alphabet));
    let mut out = 0u64;
    for &s in &seq[pos..pos + k] {
        if u32::from(s) >= 1 << b {
            return None;
        }
        out = (out << b) | s as u64;
    }
    Some(out)
}

/// Unpacks a packed k-mer back into symbol codes.
pub(crate) fn unpack(kmer: u64, k: usize, alphabet: Alphabet) -> Vec<u8> {
    let b = bits(alphabet);
    let mask = (1u64 << b) - 1;
    let mut out = vec![0u8; k];
    let mut km = kmer;
    for i in (0..k).rev() {
        out[i] = (km & mask) as u8;
        km >>= b;
    }
    out
}

/// All packable `(kmer, position)` pairs of a sequence.
pub(crate) fn kmers_of(seq: &[u8], k: usize, alphabet: Alphabet) -> Vec<(u64, u32)> {
    if seq.len() < k || k == 0 {
        return Vec::new();
    }
    (0..=seq.len() - k)
        .filter_map(|p| pack(seq, p, k, alphabet).map(|km| (km, p as u32)))
        .collect()
}

/// Counts distinct sequences containing each k-mer.
pub(crate) fn count_kmers<'a>(
    seqs: impl Iterator<Item = &'a [u8]>,
    k: usize,
    alphabet: Alphabet,
) -> HashMap<u64, u32> {
    let mut counts: HashMap<u64, u32> = HashMap::new();
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for (si, s) in seqs.enumerate() {
        for (km, _) in kmers_of(s, k, alphabet) {
            if seen.insert(km, si as u32) != Some(si as u32) {
                *counts.entry(km).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// Dense ids (in ascending k-mer order) of the k-mers whose count
/// lies in `min..=max`.
pub(crate) fn reliable_kmers(counts: &HashMap<u64, u32>, min: u32, max: u32) -> HashMap<u64, u32> {
    let mut keep: Vec<u64> = counts
        .iter()
        .filter(|&(_, &c)| c >= min && c <= max)
        .map(|(&km, _)| km)
        .collect();
    keep.sort_unstable();
    keep.into_iter()
        .enumerate()
        .map(|(i, km)| (km, i as u32))
        .collect()
}

/// `kmer` and every k-mer one BLOSUM62-conservative substitution
/// away from it.
pub(crate) fn substitute_kmers(kmer: u64, k: usize, min_sub_score: i32) -> Vec<u64> {
    let alphabet = Alphabet::Protein;
    let syms = unpack(kmer, k, alphabet);
    let mut out = vec![kmer];
    let b = bits(alphabet);
    for (pos, &a) in syms.iter().enumerate() {
        for r in 0..20u8 {
            if r != a && BLOSUM62[a as usize][r as usize] as i32 >= min_sub_score {
                let shift = b * (k - 1 - pos) as u32;
                let mask = ((1u64 << b) - 1) << shift;
                out.push((kmer & !mask) | ((r as u64) << shift));
            }
        }
    }
    out
}

/// The `HashMap` k-mer matrix builder.
pub(crate) fn build_kmer_matrix(seqs: &SeqSet, cfg: &OverlapConfig) -> (Csr<u32>, usize) {
    let alphabet = seqs.alphabet;
    let counts = count_kmers(seqs.iter().map(|(_, s)| s), cfg.k, alphabet);
    let ids = reliable_kmers(&counts, cfg.min_kmer_freq, cfg.max_kmer_freq);
    let mut triplets: Vec<(u32, u32, u32)> = Vec::new();
    for (sid, s) in seqs.iter() {
        for (km, pos) in kmers_of(s, cfg.k, alphabet) {
            let emit: Vec<u64> = match (cfg.substitute_min_score, alphabet) {
                (Some(th), Alphabet::Protein) => substitute_kmers(km, cfg.k, th),
                _ => vec![km],
            };
            for e in emit {
                if let Some(&mid) = ids.get(&e) {
                    triplets.push((sid, mid, pos));
                }
            }
        }
    }
    // Keep the *first* position when a k-mer repeats in a sequence.
    let n = ids.len();
    let m = Csr::from_triplets(seqs.len(), n, triplets, |a, b| *a = (*a).min(b));
    (m, n)
}

/// Candidate comparisons from the oracle matrix, one seed `Vec` per
/// pair.
pub(crate) fn detect_overlaps(seqs: &SeqSet, cfg: &OverlapConfig) -> Vec<Comparison> {
    let (a, _) = build_kmer_matrix(seqs, cfg);
    let c = spgemm(
        &a,
        &a.transpose(),
        |&pa, &pb| (1u32, (pa, pb), (u32::MAX, u32::MAX)),
        |acc, v| {
            if acc.0 == 1 && v.1 != acc.1 {
                acc.2 = v.1;
            }
            acc.0 += 1;
        },
    );
    let mut out = Vec::new();
    for i in 0..c.rows {
        for (j, &(count, first, second)) in c.row(i) {
            if (j as usize) <= i || count < cfg.min_seeds {
                continue;
            }
            let (h, v) = (i as u32, j);
            let mut seeds = vec![first];
            if cfg.multi_seed && second != (u32::MAX, u32::MAX) {
                seeds.push(second);
            }
            for (hp, vp) in seeds {
                let seed = SeedMatch::new(hp as usize, vp as usize, cfg.k);
                if seed.validate(seqs.seq_len(h), seqs.seq_len(v)).is_ok() {
                    out.push(Comparison::new(h, v, seed));
                }
            }
        }
    }
    out
}

/// Random pool of `alphabet`: empty sequences, sequences shorter than
/// k and DNA `N`s included.
fn seqset(alphabet: Alphabet) -> impl Strategy<Value = SeqSet> {
    let codes = match alphabet {
        Alphabet::Dna => 5u8,
        Alphabet::Protein => PROTEIN_CODES as u8,
    };
    // A small code range makes shared k-mers (and repeats) common.
    (0usize..12, 1u8..=codes).prop_flat_map(move |(n, span)| {
        prop::collection::vec(prop::collection::vec(0..span, 0usize..60), n).prop_map(move |seqs| {
            let mut set = SeqSet::new(alphabet);
            for s in seqs {
                set.push(s);
            }
            set
        })
    })
}

/// Random configuration for `alphabet`: k ∈ {1, max_k} or random,
/// random frequency range, substitution off / low / 2 / high.
fn config(alphabet: Alphabet) -> impl Strategy<Value = OverlapConfig> {
    let max_k = max_k(alphabet);
    (
        0usize..4,
        1..=max_k,
        (0u32..4, 0u32..8),
        0usize..4,
        1u32..4,
        any::<bool>(),
    )
        .prop_map(
            move |(kpick, krand, (min, max), sub, min_seeds, multi_seed)| OverlapConfig {
                k: [1, max_k, krand, krand][kpick],
                min_seeds,
                min_kmer_freq: min,
                max_kmer_freq: max,
                substitute_min_score: [None, Some(-4), Some(2), Some(100)][sub],
                multi_seed,
            },
        )
}

fn check(seqs: &SeqSet, cfg: &OverlapConfig) -> Result<(), TestCaseError> {
    let (got, got_n) = crate::overlap::build_kmer_matrix(seqs, cfg);
    let (want, want_n) = build_kmer_matrix(seqs, cfg);
    prop_assert_eq!(got_n, want_n);
    prop_assert_eq!((got.rows, got.cols), (want.rows, want.cols));
    prop_assert_eq!(&got.indptr, &want.indptr);
    prop_assert_eq!(&got.indices, &want.indices);
    prop_assert_eq!(&got.values, &want.values);
    if cfg.min_kmer_freq <= cfg.max_kmer_freq {
        let w = crate::overlap::detect_overlaps(seqs, cfg);
        prop_assert_eq!(w.comparisons, detect_overlaps(seqs, cfg));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dna_matrix_matches_the_hashmap_oracle(
        seqs in seqset(Alphabet::Dna),
        cfg in config(Alphabet::Dna),
    ) {
        check(&seqs, &cfg)?;
    }

    #[test]
    fn protein_matrix_matches_the_hashmap_oracle(
        seqs in seqset(Alphabet::Protein),
        cfg in config(Alphabet::Protein),
    ) {
        check(&seqs, &cfg)?;
    }
}
