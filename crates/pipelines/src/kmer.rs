//! Packed k-mers: rolling extraction, sort-and-count reliable
//! k-mers, and BLOSUM62 substitute k-mers.
//!
//! ELBA extracts DNA k-mers (k = 17 or 31) into a
//! |sequences| × |k-mers| matrix; PASTIS uses protein k-mers
//! (k = 6) and additionally *substitute* k-mers — near-identical
//! k-mers under BLOSUM62 — because exact protein seeds lose too much
//! sensitivity (§2.4, the `S` in `A S Aᵀ`).
//!
//! Nothing here allocates per k-mer: `for_each_kmer` packs with one
//! shift/or/mask per position and hands each k-mer to a callback,
//! `reliable_kmers` counts by sorting, and `SubTable` visits a
//! k-mer's substitutes from a per-residue table built once. A window
//! holding a code that does not fit the packing width (DNA `N`) is
//! not a k-mer: packed, it would alias a concrete one ("AN" = "CA").

use std::ops::RangeInclusive;
use xdrop_core::alphabet::{Alphabet, PROTEIN_CODES};
use xdrop_core::scoring::BLOSUM62;

/// Bits per symbol for packing (2 for DNA, 5 for protein).
pub(crate) fn bits(alphabet: Alphabet) -> u32 {
    match alphabet {
        Alphabet::Dna => 2,
        Alphabet::Protein => 5,
    }
}

/// Maximum k that fits a packed `u64` for this alphabet.
pub fn max_k(alphabet: Alphabet) -> usize {
    (64 / bits(alphabet)) as usize
}

/// Calls `f(kmer, pos)` for every k-mer `seq[pos .. pos + k]`, packed
/// into a `u64` (first symbol most significant) by a rolling
/// shift/or/mask. Windows holding a code `≥ 2^bits` (DNA `N`) are
/// skipped; a `k` outside `1..=`[`max_k`] yields no k-mers.
pub(crate) fn for_each_kmer(seq: &[u8], k: usize, alphabet: Alphabet, mut f: impl FnMut(u64, u32)) {
    if !(1..=max_k(alphabet)).contains(&k) {
        return;
    }
    let b = bits(alphabet);
    let mask = u64::MAX >> (64 - b * k as u32);
    let mut kmer = 0u64;
    // Concrete codes since the last skipped one.
    let mut run = 0usize;
    for (i, &c) in seq.iter().enumerate() {
        if c >> b != 0 {
            run = 0;
            continue;
        }
        kmer = ((kmer << b) | u64::from(c)) & mask;
        run += 1;
        if run >= k {
            f(kmer, (i + 1 - k) as u32);
        }
    }
}

/// The reliable k-mers, ascending: those present in a number of
/// sequences inside `freq`. A k-mer's index in the result is its
/// dense id. Above the range are repeats that blow up the overlap
/// matrix; below it a k-mer cannot witness an overlap.
///
/// Counting sorts and deduplicates each sequence's k-mers (so repeats
/// inside one read count once), concatenates the runs, sorts once
/// more and run-length encodes.
pub(crate) fn reliable_kmers<'a>(
    seqs: impl Iterator<Item = &'a [u8]>,
    k: usize,
    alphabet: Alphabet,
    freq: RangeInclusive<usize>,
) -> Vec<u64> {
    let mut all = Vec::new();
    let mut row = Vec::new();
    for s in seqs {
        row.clear();
        for_each_kmer(s, k, alphabet, |kmer, _| row.push(kmer));
        row.sort_unstable();
        row.dedup();
        all.extend_from_slice(&row);
    }
    all.sort_unstable();
    all.chunk_by(|a, b| a == b)
        .filter(|run| freq.contains(&run.len()))
        .map(|run| run[0])
        .collect()
}

/// PASTIS substitutes per residue code `a`: the concrete amino acids
/// `r ≠ a` with `BLOSUM62[a][r] ≥ min_score`, tabulated once per
/// matrix so that substitute enumeration is a table walk.
pub(crate) struct SubTable(Vec<Vec<u8>>);

impl SubTable {
    /// The table for threshold `min_score`.
    pub(crate) fn new(min_score: i32) -> Self {
        let subs = |(a, row): (usize, &[i8; PROTEIN_CODES])| {
            (0..20u8)
                .filter(|&r| usize::from(r) != a && i32::from(row[usize::from(r)]) >= min_score)
                .collect()
        };
        SubTable(BLOSUM62.iter().enumerate().map(subs).collect())
    }

    /// Calls `f` on the packed protein `kmer` and on every k-mer one
    /// substitution away from it (the quasi-exact seeds of `S`).
    pub(crate) fn for_each(&self, kmer: u64, k: usize, mut f: impl FnMut(u64)) {
        f(kmer);
        let b = bits(Alphabet::Protein);
        let sym = (1u64 << b) - 1;
        for shift in (0..k as u32).map(|i| b * i) {
            let hole = kmer & !(sym << shift);
            let a = ((kmer >> shift) & sym) as usize;
            for &r in self.0.get(a).into_iter().flatten() {
                f(hole | (u64::from(r) << shift));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{count_kmers, kmers_of, pack, substitute_kmers, unpack};
    use xdrop_core::alphabet::{encode_dna, encode_protein};

    fn rolled(seq: &[u8], k: usize, alphabet: Alphabet) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for_each_kmer(seq, k, alphabet, |km, pos| out.push((km, pos)));
        out
    }

    #[test]
    fn rolling_pack_matches_per_position_pack() {
        let dna = encode_dna(b"ACGTACGTTGCAAGTCCATGACGTTAGCAGTTACGATCGG");
        for k in 1..=max_k(Alphabet::Dna) {
            assert_eq!(
                rolled(&dna, k, Alphabet::Dna),
                kmers_of(&dna, k, Alphabet::Dna)
            );
        }
        let prot = encode_protein(b"MKTAYIAKQRQISFVKSHFSRQWEERLGLIEVBZX*");
        for k in 1..=max_k(Alphabet::Protein) {
            let got = rolled(&prot, k, Alphabet::Protein);
            assert_eq!(got, kmers_of(&prot, k, Alphabet::Protein));
            for (km, pos) in got {
                let p = pos as usize;
                assert_eq!(unpack(km, k, Alphabet::Protein), &prot[p..p + k]);
            }
        }
        assert!(rolled(&dna, 0, Alphabet::Dna).is_empty());
        assert!(rolled(&dna, 33, Alphabet::Dna).is_empty());
        assert!(rolled(&dna[..5], 6, Alphabet::Dna).is_empty());
    }

    #[test]
    fn windows_with_n_are_not_kmers() {
        // "AN" would pack to 0b0100 = "CA" if N's code were OR-ed in.
        let s = encode_dna(b"ANCAGNNTT");
        let ca = pack(&encode_dna(b"CA"), 0, 2, Alphabet::Dna);
        assert_eq!(pack(&s, 0, 2, Alphabet::Dna), None);
        let got = rolled(&s, 2, Alphabet::Dna);
        let positions: Vec<u32> = got.iter().map(|&(_, p)| p).collect();
        assert_eq!(positions, vec![2, 3, 7]);
        assert_eq!(Some(got[0].0), ca);
        assert_eq!(got, kmers_of(&s, 2, Alphabet::Dna));
    }

    #[test]
    fn max_k_values() {
        assert_eq!(max_k(Alphabet::Dna), 32);
        assert_eq!(max_k(Alphabet::Protein), 12);
    }

    #[test]
    fn counting_dedups_within_sequence() {
        let a = encode_dna(b"AAAAAAAA"); // one distinct 4-mer, many copies
        let b = encode_dna(b"AAAACCCC");
        let seqs = [a.as_slice(), b.as_slice()];
        let aaaa = pack(&encode_dna(b"AAAA"), 0, 4, Alphabet::Dna).unwrap();
        let cccc = pack(&encode_dna(b"CCCC"), 0, 4, Alphabet::Dna).unwrap();
        // Present in both, counted once each: the only k-mer seen twice.
        assert_eq!(
            reliable_kmers(seqs.into_iter(), 4, Alphabet::Dna, 2..=2),
            vec![aaaa]
        );
        let counts = count_kmers(seqs.into_iter(), 4, Alphabet::Dna);
        assert_eq!((counts[&aaaa], counts[&cccc]), (2, 1));
        let once = reliable_kmers(seqs.into_iter(), 4, Alphabet::Dna, 1..=1);
        assert!(once.contains(&cccc) && !once.contains(&aaaa));
    }

    #[test]
    fn reliable_range_filters() {
        let a = encode_dna(b"ACGTACGT");
        let seqs = [a.clone(), a.clone(), a.clone(), encode_dna(b"TTTTTTTT")];
        let it = || seqs.iter().map(|s| s.as_slice());
        // min 2: drops the TTTT-only k-mers; max 2: drops those in 3.
        assert!(reliable_kmers(it(), 4, Alphabet::Dna, 2..=2).is_empty());
        let r = reliable_kmers(it(), 4, Alphabet::Dna, 2..=3);
        assert!(!r.is_empty());
        assert!(r.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        let tttt = pack(&encode_dna(b"TTTT"), 0, 4, Alphabet::Dna).unwrap();
        assert!(!r.contains(&tttt));
    }

    #[test]
    fn substitutes_include_original_and_conservative_subs() {
        let s = encode_protein(b"WWWWWW");
        let km = pack(&s, 0, 6, Alphabet::Protein).unwrap();
        let mut subs = Vec::new();
        SubTable::new(2).for_each(km, 6, |e| subs.push(e));
        assert_eq!(subs[0], km);
        // W–Y scores 2 → substituting one W with Y must be present.
        let y = encode_protein(b"Y")[0];
        let mut with_y = s.clone();
        with_y[3] = y;
        assert!(subs.contains(&pack(&with_y, 0, 6, Alphabet::Protein).unwrap()));
        // W–A scores −3 → must be absent.
        let a = encode_protein(b"A")[0];
        let mut with_a = s.clone();
        with_a[0] = a;
        assert!(!subs.contains(&pack(&with_a, 0, 6, Alphabet::Protein).unwrap()));
        // Same set as the allocating enumeration.
        let mut want = substitute_kmers(km, 6, 2);
        want.sort_unstable();
        subs.sort_unstable();
        assert_eq!(subs, want);
    }

    #[test]
    fn high_threshold_substitutes_only_the_original() {
        let s = encode_protein(b"AAAAAA");
        let km = pack(&s, 0, 6, Alphabet::Protein).unwrap();
        let mut subs = Vec::new();
        SubTable::new(100).for_each(km, 6, |e| subs.push(e));
        assert_eq!(subs, vec![km]);
    }
}
