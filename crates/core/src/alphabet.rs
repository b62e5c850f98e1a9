//! Alphabets and symbol encoding.
//!
//! All aligners operate on sequences of small integer codes
//! (`&[u8]`), not raw ASCII, so that scoring-matrix lookups are a
//! single indexed load — the same representation the paper's IPU
//! codelet uses in tile SRAM.

use crate::error::{AlignError, Result};

/// Number of distinct DNA codes (`A`, `C`, `G`, `T`, `N`).
pub const DNA_CODES: usize = 5;
/// Number of distinct protein codes (20 residues + `B`, `Z`, `X`, `*`).
pub const PROTEIN_CODES: usize = 24;

/// Code assigned to an ambiguous DNA base (`N`).
pub const DNA_N: u8 = 4;

/// The residue order used by the BLOSUM62 table in [`crate::scoring`]:
/// `ARNDCQEGHILKMFPSTWYVBZX*`.
pub const PROTEIN_ORDER: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// The supported sequence alphabets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Alphabet {
    /// Nucleotides: `A`, `C`, `G`, `T` (and `N` for ambiguity).
    Dna,
    /// Amino acids in BLOSUM62 order (see [`PROTEIN_ORDER`]).
    Protein,
}

impl Alphabet {
    /// Number of distinct symbol codes for this alphabet.
    pub fn codes(self) -> usize {
        match self {
            Alphabet::Dna => DNA_CODES,
            Alphabet::Protein => PROTEIN_CODES,
        }
    }

    /// Number of unambiguous symbols (used by random generators).
    pub fn concrete_codes(self) -> usize {
        match self {
            Alphabet::Dna => 4,
            Alphabet::Protein => 20,
        }
    }

    /// Encodes one ASCII byte, case-insensitively.
    pub fn encode_byte(self, b: u8) -> Option<u8> {
        match self {
            Alphabet::Dna => match b.to_ascii_uppercase() {
                b'A' => Some(0),
                b'C' => Some(1),
                b'G' => Some(2),
                b'T' | b'U' => Some(3),
                b'N' => Some(DNA_N),
                _ => None,
            },
            Alphabet::Protein => {
                let up = b.to_ascii_uppercase();
                PROTEIN_ORDER.iter().position(|&c| c == up).map(|p| p as u8)
            }
        }
    }

    /// Decodes one code back to its ASCII symbol.
    pub fn decode_byte(self, code: u8) -> u8 {
        match self {
            Alphabet::Dna => match code {
                0 => b'A',
                1 => b'C',
                2 => b'G',
                3 => b'T',
                _ => b'N',
            },
            Alphabet::Protein => PROTEIN_ORDER.get(code as usize).copied().unwrap_or(b'X'),
        }
    }

    /// Encodes a full ASCII sequence, reporting the first bad byte.
    pub fn encode(self, ascii: &[u8]) -> Result<Vec<u8>> {
        ascii
            .iter()
            .enumerate()
            .map(|(position, &byte)| {
                self.encode_byte(byte)
                    .ok_or(AlignError::InvalidSymbol { byte, position })
            })
            .collect()
    }

    /// Decodes a code sequence back to ASCII.
    pub fn decode(self, codes: &[u8]) -> Vec<u8> {
        codes.iter().map(|&c| self.decode_byte(c)).collect()
    }
}

/// Encodes an ASCII DNA sequence, panicking on invalid bytes.
///
/// Convenience for literals and tests; use [`Alphabet::encode`] for
/// untrusted input.
///
/// # Panics
///
/// On a byte that is not a DNA symbol.
#[allow(clippy::expect_used)] // a documented panicking helper
pub fn encode_dna(ascii: &[u8]) -> Vec<u8> {
    Alphabet::Dna.encode(ascii).expect("valid DNA")
}

/// Decodes DNA codes back to ASCII.
pub fn decode_dna(codes: &[u8]) -> Vec<u8> {
    Alphabet::Dna.decode(codes)
}

/// Encodes an ASCII protein sequence, panicking on invalid bytes.
///
/// Convenience for literals and tests; use [`Alphabet::encode`] for
/// untrusted input.
///
/// # Panics
///
/// On a byte that is not a protein symbol.
#[allow(clippy::expect_used)] // a documented panicking helper
pub fn encode_protein(ascii: &[u8]) -> Vec<u8> {
    Alphabet::Protein.encode(ascii).expect("valid protein")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_roundtrip() {
        let s = b"ACGTNacgtn";
        let enc = Alphabet::Dna.encode(s).unwrap();
        assert_eq!(enc, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4]);
        assert_eq!(Alphabet::Dna.decode(&enc), b"ACGTNACGTN".to_vec());
    }

    #[test]
    fn dna_u_maps_to_t() {
        assert_eq!(Alphabet::Dna.encode_byte(b'U'), Some(3));
        assert_eq!(Alphabet::Dna.encode_byte(b'u'), Some(3));
    }

    #[test]
    fn dna_rejects_garbage() {
        let err = Alphabet::Dna.encode(b"ACQT").unwrap_err();
        assert_eq!(
            err,
            AlignError::InvalidSymbol {
                byte: b'Q',
                position: 2
            }
        );
    }

    #[test]
    fn protein_roundtrip_all() {
        let enc = Alphabet::Protein.encode(PROTEIN_ORDER).unwrap();
        assert_eq!(enc, (0..24).collect::<Vec<u8>>());
        assert_eq!(Alphabet::Protein.decode(&enc), PROTEIN_ORDER.to_vec());
    }

    #[test]
    fn protein_case_insensitive() {
        assert_eq!(
            Alphabet::Protein.encode_byte(b'w'),
            Alphabet::Protein.encode_byte(b'W')
        );
    }

    #[test]
    fn protein_rejects_invalid() {
        assert!(Alphabet::Protein.encode_byte(b'J').is_none());
        assert!(Alphabet::Protein.encode(b"ARJ").is_err());
    }

    #[test]
    fn decode_out_of_range_is_lenient() {
        assert_eq!(Alphabet::Dna.decode_byte(200), b'N');
        assert_eq!(Alphabet::Protein.decode_byte(200), b'X');
    }

    #[test]
    fn code_counts() {
        assert_eq!(Alphabet::Dna.codes(), 5);
        assert_eq!(Alphabet::Dna.concrete_codes(), 4);
        assert_eq!(Alphabet::Protein.codes(), 24);
        assert_eq!(Alphabet::Protein.concrete_codes(), 20);
    }

    #[test]
    fn helpers_match_alphabet() {
        assert_eq!(encode_dna(b"ACGT"), vec![0, 1, 2, 3]);
        assert_eq!(decode_dna(&[0, 1, 2, 3]), b"ACGT".to_vec());
        assert_eq!(encode_protein(b"AR"), vec![0, 1]);
    }
}
