//! Minimal FASTA reading and writing.
//!
//! Enough to import real read sets into a [`xdrop_core::workload::Workload`] sequence pool
//! and to export generated data for inspection with standard tools.

use std::io::{self, BufRead, Write};
use xdrop_core::alphabet::Alphabet;
use xdrop_core::error::AlignError;
use xdrop_core::workload::SeqSet;

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Header line without the leading `>`.
    pub id: String,
    /// Raw ASCII sequence.
    pub seq: Vec<u8>,
}

/// Parses FASTA records from a reader.
pub fn read_fasta<R: BufRead>(reader: R) -> io::Result<Vec<Record>> {
    let mut records = Vec::new();
    let mut cur: Option<Record> = None;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(rec) = cur.take() {
                records.push(rec);
            }
            cur = Some(Record {
                id: header.to_string(),
                seq: Vec::new(),
            });
        } else if let Some(rec) = cur.as_mut() {
            rec.seq.extend_from_slice(line.as_bytes());
        } else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "sequence data before first FASTA header",
            ));
        }
    }
    if let Some(rec) = cur {
        records.push(rec);
    }
    Ok(records)
}

/// Writes records as FASTA with 80-column wrapping.
pub fn write_fasta<W: Write>(writer: &mut W, records: &[Record]) -> io::Result<()> {
    for rec in records {
        writeln!(writer, ">{}", rec.id)?;
        for chunk in rec.seq.chunks(80) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Encodes parsed records into a [`SeqSet`], rejecting bad symbols.
pub fn records_to_seqset(records: &[Record], alphabet: Alphabet) -> Result<SeqSet, AlignError> {
    let mut set = SeqSet::new(alphabet);
    for rec in records {
        set.push(alphabet.encode(&rec.seq)?);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = ">read1 first\nACGT\nACGT\n>read2\nTTTT\n";

    #[test]
    fn parse_basic() {
        let recs = read_fasta(SAMPLE.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "read1 first");
        assert_eq!(recs[0].seq, b"ACGTACGT".to_vec());
        assert_eq!(recs[1].seq, b"TTTT".to_vec());
        let crlf = ">read1 first\r\nACGT\r\nACGT\r\n\r\n>read2\r\nTTTT\r\n";
        assert_eq!(read_fasta(crlf.as_bytes()).unwrap(), recs);
    }

    #[test]
    fn parse_rejects_headerless() {
        assert!(read_fasta("ACGT\n".as_bytes()).is_err());
    }

    #[test]
    fn parse_skips_blank_lines() {
        let recs = read_fasta(">a\n\nAC\n\nGT\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
    }

    #[test]
    fn roundtrip_with_wrapping() {
        let rec = Record {
            id: "x".into(),
            seq: vec![b'A'; 200],
        };
        let mut buf = Vec::new();
        write_fasta(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.lines().all(|l| l.len() <= 80));
        let back = read_fasta(&buf[..]).unwrap();
        assert_eq!(back, vec![rec]);
    }

    #[test]
    fn encode_decode_seqset() {
        let recs = read_fasta(SAMPLE.as_bytes()).unwrap();
        let set = records_to_seqset(&recs, Alphabet::Dna).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0), &[0, 1, 2, 3, 0, 1, 2, 3][..]);
        assert_eq!(set.alphabet.decode(set.get(1)), b"TTTT".to_vec());
    }

    #[test]
    fn encode_rejects_bad_symbols() {
        let recs = vec![Record {
            id: "bad".into(),
            seq: b"ACQT".to_vec(),
        }];
        assert!(records_to_seqset(&recs, Alphabet::Dna).is_err());
    }

    /// One line of a hostile FASTA file, without its line end: a
    /// header, DNA or protein-like data (lower case, `N`, symbols no
    /// alphabet has), nothing, whitespace, an embedded NUL, invalid
    /// UTF-8, or arbitrary bytes.
    fn hostile_line() -> impl Strategy<Value = Vec<u8>> {
        (0u8..8, prop::collection::vec(any::<u8>(), 0..24)).prop_map(|(kind, raw)| {
            let pick = |alphabet: &[u8]| -> Vec<u8> {
                raw.iter()
                    .map(|&b| alphabet[b as usize % alphabet.len()])
                    .collect()
            };
            let mut line = match kind {
                0 => [b">".as_slice(), &pick(b"abc r1/_ \t")].concat(),
                1 => pick(b"ACGTNacgt"),
                2 => pick(b"ARNDCQEGHILKMFPSTWYVBZX*-"),
                3 => Vec::new(),
                4 => pick(b" \t"),
                5 => [pick(b"ACGT"), vec![0], pick(b"ACGT")].concat(),
                6 => [pick(b"ACGT"), vec![0xff, 0xc3]].concat(),
                _ => raw,
            };
            line.retain(|&b| b != b'\n');
            line
        })
    }

    /// Parses `bytes` and encodes the records under `alphabet`: every
    /// failure must be a typed error, never a panic.
    fn parse_and_encode(bytes: &[u8], alphabet: Alphabet) -> Option<Vec<Record>> {
        match read_fasta(bytes) {
            Ok(records) => {
                match records_to_seqset(&records, alphabet) {
                    Ok(set) => assert_eq!(set.len(), records.len()),
                    Err(e) => assert!(matches!(e, AlignError::InvalidSymbol { .. }), "{e:?}"),
                }
                Some(records)
            }
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                None
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes never panic the reader or the encoder.
        #[test]
        fn arbitrary_bytes_are_ok_or_typed_errors(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            for alphabet in [Alphabet::Dna, Alphabet::Protein] {
                parse_and_encode(&bytes, alphabet);
            }
        }

        /// Structured hostile files (data before the header, empty
        /// records, NUL, invalid UTF-8) are `Ok` or typed errors, and
        /// a CRLF file parses to exactly the records of its LF twin.
        #[test]
        fn hostile_files_parse_like_their_lf_twin(
            lines in prop::collection::vec(hostile_line(), 0..12),
            final_newline: bool,
        ) {
            let mut lf = lines.join(&b'\n');
            let mut crlf = lines.join(b"\r\n".as_slice());
            if final_newline {
                lf.push(b'\n');
                crlf.extend_from_slice(b"\r\n");
            }
            for alphabet in [Alphabet::Dna, Alphabet::Protein] {
                let want = parse_and_encode(&lf, alphabet);
                prop_assert_eq!(parse_and_encode(&crlf, alphabet), want);
            }
        }
    }

    #[test]
    fn empty_records_and_nul_are_typed() {
        let recs = read_fasta(">a\n>b\nAC\n".as_bytes()).unwrap();
        assert_eq!(recs[0].seq, Vec::<u8>::new());
        assert_eq!(records_to_seqset(&recs, Alphabet::Dna).unwrap().len(), 2);
        let recs = read_fasta(">a\nAC\0GT\n".as_bytes()).unwrap();
        assert_eq!(
            records_to_seqset(&recs, Alphabet::Dna).unwrap_err(),
            AlignError::InvalidSymbol {
                byte: 0,
                position: 2
            }
        );
        let err = read_fasta(&b">a\nAC\xffGT\n"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
