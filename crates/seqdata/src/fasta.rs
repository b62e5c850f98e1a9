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

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header line without the leading `@`.
    pub id: String,
    /// Raw ASCII sequence.
    pub seq: Vec<u8>,
    /// Phred+33 quality string, same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Mean Phred quality of the record (0.0 for empty reads).
    pub fn mean_quality(&self) -> f64 {
        if self.qual.is_empty() {
            return 0.0;
        }
        let sum: u64 = self
            .qual
            .iter()
            .map(|&q| (q.saturating_sub(33)) as u64)
            .sum();
        sum as f64 / self.qual.len() as f64
    }

    /// Drops the qualities, keeping a FASTA record.
    pub fn into_fasta(self) -> Record {
        Record {
            id: self.id,
            seq: self.seq,
        }
    }
}

/// Parses FASTQ records (4-line form) from a reader.
pub fn read_fastq<R: BufRead>(reader: R) -> io::Result<Vec<FastqRecord>> {
    let mut lines = reader.lines();
    let mut records = Vec::new();
    while let Some(header) = lines.next() {
        let header = header?;
        if header.trim().is_empty() {
            continue;
        }
        let id = header
            .strip_prefix('@')
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "FASTQ header must start with @")
            })?
            .to_string();
        let seq = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "missing sequence"))??;
        let plus = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "missing separator"))??;
        if !plus.starts_with('+') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "separator must start with +",
            ));
        }
        let qual = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "missing qualities"))??;
        if qual.len() != seq.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "quality and sequence lengths differ",
            ));
        }
        records.push(FastqRecord {
            id,
            seq: seq.into_bytes(),
            qual: qual.into_bytes(),
        });
    }
    Ok(records)
}

/// Writes FASTQ records.
pub fn write_fastq<W: Write>(writer: &mut W, records: &[FastqRecord]) -> io::Result<()> {
    for rec in records {
        writeln!(writer, "@{}", rec.id)?;
        writer.write_all(&rec.seq)?;
        writer.write_all(b"\n+\n")?;
        writer.write_all(&rec.qual)?;
        writer.write_all(b"\n")?;
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

/// Decodes a [`SeqSet`] back into FASTA records named `seq<N>`.
pub fn seqset_to_records(set: &SeqSet) -> Vec<Record> {
    set.iter()
        .map(|(id, s)| Record {
            id: format!("seq{id}"),
            seq: set.alphabet.decode(s),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">read1 first\nACGT\nACGT\n>read2\nTTTT\n";

    #[test]
    fn parse_basic() {
        let recs = read_fasta(SAMPLE.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "read1 first");
        assert_eq!(recs[0].seq, b"ACGTACGT".to_vec());
        assert_eq!(recs[1].seq, b"TTTT".to_vec());
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
        let back = seqset_to_records(&set);
        assert_eq!(back[0].seq, b"ACGTACGT".to_vec());
        assert_eq!(back[1].id, "seq1");
    }

    const FASTQ: &str = "@r1 first\nACGT\n+\nIIII\n@r2\nTT\n+\n!I\n";

    #[test]
    fn fastq_roundtrip() {
        let recs = read_fastq(FASTQ.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "r1 first");
        assert_eq!(recs[0].seq, b"ACGT".to_vec());
        assert_eq!(recs[0].qual, b"IIII".to_vec());
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let back = read_fastq(&buf[..]).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn fastq_mean_quality() {
        let recs = read_fastq(FASTQ.as_bytes()).unwrap();
        // 'I' = Phred 40, '!' = Phred 0.
        assert!((recs[0].mean_quality() - 40.0).abs() < 1e-9);
        assert!((recs[1].mean_quality() - 20.0).abs() < 1e-9);
        let fasta = recs[0].clone().into_fasta();
        assert_eq!(fasta.seq, b"ACGT".to_vec());
    }

    #[test]
    fn fastq_rejects_malformed() {
        assert!(read_fastq("ACGT\n".as_bytes()).is_err()); // no @
        assert!(read_fastq("@r\nACGT\nIIII\nIIII\n".as_bytes()).is_err()); // no +
        assert!(read_fastq("@r\nACGT\n+\nIII\n".as_bytes()).is_err()); // bad qual len
        assert!(read_fastq("@r\nACGT\n+\n".as_bytes()).is_err()); // truncated
    }

    #[test]
    fn encode_rejects_bad_symbols() {
        let recs = vec![Record {
            id: "bad".into(),
            seq: b"ACQT".to_vec(),
        }];
        assert!(records_to_seqset(&recs, Alphabet::Dna).is_err());
    }
}
