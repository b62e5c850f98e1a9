//! The `xdrop` command-line front end, driven as a subprocess.
//!
//! `xdrop assemble` rejects a k-mer length that cannot be packed
//! into one `u64` (DNA: `1..=32`) with a non-zero exit and a message
//! naming the limit, instead of silently seeding with shorter k-mers.
//! Every subcommand rejects an option it does not take with exit
//! code 2, and `xdrop align --traceback` prints a CIGAR consistent
//! with the printed end point for DNA and protein alike.

use std::path::PathBuf;
use std::process::{Command, Output};

use xdrop_ipu::core::aligner::AlignerKind;

fn xdrop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xdrop"))
        .args(args)
        .output()
        .expect("xdrop runs")
}

/// A small simulated read set, written once per test process.
fn reads() -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-reads-{}.fa", std::process::id()));
    let out = xdrop(&[
        "simulate",
        "--genome-len",
        "6000",
        "--coverage",
        "6",
        "--read-len",
        "1500",
        "--seed",
        "7",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    path
}

#[test]
fn assemble_rejects_k_outside_the_packable_range() {
    let reads = reads();
    let reads = reads.to_str().unwrap();
    for k in ["0", "33"] {
        let out = xdrop(&["assemble", reads, "--k", k]);
        assert!(!out.status.success(), "--k {k} must fail: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("1..=32"), "--k {k}: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("contigs"));
    }
    let out = xdrop(&["assemble", reads, "--k", "32"]);
    std::fs::remove_file(reads).unwrap();
    assert!(out.status.success(), "--k 32 must run: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("contigs"));
}

#[test]
fn usage_lists_every_aligner() {
    let out = xdrop(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for kind in AlignerKind::ALL {
        let name = kind.name();
        assert!(stderr.contains(name), "usage misses {name}: {stderr}");
    }
    for gone in ["affine", "hirschberg"] {
        assert!(!stderr.contains(gone), "usage names {gone}: {stderr}");
    }
}

/// Writes `records` as a FASTA file under the test's temp dir.
fn fasta(name: &str, records: &[(&str, &str)]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-{name}-{}.fa", std::process::id()));
    let text: String = records
        .iter()
        .map(|(id, seq)| format!(">{id}\n{seq}\n"))
        .collect();
    std::fs::write(&path, text).unwrap();
    path
}

/// `root` with every `step`-th symbol replaced by the next symbol of
/// `alphabet` and an extra symbol inserted after every `indel`-th.
fn mutate(root: &str, alphabet: &str, step: usize, indel: usize) -> String {
    let symbols: Vec<char> = alphabet.chars().collect();
    let next = |c: char| symbols[(alphabet.find(c).unwrap() + 1) % symbols.len()];
    let mut out = String::new();
    for (i, c) in root.chars().enumerate() {
        out.push(if i % step == step - 1 { next(c) } else { c });
        if i % indel == indel - 1 {
            out.push(c);
        }
    }
    out
}

/// A deterministic pseudo-random string over `alphabet`.
fn random_seq(alphabet: &str, len: usize, seed: u64) -> String {
    let symbols: Vec<char> = alphabet.chars().collect();
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            symbols[(state >> 33) as usize % symbols.len()]
        })
        .collect()
}

#[test]
fn unknown_options_are_usage_errors() {
    let dna = random_seq("ACGT", 120, 1);
    let a = fasta("opt-a", &[("a", &dna)]);
    let b = fasta("opt-b", &[("b", &dna)]);
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let ok = xdrop(&["align", a, b, "--x", "20"]);
    assert!(ok.status.success(), "{ok:?}");
    for (args, name) in [
        (vec!["align", a, b, "--bogus", "1"], "--bogus"),
        (vec!["align", a, b, "--affine", "-3,-1"], "--affine"),
        (vec!["stats", a, "--traceback"], "--traceback"),
    ] {
        let out = xdrop(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
    }
    for engine in ["affine", "hirschberg"] {
        let out = xdrop(&["assemble", a, "--aligner", engine]);
        assert_eq!(out.status.code(), Some(2), "--aligner {engine}: {out:?}");
    }
    std::fs::remove_file(a).unwrap();
    std::fs::remove_file(b).unwrap();
}

/// `stats` reads no alphabet, so `--protein` is an option it does not
/// take: exit code 2, and the error names it (the usage text alone
/// mentions `--protein` under `align`).
#[test]
fn stats_rejects_protein() {
    let f = fasta("stats-protein", &[("a", &random_seq("ACGT", 60, 3))]);
    let out = xdrop(&["stats", f.to_str().unwrap(), "--protein"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --protein"), "{stderr}");
    assert!(
        !stderr.contains("stats <seqs.fasta> [--protein]"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    std::fs::remove_file(f).unwrap();
}

/// Sums the run lengths of each CIGAR operation: `(M, I, D)`.
fn cigar_counts(cigar: &str) -> (usize, usize, usize) {
    let (mut counts, mut n) = ((0, 0, 0), 0usize);
    for c in cigar.chars() {
        match c {
            '0'..='9' => n = n * 10 + c.to_digit(10).unwrap() as usize,
            'M' => counts.0 += std::mem::take(&mut n),
            'I' => counts.1 += std::mem::take(&mut n),
            'D' => counts.2 += std::mem::take(&mut n),
            _ => panic!("unexpected CIGAR op {c} in {cigar}"),
        }
    }
    assert_eq!(n, 0, "dangling count in {cigar}");
    counts
}

#[test]
fn traceback_is_printed_for_dna_and_protein() {
    const AMINO: &str = "ACDEFGHIKLMNPQRSTVWY";
    let dna = random_seq("ACGT", 200, 7);
    let protein = random_seq(AMINO, 150, 11);
    for (name, alphabet, root, extra) in [
        ("dna", "ACGT", dna, None),
        ("protein", AMINO, protein, Some("--protein")),
    ] {
        let a = fasta(&format!("{name}-a"), &[("query", &root)]);
        let b = fasta(
            &format!("{name}-b"),
            &[
                ("same", &root),
                ("near", &mutate(&root, alphabet, 9, 31)),
                ("far", &mutate(&root, alphabet, 4, 13)),
            ],
        );
        let mut args = vec!["align", a.to_str().unwrap(), b.to_str().unwrap()];
        args.extend(["--x", "30", "--traceback"]);
        args.extend(extra);
        let out = xdrop(&args);
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().skip(1).collect();
        assert_eq!(lines.len(), 3, "{name}: {stdout}");
        for line in lines {
            let (_, cigar) = line
                .split_once("  cigar ")
                .unwrap_or_else(|| panic!("{name}: no cigar field in {line:?}"));
            let (_, end) = line.split_once("end (").unwrap();
            let (eh, rest) = end.split_once(',').unwrap();
            let (ev, _) = rest.split_once(')').unwrap();
            let (eh, ev): (usize, usize) = (eh.trim().parse().unwrap(), ev.trim().parse().unwrap());
            let (m, i, d) = cigar_counts(cigar.trim());
            assert!(m > 0, "{name}: {line}");
            assert_eq!((m + i, m + d), (eh, ev), "{name}: {line}");
        }
    }
}
