//! The `xdrop` command-line front end, driven as a subprocess.
//!
//! `xdrop assemble` rejects a k-mer length that cannot be packed
//! into one `u64` (DNA: `1..=32`) with a non-zero exit and a message
//! naming the limit, instead of silently seeding with shorter k-mers.

use std::path::PathBuf;
use std::process::{Command, Output};

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
    for name in [
        "xdrop2",
        "xdrop3",
        "affine",
        "hirschberg",
        "logan-band",
        "ksw2",
    ] {
        assert!(stderr.contains(name), "usage misses {name}: {stderr}");
    }
}
