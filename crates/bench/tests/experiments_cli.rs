//! The `experiments` binary, driven as a subprocess.
//!
//! `--scale` reaches `table1`: at a factor so small that a Table 1
//! dataset generates no comparisons, the run fails with the
//! `EmptyDataset` message instead of printing bench-scale rows. An
//! unknown experiment name is a usage error before anything runs.

use std::process::Command;

#[test]
fn table1_honours_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table1", "--scale", "1e-4"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("experiments runs");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("generated no comparisons; use a larger scale"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("Dual issue"));
}

#[test]
fn unknown_experiment_is_a_usage_error_without_a_banner() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("e2e")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown experiment e2e"), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("==>"),
        "{out:?}"
    );
}
