//! The `experiments` binary, driven as a subprocess.
//!
//! `--scale` reaches `table1`: at a factor so small that a Table 1
//! dataset generates no comparisons, the run fails with the
//! `EmptyDataset` message instead of printing bench-scale rows.

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
