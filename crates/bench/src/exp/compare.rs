//! Figure 5 — IPU vs SeqAn, ksw2 and LOGAN across datasets and X.
//!
//! For every dataset and X the same comparisons are aligned by all
//! four implementations; times come from each platform's model
//! (cycle counting for the IPU, the calibrated EPYC/A100 models for
//! the others) and are reported in the paper's GCUPS metric.
//! Expected shape (§6.2): IPU fastest on HiFi-like data at all
//! realistic X; SeqAn the best CPU; ksw2 behind SeqAn (larger
//! search space); LOGAN far behind at small X and closing — but not
//! catching up — at X = 20.

use crate::exp::dna_scorer;
use crate::harness::{run_ipu, IpuRunConfig};
use ipu_sim::spec::IpuSpec;
use seqdata::Dataset;
use xdrop_baselines::runner::{run_workload_scaled, ToolKind};

/// Machine scale of the Figure 5 experiment: all platforms (IPU,
/// EPYC node, A100) are shrunk by this factor so that a bench-sized
/// workload exercises the same machine-to-data ratio — per-tile
/// occupancy, straggler amortization — as the paper's multi-million-
/// comparison runs on full machines. Cross-platform *ratios* are
/// unaffected by construction.
pub const FIG5_MACHINE_SCALE: f64 = 1.0 / 64.0;

/// One (dataset, X, tool) measurement.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fig5Row {
    /// Dataset name.
    pub dataset: String,
    /// X-Drop factor.
    pub x: i32,
    /// Tool name (`IPU`, `SeqAn`, `ksw2`, `LOGAN`).
    pub tool: String,
    /// Modeled time in seconds.
    pub seconds: f64,
    /// GCUPS (theoretical cells / time).
    pub gcups: f64,
    /// Speedup relative to SeqAn on the same (dataset, X).
    pub speedup_vs_seqan: f64,
}

/// Runs the comparison grid on machines scaled by
/// [`FIG5_MACHINE_SCALE`].
pub fn run(datasets: &[Dataset], xs: &[i32], host_threads: usize) -> Vec<Fig5Row> {
    let sc = dna_scorer();
    let s = FIG5_MACHINE_SCALE;
    let mut rows = Vec::new();
    for ds in datasets {
        let w = ds.generate();
        let name = ds.kind.name().to_string();
        for &x in xs {
            let mut batch: Vec<(String, f64, f64)> = Vec::new();
            let ipu = run_ipu(
                &w,
                &sc,
                &IpuRunConfig {
                    host_threads,
                    spec: IpuSpec::bow().scaled(s),
                    ..IpuRunConfig::full(x)
                },
            );
            // Figure 5 compares on-device execution (§5.1: the paper
            // counts device cycles; the GPU is measured without data
            // transfer, the CPU without preparation time).
            batch.push(("IPU".into(), ipu.device_seconds, ipu.gcups_device));
            for tool in [ToolKind::SeqAn, ToolKind::Ksw2, ToolKind::Logan] {
                let r = run_workload_scaled(&w, tool, x, &sc, host_threads, 1, s)
                    .expect("generated seeds lie inside their sequences");
                batch.push((r.tool, r.modeled_seconds, r.gcups));
            }
            let seqan_s = batch
                .iter()
                .find(|(t, _, _)| t == "SeqAn")
                .map(|&(_, s, _)| s)
                .expect("seqan row");
            for (tool, seconds, gcups) in batch {
                rows.push(Fig5Row {
                    dataset: name.clone(),
                    x,
                    tool,
                    seconds,
                    gcups,
                    speedup_vs_seqan: seqan_s / seconds,
                });
            }
        }
    }
    rows
}

/// Text rendering grouped by dataset and X.
pub fn render(rows: &[Fig5Row]) -> String {
    let mut out = String::from(
        "Figure 5: GCUPS by tool\ndataset      X    tool    seconds      GCUPS  vs SeqAn\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<4} {:<7} {:>9.4} {:>10.1} {:>8.2}x\n",
            r.dataset, r.x, r.tool, r.seconds, r.gcups, r.speedup_vs_seqan
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdata::DatasetKind;

    /// Quick structural check. The IPU-vs-CPU *ratio* claims only
    /// hold when the simulated threads are saturated — see the
    /// ignored bench-scale test below.
    #[test]
    fn figure5_rows_complete_and_cpu_ordering() {
        // simulated85-shaped pairs (uniform mismatches, no false
        // seed matches): on these the CPU ordering SeqAn > ksw2 is
        // scale-independent — ksw2 computes at least as many cells
        // with a 2.2× heavier recurrence. (On workloads dominated by
        // false seed pairs at tiny X the ordering can invert: exact
        // X-Drop under (+1, −1, −1) never terminates on random DNA
        // while ksw2's −4 mismatches do — see EXPERIMENTS.md.)
        let ds = Dataset::new(DatasetKind::Simulated85, 0.0015); // 60 pairs
        let rows = run(&[ds], &[5, 20], 4);
        assert_eq!(rows.len(), 2 * 4);
        let get = |x: i32, tool: &str| {
            rows.iter()
                .find(|r| r.x == x && r.tool == tool)
                .expect("row")
        };
        for x in [5, 20] {
            for tool in ["IPU", "SeqAn", "ksw2", "LOGAN"] {
                let r = get(x, tool);
                assert!(r.seconds > 0.0 && r.gcups > 0.0, "{tool} x={x}");
            }
            assert!(get(x, "SeqAn").gcups > get(x, "ksw2").gcups, "x={x}");
        }
        let text = render(&rows);
        for t in ["IPU", "SeqAn", "ksw2", "LOGAN"] {
            assert!(text.contains(t));
        }
    }

    /// The full Figure 5 shape at bench scale (saturated machine).
    /// Heavy: run with `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "bench-scale shape check; run in release"]
    fn figure5_shape_on_hifi_data() {
        let ds = Dataset::bench_default(DatasetKind::Ecoli);
        let rows = run(&[ds], &[5, 20], 8);
        let get = |x: i32, tool: &str| {
            rows.iter()
                .find(|r| r.x == x && r.tool == tool)
                .expect("row")
        };
        for x in [5, 20] {
            let ipu = get(x, "IPU");
            let seqan = get(x, "SeqAn");
            let ksw2 = get(x, "ksw2");
            let logan = get(x, "LOGAN");
            assert!(ipu.gcups > seqan.gcups, "x={x}: IPU must beat SeqAn");
            assert!(seqan.gcups > ksw2.gcups, "x={x}: SeqAn must beat ksw2");
            assert!(ipu.gcups > logan.gcups, "x={x}: IPU must beat LOGAN");
        }
        // LOGAN narrows the gap as X grows.
        let gap5 = get(5, "IPU").gcups / get(5, "LOGAN").gcups;
        let gap20 = get(20, "IPU").gcups / get(20, "LOGAN").gcups;
        assert!(
            gap20 < gap5,
            "LOGAN must close in at larger X: gap5 {gap5:.1} gap20 {gap20:.1}"
        );
    }
}
