//! Cross-tool consistency: the simulated-IPU kernel (memory-
//! restricted two-antidiagonal), the SeqAn model (classical
//! three-antidiagonal), the LOGAN model (saturating band) and the
//! ksw2 model (affine z-drop) must agree on alignment scores whenever
//! their search spaces coincide.
//!
//! Both sides extend through `Extender::extend_each`: the executor
//! picks its engine via `ExecConfig::with_aligner`
//! ([`xdrop_ipu::core::aligner::AlignerKind`]), and the baseline
//! runner ([`xdrop_ipu::baselines::runner`]) maps each tool to its
//! engine with `ToolKind::aligner`. What the tests pin is therefore
//! the tool models themselves: each tool's scores against the
//! executor's under the same engine, the one-sided laws between
//! tools, and every tool report's scores and cell counts against a
//! fixture.

use xdrop_ipu::baselines::runner::{run_workload, ToolKind};
use xdrop_ipu::core::aligner::AlignerKind;
use xdrop_ipu::prelude::*;
use xdrop_ipu::sim::execute_workload;
use xdrop_ipu::sim::ExecConfig;

fn workload() -> Workload {
    Dataset::new(DatasetKind::Ecoli, 0.01)
        .with_max_comparisons(80)
        .generate()
}

fn facade_scores(w: &Workload, kind: AlignerKind, x: i32) -> Vec<i32> {
    let sc = MatchMismatch::dna_default();
    let cfg = ExecConfig::new(XDropParams::new(x)).with_aligner(kind);
    execute_workload(w, &sc, &cfg)
        .unwrap()
        .results
        .iter()
        .map(|r| r.score)
        .collect()
}

#[test]
fn ipu_and_seqan_scores_identical() {
    // Same algorithm family (exact X-Drop), different memory layout
    // and code path: scores must match exactly, comparison by
    // comparison.
    let w = workload();
    let sc = MatchMismatch::dna_default();
    for x in [5, 15] {
        let ipu = facade_scores(&w, AlignerKind::XDrop2, x);
        let seqan = run_workload(&w, ToolKind::SeqAn, x, &sc, 4, 1).unwrap();
        assert_eq!(ipu, seqan.scores, "x={x}");
    }
}

/// Every facade engine that models a tool must score the whole
/// workload through the executor identically to that tool's runner
/// report: same seed-and-extend convention, same band geometry, same
/// scoring scale.
#[test]
fn facade_backends_match_baseline_runners() {
    let w = workload();
    let sc = MatchMismatch::dna_default();
    let pairs = [
        (AlignerKind::XDrop3, ToolKind::SeqAn),
        (AlignerKind::LoganBand, ToolKind::Logan),
        (AlignerKind::Ksw2, ToolKind::Ksw2),
    ];
    for (kind, tool) in pairs {
        let facade = facade_scores(&w, kind, 15);
        let runner = run_workload(&w, tool, 15, &sc, 4, 1).unwrap();
        assert_eq!(
            facade,
            runner.scores,
            "facade {} vs runner {}",
            kind.name(),
            tool.name()
        );
    }
}

#[test]
fn logan_scores_never_exceed_exact() {
    // LOGAN's saturating fixed band can miss score but never invent
    // it.
    let w = workload();
    let sc = MatchMismatch::dna_default();
    let x = 15;
    let exact = run_workload(&w, ToolKind::SeqAn, x, &sc, 4, 1).unwrap();
    let logan = run_workload(&w, ToolKind::Logan, x, &sc, 4, 1).unwrap();
    for (ci, (e, l)) in exact.scores.iter().zip(&logan.scores).enumerate() {
        assert!(l <= e, "comparison {ci}: LOGAN {l} > exact {e}");
    }
    // And on HiFi-like data the band is generous enough that nearly
    // everything matches exactly.
    let same = exact
        .scores
        .iter()
        .zip(&logan.scores)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        same * 10 >= exact.scores.len() * 9,
        "{same}/{} identical",
        exact.scores.len()
    );
    // The same one-sided law holds through the facade, which shares
    // the runner's band geometry by construction.
    let facade_exact = facade_scores(&w, AlignerKind::XDrop3, x);
    let facade_logan = facade_scores(&w, AlignerKind::LoganBand, x);
    for (ci, (e, l)) in facade_exact.iter().zip(&facade_logan).enumerate() {
        assert!(l <= e, "comparison {ci}: facade LOGAN {l} > exact {e}");
    }
}

#[test]
fn ksw2_finds_homology_where_xdrop_does() {
    // Different scoring scale, same biology: pairs that score well
    // under exact X-Drop must also score well under ksw2 — whether
    // ksw2 runs as the standalone tool model or as a facade engine.
    let w = workload();
    let sc = MatchMismatch::dna_default();
    let exact = run_workload(&w, ToolKind::SeqAn, 15, &sc, 4, 1).unwrap();
    let ksw2 = run_workload(&w, ToolKind::Ksw2, 15, &sc, 4, 1).unwrap();
    let facade_ksw2 = facade_scores(&w, AlignerKind::Ksw2, 15);
    for (ci, c) in w.comparisons.iter().enumerate() {
        let min_len = w.seqs.seq_len(c.h).min(w.seqs.seq_len(c.v)) as i32;
        if exact.scores[ci] > min_len / 2 {
            assert!(
                ksw2.scores[ci] > min_len / 2,
                "comparison {ci}: xdrop {} but ksw2 {}",
                exact.scores[ci],
                ksw2.scores[ci]
            );
            assert_eq!(
                facade_ksw2[ci], ksw2.scores[ci],
                "comparison {ci}: facade ksw2 diverged from runner"
            );
        }
    }
}

#[test]
fn work_accounting_consistent_across_tools() {
    let w = workload();
    let sc = MatchMismatch::dna_default();
    let x = 15;
    let ipu = execute_workload(&w, &sc, &ExecConfig::new(XDropParams::new(x))).unwrap();
    let seqan = run_workload(&w, ToolKind::SeqAn, x, &sc, 4, 1).unwrap();
    // Identical pruning rule ⇒ identical cell counts.
    assert_eq!(ipu.total_cells_computed(), seqan.cells_computed);
    // LOGAN's padded lane work is at least its real work.
    let logan = run_workload(&w, ToolKind::Logan, x, &sc, 4, 1).unwrap();
    assert!(logan.padded_cells >= logan.cells_computed);
}

/// What the pin records of one runner report.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct PinnedReport {
    tool: String,
    x: i32,
    scores: Vec<i32>,
    cells_computed: u64,
    padded_cells: u64,
}

/// Pins every tool report's scores and work counters for x ∈ {5, 15}
/// at 1 and 4 runner threads against `tests/fixtures/tool_reports.json`:
/// the figures the Figure 5 comparison models time from. Regenerate
/// after an intentional change with
/// `UPDATE_FIXTURES=1 cargo test --test cross_tool_consistency`.
#[test]
fn tool_reports_match_the_pinned_fixture() {
    let w = workload();
    let sc = MatchMismatch::dna_default();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tool_reports.json");
    let mut got = Vec::new();
    for tool in [ToolKind::SeqAn, ToolKind::Ksw2, ToolKind::Logan] {
        for x in [5, 15] {
            let pin = |threads| {
                let r = run_workload(&w, tool, x, &sc, threads, 1).unwrap();
                PinnedReport {
                    tool: r.tool,
                    x,
                    scores: r.scores,
                    cells_computed: r.cells_computed,
                    padded_cells: r.padded_cells,
                }
            };
            let one = pin(1);
            assert_eq!(one, pin(4), "{} x={x}: 1 vs 4 threads", tool.name());
            got.push(one);
        }
    }
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&path, serde_json::to_string(&got).unwrap() + "\n").unwrap();
    }
    let want: Vec<PinnedReport> =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(got, want);
}
