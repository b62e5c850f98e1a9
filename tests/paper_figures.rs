//! Golden file for the paper's modeled figures: the rows of Table 1
//! (`table1::run`), Figure 5 (`compare::run`) and Figure 7
//! (`scaling::run`) at a small scale, serialized to JSON and
//! compared byte for byte. The scale keeps every dataset non-empty
//! (at smaller scales some generate no comparisons) and the whole
//! test to about twenty seconds in a debug build.
//!
//! Every field of those rows is modeled — device cycles, the
//! calibrated CPU/GPU models, the cluster scheduler — so the fixture
//! is exact on any host, kernel choice and thread count. No column
//! is derived from host timing, so none is excluded.
//!
//! Regenerate the fixture after an intended change to a modeled
//! figure with `UPDATE_FIXTURES=1 cargo test --test paper_figures`.

use std::path::PathBuf;

use serde::Serialize;
use xdrop_bench::exp::compare::{self, Fig5Row};
use xdrop_bench::exp::scaling::{self, Fig7Row};
use xdrop_bench::exp::table1::{self, Table1Row};
use xdrop_ipu::data::{Dataset, DatasetKind};

#[derive(Serialize)]
struct PaperFigures {
    table1: Vec<Table1Row>,
    fig5: Vec<Fig5Row>,
    fig7: Vec<Fig7Row>,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paper_figures.json")
}

#[test]
fn modeled_paper_figures_match_the_golden() {
    let table1 = table1::run(0.0005, 15).expect("Table 1 datasets generate comparisons");
    let fig5_datasets = [
        Dataset::new(DatasetKind::Simulated85, 0.0001),
        Dataset::new(DatasetKind::Ecoli, 0.001).with_max_comparisons(8),
        Dataset::new(DatasetKind::Ecoli100, 0.01).with_max_comparisons(8),
        Dataset::new(DatasetKind::Elegans, 0.001).with_max_comparisons(8),
    ];
    let fig5 = compare::run(&fig5_datasets, &[5, 10, 15, 20], 1);
    let fig7_datasets = [DatasetKind::Ecoli100, DatasetKind::Elegans]
        .map(|k| Dataset::new(k, 0.01).with_max_comparisons(30));
    let fig7 = scaling::run(&fig7_datasets, &[15, 50], &[1, 2, 4, 8, 16, 32]);
    assert_eq!(table1.len(), 12);
    assert_eq!(fig5.len(), 4 * 4 * 4);
    assert_eq!(fig7.len(), 2 * 2 * 2 * 6);

    let json =
        serde_json::to_string_pretty(&PaperFigures { table1, fig5, fig7 }).expect("serialize");
    let path = fixture_path();
    if std::env::var("UPDATE_FIXTURES").is_ok() {
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        json, fixture,
        "a modeled paper figure drifted from tests/fixtures/paper_figures.json"
    );
}
