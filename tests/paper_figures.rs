//! Golden file for the paper's figures: the modeled rows of Table 1
//! (`table1::run`), Figure 5 (`compare::run`) and Figure 7
//! (`scaling::run`), the kernel-derived search-space rows of
//! Figures 1, 2, 3 and 6 and the §6.1 memory study
//! (`search_space`), the tile-scheduling rows of Figure 4
//! (`tilesched::fig4`) and the dataset statistics of Table 2
//! (`table2::run`), at a small scale, serialized to JSON and
//! compared byte for byte. The scale keeps every dataset non-empty
//! (at smaller scales some generate no comparisons) and the whole
//! test to about half a minute in a debug build.
//!
//! Every field of those rows is modeled, counted or generated —
//! device cycles, the calibrated CPU/GPU models, the cluster
//! scheduler, DP cells, scores, band widths and seeded dataset
//! statistics — so the fixture is exact on any host, kernel choice
//! and thread count. No column is derived from host timing, so none
//! is excluded.
//!
//! Regenerate the fixture after an intended change to a modeled
//! figure with `UPDATE_FIXTURES=1 cargo test --test paper_figures`.

use std::path::PathBuf;

use serde::Serialize;
use xdrop_bench::exp::compare::{self, Fig5Row};
use xdrop_bench::exp::scaling::{self, Fig7Row};
use xdrop_bench::exp::search_space::{self, Fig1Row, Fig2Row, Fig6Row, MemoryRow};
use xdrop_bench::exp::table1::{self, Table1Row};
use xdrop_bench::exp::table2::{self, Table2Row};
use xdrop_bench::exp::tilesched::{self, Fig4Row};
use xdrop_ipu::data::{Dataset, DatasetKind};

#[derive(Serialize)]
struct PaperFigures {
    table1: Vec<Table1Row>,
    fig5: Vec<Fig5Row>,
    fig7: Vec<Fig7Row>,
    fig1: Vec<Fig1Row>,
    fig2: Vec<Fig2Row>,
    fig3: Vec<MemoryRow>,
    fig6: Vec<Fig6Row>,
    sec61: Vec<MemoryRow>,
    fig4: Vec<Fig4Row>,
    table2: Vec<Table2Row>,
}

/// The §6.1 study's E. coli workload at golden scale: reads long
/// enough that δ stays in the paper's 10 kbp range.
const SEC61_SCALE: f64 = 0.01;
const SEC61_CAP: usize = 300;

/// Table 2's multiplier of each dataset's bench scale: small enough
/// for a debug build, large enough that every dataset generates
/// comparisons.
const TABLE2_SCALE: f64 = 0.05;

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
    let fig1 = search_space::fig1(7);
    let fig2 = search_space::fig2(1_500, 3);
    let fig3 = search_space::fig3(1_000, 15, 5);
    let fig6 = search_space::fig6(1_200, &[10, 50], 11);
    let sec61 = search_space::sec61(
        &Dataset::new(DatasetKind::Ecoli, SEC61_SCALE).with_max_comparisons(SEC61_CAP),
        &[10, 15, 30],
    );
    assert_eq!((fig1.len(), fig2.len(), fig3.len()), (5, 3, 5));
    assert_eq!((fig6.len(), sec61.len()), (11 * 2, 3));
    // §6.1's headline at X = 15: a δ_b = δ_w band saves ≥ 98.2 % of
    // the classical 3δ memory, a ≥ 55× reduction.
    let x15 = &sec61[1];
    assert_eq!(x15.x, 15);
    assert!(x15.saving >= 0.982, "§6.1 saving {}", x15.saving);
    assert!(x15.reduction >= 55.0, "§6.1 reduction {}", x15.reduction);
    let fig4 = tilesched::fig4(600, 17);
    let table2 = table2::run(TABLE2_SCALE);
    assert_eq!((fig4.len(), table2.len()), (3, 4));
    assert!(
        table2.iter().all(|r| r.stats.cmp_count > 0),
        "every Table 2 dataset generates comparisons"
    );

    let json = serde_json::to_string_pretty(&PaperFigures {
        table1,
        fig5,
        fig7,
        fig1,
        fig2,
        fig3,
        fig6,
        sec61,
        fig4,
        table2,
    })
    .expect("serialize");
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
