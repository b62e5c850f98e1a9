//! Experiment modules, one per table/figure (see `DESIGN.md` §4).

pub mod compare;
pub mod faultbench;
pub mod fleetscale;
pub mod kernelbench;
pub mod partbench;
pub mod realworld;
pub mod scaling;
pub mod search_space;
pub mod table1;
pub mod table2;
pub mod tilesched;

use std::path::Path;

/// Writes an experiment's rows to `results/<name>.json` (best
/// effort — printing is the primary output).
pub fn save_json<T: serde::Serialize>(name: &str, rows: &T) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    if let Ok(json) = serde_json::to_string_pretty(rows) {
        let _ = std::fs::write(dir.join(format!("{name}.json")), json);
    }
}

/// Writes a Chrome trace dump to `results/<name>.trace.json` (best
/// effort, like [`save_json`]); the file opens in `chrome://tracing`
/// or <https://ui.perfetto.dev>.
pub fn save_trace(name: &str, trace: &ipu_sim::trace::ChromeTrace) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.trace.json"));
    if trace.write_json(&path).is_ok() {
        println!(
            "   wrote {} (open in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
}

/// Default scorer for the DNA experiments.
pub fn dna_scorer() -> xdrop_core::scoring::MatchMismatch {
    xdrop_core::scoring::MatchMismatch::dna_default()
}
