//! `experiments e2e` — end-to-end host-pipeline benchmark.
//!
//! Unlike every figure experiment (which reports *modeled* IPU time),
//! this one measures real host wall-clock for the whole Workload →
//! ClusterReport pipeline: the static-chunk reference
//! (`run_pipeline_reference`) versus `run_pipeline`, whose stages run
//! on work-stealing pools, at 1/2/4/8 host threads, on a
//! Figure-7-style workload. Both produce bit-identical reports —
//! asserted on every iteration — so the only thing that differs is
//! how long the host takes. The `run_pipeline` rows keep the
//! `"streaming"` label of the row schema.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- e2e --bench-json
//! ```

use crate::exp::dna_scorer;
use crate::exp::scaling::FIG7_MACHINE_SCALE;
use ipu_sim::spec::IpuSpec;
use seqdata::{Dataset, DatasetKind};
use std::time::Instant;
use xdrop_partition::pipeline::{run_pipeline, run_pipeline_reference, PipelineConfig};
use xdrop_partition::plan::PlanConfig;

/// One measured (pipeline × thread-count) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct E2eRow {
    /// `"reference"` (`run_pipeline_reference`) or `"streaming"`
    /// (`run_pipeline`).
    pub pipeline: String,
    /// Host threads the pipeline was asked to use.
    pub threads: usize,
    /// Best-of-iterations host wall-clock for the full run.
    pub seconds: f64,
    /// Theoretical DP cells / seconds / 1e9 — *host* throughput, not
    /// the modeled device GCUPS of the figures.
    pub gcups_host: f64,
    /// Reference seconds at the same thread count divided by this
    /// row's seconds (1.0 for the reference rows themselves).
    pub speedup_vs_reference: f64,
    /// CPU cores available on the measuring host. Speedups above 1×
    /// at high thread counts require real cores; readers (and the
    /// baseline test) gate on this.
    pub host_cores: usize,
}

/// The command documented to regenerate the e2e section of
/// `BENCH_xdrop.json`.
pub const E2E_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- e2e --bench-json";

/// Thread counts measured.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn config(threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(15);
    cfg.exec.host_threads = threads;
    cfg.plan = PlanConfig::partitioned(512).with_min_batches(16);
    cfg
}

/// Runs the benchmark. `scale` multiplies the workload size; `iters`
/// is how many times each configuration runs (best time wins).
pub fn run(scale: f64, iters: usize) -> Vec<E2eRow> {
    let iters = iters.max(1);
    let ds = Dataset::new(DatasetKind::Ecoli100, 0.06 * scale)
        .with_max_comparisons(((400.0 * scale) as usize).max(32));
    let w = ds.generate();
    let sc = dna_scorer();
    let spec = IpuSpec::bow().scaled(FIG7_MACHINE_SCALE);
    let theoretical = w.theoretical_cells() as f64;
    let cores = host_cores();

    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let cfg = config(threads);
        let oracle = run_pipeline_reference(&w, &sc, &spec, &cfg).expect("grow policy never fails");
        let mut best = [f64::INFINITY; 2];
        for _ in 0..iters {
            for (slot, pooled) in [false, true].into_iter().enumerate() {
                let t0 = Instant::now();
                let out = if pooled {
                    run_pipeline(&w, &sc, &spec, &cfg)
                } else {
                    run_pipeline_reference(&w, &sc, &spec, &cfg)
                }
                .expect("grow policy never fails");
                let dt = t0.elapsed().as_secs_f64();
                best[slot] = best[slot].min(dt);
                assert_eq!(
                    out.report, oracle.report,
                    "pipelines must be bit-identical (threads {threads})"
                );
                assert_eq!(out.exec.results, oracle.exec.results);
            }
        }
        let [ref_s, stream_s] = best;
        for (pipeline, seconds) in [("reference", ref_s), ("streaming", stream_s)] {
            rows.push(E2eRow {
                pipeline: pipeline.to_string(),
                threads,
                seconds,
                gcups_host: theoretical / seconds / 1e9,
                speedup_vs_reference: ref_s / seconds,
                host_cores: cores,
            });
        }
    }
    rows
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[E2eRow]) -> String {
    let cores = rows.first().map_or(0, |r| r.host_cores);
    let mut s = format!(
        "pipeline    threads    seconds    host GCUPS   vs reference   ({cores} host cores)\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<11} {:>7} {:>10.4} {:>13.3} {:>13.2}x\n",
            r.pipeline, r.threads, r.seconds, r.gcups_host, r.speedup_vs_reference
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2e_rows_cover_grid_and_agree() {
        // Tiny scale: the structure and the bit-identity assertions
        // inside run() are the test, not the timing.
        let rows = run(0.1, 1);
        assert_eq!(rows.len(), THREAD_COUNTS.len() * 2);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].pipeline, "reference");
            assert_eq!(pair[1].pipeline, "streaming");
            assert_eq!(pair[0].threads, pair[1].threads);
            assert!((pair[0].speedup_vs_reference - 1.0).abs() < 1e-12);
            assert!(pair[1].seconds > 0.0 && pair[1].gcups_host > 0.0);
        }
        assert!(render(&rows).contains("vs reference"));
    }
}
