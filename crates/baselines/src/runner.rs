//! The multi-threaded benchmark runner (§5.1): executes a workload
//! through one of the comparator tools and reports both real wall
//! time (of this host) and the modeled time on the paper's machines.
//!
//! Each tool is an engine of the [`xdrop_core::aligner`] facade:
//! SeqAn is `XDrop3`, ksw2 `Ksw2` and LOGAN `LoganBand`. Every runner
//! thread extends its share of the comparisons through one
//! [`Extender`], the seed-and-extend loop the simulated IPU executor
//! and the pipelines run too, so a tool differs from the IPU kernel
//! in its engine alone.

use crate::logan;
use crate::models::{CpuModel, GpuModel};
use std::ops::Range;
use xdrop_core::aligner::AlignerKind;
use xdrop_core::error::Result;
use xdrop_core::extension::{Backend, Extender};
use xdrop_core::scoring::Scorer;
use xdrop_core::workload::Workload;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// Which comparator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ToolKind {
    /// SeqAn-style X-Drop (CPU).
    SeqAn,
    /// ksw2-style affine z-drop (CPU).
    Ksw2,
    /// LOGAN-style X-Drop (GPU model).
    Logan,
}

impl ToolKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::SeqAn => "SeqAn",
            ToolKind::Ksw2 => "ksw2",
            ToolKind::Logan => "LOGAN",
        }
    }

    /// The facade engine that models the tool: SeqAn's
    /// `extendSeed(..., GappedXDrop())` is the three-antidiagonal
    /// Zhang X-Drop, ksw2 the affine z-drop extension, and LOGAN the
    /// two-antidiagonal kernel under its fixed saturating window.
    fn aligner(self) -> AlignerKind {
        match self {
            ToolKind::SeqAn => AlignerKind::XDrop3,
            ToolKind::Ksw2 => AlignerKind::Ksw2,
            ToolKind::Logan => AlignerKind::LoganBand,
        }
    }
}

/// Result of running one tool over one workload.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ToolReport {
    /// Tool name.
    pub tool: String,
    /// Real wall-clock on this host (informational only).
    pub wall_seconds: f64,
    /// Modeled time on the paper's hardware.
    pub modeled_seconds: f64,
    /// The paper's GCUPS metric: theoretical cells / modeled time.
    pub gcups: f64,
    /// DP cells the algorithm really evaluated.
    pub cells_computed: u64,
    /// Lane work including SIMT padding (equals `cells_computed`
    /// for CPU tools).
    pub padded_cells: u64,
    /// Per-comparison total scores (left + seed + right), in each
    /// tool's own scoring scale.
    pub scores: Vec<i32>,
}

/// Scores, computed cells and padded cells of a run of comparisons.
type Totals = (Vec<i32>, u64, u64);

/// Runs `tool` over the comparisons in `range`; a failure reports the
/// range's first failing comparison.
fn run_range<S: Scorer>(
    w: &Workload,
    tool: ToolKind,
    x: i32,
    scorer: &S,
    range: Range<usize>,
) -> Result<Totals> {
    // None of the three engines reads the caller's band policy.
    let backend = Backend::for_kind(tool.aligner(), x, BandPolicy::Grow(64));
    let mut ext = Extender::new(XDropParams::new(x), backend);
    let mut scores = Vec::with_capacity(range.len());
    let (mut cells, mut padded) = (0u64, 0u64);
    let mut failure = None;
    ext.extend_each(w, range, scorer, |_, out| match out {
        Ok(out) => {
            let computed = out.stats().cells_computed;
            scores.push(out.score);
            cells += computed;
            padded += match tool {
                ToolKind::Logan => {
                    logan::padded_cells(&out.left.stats, x)
                        + logan::padded_cells(&out.right.stats, x)
                }
                ToolKind::SeqAn | ToolKind::Ksw2 => computed,
            };
        }
        Err(e) => {
            failure.get_or_insert(e);
        }
    });
    failure.map_or(Ok((scores, cells, padded)), Err)
}

/// Runs `tool` over the whole workload with `host_threads` runner
/// threads, modeling `devices` CPU nodes / GPUs. Fails with the
/// smallest failing comparison's error (a seed past a sequence end,
/// say).
pub fn run_workload<S: Scorer + Sync>(
    w: &Workload,
    tool: ToolKind,
    x: i32,
    scorer: &S,
    host_threads: usize,
    devices: usize,
) -> Result<ToolReport> {
    run_workload_scaled(w, tool, x, scorer, host_threads, devices, 1.0)
}

/// [`run_workload`] on proportionally scaled-down machines
/// (`machine_scale < 1`) — used by the scale-model experiments so
/// that bench-sized workloads exercise the same machine-to-data
/// ratios as the paper's full-size runs.
///
/// The runner threads take contiguous ranges of the comparison list;
/// a panicking thread re-raises its own panic here.
pub fn run_workload_scaled<S: Scorer + Sync>(
    w: &Workload,
    tool: ToolKind,
    x: i32,
    scorer: &S,
    host_threads: usize,
    devices: usize,
    machine_scale: f64,
) -> Result<ToolReport> {
    let n = w.comparisons.len();
    let started = std::time::Instant::now();
    let threads = host_threads.clamp(1, 64).min(n.max(1));
    let (scores, cells, padded) = if threads <= 1 || n < 32 {
        run_range(w, tool, x, scorer, 0..n)?
    } else {
        let chunk = n.div_ceil(threads);
        let pieces: Vec<Result<Totals>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|lo| s.spawn(move || run_range(w, tool, x, scorer, lo..(lo + chunk).min(n))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Ranges ascend, so the first failing range holds the
        // smallest failing comparison.
        let mut totals: Totals = (Vec::with_capacity(n), 0, 0);
        for piece in pieces {
            let (s, c, p) = piece?;
            totals.0.extend(s);
            totals.1 += c;
            totals.2 += p;
        }
        totals
    };
    let wall_seconds = started.elapsed().as_secs_f64();
    // Units of work per comparison for overhead modeling: left +
    // right extension.
    let alignments = 2 * n;
    let modeled_seconds = match tool {
        ToolKind::SeqAn => CpuModel::epyc7763_seqan()
            .scaled(machine_scale)
            .seconds(cells, alignments, devices),
        ToolKind::Ksw2 => CpuModel::epyc7763_ksw2()
            .scaled(machine_scale)
            .seconds(cells, alignments, devices),
        ToolKind::Logan => GpuModel::a100_logan()
            .scaled(machine_scale)
            .seconds(padded, alignments, devices),
    };
    let theoretical = w.theoretical_cells();
    Ok(ToolReport {
        tool: tool.name().to_string(),
        wall_seconds,
        modeled_seconds,
        gcups: if modeled_seconds > 0.0 {
            theoretical as f64 / modeled_seconds / 1e9
        } else {
            0.0
        },
        cells_computed: cells,
        padded_cells: padded,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::error::AlignError;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;

    fn workload() -> Workload {
        let mut rng = StdRng::seed_from_u64(5);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..30 {
            let root: Vec<u8> = (0..800).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.03) {
                    *b = (*b + 1) % 4;
                }
            }
            let pos = rng.gen_range(100..700);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    #[test]
    fn all_tools_produce_scores() {
        let w = workload();
        let sc = MatchMismatch::dna_default();
        for tool in [ToolKind::SeqAn, ToolKind::Ksw2, ToolKind::Logan] {
            let r = run_workload(&w, tool, 15, &sc, 2, 1).unwrap();
            assert_eq!(r.scores.len(), w.comparisons.len());
            assert!(
                r.scores.iter().all(|&s| s > 0),
                "{} scores positive",
                r.tool
            );
            assert!(r.modeled_seconds > 0.0);
            assert!(r.gcups > 0.0);
        }
    }

    #[test]
    fn seqan_and_logan_agree_on_easy_data() {
        // Small X, generous LOGAN band: same linear-gap scoring →
        // identical scores.
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let a = run_workload(&w, ToolKind::SeqAn, 10, &sc, 2, 1).unwrap();
        let b = run_workload(&w, ToolKind::Logan, 10, &sc, 2, 1).unwrap();
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn logan_pads_cpu_does_not() {
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let cpu = run_workload(&w, ToolKind::SeqAn, 10, &sc, 2, 1).unwrap();
        let gpu = run_workload(&w, ToolKind::Logan, 10, &sc, 2, 1).unwrap();
        assert_eq!(cpu.padded_cells, cpu.cells_computed);
        assert!(gpu.padded_cells > gpu.cells_computed);
    }

    #[test]
    fn parallel_runner_deterministic() {
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let a = run_workload(&w, ToolKind::SeqAn, 15, &sc, 1, 1).unwrap();
        let b = run_workload(&w, ToolKind::SeqAn, 15, &sc, 8, 1).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.cells_computed, b.cells_computed);
    }

    #[test]
    fn ksw2_runs_and_scales_scores_by_two() {
        // Same easy data: ksw2 at mat=2 should roughly double the
        // SeqAn score on high-identity pairs.
        let w = workload();
        let sc = MatchMismatch::dna_default();
        let a = run_workload(&w, ToolKind::SeqAn, 20, &sc, 2, 1).unwrap();
        let k = run_workload(&w, ToolKind::Ksw2, 20, &sc, 2, 1).unwrap();
        for (sa, sk) in a.scores.iter().zip(&k.scores) {
            let ratio = *sk as f64 / (*sa as f64);
            assert!(ratio > 1.2 && ratio < 2.4, "ratio {ratio}");
        }
    }

    #[test]
    fn seed_past_the_end_fails_with_the_smallest_comparison() {
        // Comparisons 7 and 20 carry seeds past their sequences'
        // ends, in different runner ranges at 4 threads: every tool
        // reports comparison 7, at any thread count.
        let mut w = workload();
        w.comparisons[20].seed = SeedMatch::new(790, 10, 17);
        w.comparisons[7].seed = SeedMatch::new(10, 5_000, 17);
        let want = AlignError::SeedOutOfBounds {
            seed: (10, 5_000),
            lens: (800, 800),
        };
        let sc = MatchMismatch::dna_default();
        for tool in [ToolKind::SeqAn, ToolKind::Ksw2, ToolKind::Logan] {
            for threads in [1, 4] {
                let got = run_workload(&w, tool, 15, &sc, threads, 1).unwrap_err();
                assert_eq!(got, want, "{} t={threads}", tool.name());
            }
        }
    }

    /// A DNA scorer whose every similarity lookup panics.
    struct PanickingScorer;

    impl Scorer for PanickingScorer {
        fn sim(&self, _: u8, _: u8) -> i32 {
            panic!("boom from scorer")
        }
        fn gap(&self) -> i32 {
            -1
        }
        fn alphabet(&self) -> Alphabet {
            Alphabet::Dna
        }
    }

    #[test]
    #[should_panic(expected = "boom from scorer")]
    fn worker_panic_keeps_its_payload() {
        let _ = run_workload(&workload(), ToolKind::SeqAn, 15, &PanickingScorer, 4, 1);
    }
}
