//! Kernel execution: real alignments, measured work.
//!
//! The simulator's timing inputs are not synthetic estimates — every
//! comparison of the workload is aligned for real with the
//! memory-restricted kernel, and the per-unit [`AlignStats`] drive
//! the cost model. Scores are therefore exact, and the timing model
//! sees precisely the irregularity (early X-Drop terminations, band
//! growth on noisy pairs) that makes load balancing hard on the real
//! machine.
//!
//! [`execute_workload`] splits the comparisons over the host pool
//! ([`pool::steal`]); its output is identical for any thread count.

use crate::pool::{self, resolve_threads, SharedSlots};
use xdrop_core::aligner::AlignerKind;
use xdrop_core::error::Result;
use xdrop_core::extension::{Backend, ExtendOutcome, Extender, Side};
use xdrop_core::scoring::Scorer;
use xdrop_core::stats::AlignStats;
use xdrop_core::workload::Workload;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// X-Drop parameters. The embedded [`XDropParams::kernel`]
    /// choice (scalar / SIMD / batched) only changes host wall-clock
    /// — all kernels are bit-identical, so modeled time and every
    /// reported statistic are unaffected.
    pub params: XDropParams,
    /// Band policy for the memory-restricted kernel.
    pub policy: BandPolicy,
    /// Which alignment engine serves the extensions (per-request
    /// engine selection of the [`xdrop_core::aligner`] facade).
    /// Defaults to the paper's [`AlignerKind::XDrop2`].
    pub aligner: AlignerKind,
    /// Emit two work units (left, right) per comparison instead of
    /// one fused unit — the LR-splitting optimization (§4.1.2).
    pub lr_split: bool,
    /// Host threads used to run the kernels (simulation-side
    /// parallelism only; does not affect results or modeled time).
    /// `0` means "auto": [`std::thread::available_parallelism`].
    pub host_threads: usize,
}

impl ExecConfig {
    /// Defaults: X = 15, growing band from δ_b = 256, the paper's
    /// two-antidiagonal engine, LR split on, host threads
    /// auto-detected.
    pub fn new(params: XDropParams) -> Self {
        Self {
            params,
            policy: BandPolicy::Grow(256),
            aligner: AlignerKind::XDrop2,
            lr_split: true,
            host_threads: 0,
        }
    }

    /// Selects the alignment engine.
    pub fn with_aligner(mut self, aligner: AlignerKind) -> Self {
        self.aligner = aligner;
        self
    }

    /// The extension backend this configuration resolves to.
    pub fn backend(&self) -> Backend {
        Backend::for_kind(self.aligner, self.params.x, self.policy)
    }
}

/// One schedulable unit of work: a whole comparison, or one side of
/// it under LR splitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkUnit {
    /// Index of the comparison in the workload.
    pub cmp: u32,
    /// Which side (`None` = fused left+right unit).
    pub side: Option<Side>,
    /// Measured kernel work.
    pub stats: AlignStats,
    /// Score contributed by this unit (extension score only; seed
    /// score is accounted in [`UnitResult`]).
    pub score: i32,
    /// Worst-case work estimate `|H|×|V|` used by the batchers
    /// (§4.2: actual runtime is unknowable in advance, so the
    /// quadratic bound is used).
    pub est_complexity: u64,
}

/// Final per-comparison alignment outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct UnitResult {
    /// Total score: left + seed + right.
    pub score: i32,
    /// Combined stats of both extensions.
    pub stats: AlignStats,
}

/// Output of [`execute_workload`].
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Schedulable units, in deterministic order (comparison order;
    /// under LR splitting left precedes right).
    pub units: Vec<WorkUnit>,
    /// Per-comparison results, parallel to `workload.comparisons`.
    pub results: Vec<UnitResult>,
}

impl ExecOutput {
    /// Total DP cells actually computed across all units.
    pub fn total_cells_computed(&self) -> u64 {
        self.units.iter().map(|u| u.stats.cells_computed).sum()
    }

    /// Largest live band width observed — the `δ_w` a static `δ_b`
    /// must dominate for the whole workload.
    pub fn max_delta_w(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.stats.delta_w)
            .max()
            .unwrap_or(0)
    }
}

/// The one or two work units of comparison `ci` (two under LR
/// splitting: left then right), with `cmp`, `side` and
/// `est_complexity` set and default stats and zero score.
fn unit_shells(w: &Workload, lr_split: bool, ci: usize) -> (WorkUnit, Option<WorkUnit>) {
    let c = &w.comparisons[ci];
    let unit = |side, est_complexity| WorkUnit {
        cmp: ci as u32,
        side,
        stats: AlignStats::default(),
        score: 0,
        est_complexity,
    };
    if lr_split {
        let (lh, lv) = w.left_lens(c);
        let (rh, rv) = w.right_lens(c);
        (
            unit(Some(Side::Left), lh as u64 * lv as u64),
            Some(unit(Some(Side::Right), rh as u64 * rv as u64)),
        )
    } else {
        (unit(None, w.complexity(c)), None)
    }
}

/// Work units derivable from workload *metadata alone*: same `cmp`,
/// `side` and `est_complexity` as the real units, but default stats
/// and zero score.
///
/// Both batch planners ([`crate::batch::naive_batches`] and the
/// graph-partitioned planner) read only `cmp` and `est_complexity`,
/// so planning over these placeholders yields exactly the batches
/// planning over the aligned units would — which is what lets the
/// out-of-core pipeline plan from a lengths-only skeleton.
pub fn planning_units(w: &Workload, lr_split: bool) -> Vec<WorkUnit> {
    let mut units = Vec::with_capacity(w.comparisons.len() * if lr_split { 2 } else { 1 });
    for ci in 0..w.comparisons.len() {
        let (u0, u1) = unit_shells(w, lr_split, ci);
        units.push(u0);
        units.extend(u1);
    }
    units
}

/// The result and work units of comparison `ci` given its extension
/// outcome: the [`unit_shells`] filled with each side's stats and
/// score (or the fused stats and total score without LR splitting).
fn aligned_units(
    w: &Workload,
    lr_split: bool,
    ci: usize,
    out: &ExtendOutcome,
) -> (UnitResult, WorkUnit, Option<WorkUnit>) {
    let (mut u0, mut u1) = unit_shells(w, lr_split, ci);
    let stats = out.stats();
    match &mut u1 {
        Some(right) => {
            (u0.stats, u0.score) = (out.left.stats, out.left.result.best_score);
            (right.stats, right.score) = (out.right.stats, out.right.result.best_score);
        }
        None => (u0.stats, u0.score) = (stats, out.score),
    }
    let result = UnitResult {
        score: out.score,
        stats,
    };
    (result, u0, u1)
}

/// Aligns every comparison of `w` and returns the schedulable units
/// plus per-comparison results. Deterministic regardless of
/// `cfg.host_threads` and of the kernel, errors included: a failing
/// run reports the smallest failing comparison index, as the serial
/// pass does.
///
/// Runs on [`pool::steal`]: comparisons are claimed one at a time in
/// LPT order of their `|H|×|V|` bound and aligned by
/// [`Extender::extend`] with one extender per worker. Each
/// comparison writes its result and units straight into its slots of
/// the final vectors, so the output is identical for any thread count
/// and any claim interleaving.
pub fn execute_workload<S: Scorer + Sync>(
    w: &Workload,
    scorer: &S,
    cfg: &ExecConfig,
) -> Result<ExecOutput> {
    let n = w.comparisons.len();
    let upc = if cfg.lr_split { 2 } else { 1 };
    let threads = if n < 16 {
        1
    } else {
        resolve_threads(cfg.host_threads)
    };
    let (results, units) = pool::steal(
        n,
        |ci| w.complexity(&w.comparisons[ci]),
        threads,
        (
            SharedSlots::new(n, 1, UnitResult::default()),
            SharedSlots::new(n, upc, WorkUnit::default()),
        ),
        || Extender::new(cfg.params, cfg.backend()),
        |ext, claim| {
            let ci = claim.task() as usize;
            let c = &w.comparisons[ci];
            match ext.extend(w.seqs.get(c.h), w.seqs.get(c.v), c.seed, scorer) {
                Ok(out) => {
                    let (result, units) = claim.slot();
                    let (r, u0, u1) = aligned_units(w, cfg.lr_split, ci, &out);
                    result[0] = r;
                    units[0] = u0;
                    if let Some(u1) = u1 {
                        units[1] = u1;
                    }
                }
                Err(e) => claim.fail(e),
            }
        },
    )?;
    Ok(ExecOutput {
        units: units.into_vec(),
        results: results.into_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xdrop_core::alphabet::Alphabet;
    use xdrop_core::error::AlignError;
    use xdrop_core::extension::SeedMatch;
    use xdrop_core::kernel::KernelKind;
    use xdrop_core::scoring::MatchMismatch;
    use xdrop_core::workload::Comparison;

    fn small_workload() -> Workload {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        let mut w = Workload::new(Alphabet::Dna);
        for _ in 0..40 {
            let root: Vec<u8> = (0..500).map(|_| rng.gen_range(0..4)).collect();
            let mut other = root.clone();
            for b in other.iter_mut() {
                if rng.gen_bool(0.05) {
                    *b = (*b + 1) % 4;
                }
            }
            // Protect an exact seed.
            let pos = rng.gen_range(0..450);
            other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
            let h = w.seqs.push(root);
            let v = w.seqs.push(other);
            w.comparisons
                .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
        }
        w
    }

    /// A unit's side, stats and score.
    type UnitView = (Option<Side>, AlignStats, i32);

    /// The serial oracle, independent of the pool and its slots: one
    /// extender runs [`Extender::extend_each`] over the comparisons in
    /// index order, and each outcome becomes its result and units by
    /// hand. The first error in index order wins.
    fn serial<S: Scorer>(
        w: &Workload,
        sc: &S,
        c: &ExecConfig,
    ) -> Result<(Vec<UnitResult>, Vec<UnitView>)> {
        let mut ext = Extender::new(c.params, c.backend());
        let (mut results, mut units, mut err) = (Vec::new(), Vec::new(), None);
        ext.extend_each(w, 0..w.comparisons.len(), sc, |_, out| match out {
            Ok(o) if err.is_none() => {
                results.push(UnitResult {
                    score: o.score,
                    stats: o.stats(),
                });
                if c.lr_split {
                    units.push((Some(Side::Left), o.left.stats, o.left.result.best_score));
                    units.push((Some(Side::Right), o.right.stats, o.right.result.best_score));
                } else {
                    units.push((None, o.stats(), o.score));
                }
            }
            Err(e) if err.is_none() => err = Some(e),
            _ => {}
        });
        err.map_or(Ok((results, units)), Err)
    }

    fn unit_view(out: &ExecOutput) -> Vec<UnitView> {
        out.units
            .iter()
            .map(|u| (u.side, u.stats, u.score))
            .collect()
    }

    fn cfg(lr: bool) -> ExecConfig {
        ExecConfig {
            params: XDropParams::new(15),
            policy: BandPolicy::Grow(64),
            aligner: AlignerKind::XDrop2,
            lr_split: lr,
            host_threads: 4,
        }
    }

    #[test]
    fn fused_units_one_per_comparison() {
        let w = small_workload();
        let out = execute_workload(&w, &MatchMismatch::dna_default(), &cfg(false)).unwrap();
        assert_eq!(out.units.len(), w.comparisons.len());
        assert_eq!(out.results.len(), w.comparisons.len());
        assert!(out.units.iter().all(|u| u.side.is_none()));
    }

    #[test]
    fn split_units_two_per_comparison() {
        let w = small_workload();
        let out = execute_workload(&w, &MatchMismatch::dna_default(), &cfg(true)).unwrap();
        assert_eq!(out.units.len(), 2 * w.comparisons.len());
        // Left/right alternate and reference the right comparison.
        for (i, pair) in out.units.chunks(2).enumerate() {
            assert_eq!(pair[0].cmp as usize, i);
            assert_eq!(pair[0].side, Some(Side::Left));
            assert_eq!(pair[1].side, Some(Side::Right));
        }
    }

    #[test]
    fn split_and_fused_agree_on_scores() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let a = execute_workload(&w, &sc, &cfg(false)).unwrap();
        let b = execute_workload(&w, &sc, &cfg(true)).unwrap();
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.score, rb.score);
        }
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let mut c1 = cfg(true);
        c1.host_threads = 1;
        let mut c8 = cfg(true);
        c8.host_threads = 8;
        let a = execute_workload(&w, &sc, &c1).unwrap();
        let b = execute_workload(&w, &sc, &c8).unwrap();
        assert_eq!(a.units, b.units);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn work_stealing_matches_serial_extension() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for lr in [false, true] {
            let (results, units) = serial(&w, &sc, &cfg(lr)).unwrap();
            for threads in [1usize, 3, 8] {
                let mut c = cfg(lr);
                c.host_threads = threads;
                let got = execute_workload(&w, &sc, &c).unwrap();
                assert_eq!(unit_view(&got), units, "lr={lr} threads={threads}");
                assert_eq!(got.results, results, "lr={lr} threads={threads}");
            }
        }
    }

    #[test]
    fn planning_units_match_real_unit_metadata() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for lr in [false, true] {
            let real = execute_workload(&w, &sc, &cfg(lr)).unwrap();
            let planned = planning_units(&w, lr);
            assert_eq!(planned.len(), real.units.len());
            for (p, r) in planned.iter().zip(&real.units) {
                assert_eq!(p.cmp, r.cmp);
                assert_eq!(p.side, r.side);
                assert_eq!(p.est_complexity, r.est_complexity);
            }
        }
    }

    #[test]
    fn errors_surface_smallest_failing_comparison() {
        use xdrop_core::xdrop2::BandPolicy;
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        // Exact(1) band cannot hold 5% error flanks: every comparison
        // fails, and the pool must blame the one the serial pass
        // blames (the smallest failing index).
        let mut c = cfg(true);
        c.policy = BandPolicy::Exact(1);
        let want = serial(&w, &sc, &c).unwrap_err();
        assert!(matches!(want, AlignError::BandExceeded { .. }));
        for threads in [1usize, 8] {
            c.host_threads = threads;
            let err = execute_workload(&w, &sc, &c).unwrap_err();
            assert_eq!(err, want, "threads={threads}");
        }
    }

    #[test]
    fn pool_blames_the_smallest_failing_comparison() {
        // Comparisons 5 and 30 carry out-of-bounds seeds, whose
        // errors name different coordinates. Comparison 30 is the
        // largest, so LPT order claims it first; the pool must still
        // report comparison 5, as the serial pass does.
        let mut w = small_workload();
        let h = w.seqs.push(vec![0; 2_000]);
        let v = w.seqs.push(vec![0; 2_000]);
        w.comparisons[30] = Comparison::new(h, v, SeedMatch::new(5_000, 5_000, 17));
        w.comparisons[5].seed = SeedMatch::new(10_000, 10_000, 17);
        let cost = |ci: usize| w.complexity(&w.comparisons[ci]);
        assert!((0..w.comparisons.len()).all(|ci| ci == 30 || cost(ci) < cost(30)));
        let sc = MatchMismatch::dna_default();
        let want = AlignError::SeedOutOfBounds {
            seed: (10_000, 10_000),
            lens: (500, 500),
        };
        for kernel in [KernelKind::Scalar, KernelKind::Batched] {
            let mut c = cfg(true);
            c.params = c.params.with_kernel(kernel);
            for threads in [1usize, 2, 3, 8] {
                c.host_threads = threads;
                let got = execute_workload(&w, &sc, &c).unwrap_err();
                assert_eq!(got, want, "{kernel:?} t={threads}");
            }
            assert_eq!(serial(&w, &sc, &c).unwrap_err(), want, "{kernel:?} serial");
        }
    }

    #[test]
    fn batched_kernel_matches_scalar_executor_bit_for_bit() {
        // Both engines the batched lane kernel implements: the paper's
        // two-antidiagonal kernel under the caller's band policy, and
        // LOGAN's fixed saturating window.
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        for aligner in [AlignerKind::XDrop2, AlignerKind::LoganBand] {
            for lr in [false, true] {
                let mut scalar = cfg(lr).with_aligner(aligner);
                scalar.params = scalar.params.with_kernel(KernelKind::Scalar);
                scalar.host_threads = 1;
                let oracle = execute_workload(&w, &sc, &scalar).unwrap();
                for threads in [1usize, 3, 8] {
                    let mut c = cfg(lr).with_aligner(aligner);
                    c.params = c.params.with_kernel(KernelKind::Batched);
                    c.host_threads = threads;
                    let got = execute_workload(&w, &sc, &c).unwrap();
                    let ctx = format!("{aligner:?} lr={lr} threads={threads}");
                    assert_eq!(oracle.units, got.units, "{ctx}");
                    assert_eq!(oracle.results, got.results, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn batched_kernel_errors_match_scalar_executor() {
        use xdrop_core::xdrop2::BandPolicy;
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let mut scalar = cfg(true);
        scalar.policy = BandPolicy::Exact(1);
        scalar.params = scalar.params.with_kernel(KernelKind::Scalar);
        scalar.host_threads = 1;
        let want = execute_workload(&w, &sc, &scalar).unwrap_err();
        for threads in [1usize, 8] {
            let mut c = cfg(true);
            c.policy = BandPolicy::Exact(1);
            c.params = c.params.with_kernel(KernelKind::Batched);
            c.host_threads = threads;
            let got = execute_workload(&w, &sc, &c).unwrap_err();
            assert_eq!(want, got, "threads={threads}");
        }
    }

    #[test]
    fn scores_are_plausible() {
        let w = small_workload();
        let sc = MatchMismatch::dna_default();
        let out = execute_workload(&w, &sc, &cfg(true)).unwrap();
        for r in &out.results {
            // 5% error, 500 bp: score must be solidly positive.
            assert!(r.score > 100, "score {}", r.score);
        }
        assert!(out.total_cells_computed() > 0);
        assert!(out.max_delta_w() >= 1);
    }
}
