//! Typed errors of the host pipeline entry points.
//!
//! * Error priority: when a run has both an alignment failure and a
//!   planning failure, every entry point — `run_pipeline` at any
//!   thread count and the out-of-core pipeline at any window size —
//!   surfaces the same error, in stage order (alignment first): the
//!   first failure of a serial `Extender::extend_each` pass, else the
//!   error of planning over the workload's metadata alone.
//! * Malformed out-of-core window streams — a repeated, skipped or
//!   overlapping window, a short stream, a stream past the end, a
//!   window whose contents disagree with the skeleton — are a typed
//!   `PipelineError::Window`, never a silent wrong result or a panic.
//! * A panic inside a pool worker (here: a scorer bug) surfaces with
//!   the worker's own message at any thread count.
//! * A seed whose end overflows `usize` is a typed
//!   `AlignError::SeedOutOfBounds` on every extension entry point,
//!   never an arithmetic panic or a wrapped bound; a seed past the
//!   sequence end is the same error out of core, where planning
//!   estimates it before any window runs.

use xdrop_ipu::core::aligner::AlignerKind;
use xdrop_ipu::core::alphabet::Alphabet;
use xdrop_ipu::core::error::AlignError;
use xdrop_ipu::core::extension::{Backend, Extender, SeedMatch};
use xdrop_ipu::core::kernel::KernelKind;
use xdrop_ipu::core::scoring::{MatchMismatch, Scorer};
use xdrop_ipu::core::workload::{Comparison, Workload};
use xdrop_ipu::core::xdrop2::BandPolicy;
use xdrop_ipu::core::XDropParams;
use xdrop_ipu::partition::pipeline::{plan_stage, run_pipeline, PipelineConfig};
use xdrop_ipu::partition::plan::PlanConfig;
use xdrop_ipu::partition::{
    run_pipeline_out_of_core, windows_of, PartitionError, PipelineError, WindowStreamError,
    WorkloadWindow,
};
use xdrop_ipu::sim::batch::BatchConfig;
use xdrop_ipu::sim::exec::{execute_workload, planning_units, ExecConfig};
use xdrop_ipu::sim::spec::IpuSpec;

/// `n` alignable DNA pairs around a protected 17-mer seed.
fn workload(n: usize) -> Workload {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(23);
    let mut w = Workload::new(Alphabet::Dna);
    for _ in 0..n {
        let root: Vec<u8> = (0..400).map(|_| rng.gen_range(0..4)).collect();
        let mut other = root.clone();
        for b in other.iter_mut() {
            if rng.gen_bool(0.05) {
                *b = (*b + 1) % 4;
            }
        }
        let pos = rng.gen_range(0..350);
        other[pos..pos + 17].copy_from_slice(&root[pos..pos + 17]);
        let h = w.seqs.push(root);
        let v = w.seqs.push(other);
        w.comparisons
            .push(Comparison::new(h, v, SeedMatch::new(pos, pos, 17)));
    }
    w
}

/// [`workload`] with comparison 7 replaced by one too big for any
/// tile, so planning fails on it.
fn workload_with_oversized(n: usize) -> Workload {
    let mut w = workload(n);
    let budget = BatchConfig::new(64).tile_budget(&IpuSpec::gc200());
    let a = w.seqs.push(vec![0; budget]);
    let b = w.seqs.push(vec![1; budget]);
    w.comparisons[7] = Comparison::new(a, b, SeedMatch::new(0, 0, 1));
    w
}

fn skeleton_of(w: &Workload) -> Workload {
    let lens: Vec<u32> = (0..w.seqs.len() as u32)
        .map(|i| w.seqs.seq_len(i) as u32)
        .collect();
    Workload::skeleton(w.seqs.alphabet, lens, w.comparisons.clone())
}

fn config(threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(15);
    cfg.exec.policy = BandPolicy::Grow(64);
    cfg.exec.host_threads = threads;
    cfg.plan = PlanConfig::partitioned(64).with_min_batches(4);
    cfg.devices = 3;
    cfg
}

/// Asserts that `run_pipeline` at 1, 2 and 8 threads and the
/// out-of-core pipeline at several window sizes and thread counts all
/// fail with `want`.
fn assert_every_entry_point_fails_with(w: &Workload, cfg: PipelineConfig, want: &PipelineError) {
    let sc = MatchMismatch::dna_default();
    let spec = IpuSpec::gc200();
    let sk = skeleton_of(w);
    for threads in [1usize, 2, 8] {
        let mut c = cfg;
        c.exec.host_threads = threads;
        let err = run_pipeline(w, &sc, &spec, &c).unwrap_err();
        assert_eq!(&err, want, "in-core, {threads} threads");
        for window in [1usize, 5, 1_000_000] {
            let windows = windows_of(w, window).into_iter();
            let err = run_pipeline_out_of_core(&sk, windows, &sc, &spec, &c, 2).unwrap_err();
            assert_eq!(
                &err, want,
                "out-of-core, window {window}, {threads} threads"
            );
        }
    }
}

#[test]
fn alignment_errors_outrank_plan_errors_on_every_entry_point() {
    // Every comparison overflows a one-cell band, and comparison 7 is
    // also too big for a tile: alignment fails first in stage order.
    let w = workload_with_oversized(24);
    let mut cfg = config(1);
    cfg.exec.policy = BandPolicy::Exact(1);
    cfg.exec.params = XDropParams::new(1000);
    // The serial pass blames the first failing comparison.
    let mut ext = Extender::new(cfg.exec.params, cfg.exec.backend());
    let mut first = None;
    let sc = MatchMismatch::dna_default();
    ext.extend_each(&w, 0..w.comparisons.len(), &sc, |_, out| {
        first = first.take().or(out.err());
    });
    let want = PipelineError::Align(first.expect("a one-cell band fails"));
    assert!(
        matches!(want, PipelineError::Align(AlignError::BandExceeded { .. })),
        "{want}"
    );
    assert_every_entry_point_fails_with(&w, cfg, &want);
}

#[test]
fn plan_errors_surface_identically_when_alignment_succeeds() {
    let w = workload_with_oversized(24);
    let cfg = config(1);
    // Planning reads only metadata, so it needs no aligned units.
    let units = planning_units(&w, cfg.exec.lr_split);
    let plan = plan_stage(&w, &units, &IpuSpec::gc200(), &cfg.flags, &cfg.plan);
    let want = PipelineError::from(plan.unwrap_err());
    assert!(
        matches!(
            want,
            PipelineError::Partition(PartitionError::OversizedComparison { comparison: 7, .. })
        ),
        "{want}"
    );
    assert_every_entry_point_fails_with(&w, cfg, &want);
}

/// Runs the out-of-core pipeline over `windows` against `w`'s
/// skeleton.
fn run_windows(w: &Workload, windows: Vec<WorkloadWindow>) -> Result<(), PipelineError> {
    let sc = MatchMismatch::dna_default();
    let spec = IpuSpec::gc200();
    run_pipeline_out_of_core(
        &skeleton_of(w),
        windows.into_iter(),
        &sc,
        &spec,
        &config(2),
        1,
    )
    .map(|_| ())
}

#[test]
fn repeated_window_is_rejected() {
    // Window 0 arrives again in place of window 1.
    let w = workload(16);
    let mut windows = windows_of(&w, 4);
    windows[1] = windows[0].clone();
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::Misplaced {
            expected: 4,
            found: 0
        }))
    );
}

#[test]
fn out_of_order_window_is_rejected() {
    let w = workload(16);
    let mut windows = windows_of(&w, 4);
    windows.swap(1, 2);
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::Misplaced {
            expected: 4,
            found: 8
        }))
    );
}

#[test]
fn overlapping_window_is_rejected() {
    // The second window starts inside the first.
    let w = workload(16);
    let mut windows = windows_of(&w, 8);
    windows.insert(1, windows_of(&w, 2)[2].clone());
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::Misplaced {
            expected: 8,
            found: 4
        }))
    );
}

#[test]
fn short_stream_is_rejected() {
    let w = workload(16);
    let mut windows = windows_of(&w, 4);
    windows.pop();
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::WrongTotal {
            covered: 12,
            total: 16
        }))
    );
}

#[test]
fn stream_past_the_end_is_rejected() {
    let w = workload(16);
    let mut windows = windows_of(&w, 4);
    let mut extra = windows[0].clone();
    extra.cmp_base = 16;
    windows.push(extra);
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::WrongTotal {
            covered: 20,
            total: 16
        }))
    );
}

#[test]
fn window_naming_a_missing_local_sequence_is_rejected() {
    // Windows of 2 comparisons hold 4 local sequences; comparison 7
    // (window 3, local comparison 1) names local slot 99.
    let w = workload(16);
    let mut windows = windows_of(&w, 2);
    assert_eq!(windows[3].workload.seqs.len(), 4);
    windows[3].workload.comparisons[1].h = 99;
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::Mismatch {
            cmp: 7
        }))
    );
}

#[test]
fn window_with_a_different_seed_is_rejected() {
    // A valid seed, but not the skeleton's: the plan would describe
    // one workload and the scores another.
    let w = workload(16);
    let mut windows = windows_of(&w, 4);
    windows[2].workload.comparisons[1].seed = SeedMatch::new(0, 0, 17);
    windows[3].workload.comparisons[0].seed = SeedMatch::new(0, 0, 17);
    assert_eq!(
        run_windows(&w, windows),
        Err(PipelineError::Window(WindowStreamError::Mismatch {
            cmp: 9
        }))
    );
}

#[test]
fn window_with_wrong_ids_or_lengths_is_rejected() {
    let w = workload(16);
    let mismatch = |cmp| Err(PipelineError::Window(WindowStreamError::Mismatch { cmp }));
    // One global id too few for the window's local sequences.
    let mut windows = windows_of(&w, 4);
    windows[1].seq_ids.pop();
    assert_eq!(run_windows(&w, windows), mismatch(4));
    // Local slot 1 of window 1 mapped to the wrong global sequence.
    let mut windows = windows_of(&w, 4);
    windows[1].seq_ids[1] = 0;
    assert_eq!(run_windows(&w, windows), mismatch(4));
    // The right global ids, but comparison 13's `v` payload is shorter
    // than the skeleton says.
    let mut windows = windows_of(&w, 4);
    let win = &mut windows[3].workload;
    let mut short = Workload::new(Alphabet::Dna);
    for id in 0..win.seqs.len() as u32 {
        let mut s = win.seqs.get(id).to_vec();
        if id == win.comparisons[1].v {
            s.pop();
        }
        short.seqs.push(s);
    }
    short.comparisons = win.comparisons.clone();
    *win = short;
    assert_eq!(run_windows(&w, windows), mismatch(13));
}

/// Six 200-base DNA pairs; comparison 3 carries `seed`.
fn workload_with_seed_3(seed: SeedMatch) -> Workload {
    let mut w = Workload::new(Alphabet::Dna);
    for i in 0..6u8 {
        let root: Vec<u8> = (0..200).map(|j| ((j * 7 + i as usize) % 4) as u8).collect();
        let h = w.seqs.push(root.clone());
        let v = w.seqs.push(root);
        w.comparisons
            .push(Comparison::new(h, v, SeedMatch::new(90, 90, 17)));
    }
    w.comparisons[3].seed = seed;
    w
}

#[test]
fn seed_past_the_sequence_end_is_a_typed_error_out_of_core() {
    // (195, 10) + 17 runs past the end of a 200-base read; (MAX, MAX)
    // also overflows the left-extension estimate's product.
    let sc = MatchMismatch::dna_default();
    let spec = IpuSpec::gc200();
    for seed in [
        SeedMatch::new(195, 10, 17),
        SeedMatch::new(usize::MAX, usize::MAX, 17),
    ] {
        let w = workload_with_seed_3(seed);
        let want = PipelineError::Align(AlignError::SeedOutOfBounds {
            seed: (seed.h_pos, seed.v_pos),
            lens: (200, 200),
        });
        for plan in [PlanConfig::partitioned(64), PlanConfig::naive(64)] {
            let mut cfg = config(2);
            cfg.plan = plan.with_min_batches(4);
            assert_eq!(run_pipeline(&w, &sc, &spec, &cfg).unwrap_err(), want);
            for window in [1usize, 4, 1_000_000] {
                let windows = windows_of(&w, window).into_iter();
                let err = run_pipeline_out_of_core(&skeleton_of(&w), windows, &sc, &spec, &cfg, 2)
                    .unwrap_err();
                assert_eq!(err, want, "{seed:?}, window {window}");
            }
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
fn worker_panic_keeps_its_message() {
    let mut w = Workload::new(Alphabet::Dna);
    for _ in 0..32 {
        let h = w.seqs.push(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        let v = w.seqs.push(vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        w.comparisons
            .push(Comparison::new(h, v, SeedMatch::new(2, 2, 4)));
    }
    let mut cfg = ExecConfig::new(XDropParams::new(5));
    cfg.host_threads = 4;
    let _ = execute_workload(&w, &PanickingScorer, &cfg);
}

#[test]
fn overflowing_seed_end_is_a_typed_error() {
    let sc = MatchMismatch::dna_default();
    let mut w = workload(24);
    // Comparisons 5 and 11 carry seeds whose end `pos + k` overflows.
    let bad = [
        (5, SeedMatch::new(usize::MAX, 0, 17)),
        (11, SeedMatch::new(0, usize::MAX - 3, 17)),
    ];
    for (ci, seed) in bad {
        w.comparisons[ci].seed = seed;
    }
    let oob = |ci: usize| {
        let c = &w.comparisons[ci];
        AlignError::SeedOutOfBounds {
            seed: (c.seed.h_pos, c.seed.v_pos),
            lens: (w.seqs.seq_len(c.h), w.seqs.seq_len(c.v)),
        }
    };
    assert_eq!(w.validate().unwrap_err(), oob(5));
    for kind in [
        AlignerKind::XDrop2,
        AlignerKind::LoganBand,
        AlignerKind::XDrop3,
    ] {
        for kernel in KernelKind::ALL {
            let params = XDropParams::new(15).with_kernel(kernel);
            let mut ext = Extender::new(params, Backend::for_kind(kind, 15, BandPolicy::Grow(64)));
            let mut each = Vec::new();
            ext.extend_each(&w, 0..w.comparisons.len(), &sc, |_, out| each.push(out));
            for (ci, c) in w.comparisons.iter().enumerate() {
                let one = ext.extend(w.seqs.get(c.h), w.seqs.get(c.v), c.seed, &sc);
                assert_eq!(one, each[ci], "{kind:?} {kernel:?} comparison {ci}");
                if bad.iter().any(|&(b, _)| b == ci) {
                    assert_eq!(one.unwrap_err(), oob(ci), "{kind:?} {kernel:?}");
                } else {
                    assert!(one.is_ok(), "{kind:?} {kernel:?} comparison {ci}");
                }
            }
            for threads in [1usize, 2, 8] {
                let mut cfg = ExecConfig::new(params).with_aligner(kind);
                cfg.policy = BandPolicy::Grow(64);
                cfg.host_threads = threads;
                let err = execute_workload(&w, &sc, &cfg).unwrap_err();
                assert_eq!(err, oob(5), "{kind:?} {kernel:?} {threads} threads");
            }
        }
    }
}
