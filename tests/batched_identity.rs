//! Differential bit-identity suite for the kernels.
//!
//! `batched::align_views` runs one pair at a time in `i16` lanes, in
//! the caller's reused workspace; its contract is that every outcome
//! is byte-identical to running that pair through the scalar `i32`
//! reference on a fresh workspace — the same score and end position,
//! every [`AlignStats`](xdrop_ipu::core::stats::AlignStats) field,
//! and, under `BandPolicy::Exact`, the same error. These tests run
//! random lists of mixed-length related pairs (1..64 pairs), DNA under
//! match/mismatch and protein under BLOSUM62, across all band
//! policies and extension directions through one reused workspace per
//! sweep backend, as the `Extender` runs them, plus pairs forced
//! through the `i16`-overflow rerun, masked tail widths and the
//! arena's re-pitch boundaries. The kernel dispatch
//! (`kernel::align_views`, `XDropParams::kernel` and the
//! `XDROP_KERNEL` knob) is pinned to the scalar reference as well.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::aligner::logan_band_width;
use xdrop_ipu::core::alphabet::PROTEIN_CODES;
use xdrop_ipu::core::batched::{self, SweepBackend, BURST_ROUNDS};
use xdrop_ipu::core::kernel::{self, KernelKind, KERNEL_ENV};
use xdrop_ipu::core::scoring::{Blosum62, MatchMismatch, Scorer};
use xdrop_ipu::core::seqview::{Fwd, Rev, SeqView};
use xdrop_ipu::core::stats::AlignOutput;
use xdrop_ipu::core::xdrop2::{self, BandPolicy, Workspace};
use xdrop_ipu::core::{Result, XDropParams};

/// DNA symbol codes.
const DNA: u8 = 4;
/// Protein symbol codes: the 20 residues plus `B`, `Z`, `X` and `*`.
const PROTEIN: u8 = PROTEIN_CODES as u8;

/// One comparison: a root, a mutated relative, the direction each
/// side is traversed in, and the scorer — BLOSUM62 (gap −2) when
/// `protein`, the DNA default otherwise.
#[derive(Debug, Clone)]
struct TaskSpec {
    h: Vec<u8>,
    v: Vec<u8>,
    h_rev: bool,
    v_rev: bool,
    protein: bool,
}

/// An aligner a [`TaskSpec`] runs through.
trait Runner {
    fn run<S: Scorer, HV: SeqView, VV: SeqView>(
        &mut self,
        h: &HV,
        v: &VV,
        sc: &S,
    ) -> Result<AlignOutput>;
}

/// The scalar `i32` reference on a fresh workspace — the oracle every
/// lane is pinned to.
struct Scalar(XDropParams, BandPolicy);

impl Runner for Scalar {
    fn run<S: Scorer, HV: SeqView, VV: SeqView>(
        &mut self,
        h: &HV,
        v: &VV,
        sc: &S,
    ) -> Result<AlignOutput> {
        xdrop2::align_views(h, v, sc, self.0, self.1, &mut Workspace::new())
    }
}

/// The one-pair kernel ([`batched::align_views`]) at a backend in the
/// caller's workspace.
struct OnePair<'w>(XDropParams, BandPolicy, SweepBackend, &'w mut Workspace);

impl Runner for OnePair<'_> {
    fn run<S: Scorer, HV: SeqView, VV: SeqView>(
        &mut self,
        h: &HV,
        v: &VV,
        sc: &S,
    ) -> Result<AlignOutput> {
        batched::align_views(h, v, sc, self.0, self.1, self.2, self.3)
    }
}

impl TaskSpec {
    fn new(h: &[u8], v: &[u8], h_rev: bool, v_rev: bool, protein: bool) -> TaskSpec {
        TaskSpec {
            h: h.to_vec(),
            v: v.to_vec(),
            h_rev,
            v_rev,
            protein,
        }
    }

    fn scalar(&self, params: XDropParams, policy: BandPolicy) -> Result<AlignOutput> {
        self.with(&mut Scalar(params, policy))
    }

    fn one_pair(
        &self,
        params: XDropParams,
        policy: BandPolicy,
        backend: SweepBackend,
        ws: &mut Workspace,
    ) -> Result<AlignOutput> {
        self.with(&mut OnePair(params, policy, backend, ws))
    }

    fn with<R: Runner>(&self, r: &mut R) -> Result<AlignOutput> {
        if self.protein {
            self.views(r, &Blosum62::pastis_default())
        } else {
            self.views(r, &MatchMismatch::dna_default())
        }
    }

    fn views<R: Runner, S: Scorer>(&self, r: &mut R, sc: &S) -> Result<AlignOutput> {
        let (h, v) = (&self.h[..], &self.v[..]);
        match (self.h_rev, self.v_rev) {
            (false, false) => r.run(&Fwd(h), &Fwd(v), sc),
            (false, true) => r.run(&Fwd(h), &Rev(v), sc),
            (true, false) => r.run(&Rev(h), &Fwd(v), sc),
            (true, true) => r.run(&Rev(h), &Rev(v), sc),
        }
    }
}

/// A mutated copy of `root` over `codes` symbols: substitutions,
/// insertions and deletions at a total rate `err`.
fn mutate(rng: &mut StdRng, root: &[u8], err: f64, codes: u8) -> Vec<u8> {
    let mut other = Vec::with_capacity(root.len() + 8);
    for &b in root {
        let r: f64 = rng.gen();
        if r < err * 0.6 {
            other.push(rng.gen_range(0..codes)); // substitution
        } else if r < err * 0.8 {
            // insertion
            other.push(rng.gen_range(0..codes));
            other.push(b);
        } else if r < err {
            // deletion: skip
        } else {
            other.push(b);
        }
    }
    other
}

/// A list of 1..64 comparisons over `codes` symbols (BLOSUM62-scored
/// when `codes` is [`PROTEIN`]) with deliberately dispersed lengths
/// (each draws its own length cap), so a reused workspace sees long
/// and short pairs, wide and narrow bands, in any order.
fn task_batch(codes: u8) -> impl Strategy<Value = Vec<TaskSpec>> {
    let one = (
        any::<u64>(),
        1usize..200,
        0.0f64..0.4,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(move |(seed, max_len, err, h_rev, v_rev)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let root: Vec<u8> = (0..rng.gen_range(0..max_len))
                .map(|_| rng.gen_range(0..codes))
                .collect();
            let other = mutate(&mut rng, &root, err, codes);
            TaskSpec::new(&root, &other, h_rev, v_rev, codes == PROTEIN)
        });
    prop::collection::vec(one, 1..64)
}

/// A related DNA pair: a root plus mutations, so the
/// partially-aligning region of the parameter space is exercised
/// rather than just random noise.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        prop::collection::vec(0u8..DNA, 0..120),
        any::<u64>(),
        0.0f64..0.4,
    )
        .prop_map(|(root, seed, err)| {
            let other = mutate(&mut StdRng::seed_from_u64(seed), &root, err, DNA);
            (root, other)
        })
}

/// Asserts one pair's lane outcome bit-matches its scalar oracle —
/// result, then every `AlignStats` field by name, then errors.
fn assert_lane_identical(
    t: usize,
    policy: BandPolicy,
    want: &Result<AlignOutput>,
    got: &Result<AlignOutput>,
) -> std::result::Result<(), TestCaseError> {
    match (want, got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.result, b.result, "result lane={} {:?}", t, policy);
            let (s, g) = (&a.stats, &b.stats);
            prop_assert_eq!(s.cells_computed, g.cells_computed, "cells lane={}", t);
            prop_assert_eq!(s.antidiagonals, g.antidiagonals, "antidiagonals lane={}", t);
            prop_assert_eq!(s.delta_w, g.delta_w, "delta_w lane={}", t);
            prop_assert_eq!(s.delta, g.delta, "delta lane={}", t);
            prop_assert_eq!(s.work_bytes, g.work_bytes, "work_bytes lane={}", t);
            prop_assert_eq!(s.cells_dropped, g.cells_dropped, "dropped lane={}", t);
            prop_assert_eq!(s.cells_clipped, g.cells_clipped, "clipped lane={}", t);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error lane={} {:?}", t, policy),
        _ => prop_assert!(
            false,
            "outcome mismatch lane={} {:?}: {:?} vs {:?}",
            t,
            policy,
            want,
            got
        ),
    }
    Ok(())
}

/// Every pair of `batch`, run through one reused workspace per
/// supported backend, against its scalar oracle (the narrowest
/// backend) and byte for byte against the narrowest backend (the
/// wider ones), for every band policy at `δ_b = db`.
fn check_batch(
    batch: &[TaskSpec],
    p: XDropParams,
    db: usize,
) -> std::result::Result<(), TestCaseError> {
    for policy in [
        BandPolicy::Grow(db),
        BandPolicy::Exact(db),    // may legitimately error
        BandPolicy::Saturate(db), // exercises the clipping path
    ] {
        let mut reference: Option<Vec<Result<AlignOutput>>> = None;
        for backend in SweepBackend::supported() {
            let mut ws = Workspace::new();
            let got: Vec<_> = batch
                .iter()
                .map(|t| t.one_pair(p, policy, backend, &mut ws))
                .collect();
            match &reference {
                None => {
                    for (t, spec) in batch.iter().enumerate() {
                        assert_lane_identical(t, policy, &spec.scalar(p, policy), &got[t])?;
                    }
                    reference = Some(got);
                }
                Some(reference) => prop_assert_eq!(
                    reference,
                    &got,
                    "backend {:?} diverged from {:?}",
                    backend,
                    policy
                ),
            }
        }
    }
    Ok(())
}

/// Runs the scalar reference and one kernel on the same inputs and
/// asserts the outcomes are identical down to the last stats field
/// (or the same error).
fn assert_identical<S: Scorer, HV: SeqView, VV: SeqView>(
    kind: KernelKind,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> std::result::Result<(), TestCaseError> {
    let reference = xdrop2::align_views(h, v, scorer, params, policy, &mut Workspace::new());
    let got = kernel::align_views(kind, h, v, scorer, params, policy, &mut Workspace::new());
    assert_lane_identical(0, policy, &reference, &got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every pair of a mixed-length list, run through one reused
    /// workspace, is bit-identical to its scalar reference, for every
    /// band policy (Exact errors included), all four direction
    /// combinations, DNA and BLOSUM62, and every fused-sweep register
    /// backend the host supports (the backends must also be
    /// bit-identical to each other, which the shared oracle
    /// transitively enforces).
    #[test]
    fn batched_lanes_bit_match_scalar(
        dna in task_batch(DNA),
        protein in task_batch(PROTEIN),
        x in 0i32..60,
        db in 1usize..24,
    ) {
        let p = XDropParams::new(x);
        check_batch(&dna, p, db)?;
        check_batch(&protein, p, db)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel dispatch: `Batched` (the one-pair `i16` sweep) is
    /// bit-identical to `Scalar` across all three band policies, in
    /// both extension directions.
    #[test]
    fn kernel_bit_identity(
        (h, v) in related_pair(),
        x in 0i32..60,
        db in 1usize..24,
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        let policies = [
            BandPolicy::Grow(db),
            BandPolicy::Exact(db),      // may legitimately error
            BandPolicy::Saturate(db),   // exercises the clipping path
        ];
        for policy in policies {
            let kind = KernelKind::Batched;
            assert_identical(kind, &Fwd(&h), &Fwd(&v), &sc, p, policy)?;
            assert_identical(kind, &Rev(&h), &Rev(&v), &sc, p, policy)?;
        }
    }

    /// The public entry points dispatch through `params.kernel`: any
    /// forced kernel returns the same output as the scalar reference.
    #[test]
    fn public_align_respects_kernel_choice((h, v) in related_pair(), x in 0i32..40) {
        let sc = MatchMismatch::dna_default();
        let align = |kind| {
            let p = XDropParams::new(x).with_kernel(kind);
            xdrop2::align(&h, &v, &sc, p, BandPolicy::Grow(4)).unwrap()
        };
        prop_assert_eq!(align(KernelKind::Scalar), align(KernelKind::Batched));
    }
}

/// A deterministic fixture pair shared by the env-knob probe and its
/// driver: both processes must compute it identically.
fn env_probe_pair() -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let h: Vec<u8> = (0..200).map(|_| rng.gen_range(0..DNA)).collect();
    let mut v = h.clone();
    for i in (5..v.len()).step_by(9) {
        v[i] = (v[i] + 1) % DNA;
    }
    (h, v)
}

/// Subprocess body for [`env_knob_end_to_end`]: runs with
/// `XDROP_KERNEL` inherited from the parent and checks (a) the env
/// value resolved into `XDropParams::new`, and (b) the env-forced run
/// is bit-identical to the programmatically-forced one. `#[ignore]`d
/// so it never runs in a normal sweep — only re-invoked by name.
#[test]
#[ignore = "subprocess probe driven by env_knob_end_to_end"]
fn env_probe() {
    let name = std::env::var(KERNEL_ENV).expect("driver sets XDROP_KERNEL");
    let p = XDropParams::new(20);
    assert_eq!(p.kernel, KernelKind::parse(&name).unwrap(), "{name}");
    let sc = MatchMismatch::dna_default();
    let (h, v) = env_probe_pair();
    let via_env = xdrop2::align(&h, &v, &sc, p, BandPolicy::Grow(8)).unwrap();
    let via_api = xdrop2::align(
        &h,
        &v,
        &sc,
        XDropParams::new(20).with_kernel(p.kernel),
        BandPolicy::Grow(8),
    )
    .unwrap();
    assert_eq!(via_env, via_api, "{name}");
}

/// The `XDROP_KERNEL` environment knob forces the kernel selected by
/// `XDropParams::new`, and the env path is bit-identical to the
/// programmatic `with_kernel` path.
///
/// The knob is read **once per process** (`KernelKind::auto` caches
/// the resolution so overrides cannot leak between tests), so an
/// in-process `set_var` cannot exercise it; each value is instead
/// probed in a fresh subprocess re-running this binary with the env
/// set at spawn ([`env_probe`]).
#[test]
fn env_knob_end_to_end() {
    let exe = std::env::current_exe().expect("test binary path");
    for name in ["scalar", "batched", "auto"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "env_probe", "--ignored"])
            .env(KERNEL_ENV, name)
            .output()
            .expect("spawn env probe");
        assert!(
            out.status.success(),
            "env probe failed for {name}:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
    }
    // Unset: the resolution falls back to `batched`.
    let out = std::process::Command::new(&exe)
        .args(["--exact", "detect_probe", "--ignored"])
        .env_remove(KERNEL_ENV)
        .output()
        .expect("spawn detect probe");
    assert!(
        out.status.success(),
        "detect probe failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

/// Subprocess body asserting the no-override fallback.
#[test]
#[ignore = "subprocess probe driven by env_knob_end_to_end"]
fn detect_probe() {
    assert!(std::env::var(KERNEL_ENV).is_err());
    assert_eq!(XDropParams::new(20).kernel, KernelKind::Batched);
}

/// A list where one DNA and one BLOSUM62 pair's running score are
/// forced through the `i16` guard band (all-match pairs scoring past
/// `i16::MAX`) between DNA and protein pairs that stay comfortably in
/// range: each overflowed lane is re-run through the scalar path in
/// the same workspace, and every pair before and after it still
/// bit-matches its oracle.
#[test]
fn forced_overflow_lane_is_rerun_and_still_identical() {
    let p = XDropParams::new(4);
    let policy = BandPolicy::Grow(4);
    let long: Vec<u8> = (0..40_000).map(|i| (i % 4) as u8).collect();
    // W, C, H, Y: self-scores 11, 9, 8 and 7.
    let residues: Vec<u8> = (0..4_000).map(|i| [17, 4, 8, 18][i % 4]).collect();
    let mut batch: Vec<TaskSpec> = (0..7)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(i);
            let codes = if i % 3 == 0 { PROTEIN } else { DNA };
            let h: Vec<u8> = (0..120).map(|_| rng.gen_range(0..codes)).collect();
            TaskSpec::new(&h, &h, i % 2 == 0, i % 2 == 0, codes == PROTEIN)
        })
        .collect();
    batch.insert(3, TaskSpec::new(&long, &long, false, false, false));
    batch.insert(6, TaskSpec::new(&residues, &residues, true, true, true));
    for backend in SweepBackend::supported() {
        let mut ws = Workspace::new();
        for (t, spec) in batch.iter().enumerate() {
            let want = spec.scalar(p, policy).expect("oracle aligns");
            let got = spec
                .one_pair(p, policy, backend, &mut ws)
                .expect("lane aligns");
            assert_eq!(want, got, "pair {t} {backend:?}");
            if t == 3 || t == 6 {
                assert!(
                    want.result.best_score > i16::MAX as i32,
                    "forced pair {t} must actually exceed the i16 domain, got {}",
                    want.result.best_score
                );
            }
        }
    }
}

/// Masked-tail coverage for the register sweeps: `Saturate(w)` on
/// identical sequences with an effectively unbounded X pins the
/// steady row width to exactly `w` cells, so each width below
/// exercises a specific tail shape — one lone cell, one short of a
/// register (7/15/31), an exact register multiple (8/16/32/64), and
/// one past it (9/17/33). Every supported backend must bit-match the
/// scalar oracle at each width (the AVX-512 sweep has no scalar
/// epilogue at all; a wrong tail mask corrupts the pitch pads and
/// shows up here as a score or stats divergence).
#[test]
fn masked_tail_row_widths_are_bit_identical_per_backend() {
    let p = XDropParams::new(100_000);
    let mut rng = StdRng::seed_from_u64(97);
    let batch: Vec<TaskSpec> = (0..6)
        .map(|_| {
            let h: Vec<u8> = (0..200).map(|_| rng.gen_range(0..DNA)).collect();
            TaskSpec::new(&h, &h, false, false, false)
        })
        .collect();
    for w in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64] {
        let policy = BandPolicy::Saturate(w);
        for backend in SweepBackend::supported() {
            let mut ws = Workspace::new();
            for (t, spec) in batch.iter().enumerate() {
                let want = spec.scalar(p, policy).expect("oracle aligns");
                let got = spec
                    .one_pair(p, policy, backend, &mut ws)
                    .expect("lane aligns");
                assert_eq!(want, got, "width {w} backend {backend:?} pair {t}");
            }
        }
    }
}

/// A random read of `h_len` symbols over `codes` and a mutated copy
/// of it (`err` substitution/indel rate).
fn related(rng: &mut StdRng, h_len: usize, err: f64, codes: u8) -> (Vec<u8>, Vec<u8>) {
    let h: Vec<u8> = (0..h_len).map(|_| rng.gen_range(0..codes)).collect();
    let mut v = Vec::with_capacity(h_len + 8);
    for &b in &h {
        let r: f64 = rng.gen();
        if r < err * 0.6 {
            v.push((b + 1) % codes);
        } else if r < err * 0.8 {
            v.push(rng.gen_range(0..codes));
            v.push(b);
        } else if r >= err {
            v.push(b);
        }
    }
    (h, v)
}

/// Window-edge differential for the one-pair kernel: every case, run
/// through one reused workspace per supported sweep backend, equals
/// the scalar reference on a fresh workspace — result, every stats
/// field, and errors. The cases sit on the edges of the per-burst
/// sequence windows: flank lengths 0, 1, `BURST_ROUNDS − 1`,
/// `BURST_ROUNDS`, `BURST_ROUNDS + 1` and `3 × BURST_ROUNDS` on each
/// side in every direction pairing; seeds at both sequence ends (one
/// side empty, the other the whole read); Grow re-pitches in
/// mid-burst (δ_b ∈ {1, 2} on long identical reads); LOGAN's
/// saturating window; `Exact` band overflow errors; and an `i16`
/// guard-band overflow that forces the rerun in the same workspace —
/// each for DNA and for BLOSUM62.
#[test]
fn one_pair_window_edges_match_the_scalar_reference() {
    let mut rng = StdRng::seed_from_u64(0x3D6E);
    let r = BURST_ROUNDS;
    let flanks = [0, 1, r - 1, r, r + 1, 3 * r];
    let mut cases: Vec<(TaskSpec, XDropParams, BandPolicy)> = Vec::new();
    for protein in [false, true] {
        let codes = if protein { PROTEIN } else { DNA };
        let spec = |h: &[u8], v: &[u8], h_rev: bool, v_rev: bool| {
            TaskSpec::new(h, v, h_rev, v_rev, protein)
        };
        for &m in &flanks {
            for &n in &flanks {
                let (h, v) = related(&mut rng, m.max(n), 0.05, codes);
                let (h, v) = (&h[..m], &v[..n.min(v.len())]);
                for (h_rev, v_rev) in [(false, false), (true, true), (false, true), (true, false)] {
                    for policy in [
                        BandPolicy::Grow(4),
                        BandPolicy::Exact(3),
                        BandPolicy::Saturate(5),
                    ] {
                        cases.push((spec(h, v, h_rev, v_rev), XDropParams::new(20), policy));
                    }
                }
            }
        }
        // Seeds at both ends of a read: the left side of a seed at 0
        // and the right side of a seed at the end are empty, the other
        // side is the whole read (reversed on the left).
        let (h, v) = related(&mut rng, 700, 0.02, codes);
        let (p15, g512) = (XDropParams::new(15), BandPolicy::Grow(512));
        for rev in [false, true] {
            cases.push((spec(&h, &v, rev, rev), p15, g512));
            cases.push((spec(&[], &v, rev, rev), p15, g512));
            cases.push((spec(&h, &[], rev, rev), p15, g512));
        }
        // Grow re-pitches: a one- or two-cell band on long identical
        // or near-identical reads outgrows the row pitch within a
        // burst, more than once.
        let (h, v) = related(&mut rng, 5 * r + 3, 0.01, codes);
        for db in [1, 2] {
            for x in [4, 30, 200] {
                let (p, policy) = (XDropParams::new(x), BandPolicy::Grow(db));
                cases.push((spec(&h, &h, false, false), p, policy));
                cases.push((spec(&h, &v, true, true), p, policy));
            }
        }
        // LOGAN's saturating window, and a window small enough to
        // clip.
        let (h, v) = related(&mut rng, 6 * r, 0.08, codes);
        for x in [8, 15, 100_000] {
            let policy = BandPolicy::Saturate(logan_band_width(x));
            cases.push((spec(&h, &v, false, false), XDropParams::new(x), policy));
            let clip = BandPolicy::Saturate(3);
            cases.push((spec(&h, &v, true, true), XDropParams::new(x), clip));
        }
        // `Exact` overflow errors on divergent reads.
        let (h, v) = related(&mut rng, 4 * r, 0.25, codes);
        for db in [1, 2, 5] {
            let (p, policy) = (XDropParams::new(25), BandPolicy::Exact(db));
            cases.push((spec(&h, &v, false, false), p, policy));
        }
        // An all-match pair past the `i16` domain reruns in `ws`: DNA
        // scores 1 per match; W, C, H and Y self-score 11, 9, 8 and 7.
        let long: Vec<u8> = if protein {
            (0..4_000).map(|i| [17, 4, 8, 18][i % 4]).collect()
        } else {
            (0..34_000).map(|i| (i % 4) as u8).collect()
        };
        let overflow = spec(&long, &long, false, false);
        let (params, policy) = (XDropParams::new(4), BandPolicy::Grow(4));
        let best = overflow
            .scalar(params, policy)
            .expect("aligns")
            .result
            .best_score;
        assert!(
            best > i16::MAX as i32,
            "the rerun case leaves the i16 domain: {best}"
        );
        cases.push((overflow, params, policy));
        let (p, policy) = (XDropParams::new(25), BandPolicy::Grow(8));
        cases.push((spec(&h, &v, true, false), p, policy));
    }

    // Each case runs on a fresh workspace (so a small δ_b re-pitches)
    // and on one reused across all cases (stale rows and windows).
    let mut errors = 0;
    for backend in SweepBackend::supported() {
        let mut reused = Workspace::new();
        for (i, (spec, params, policy)) in cases.iter().enumerate() {
            let want = spec.scalar(*params, *policy);
            errors += usize::from(want.is_err());
            for ws in [&mut Workspace::new(), &mut reused] {
                let got = spec.one_pair(*params, *policy, backend, ws);
                assert_eq!(want, got, "case {i} {backend:?} {policy:?} x={}", params.x);
            }
        }
    }
    assert!(errors > 0, "no Exact overflow exercised");
}

/// Pitch-boundary differential for the `unsafe` sweeps. Under
/// `Grow(δ_b)` the arena's row pitch starts at `δ_b + 2`; a row of
/// `δ_b + 1` cells forces the first re-pitch and one of `2·δ_b + 1`
/// the second. With X unbounded nothing is dropped, so an `m × n`
/// pair's widest row is exactly `min(m, n) + 1` cells — each case
/// below pins its widest row to `δ_b`, `δ_b + 1` or `2·δ_b + 1`
/// (checked through the oracle's `delta_w`), at register-sized δ_b
/// and one short of them. Square pairs reach the width once; pairs
/// with one side `2·BURST_ROUNDS` longer hold it across burst starts,
/// where a lane at full band stages the longest sequence windows.
/// Every case runs on a fresh workspace and on one whose pitch an
/// earlier, wider pair left larger, in all four directions; every
/// supported backend must equal both the `Generic` backend and the
/// scalar reference, so a masked tail or window pitch that is off by
/// one shows up as a divergence or a bounds panic.
#[test]
fn pitch_boundaries_are_bit_identical_per_backend() {
    let p = XDropParams::unbounded();
    let mut rng = StdRng::seed_from_u64(0x9_17C4);
    let (wide_h, wide_v) = related(&mut rng, 300, 0.05, DNA);
    let wide = TaskSpec::new(&wide_h, &wide_v, false, false, false);
    for (protein, codes) in [(false, DNA), (true, PROTEIN)] {
        let mut random =
            |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..codes)).collect() };
        for db in [7usize, 8, 15, 16, 31, 32] {
            let policy = BandPolicy::Grow(db);
            for width in [db, db + 1, 2 * db + 1] {
                let (short, long) = (width - 1, width - 1 + 2 * BURST_ROUNDS);
                for (m, n) in [(short, short), (long, short), (short, long)] {
                    let (h, v) = (random(m), random(n));
                    for (h_rev, v_rev) in
                        [(false, false), (true, true), (false, true), (true, false)]
                    {
                        let spec = TaskSpec::new(&h, &v, h_rev, v_rev, protein);
                        pitch_case(&spec, &wide, db, width, p, policy);
                    }
                }
            }
        }
    }
}

/// One case of [`pitch_boundaries_are_bit_identical_per_backend`].
fn pitch_case(
    spec: &TaskSpec,
    wide: &TaskSpec,
    db: usize,
    width: usize,
    p: XDropParams,
    policy: BandPolicy,
) {
    let (m, n, h_rev, v_rev) = (spec.h.len(), spec.v.len(), spec.h_rev, spec.v_rev);
    let case = format!(
        "δ_b {db} width {width} {m}×{n} ({h_rev}, {v_rev}) protein {}",
        spec.protein
    );
    let want = spec.scalar(p, policy);
    let delta_w = want.as_ref().expect("oracle aligns").stats.delta_w;
    assert_eq!(delta_w, width, "{case}: the case must reach its width");
    let generic = spec.one_pair(p, policy, SweepBackend::Generic, &mut Workspace::new());
    assert_eq!(want, generic, "{case} generic");
    for backend in SweepBackend::supported() {
        let mut widened = Workspace::new();
        wide.one_pair(p, BandPolicy::Grow(64), backend, &mut widened)
            .expect("wide pair aligns");
        for (ws, label) in [(&mut Workspace::new(), "fresh"), (&mut widened, "widened")] {
            let got = spec.one_pair(p, policy, backend, ws);
            assert_eq!(generic, got, "{case} {backend:?} {label} ws");
        }
    }
}
