//! Differential bit-identity proptest for the lane-parallel kernels.
//!
//! The kernel contract (see `xdrop_core::kernel`) is that every
//! [`KernelKind`] produces byte-identical output to the scalar
//! reference: the same [`AlignResult`], every [`AlignStats`] field,
//! and — under [`BandPolicy::Exact`] — the same error. These
//! properties drive all kernels over randomized related pairs across
//! every band policy (including the Saturate clipping path), both
//! score cell types (`i32` and the f32 dual-issue variant), and both
//! extension directions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_ipu::core::kernel::{self, KernelKind, KERNEL_ENV};
use xdrop_ipu::core::scorety::ScoreTy;
use xdrop_ipu::core::scoring::{MatchMismatch, Scorer};
use xdrop_ipu::core::seqview::{Fwd, Rev, SeqView};
use xdrop_ipu::core::stats::AlignOutput;
use xdrop_ipu::core::xdrop2::{self, BandPolicy, Workspace};
use xdrop_ipu::core::{Result, XDropParams};

fn dna_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..max_len)
}

/// A pair of related sequences: a root plus mutations, so the
/// partially-aligning region of the parameter space is exercised
/// rather than just random noise.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (dna_seq(120), any::<u64>(), 0.0f64..0.4).prop_map(|(root, seed, err)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut other = Vec::with_capacity(root.len() + 8);
        for &b in &root {
            let r: f64 = rng.gen();
            if r < err * 0.6 {
                other.push(rng.gen_range(0..4)); // substitution
            } else if r < err * 0.8 {
                // insertion
                other.push(rng.gen_range(0..4));
                other.push(b);
            } else if r < err {
                // deletion: skip
            } else {
                other.push(b);
            }
        }
        (root, other)
    })
}

/// Runs the scalar reference and one lane-parallel kernel on the same
/// inputs and asserts the outcomes are identical down to the last
/// stats field (or the same error).
fn assert_identical<T: ScoreTy, S: Scorer, HV: SeqView, VV: SeqView>(
    kind: KernelKind,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
) -> std::result::Result<(), TestCaseError> {
    let mut ws = Workspace::<T>::new();
    let reference: Result<AlignOutput> =
        xdrop2::align_views_ty(h, v, scorer, params, policy, &mut ws);
    let mut ws = Workspace::<T>::new();
    let got = kernel::align_views(kind, h, v, scorer, params, policy, &mut ws);
    match (&reference, &got) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.result, b.result, "result {:?} {:?}", kind, policy);
            prop_assert_eq!(a.stats, b.stats, "stats {:?} {:?}", kind, policy);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error {:?} {:?}", kind, policy),
        _ => prop_assert!(
            false,
            "outcome mismatch {:?} {:?}: {:?} vs {:?}",
            kind,
            policy,
            reference,
            got
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole property: Simd and Batched (the one-pair i16 sweep)
    /// are bit-identical to Scalar across all three band
    /// policies, in both extension directions, for i32 cells.
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
            for kind in [KernelKind::Simd, KernelKind::Batched] {
                assert_identical::<i32, _, _, _>(kind, &Fwd(&h), &Fwd(&v), &sc, p, policy)?;
                assert_identical::<i32, _, _, _>(kind, &Rev(&h), &Rev(&v), &sc, p, policy)?;
            }
        }
    }

    /// Same property for the f32 dual-issue cell type (which takes
    /// the generic chunked sweep even under `Simd`).
    #[test]
    fn kernel_bit_identity_f32(
        (h, v) in related_pair(),
        x in 0i32..60,
        db in 1usize..12,
    ) {
        let sc = MatchMismatch::dna_default();
        let p = XDropParams::new(x);
        for policy in [BandPolicy::Grow(db), BandPolicy::Saturate(db)] {
            for kind in [KernelKind::Simd, KernelKind::Batched] {
                assert_identical::<f32, _, _, _>(kind, &Fwd(&h), &Fwd(&v), &sc, p, policy)?;
            }
        }
    }

    /// The public entry points dispatch through `params.kernel`: any
    /// forced kernel returns the same output as the scalar reference.
    #[test]
    fn public_align_respects_kernel_choice((h, v) in related_pair(), x in 0i32..40) {
        let sc = MatchMismatch::dna_default();
        let reference = xdrop2::align(
            &h,
            &v,
            &sc,
            XDropParams::new(x).with_kernel(KernelKind::Scalar),
            BandPolicy::Grow(4),
        ).unwrap();
        for kind in [KernelKind::Simd, KernelKind::Batched] {
            let got = xdrop2::align(
                &h,
                &v,
                &sc,
                XDropParams::new(x).with_kernel(kind),
                BandPolicy::Grow(4),
            ).unwrap();
            prop_assert_eq!(reference.result, got.result);
            prop_assert_eq!(reference.stats, got.stats);
        }
    }
}

/// A deterministic fixture pair shared by the env-knob probe and its
/// driver: both processes must compute it identically.
fn env_probe_pair() -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let h: Vec<u8> = (0..200).map(|_| rng.gen_range(0..4)).collect();
    let mut v = h.clone();
    for i in (5..v.len()).step_by(9) {
        v[i] = (v[i] + 1) % 4;
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
    assert_eq!(via_env.result, via_api.result, "{name}");
    assert_eq!(via_env.stats, via_api.stats, "{name}");
}

/// The `XDROP_KERNEL` environment knob forces the kernel selected by
/// `XDropParams::new`, and the env path is bit-identical to the
/// programmatic `with_kernel` path.
///
/// The knob is read **once per process** (`KernelKind::auto` caches
/// the resolution so overrides cannot leak between tests), so an
/// in-process `set_var` can no longer exercise it; each value is
/// instead probed in a fresh subprocess re-running this binary with
/// the env set at spawn ([`env_probe`]).
#[test]
fn env_knob_end_to_end() {
    let exe = std::env::current_exe().expect("test binary path");
    for name in ["scalar", "simd", "batched", "auto"] {
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
