//! Kernel dispatch: the scalar reference or the `i16` fused sweep.
//!
//! [`KernelKind::Scalar`] is the per-cell loop of
//! [`crate::xdrop2::align_views`], the reference every other path
//! is pinned to. [`KernelKind::Batched`], the default, is the `i16`
//! fused sweep of [`crate::batched`]: DNA and BLOSUM62 run in its
//! lanes, and whatever the lanes cannot take (a scorer without
//! [`Scorer::substitution`], out-of-range scores) runs the scalar
//! reference.
//!
//! ## Bit-identity is the contract
//!
//! Every kernel must produce the *same bytes* as the scalar reference
//! — same [`crate::stats::AlignResult`], same
//! [`crate::stats::AlignStats`] field for field, same
//! [`crate::error::AlignError`] under [`BandPolicy::Exact`]. The IPU
//! simulator's cost model consumes those stats; if a kernel changed
//! `cells_computed` by one cell, every modeled figure would silently
//! shift. The contract is enforced by the `kernel_bit_identity` and
//! `batched_lanes_bit_match_scalar` differential proptests (tier-1)
//! across all [`BandPolicy`] variants, DNA and BLOSUM62, and both
//! extension directions. Kernel choice may
//! therefore only ever change host wall-clock, never results and
//! never modeled time.

use crate::error::Result;
use crate::scoring::Scorer;
use crate::seqview::SeqView;
use crate::stats::AlignOutput;
use crate::xdrop2::{self, BandPolicy, Workspace};
use crate::XDropParams;

/// Environment variable forcing the kernel choice: `scalar`,
/// `batched`, or `auto` (= `batched`). Unknown values fall back to
/// `batched` with a one-time stderr warning. Intended for tests and
/// for A/B runs of the bench harness.
pub const KERNEL_ENV: &str = "XDROP_KERNEL";

/// Which antidiagonal inner-loop implementation to run.
///
/// Both variants are bit-identical; they differ only in host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// The reference per-cell loop of
    /// [`crate::xdrop2::align_views`].
    Scalar,
    /// The `i16` fused sweep ([`crate::batched::align_views`]): one
    /// pair at a time, reading the views in place, in the caller's
    /// workspace, with an overflow-rerun safety net. The
    /// [`KernelKind::auto`] default. Configurations the `i16` lanes
    /// cannot take run [`KernelKind::Scalar`].
    Batched,
}

/// The widest SIMD capability detected on this host, as a stable
/// lower-case string: `"avx512bw"`, `"avx2"`, `"sse2"` (x86-64), or
/// `"generic"`. This is the *capability report* — what the hardware
/// offers — as recorded in `BENCH_xdrop.json`'s host section and the
/// trace meta events; which backend the default kernel runs is
/// [`crate::batched::SweepBackend::detect`].
pub fn host_simd() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512bw") {
            "avx512bw"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "generic"
    }
}

/// Ordinal tier of [`host_simd`], for numeric consumers (the trace
/// meta event's args can only carry numbers): `4` = avx512bw,
/// `3` = avx2, `1` = sse2, `0` = generic.
pub fn host_simd_tier() -> u32 {
    match host_simd() {
        "avx512bw" => 4,
        "avx2" => 3,
        "sse2" => 1,
        _ => 0,
    }
}

impl KernelKind {
    /// Every kernel, scalar first (bench/report ordering).
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Batched];

    /// Stable lower-case name (`scalar` / `batched`).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Batched => "batched",
        }
    }

    /// Parses a kernel name as accepted by [`KERNEL_ENV`]; `auto` is
    /// `batched`, whose sweep backend is detected at runtime.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "batched" | "auto" => Some(KernelKind::Batched),
            _ => None,
        }
    }

    /// [`KernelKind::Batched`] unless [`KERNEL_ENV`] forces a kernel.
    ///
    /// The environment variable is read **once per process** and the
    /// resolution cached: mutating
    /// `XDROP_KERNEL` at runtime — e.g. from one test while another
    /// builds an [`XDropParams`] on a sibling thread — cannot change
    /// which kernel later calls select. Programmatic selection goes
    /// through [`XDropParams::with_kernel`] or a per-request
    /// [`crate::aligner::AlignRequest`].
    pub fn auto() -> KernelKind {
        static RESOLVED: std::sync::OnceLock<KernelKind> = std::sync::OnceLock::new();
        *RESOLVED.get_or_init(KernelKind::resolve_env)
    }

    /// Uncached resolution of [`KERNEL_ENV`]: what [`KernelKind::auto`]
    /// caches on first use. Exposed so tests can pin the env-value →
    /// kernel mapping without mutating process state.
    pub fn resolve_env() -> KernelKind {
        KernelKind::resolve_env_value(std::env::var(KERNEL_ENV).ok().as_deref())
    }

    /// Pure form of [`KernelKind::resolve_env`]: resolves an override
    /// value as if `XDROP_KERNEL` held it (`None` = unset). An
    /// unrecognized value resolves to `Batched` but warns loudly (once
    /// per process) instead of silently ignoring the override.
    pub fn resolve_env_value(value: Option<&str>) -> KernelKind {
        static WARNED: std::sync::Once = std::sync::Once::new();
        match value {
            Some(v) => KernelKind::parse(v).unwrap_or_else(|| {
                WARNED.call_once(|| {
                    eprintln!("warning: unrecognized {KERNEL_ENV}={v:?}; falling back to batched");
                });
                KernelKind::Batched
            }),
            None => KernelKind::Batched,
        }
    }
}

/// Runs the selected kernel: `Scalar` the reference implementation
/// unchanged, `Batched` the `i16` fused sweep on this one pair in `ws`
/// at the detected sweep backend.
pub fn align_views<S: Scorer, HV: SeqView, VV: SeqView>(
    kind: KernelKind,
    h: &HV,
    v: &VV,
    scorer: &S,
    params: XDropParams,
    policy: BandPolicy,
    ws: &mut Workspace,
) -> Result<AlignOutput> {
    match kind {
        KernelKind::Scalar => xdrop2::align_views(h, v, scorer, params, policy, ws),
        KernelKind::Batched => crate::batched::align_views(
            h,
            v,
            scorer,
            params,
            policy,
            crate::batched::SweepBackend::detect(),
            ws,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::{encode_dna, encode_protein};
    use crate::scoring::{Blosum62, MatchMismatch};
    use crate::seqview::{Fwd, Rev};

    fn sc() -> MatchMismatch {
        MatchMismatch::dna_default()
    }

    fn mutated(h: &[u8], stride: usize) -> Vec<u8> {
        let mut v = h.to_vec();
        for i in (stride..v.len()).step_by(stride) {
            v[i] = (v[i] + 1) % 4;
        }
        v
    }

    /// Both kernels on fresh workspaces: the scalar reference's
    /// outcome must equal the batched kernel's.
    fn assert_kernels_agree<S: Scorer, HV: SeqView, VV: SeqView>(
        h: &HV,
        v: &VV,
        scorer: &S,
        p: XDropParams,
        policy: BandPolicy,
    ) {
        let run = |kind| align_views(kind, h, v, scorer, p, policy, &mut Workspace::new());
        assert_eq!(
            run(KernelKind::Scalar),
            run(KernelKind::Batched),
            "{policy:?} x={}",
            p.x
        );
    }

    #[test]
    fn names_parse_roundtrip() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::parse("  BATCHED "), Some(KernelKind::Batched));
        assert!(KernelKind::parse("simd").is_none());
        assert!(KernelKind::parse("chunked").is_none());
        assert_eq!(KernelKind::parse("auto"), Some(KernelKind::Batched));
    }

    #[test]
    fn env_knob_resolution_is_pure() {
        // The override → kernel mapping, without `set_var`: mutating
        // the real environment from a test leaks into sibling threads
        // (`XDropParams::new` reads the cached resolution), so the
        // mapping is pinned through the pure resolver instead. The
        // end-to-end env path runs in a subprocess from
        // `tests/batched_identity.rs`.
        for (value, kind) in [
            ("scalar", KernelKind::Scalar),
            ("batched", KernelKind::Batched),
            ("simd", KernelKind::Batched),
            ("definitely-not-a-kernel", KernelKind::Batched),
        ] {
            assert_eq!(KernelKind::resolve_env_value(Some(value)), kind, "{value}");
        }
        assert_eq!(KernelKind::resolve_env_value(None), KernelKind::Batched);
        // And the cached reader agrees with an uncached resolution of
        // the (unmutated) process environment.
        assert_eq!(KernelKind::auto(), KernelKind::resolve_env());
    }

    #[test]
    fn kernels_identical_on_fixed_cases() {
        let base = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(12)); // 240 bp
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (base.clone(), base.clone()),
            (base.clone(), mutated(&base, 7)),
            (base.clone(), mutated(&base, 3)),
            (base[..60].to_vec(), mutated(&base, 5)),
            (encode_dna(b"A"), encode_dna(b"C")),
            (encode_dna(b"ACGT"), Vec::new()),
        ];
        let policies = [
            BandPolicy::Exact(3),
            BandPolicy::Exact(512),
            BandPolicy::Grow(2),
            BandPolicy::Grow(64),
            BandPolicy::Saturate(4),
            BandPolicy::Saturate(17),
        ];
        for (h, v) in &cases {
            for policy in policies {
                for x in [0, 3, 25, 10_000] {
                    let p = XDropParams::new(x);
                    assert_kernels_agree(&Fwd(h), &Fwd(v), &sc(), p, policy);
                    assert_kernels_agree(&Rev(h), &Rev(v), &sc(), p, policy);
                }
            }
        }
    }

    #[test]
    fn blosum62_is_identical() {
        let h = encode_protein(&b"MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ".repeat(3));
        let mut v = h.clone();
        for i in (5..v.len()).step_by(11) {
            v[i] = (v[i] + 1) % 20;
        }
        let scb = Blosum62::pastis_default();
        for policy in [
            BandPolicy::Grow(8),
            BandPolicy::Exact(4),
            BandPolicy::Saturate(6),
        ] {
            let p = XDropParams::new(12);
            assert_kernels_agree(&Fwd(&h), &Fwd(&v), &scb, p, policy);
            assert_kernels_agree(&Rev(&h), &Rev(&v), &scb, p, policy);
        }
    }

    #[test]
    fn workspace_shared_across_kernels_is_clean() {
        // One workspace reused by both kernels back to back — neither
        // kernel's leftovers may leak into the next call.
        let h = encode_dna(&b"ACGTTGCACAGTCCATGGAT".repeat(6));
        let v = mutated(&h, 4);
        let p = XDropParams::new(15);
        let mut ws = Workspace::new();
        let want = align_views(
            KernelKind::Scalar,
            &Fwd(&h),
            &Fwd(&v),
            &sc(),
            p,
            BandPolicy::Grow(4),
            &mut Workspace::new(),
        );
        for kind in [
            KernelKind::Batched,
            KernelKind::Scalar,
            KernelKind::Batched,
            KernelKind::Scalar,
        ] {
            let got = align_views(
                kind,
                &Fwd(&h),
                &Fwd(&v),
                &sc(),
                p,
                BandPolicy::Grow(4),
                &mut ws,
            );
            assert_eq!(want, got, "{kind:?}");
        }
    }
}
