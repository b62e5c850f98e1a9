//! Peak-heap assertion for the `i16` fused-sweep kernel reading its
//! sequences in place.
//!
//! The kernel keeps the paper's δ_b-bounded working memory: three
//! `i16` rows of `δ_b + 2` cells and two sequence windows of
//! `stride − 2 + BURST_ROUNDS` bytes, never a copy of a flank.
//! On Ecoli100-shaped pairs (`Grow(512)`, flanks of 7–25 kb), the
//! default kernel's first `Extender::extend` allocates no more than
//! the `Simd` kernel's workspace for the same δ_b, and later calls
//! allocate nothing.
//!
//! This integration test installs
//! [`xdrop_bench::alloc::TrackingAllocator`] as the global allocator
//! (integration tests are their own crate, so the override is local
//! to this binary) and holds one test only, so no other test's
//! allocations land in the measured windows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xdrop_bench::alloc::{self, TrackingAllocator};
use xdrop_core::aligner::AlignerKind;
use xdrop_core::extension::{Backend, Extender, SeedMatch};
use xdrop_core::kernel::KernelKind;
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const DELTA_B: usize = 512;
const X: i32 = 15;
const K: usize = 17;

/// A HiFi-like pair sharing a `K`-mer seed at `(flank, flank')` with
/// `flank` symbols of noisy overlap on either side.
fn pair(rng: &mut StdRng, flank: usize) -> (Vec<u8>, Vec<u8>, SeedMatch) {
    let h: Vec<u8> = (0..2 * flank + K).map(|_| rng.gen_range(0..4)).collect();
    let mut v = Vec::with_capacity(h.len() + 64);
    let mut v_seed = 0;
    for (i, &b) in h.iter().enumerate() {
        if i == flank {
            v_seed = v.len();
        }
        let in_seed = (flank..flank + K).contains(&i);
        let r: f64 = rng.gen();
        if in_seed || r >= 0.006 {
            v.push(b);
        } else if r < 0.004 {
            v.push((b + 1) % 4);
        } else if r < 0.005 {
            v.push(rng.gen_range(0..4));
            v.push(b);
        }
    }
    (h, v, SeedMatch::new(flank, v_seed, K))
}

/// Heap bytes `f` allocates at its peak, above the live heap on entry.
fn peak_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
    alloc::reset_peak();
    let base = alloc::current_bytes();
    let r = f();
    (alloc::peak_bytes() - base, r)
}

fn extender(kernel: KernelKind) -> Extender {
    Extender::new(
        XDropParams::new(X).with_kernel(kernel),
        Backend::for_kind(AlignerKind::XDrop2, X, BandPolicy::Grow(DELTA_B)),
    )
}

#[test]
fn in_place_lanes_keep_the_working_set_bounded() {
    let mut rng = StdRng::seed_from_u64(0x1EC0);
    let pairs: Vec<_> = [7_000, 25_000, 12_000]
        .into_iter()
        .map(|flank| pair(&mut rng, flank))
        .collect();
    assert!(alloc::peak_bytes() > 0, "tracking allocator installed");
    let sc = MatchMismatch::dna_default();
    let default = KernelKind::resolve_env_value(None);
    assert_eq!(default, KernelKind::Batched, "the default kernel");
    let (h, v, seed) = &pairs[0];
    let mut simd = extender(KernelKind::Simd);
    let (simd_first, _) = peak_of(|| simd.extend(h, v, *seed, &sc));
    let mut ext = extender(default);
    let (first, out) = peak_of(|| ext.extend(h, v, *seed, &sc));
    let out = out.expect("pair aligns");
    assert!(out.score > 1_000, "the flanks extend: {out:?}");
    assert!(
        first > 0 && first <= simd_first,
        "first extend allocated {first} B, the Simd workspace {simd_first} B"
    );
    for (i, (h, v, seed)) in pairs.iter().enumerate() {
        let (later, out) = peak_of(|| ext.extend(h, v, *seed, &sc));
        assert_eq!(out, simd.extend(h, v, *seed, &sc), "pair {i}");
        assert_eq!(later, 0, "warm extend of pair {i} allocated {later} B");
    }
}
