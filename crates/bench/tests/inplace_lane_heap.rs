//! Peak-heap assertion for the `i16` fused-sweep kernel reading its
//! sequences in place.
//!
//! The kernel keeps the paper's δ_b-bounded working memory: the boxed
//! lane arena holds three `i16` rows of `δ_b + 2` cells and two
//! sequence windows of `δ_b + BURST_ROUNDS` bytes, never a copy of a
//! flank — 3 × 514 × 2 + 2 × 576 = 4 236 B at δ_b = 512 — plus, for a
//! matrix scorer, one `i16` substitution row of `δ_b + 2` cells. On
//! Ecoli100-shaped DNA pairs (`Grow(512)`, flanks of 7–25 kb) and on
//! BLOSUM62 protein pairs, the default kernel's first
//! `Extender::extend` allocates no more than that working set and the
//! arena's box, and later calls allocate nothing.
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
use xdrop_core::alphabet::PROTEIN_CODES;
use xdrop_core::batched::BURST_ROUNDS;
use xdrop_core::extension::{Backend, Extender, SeedMatch};
use xdrop_core::kernel::KernelKind;
use xdrop_core::scoring::{Blosum62, MatchMismatch, Scorer};
use xdrop_core::xdrop2::BandPolicy;
use xdrop_core::XDropParams;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const DELTA_B: usize = 512;
const K: usize = 17;
/// The first protein pair's floor: above what either 2 000-residue
/// BLOSUM62 flank scores alone (≈ 10 400), so both must extend.
const PROTEIN_MIN_SCORE: i32 = 12_000;

/// A pair over `codes` symbols sharing a `K`-mer seed at
/// `(flank, flank')` with `flank` symbols of noisy overlap on either
/// side.
fn pair(rng: &mut StdRng, flank: usize, codes: u8) -> (Vec<u8>, Vec<u8>, SeedMatch) {
    let h: Vec<u8> = (0..2 * flank + K)
        .map(|_| rng.gen_range(0..codes))
        .collect();
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
            v.push((b + 1) % codes);
        } else if r < 0.005 {
            v.push(rng.gen_range(0..codes));
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

fn extender(kernel: KernelKind, x: i32) -> Extender {
    Extender::new(
        XDropParams::new(x).with_kernel(kernel),
        Backend::for_kind(AlignerKind::XDrop2, x, BandPolicy::Grow(DELTA_B)),
    )
}

/// Runs `pairs` through a default-kernel extender: the first pair
/// scores above `min_score` (its flanks really extend) and its extend
/// allocates at most `bound` bytes, the alignments equal the scalar
/// reference's, and warm extends allocate nothing.
fn check<S: Scorer>(
    pairs: &[(Vec<u8>, Vec<u8>, SeedMatch)],
    sc: &S,
    x: i32,
    min_score: i32,
    bound: u64,
) {
    let default = KernelKind::resolve_env_value(None);
    assert_eq!(default, KernelKind::Batched, "the default kernel");
    let mut scalar = extender(KernelKind::Scalar, x);
    let mut ext = extender(default, x);
    let (h, v, seed) = &pairs[0];
    let (first, out) = peak_of(|| ext.extend(h, v, *seed, sc));
    let out = out.expect("pair aligns");
    assert!(out.score > min_score, "the flanks extend: {out:?}");
    assert!(
        first > 0 && first <= bound,
        "first extend allocated {first} B, the lane working set {bound} B"
    );
    for (i, (h, v, seed)) in pairs.iter().enumerate() {
        let (later, out) = peak_of(|| ext.extend(h, v, *seed, sc));
        assert_eq!(out, scalar.extend(h, v, *seed, sc), "pair {i}");
        assert_eq!(later, 0, "warm extend of pair {i} allocated {later} B");
    }
}

#[test]
fn in_place_lanes_keep_the_working_set_bounded() {
    let mut rng = StdRng::seed_from_u64(0x1EC0);
    let dna: Vec<_> = [7_000, 25_000, 12_000]
        .into_iter()
        .map(|flank| pair(&mut rng, flank, 4))
        .collect();
    let protein: Vec<_> = [2_000, 6_000, 3_500]
        .into_iter()
        .map(|flank| pair(&mut rng, flank, PROTEIN_CODES as u8))
        .collect();
    assert!(alloc::peak_bytes() > 0, "tracking allocator installed");

    let cell = std::mem::size_of::<i16>();
    let rows = 3 * (DELTA_B + 2) * cell;
    let windows = 2 * (DELTA_B + BURST_ROUNDS);
    assert_eq!(rows + windows, 4_236);
    // The boxed arena: three row `Vec`s, two boxed windows and the
    // substitution row's `Vec` (128 B on a 64-bit target).
    let arena = 4 * std::mem::size_of::<Vec<i16>>() + 2 * std::mem::size_of::<Box<[u8]>>();
    let working_set = (rows + windows + arena) as u64;
    let sub_row = ((DELTA_B + 2) * cell) as u64;

    check(&dna, &MatchMismatch::dna_default(), 15, 1_000, working_set);
    check(
        &protein,
        &Blosum62::pastis_default(),
        49,
        PROTEIN_MIN_SCORE,
        working_set + sub_row,
    );
}
