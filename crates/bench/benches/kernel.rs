//! Criterion A/B of the antidiagonal kernel implementations
//! (`Scalar` vs `Simd` vs `Batched`, the latter as a batch of one) on
//! DNA workloads.
//!
//! Two axes: steady band width (pinned with `BandPolicy::Saturate`
//! on identical sequences and a huge X, so every kernel sweeps
//! exactly `w` cells per antidiagonal) and sequence length. The same
//! grid backs the machine-readable `BENCH_xdrop.json` baseline — see
//! `xdrop_bench::exp::kernelbench` and the README "Performance"
//! section. All kernels are bit-identical (enforced by the
//! `kernel_bit_identity` proptest); this bench only measures host
//! wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::gen::{generate_pair, MutationProfile, PairSpec};
use xdrop_core::alphabet::Alphabet;
use xdrop_core::kernel::{self, KernelKind};
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::seqview::Fwd;
use xdrop_core::xdrop2::{BandPolicy, Workspace};
use xdrop_core::XDropParams;

fn pair(len: usize, err: f64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = PairSpec {
        len,
        seed_len: 17,
        seed_frac: 0.0,
        errors: MutationProfile::uniform_mismatch(err),
        alphabet: Alphabet::Dna,
    };
    let p = generate_pair(&mut rng, &spec);
    (p.h, p.v)
}

fn bench_kernel_dispatch(c: &mut Criterion) {
    let sc = MatchMismatch::dna_default();

    // Fixed band width: identical sequences + Saturate(w) + huge X
    // keep the live band saturated at exactly w cells per sweep.
    let (h, _) = pair(10_000, 0.0);
    let mut group = c.benchmark_group("kernel_band");
    for w in [16usize, 64, 256] {
        for kind in KernelKind::ALL {
            group.bench_with_input(BenchmarkId::new(kind.name(), w), &w, |b, &w| {
                let mut ws = Workspace::<i32>::new();
                b.iter(|| {
                    kernel::align_views(
                        kind,
                        &Fwd(&h),
                        &Fwd(&h),
                        &sc,
                        XDropParams::unbounded().with_kernel(kind),
                        BandPolicy::Saturate(w),
                        &mut ws,
                    )
                    .unwrap()
                })
            });
        }
    }
    group.finish();

    // Realistic X-Drop run: 10% error, growing band.
    let (h, v) = pair(10_000, 0.10);
    let mut group = c.benchmark_group("kernel_grow_10pct");
    for kind in KernelKind::ALL {
        group.bench_function(kind.name(), |b| {
            let mut ws = Workspace::<i32>::new();
            b.iter(|| {
                kernel::align_views(
                    kind,
                    &Fwd(&h),
                    &Fwd(&v),
                    &sc,
                    XDropParams::new(50).with_kernel(kind),
                    BandPolicy::Grow(256),
                    &mut ws,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_dispatch);
criterion_main!(benches);
