//! Criterion microbenchmarks of the alignment kernels themselves:
//! the two-antidiagonal memory-restricted kernel vs the classical
//! three-antidiagonal one vs the full-matrix reference, plus the
//! comparator algorithms. These measure *host* execution speed of
//! this crate's Rust implementations (the simulated-IPU timing is a
//! separate, deterministic model).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::gen::{generate_pair, MutationProfile, PairSpec};
use std::hint::black_box;
use xdrop_baselines::banded::banded_extend;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::ksw2::{ksw2_extend, Ksw2Params};
use xdrop_core::reference::extend_full;
use xdrop_core::scoring::MatchMismatch;
use xdrop_core::xdrop2::{self, BandPolicy};
use xdrop_core::{xdrop3, XDropParams};

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

fn bench_kernels(c: &mut Criterion) {
    let sc = MatchMismatch::dna_default();
    let (h, v) = pair(5_000, 0.10);
    let mut group = c.benchmark_group("kernel_5k_10pct");
    for x in [10, 30] {
        let params = XDropParams::new(x);
        group.bench_with_input(BenchmarkId::new("xdrop2_grow", x), &x, |b, _| {
            let mut ws = xdrop2::Workspace::new();
            b.iter(|| {
                xdrop2::align_views(
                    &xdrop_core::seqview::Fwd(&h),
                    &xdrop_core::seqview::Fwd(&v),
                    &sc,
                    params,
                    BandPolicy::Grow(256),
                    &mut ws,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("xdrop3", x), &x, |b, _| {
            let mut ws = xdrop3::Workspace::new();
            b.iter(|| xdrop3::align_with_workspace(&h, &v, &sc, params, &mut ws))
        });
        group.bench_with_input(BenchmarkId::new("ksw2", x), &x, |b, _| {
            let p = Ksw2Params::from_x(x);
            b.iter(|| ksw2_extend(&h, &v, &p))
        });
    }
    group.bench_function("banded_w64", |b| b.iter(|| banded_extend(&h, &v, &sc, 64)));
    group.sample_size(10).bench_function("full_matrix", |b| {
        b.iter(|| extend_full(black_box(&h), black_box(&v), &sc))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
