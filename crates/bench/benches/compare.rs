//! Criterion bench of the Figure 5 comparator kernels: wall-clock of
//! each tool's real algorithm over the same small HiFi-like
//! workload (the modeled GCUPS comparison lives in the `experiments
//! fig5` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqdata::{Dataset, DatasetKind};
use xdrop_baselines::runner::{run_workload, ToolKind};
use xdrop_bench::{run_ipu, IpuRunConfig};
use xdrop_core::scoring::MatchMismatch;

fn bench_tools(c: &mut Criterion) {
    let w = Dataset::new(DatasetKind::Ecoli, 0.004)
        .with_max_comparisons(40)
        .generate();
    let sc = MatchMismatch::dna_default();
    let mut group = c.benchmark_group("fig5_tools");
    group.sample_size(10);
    for x in [5, 20] {
        group.bench_with_input(BenchmarkId::new("ipu_pipeline", x), &x, |b, &x| {
            b.iter(|| {
                run_ipu(
                    &w,
                    &sc,
                    &IpuRunConfig {
                        host_threads: 1,
                        ..IpuRunConfig::full(x)
                    },
                )
            })
        });
        for tool in [ToolKind::SeqAn, ToolKind::Ksw2, ToolKind::Logan] {
            group.bench_with_input(BenchmarkId::new(tool.name(), x), &x, |b, &x| {
                b.iter(|| run_workload(&w, tool, x, &sc, 1, 1).expect("seeds in bounds"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_tools);
criterion_main!(benches);
