//! Batched inter-sequence kernel benchmark: the `batched` section of
//! `BENCH_xdrop.json`.
//!
//! Sweeps lane count × batch length dispersion on a fixed pool of
//! related DNA pairs and times the same pool through (a) the scalar
//! kernel, one comparison at a time, and (b) `batched::align_batch`
//! with its `i16` lane packing. Both produce bit-identical results —
//! `tests/batched_identity.rs` enforces that — so only host
//! wall-clock differs. Dispersion measures how well lane packing
//! copes with ragged batches: at 0% every lane retires together; at
//! 75% mid-flight refill has to work for its living, and the sweep
//! records the occupancy and staging counters (`occupancy`,
//! `staged_bytes_per_cell`) the persistent-staging kernel reports.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqdata::gen::{generate_pair, MutationProfile, PairSpec};
use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::batched::{self, BatchTask, TaskView};
use xdrop_core::kernel::{self, KernelKind};
use xdrop_core::seqview::Fwd;
use xdrop_core::xdrop2::{BandPolicy, Workspace};
use xdrop_core::XDropParams;

/// One measured (lanes × dispersion) cell of the batched sweep.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BatchedRow {
    /// Configuration label, e.g. `lanes8/disp25`.
    pub config: String,
    /// Lane count the batch kernel was forced to.
    pub lanes: usize,
    /// Length dispersion of the batch in percent: task lengths are
    /// drawn uniformly from `base ± base·disp/100`.
    pub dispersion_pct: u32,
    /// Mean sequence length (symbols per side).
    pub len: usize,
    /// Comparisons per batch.
    pub comparisons: usize,
    /// Total DP cells computed per batch (identical on both paths).
    pub cells: u64,
    /// Wall-clock seconds per batch through the scalar kernel.
    pub seconds_scalar: f64,
    /// Wall-clock seconds per batch through the batched kernel.
    pub seconds_batched: f64,
    /// `seconds_scalar / seconds_batched`.
    pub speedup_vs_scalar: f64,
    /// `i16`-overflow lanes re-run through the scalar path (expected
    /// 0 on this workload; nonzero would flag a guard-band bug).
    pub reruns: u64,
    /// Mean lane occupancy (`BatchReport::occupancy`): swept
    /// lane-rounds over `rounds × lanes`. Mid-flight refill should
    /// keep this near 1.0 even at high dispersion.
    pub occupancy: f64,
    /// Staging traffic per scored lane cell in bytes
    /// (`BatchReport::staged_bytes_per_cell`). Compare against
    /// [`V5_STAGED_BYTES_PER_CELL`].
    pub staged_bytes_per_cell: f64,
    /// Mid-flight slot refills the batch performed.
    pub refills: u64,
    /// Engine rounds the batch ran.
    pub rounds: u64,
    /// Hardware lane width `batched::lane_width()` on this host.
    pub hw_lanes: usize,
    /// `available_parallelism()` on the producing host — readers gate
    /// absolute-speedup expectations on this.
    pub host_cores: usize,
    /// Whether the producing host had AVX2 (x86_64 only; lane packing
    /// falls back to narrow sweeps without it).
    pub avx2: bool,
    /// Which fused-sweep backend actually ran
    /// (`BatchReport::sweep_backend`): `generic`, `sse2`, `avx2`, or
    /// `avx512bw`. The lanes × dispersion rows record whatever the
    /// host (or `XDROP_SWEEP`) resolved to; the `backend-*` rows pin
    /// one backend each so the file holds a per-backend baseline.
    pub sweep_backend: String,
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn host_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A pool of related pairs whose lengths scatter `±disp%` around
/// `base`.
fn batch_pool(base: usize, disp_pct: u32, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(disp_pct as u64 + 11);
    (0..n)
        .map(|_| {
            let spread = base * disp_pct as usize / 100;
            let len = rng.gen_range(base.saturating_sub(spread)..=base + spread);
            let spec = PairSpec {
                len: len.max(32),
                seed_len: 17,
                seed_frac: 0.0,
                errors: MutationProfile::uniform_mismatch(0.05),
                alphabet: Alphabet::Dna,
            };
            let p = generate_pair(&mut rng, &spec);
            (p.h, p.v)
        })
        .collect()
}

/// Times `f` (which processes one whole batch) until ≥ 0.2 s and
/// ≥ `iters` repetitions; returns mean seconds per batch.
fn time_batch(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let min_iters = iters.max(1) as u32;
    let mut done = 0u32;
    let start = Instant::now();
    loop {
        f();
        done += 1;
        if done >= min_iters && start.elapsed().as_secs_f64() >= 0.2 {
            break;
        }
        if done >= 10_000 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(done)
}

/// Runs the lanes × dispersion sweep. `scale` multiplies the base
/// sequence length, `iters` is the minimum timing repetitions.
pub fn run(scale: f64, iters: usize) -> Vec<BatchedRow> {
    let sc = super::dna_scorer();
    let params = XDropParams::new(50);
    let policy = BandPolicy::Grow(64);
    let base = ((2_000.0 * scale) as usize).max(64);
    let comparisons = 64usize;
    let cores = host_cores();
    let avx2 = host_avx2();
    let hw = batched::lane_width();

    let mut rows = Vec::new();
    // Appended after the sweep so the lanes × dispersion block stays
    // contiguous in the committed JSON.
    let mut backend_rows = Vec::new();
    for disp in [0u32, 25, 75] {
        let pool = batch_pool(base, disp, comparisons);
        let tasks: Vec<BatchTask<'_>> = pool
            .iter()
            .map(|(h, v)| BatchTask {
                h: TaskView::Fwd(h),
                v: TaskView::Fwd(v),
            })
            .collect();
        // Cell count from one counted scalar pass (bit-identity
        // makes it the same on every path and repetition).
        let mut ws = Workspace::<i32>::new();
        let cells: u64 = pool
            .iter()
            .map(|(h, v)| {
                kernel::align_views(
                    KernelKind::Scalar,
                    &Fwd(h),
                    &Fwd(v),
                    &sc,
                    params.with_kernel(KernelKind::Scalar),
                    policy,
                    &mut ws,
                )
                .expect("bench alignment")
                .stats
                .cells_computed
            })
            .sum();
        // The per-comparison baseline: the scalar kernel over the
        // pool, one comparison at a time on a shared workspace (no
        // allocation churn — strictly favorable to the baseline).
        let seconds_scalar = time_batch(iters, || {
            for (h, v) in &pool {
                let o = kernel::align_views(
                    KernelKind::Scalar,
                    &Fwd(h),
                    &Fwd(v),
                    &sc,
                    params.with_kernel(KernelKind::Scalar),
                    policy,
                    &mut ws,
                )
                .expect("bench alignment");
                std::hint::black_box(&o);
            }
        });
        for lanes in [4usize, 8, 16] {
            let (_, report) = batched::align_batch_with_lanes(&tasks, &sc, params, policy, lanes);
            let seconds_batched = time_batch(iters, || {
                let (o, _) = batched::align_batch_with_lanes(&tasks, &sc, params, policy, lanes);
                std::hint::black_box(&o);
            });
            rows.push(BatchedRow {
                config: format!("lanes{lanes}/disp{disp}"),
                lanes,
                dispersion_pct: disp,
                len: base,
                comparisons,
                cells,
                seconds_scalar,
                seconds_batched,
                speedup_vs_scalar: seconds_scalar / seconds_batched,
                reruns: report.reruns as u64,
                occupancy: report.occupancy(),
                staged_bytes_per_cell: report.staged_bytes_per_cell(),
                refills: report.refills as u64,
                rounds: report.rounds,
                hw_lanes: hw,
                host_cores: cores,
                avx2,
                sweep_backend: report.sweep_backend.name().to_string(),
            });
        }
        // One row per supported register backend on the realistic
        // disp25 bucket at the widest lane count, each pinned
        // explicitly so the committed file carries a full per-backend
        // baseline regardless of what the host auto-resolves.
        if disp == 25 {
            let lanes = 16usize;
            for &b in &batched::SweepBackend::supported() {
                let (_, report) =
                    batched::align_batch_with_backend(&tasks, &sc, params, policy, lanes, b);
                let seconds_batched = time_batch(iters, || {
                    let (o, _) =
                        batched::align_batch_with_backend(&tasks, &sc, params, policy, lanes, b);
                    std::hint::black_box(&o);
                });
                backend_rows.push(BatchedRow {
                    config: format!("backend-{}/disp{disp}", b.name()),
                    lanes,
                    dispersion_pct: disp,
                    len: base,
                    comparisons,
                    cells,
                    seconds_scalar,
                    seconds_batched,
                    speedup_vs_scalar: seconds_scalar / seconds_batched,
                    reruns: report.reruns as u64,
                    occupancy: report.occupancy(),
                    staged_bytes_per_cell: report.staged_bytes_per_cell(),
                    refills: report.refills as u64,
                    rounds: report.rounds,
                    hw_lanes: hw,
                    host_cores: cores,
                    avx2,
                    sweep_backend: report.sweep_backend.name().to_string(),
                });
            }
        }
    }
    rows.extend(backend_rows);
    rows
}

/// Staging traffic per staged slot of the pre-refill (schema ≤ v5)
/// kernel, in bytes: seven `i16` operand/staging buffers (`sd`,
/// `sim`, `sl`, `su`, `sth`, `st`, `dr`) were re-filled per slot per
/// round. The v6 persistent-staging kernel's `staged_bytes_per_cell`
/// is gated against this figure (CI asserts ≥ 2× reduction).
pub const V5_STAGED_BYTES_PER_CELL: f64 = 14.0;

/// Renders the rows as an aligned text table.
pub fn render(rows: &[BatchedRow]) -> String {
    let cores = rows.first().map_or(0, |r| r.host_cores);
    let avx2 = rows.first().is_some_and(|r| r.avx2);
    let mut s = format!(
        "config                 lanes   disp%   cells/batch    s scalar   s batched   vs scalar   occup   B/cell   backend   ({cores} cores, avx2={avx2})\n"
    );
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:>5} {:>7} {:>13} {:>11.6} {:>11.6} {:>10.2}x {:>7.3} {:>8.2}   {}\n",
            r.config,
            r.lanes,
            r.dispersion_pct,
            r.cells,
            r.seconds_scalar,
            r.seconds_batched,
            r.speedup_vs_scalar,
            r.occupancy,
            r.staged_bytes_per_cell,
            r.sweep_backend
        ));
    }
    s
}

/// The command documented to regenerate the batched section of
/// `BENCH_xdrop.json`.
pub const BATCHED_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_lanes_and_dispersion() {
        let backends = batched::SweepBackend::supported();
        let rows = run(0.02, 1);
        assert_eq!(
            rows.len(),
            9 + backends.len(),
            "3 lane counts × 3 dispersions plus one pinned row per supported backend"
        );
        let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
        for b in &names {
            let label = format!("backend-{b}/disp25");
            let row = rows
                .iter()
                .find(|r| r.config == label)
                .unwrap_or_else(|| panic!("missing pinned row {label}"));
            assert_eq!(
                row.sweep_backend.as_str(),
                *b,
                "pinned row must record the backend it was forced to"
            );
        }
        for r in &rows {
            assert!(
                names.contains(&r.sweep_backend.as_str()),
                "row {} ran unsupported backend {}",
                r.config,
                r.sweep_backend
            );
            assert!(r.cells > 0);
            assert!(r.seconds_scalar > 0.0 && r.seconds_batched > 0.0);
            assert!(r.speedup_vs_scalar > 0.0);
            assert_eq!(r.reruns, 0, "guard band must hold on the bench pool");
            assert_eq!(r.comparisons, 64);
            assert!(r.host_cores >= 1);
            assert!(
                r.occupancy > 0.0 && r.occupancy <= 1.0,
                "occupancy out of range: {}",
                r.occupancy
            );
            assert!(r.rounds > 0);
            assert!(
                r.staged_bytes_per_cell > 0.0
                    && r.staged_bytes_per_cell <= V5_STAGED_BYTES_PER_CELL / 2.0,
                "persistent staging must at least halve the v5 traffic, got {}",
                r.staged_bytes_per_cell
            );
        }
        // Dispersed buckets churn lanes: refill must actually happen
        // and keep occupancy high.
        let disp75: Vec<&BatchedRow> = rows.iter().filter(|r| r.dispersion_pct == 75).collect();
        assert!(disp75.iter().any(|r| r.refills > 0));
        assert!(disp75.iter().all(|r| r.occupancy >= 0.8));
        let labels: Vec<&str> = rows.iter().map(|r| r.config.as_str()).collect();
        assert!(labels.contains(&"lanes16/disp75"));
        let txt = render(&rows);
        assert!(txt.contains("vs scalar"));
        assert!(txt.contains("occup"));
    }
}
