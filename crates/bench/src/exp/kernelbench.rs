//! Host-kernel A/B benchmark and the machine-readable perf baseline
//! (`BENCH_xdrop.json`).
//!
//! Measures cells/second of every [`KernelKind`] on a deterministic
//! grid: DNA per steady band width (pinned via
//! `BandPolicy::Saturate(w)` on identical sequences with an
//! effectively unbounded X, so every kernel sweeps exactly `w` cells
//! per antidiagonal) and per sequence length, one realistic
//! 10%-error DNA `Grow` configuration per length, and one
//! family-like BLOSUM62 protein pair at the paper's PASTIS setting
//! (X = 49, gap −2). On the `Grow` and BLOSUM62 configurations the
//! `i16` fused sweep ([`batched::align_views`]) is also timed once per
//! register backend the host supports. All kernels and backends are
//! bit-identical — `batched_identity.rs` enforces that — so the only
//! thing measured here is host wall-clock.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use seqdata::gen::{generate_pair, MutationProfile, PairSpec};
use std::time::Instant;
use xdrop_core::alphabet::Alphabet;
use xdrop_core::batched::{self, SweepBackend};
use xdrop_core::kernel::{self, KernelKind};
use xdrop_core::scoring::{Blosum62, Scorer};
use xdrop_core::seqview::Fwd;
use xdrop_core::stats::AlignOutput;
use xdrop_core::xdrop2::{BandPolicy, Workspace};
use xdrop_core::XDropParams;

/// One measured (kernel × configuration) cell.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Row {
    /// Kernel name (`scalar` / `batched`).
    pub kernel: String,
    /// Benchmark configuration label.
    pub config: String,
    /// Sequence length (symbols per side).
    pub len: usize,
    /// Steady band width (δ_b for Saturate; 0 for the Grow config,
    /// where the band follows the live width).
    pub band: usize,
    /// X-Drop threshold used.
    pub x: i32,
    /// DP cells computed per alignment (identical across kernels).
    pub cells: u64,
    /// Wall-clock seconds per alignment (mean over iterations).
    pub seconds: f64,
    /// Throughput in DP cells per second.
    pub cells_per_sec: f64,
    /// Throughput relative to the scalar kernel on this config.
    pub speedup_vs_scalar: f64,
}

/// One pair through the `i16` fused sweep at one register backend.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BackendRow {
    /// Kernel-grid configuration label (a `grow10pct/…` or
    /// `blosum62/…` config).
    pub config: String,
    /// Register backend the sweep ran at ([`SweepBackend::name`]).
    pub sweep_backend: String,
    /// DP cells computed per alignment (equal to the config's scalar
    /// row).
    pub cells: u64,
    /// Wall-clock seconds per alignment (mean over iterations).
    pub seconds: f64,
    /// The config's scalar seconds over these seconds.
    pub speedup_vs_scalar: f64,
}

/// Top-level schema of `BENCH_xdrop.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct BenchFile {
    /// Schema tag for downstream readers.
    pub schema: String,
    /// The exact command that regenerates the kernel rows.
    pub command: String,
    /// What `KernelKind::auto()` picked on the producing host.
    pub detected_kernel: String,
    /// The widest SIMD capability `kernel::host_simd()` detected on
    /// the producing host (`"avx512bw"`, `"avx2"`, `"sse2"`, or
    /// `"generic"`). Readers gate absolute-speedup expectations on
    /// this, not on core counts: the batched kernel's win is
    /// lane-level and single-threaded.
    pub host_simd: String,
    /// The kernel measurements.
    pub rows: Vec<Row>,
    /// The command that regenerates the partition section.
    pub partition_command: String,
    /// Partitioner front-end measurement (`experiments partition`):
    /// one row, the serial edge walk on the ~1M-edge ring.
    pub partition: Vec<super::partbench::PartitionBenchRow>,
    /// The command that regenerates the faults section.
    pub faults_command: String,
    /// Fault-recovery overhead measurements (`experiments faults`):
    /// fault-free vs one device lost mid-run.
    pub faults: Vec<super::faultbench::FaultBenchRow>,
    /// The `i16` fused sweep per register backend on the `Grow` and
    /// BLOSUM62 configurations, written with the kernel rows by
    /// [`REPRO_COMMAND`].
    pub batched: Vec<BackendRow>,
    /// The command that regenerates the scaling section.
    pub scaling_command: String,
    /// Fleet-scale strong scaling (`experiments scaling`): modeled
    /// GCUPS vs device count at {4, 16, 64, 256, 512} with and
    /// without host-link contention, produced through the windowed
    /// out-of-core pipeline.
    pub scaling: super::fleetscale::ScalingSection,
}

fn pair(len: usize, err: f64) -> (Vec<u8>, Vec<u8>) {
    pair_of(len, Alphabet::Dna, MutationProfile::uniform_mismatch(err))
}

fn pair_of(len: usize, alphabet: Alphabet, errors: MutationProfile) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = PairSpec {
        len,
        seed_len: 17,
        seed_frac: 0.0,
        errors,
        alphabet,
    };
    let p = generate_pair(&mut rng, &spec);
    (p.h, p.v)
}

/// Times one alignment in a reused workspace: repeats it until
/// ≥ 0.2 s or ≥ 3 iterations, whichever is later, and returns its
/// cell count and mean seconds.
fn measure(mut align: impl FnMut(&mut Workspace) -> xdrop_core::Result<AlignOutput>) -> (u64, f64) {
    let mut ws = Workspace::new();
    // Warm-up (also grows the workspace so allocation is excluded).
    let cells = align(&mut ws)
        .expect("bench alignment")
        .stats
        .cells_computed;
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        let o = align(&mut ws).expect("bench alignment");
        std::hint::black_box(&o);
        iters += 1;
        if iters >= 3 && start.elapsed().as_secs_f64() >= 0.2 {
            break;
        }
        if iters >= 10_000 {
            break;
        }
    }
    (cells, start.elapsed().as_secs_f64() / f64::from(iters))
}

/// Runs the full grid: the kernel rows, then one [`BackendRow`] per
/// supported register backend on each `Grow` configuration and on the
/// BLOSUM62 configuration. `scale` multiplies the sequence lengths.
pub fn run(scale: f64) -> (Vec<Row>, Vec<BackendRow>) {
    let sc = super::dna_scorer();
    let mut rows = Vec::new();
    let mut backends = Vec::new();
    let lens: Vec<usize> = [1_000usize, 10_000]
        .iter()
        .map(|&l| ((l as f64 * scale) as usize).max(64))
        .collect();

    // Axis 1: steady band width × length (identical sequences,
    // saturated band, unbounded X → exactly `w` cells per sweep).
    for &len in &lens {
        let (h, _) = pair(len, 0.0);
        for w in [16usize, 64, 256] {
            let params = XDropParams::unbounded();
            let policy = BandPolicy::Saturate(w);
            push_config(
                &mut rows,
                &format!("band{w}/len{len}"),
                len,
                w,
                params.x,
                |kind| {
                    measure(|ws| {
                        let p = params.with_kernel(kind);
                        kernel::align_views(kind, &Fwd(&h), &Fwd(&h), &sc, p, policy, ws)
                    })
                },
            );
        }
    }

    // Axis 2: realistic X-Drop extension (10% error, growing band),
    // per kernel and then per sweep backend.
    for &len in &lens {
        let (h, v) = pair(len, 0.10);
        let config = format!("grow10pct/len{len}");
        let params = XDropParams::new(50);
        grow_config(&mut rows, &mut backends, &config, len, &h, &v, &sc, params);
    }

    // Axis 3: a family-like protein pair under BLOSUM62 at the
    // paper's PASTIS setting, with indels, so the band grows.
    let len = lens[0];
    let (h, v) = pair_of(
        len,
        Alphabet::Protein,
        MutationProfile::noisy_long_read(0.3),
    );
    let config = format!("blosum62/len{len}");
    let params = XDropParams::new(49);
    let blosum = Blosum62::pastis_default();
    grow_config(
        &mut rows,
        &mut backends,
        &config,
        len,
        &h,
        &v,
        &blosum,
        params,
    );
    (rows, backends)
}

/// One `Grow(256)` configuration: its kernel rows, then one
/// [`BackendRow`] per supported register backend.
#[allow(clippy::too_many_arguments)]
fn grow_config<S: Scorer>(
    rows: &mut Vec<Row>,
    backends: &mut Vec<BackendRow>,
    config: &str,
    len: usize,
    h: &[u8],
    v: &[u8],
    sc: &S,
    params: XDropParams,
) {
    let policy = BandPolicy::Grow(256);
    push_config(rows, config, len, 0, params.x, |kind| {
        measure(|ws| {
            let p = params.with_kernel(kind);
            kernel::align_views(kind, &Fwd(h), &Fwd(v), sc, p, policy, ws)
        })
    });
    let scalar_seconds = rows[rows.len() - KernelKind::ALL.len()].seconds;
    for backend in SweepBackend::supported() {
        let (cells, seconds) =
            measure(|ws| batched::align_views(&Fwd(h), &Fwd(v), sc, params, policy, backend, ws));
        backends.push(BackendRow {
            config: config.to_string(),
            sweep_backend: backend.name().to_string(),
            cells,
            seconds,
            speedup_vs_scalar: scalar_seconds / seconds,
        });
    }
}

fn push_config(
    rows: &mut Vec<Row>,
    config: &str,
    len: usize,
    band: usize,
    x: i32,
    mut measure_one: impl FnMut(KernelKind) -> (u64, f64),
) {
    let mut scalar_cps = 0.0;
    for kind in KernelKind::ALL {
        let (cells, seconds) = measure_one(kind);
        let cps = cells as f64 / seconds;
        if kind == KernelKind::Scalar {
            scalar_cps = cps;
        }
        rows.push(Row {
            kernel: kind.name().to_string(),
            config: config.to_string(),
            len,
            band,
            x,
            cells,
            seconds,
            cells_per_sec: cps,
            speedup_vs_scalar: if scalar_cps > 0.0 {
                cps / scalar_cps
            } else {
                1.0
            },
        });
    }
}

/// Renders the rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut s = String::from(
        "config               kernel    cells/align      s/align     Mcells/s   vs scalar\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:<8} {:>12} {:>12.6} {:>12.2} {:>10.2}x\n",
            r.config,
            r.kernel,
            r.cells,
            r.seconds,
            r.cells_per_sec / 1e6,
            r.speedup_vs_scalar
        ));
    }
    s
}

/// Renders the backend rows as an aligned text table.
pub fn render_backends(rows: &[BackendRow]) -> String {
    let mut s =
        String::from("config               backend   cells/align      s/align   vs scalar\n");
    for r in rows {
        s.push_str(&format!(
            "{:<20} {:<8} {:>12} {:>12.6} {:>10.2}x\n",
            r.config, r.sweep_backend, r.cells, r.seconds, r.speedup_vs_scalar
        ));
    }
    s
}

/// The command documented to regenerate the kernel and backend rows
/// of `BENCH_xdrop.json`.
pub const REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- bench --bench-json";

/// Schema tag of `BENCH_xdrop.json` (v2 added the `e2e` section, v3
/// the fault-recovery `faults` section, v4 the batched
/// inter-sequence kernel section and the `batched` kernel rows, v5
/// the fleet-scale `scaling` section, v6 the batched rows'
/// `occupancy`/`staged_bytes_per_cell`/`refills`/`rounds` counters
/// from the persistent-staging kernel, v7 the top-level `host_simd`
/// capability string and the batched rows' `sweep_backend` column
/// from the multiversioned sweep dispatch, v8 replaced the batched
/// lanes × dispersion sweep with one-pair [`BackendRow`]s, v9 dropped
/// the `simd` kernel rows and added the `blosum62` configuration, v10
/// dropped the `e2e` section with the static-chunk pipeline it timed).
pub const SCHEMA: &str = "xdrop-kernel-bench/v10";

fn bench_json_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_xdrop.json")
}

/// The committed baseline, if present and parseable at the current
/// schema. Used to preserve the sections the caller is *not*
/// regenerating.
fn read_existing() -> Option<BenchFile> {
    let text = std::fs::read_to_string(bench_json_path()).ok()?;
    serde_json::from_str(&text).ok()
}

fn write_file(file: &BenchFile) -> std::io::Result<std::path::PathBuf> {
    let path = bench_json_path();
    let json =
        serde_json::to_string_pretty(file).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(&path, json)?;
    Ok(path.canonicalize().unwrap_or(path))
}

/// A file holding the committed sections (or empty ones when no
/// baseline parses at the current [`SCHEMA`]).
fn base_file() -> BenchFile {
    let mut file = read_existing().unwrap_or_else(|| BenchFile {
        schema: SCHEMA.to_string(),
        command: REPRO_COMMAND.to_string(),
        detected_kernel: KernelKind::auto().name().to_string(),
        host_simd: kernel::host_simd().to_string(),
        rows: Vec::new(),
        partition_command: super::partbench::PARTITION_REPRO_COMMAND.to_string(),
        partition: Vec::new(),
        faults_command: super::faultbench::FAULTS_REPRO_COMMAND.to_string(),
        faults: Vec::new(),
        batched: Vec::new(),
        scaling_command: super::fleetscale::SCALING_REPRO_COMMAND.to_string(),
        scaling: super::fleetscale::ScalingSection::default(),
    });
    file.schema = SCHEMA.to_string();
    // Any write happens on the current host, so the capability string
    // always reflects the machine that last touched the baseline.
    file.host_simd = kernel::host_simd().to_string();
    file
}

/// Writes the kernel and backend rows of the machine-readable
/// baseline at the repository root, preserving every other committed
/// section.
pub fn write_bench_json(
    rows: &[Row],
    backends: &[BackendRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.detected_kernel = KernelKind::auto().name().to_string();
    file.rows = rows.to_vec();
    file.batched = backends.to_vec();
    write_file(&file)
}

/// Writes the partition section of the baseline, preserving every
/// other committed section.
pub fn write_partition_json(
    partition: &[super::partbench::PartitionBenchRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.partition = partition.to_vec();
    write_file(&file)
}

/// Writes the faults section of the baseline, preserving every other
/// committed section.
pub fn write_faults_json(
    faults: &[super::faultbench::FaultBenchRow],
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.faults_command = super::faultbench::FAULTS_REPRO_COMMAND.to_string();
    file.faults = faults.to_vec();
    write_file(&file)
}

/// Writes the fleet-scaling section of the baseline, preserving
/// every other committed section.
pub fn write_scaling_json(
    scaling: &super::fleetscale::ScalingSection,
) -> std::io::Result<std::path::PathBuf> {
    let mut file = base_file();
    file.scaling_command = super::fleetscale::SCALING_REPRO_COMMAND.to_string();
    file.scaling = scaling.clone();
    write_file(&file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_kernels_and_reports_identical_cells() {
        // Tiny scale so the test stays fast; the structure (not the
        // timing) is what's asserted.
        let (rows, backends) = run(0.08);
        assert_eq!(rows.len() % KernelKind::ALL.len(), 0);
        for chunk in rows.chunks(KernelKind::ALL.len()) {
            assert_eq!(chunk[0].kernel, "scalar");
            for r in chunk {
                assert_eq!(r.cells, chunk[0].cells, "bit-identity implies equal work");
                assert!(r.cells_per_sec > 0.0);
                assert!(r.speedup_vs_scalar > 0.0);
            }
        }
        // One row per supported backend on each Grow config and the
        // BLOSUM62 config, doing the scalar row's work.
        let supported = SweepBackend::supported();
        assert_eq!(backends.len(), 3 * supported.len());
        for (r, b) in backends.iter().zip(supported.iter().cycle()) {
            assert_eq!(r.sweep_backend, b.name());
            let scalar = rows
                .iter()
                .find(|s| s.config == r.config && s.kernel == "scalar")
                .expect("scalar row of the config");
            assert_eq!(r.cells, scalar.cells, "{} {}", r.config, r.sweep_backend);
            assert!(r.seconds > 0.0 && r.speedup_vs_scalar > 0.0);
        }
        assert!(render(&rows).contains("vs scalar"));
        assert!(render_backends(&backends).contains("generic"));
    }
}
