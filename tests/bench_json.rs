//! `BENCH_xdrop.json` schema check.
//!
//! The machine-readable perf baseline committed at the repository
//! root must stay parseable by the vendored `serde_json` and keep the
//! invariants downstream tooling relies on: every configuration lists
//! every kernel, the scalar row leads each configuration, and —
//! because all kernels are bit-identical — the per-alignment cell
//! count is constant within a configuration. The v2 schema adds the
//! end-to-end pipeline section (`e2e`) and the partitioner front-end
//! section (`partition`); v3 adds the fault-recovery section
//! (`faults`); v4 adds the `batched` kernel rows and the batched
//! lanes × length-dispersion section (`batched`); v5 adds the
//! fleet-scale strong-scaling section (`scaling`) with the
//! host-link-contention device sweep; v6 adds the batched rows'
//! `occupancy` / `staged_bytes_per_cell` / `refills` / `rounds`
//! counters from the persistent-staging + mid-flight-refill kernel,
//! gated here against the pre-refill kernel's ~14 B/cell staging
//! traffic; v7 adds the top-level `host_simd` capability string, the
//! batched rows' `sweep_backend` column, and one pinned `backend-*`
//! row per register backend the producing host supports — the
//! batched-win bar is gated on the recorded SIMD tier (the win is
//! lane-level and single-threaded, so core counts are irrelevant).
//! Regenerate the kernel rows and
//! the batched section with `cargo run --release -p xdrop-bench
//! --bin experiments -- bench --bench-json` and the
//! e2e/partition/faults/scaling rows with the same command using
//! `e2e`, `partition`, `faults` or `scaling`.

use xdrop_bench::exp::batchbench::{BATCHED_REPRO_COMMAND, V5_STAGED_BYTES_PER_CELL};
use xdrop_bench::exp::e2e::E2E_REPRO_COMMAND;
use xdrop_bench::exp::faultbench::{FAULTS_REPRO_COMMAND, FAULT_DEVICES};
use xdrop_bench::exp::fleetscale::{
    SCALING_CONTENTION_ETA, SCALING_DEVICE_SWEEP, SCALING_REPRO_COMMAND, SCALING_WINDOW_COMPARISONS,
};
use xdrop_bench::exp::kernelbench::{BenchFile, REPRO_COMMAND, SCHEMA};
use xdrop_bench::exp::partbench::{PARTITION_REPRO_COMMAND, SHARD_SWEEP, THREAD_COUNTS};
use xdrop_ipu::partition::DEFAULT_SHARD_COUNT;

fn load() -> BenchFile {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_xdrop.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing perf baseline {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| {
        panic!(
            "BENCH_xdrop.json does not parse against the {SCHEMA} schema ({e}); \
             a stale baseline is missing a section — regenerate the kernel rows \
             with `{REPRO_COMMAND}`, then the other sections with \
             `{E2E_REPRO_COMMAND}`, `{PARTITION_REPRO_COMMAND}`, \
             `{FAULTS_REPRO_COMMAND}` and `{BATCHED_REPRO_COMMAND}` (a \
             file that does not parse is rewritten from empty sections, \
             so regenerate every section)"
        )
    })
}

#[test]
fn baseline_parses_and_is_well_formed() {
    let file = load();
    assert_eq!(file.schema, SCHEMA);
    assert_eq!(file.command, REPRO_COMMAND);
    assert!(
        ["avx512bw", "avx2", "sse4.1", "sse2", "neon", "generic"]
            .contains(&file.host_simd.as_str()),
        "unknown host_simd capability {:?}",
        file.host_simd
    );
    assert!(!file.rows.is_empty());

    let kernels = ["scalar", "simd", "batched"];
    assert_eq!(file.rows.len() % kernels.len(), 0);
    for group in file.rows.chunks(kernels.len()) {
        for (row, expected) in group.iter().zip(kernels) {
            assert_eq!(row.kernel, expected, "kernel order in {}", row.config);
            assert_eq!(row.config, group[0].config);
            // Bit-identity implies identical work per configuration.
            assert_eq!(row.cells, group[0].cells, "cells in {}", row.config);
            assert!(
                row.seconds > 0.0 && row.cells_per_sec > 0.0,
                "{}",
                row.config
            );
            assert!(row.speedup_vs_scalar > 0.0, "{}", row.config);
        }
        assert!((group[0].speedup_vs_scalar - 1.0).abs() < 1e-9);
    }
}

#[test]
fn committed_baseline_shows_lane_parallel_win() {
    // The committed artifact documents this repository's reference
    // machine, where at least one lane-parallel kernel clears 2x
    // scalar throughput on at least one DNA configuration.
    let file = load();
    let best = file
        .rows
        .iter()
        .filter(|r| r.kernel != "scalar")
        .map(|r| r.speedup_vs_scalar)
        .fold(0.0f64, f64::max);
    assert!(
        best >= 2.0,
        "expected a >=2x lane-parallel speedup in the committed baseline, best was {best:.2}x"
    );
}

#[test]
fn e2e_section_is_well_formed() {
    let file = load();
    assert_eq!(file.e2e_command, E2E_REPRO_COMMAND);
    assert!(
        !file.e2e.is_empty(),
        "e2e section missing from BENCH_xdrop.json; regenerate with `{E2E_REPRO_COMMAND}`"
    );
    // Rows come in (reference, streaming) pairs per thread count.
    assert_eq!(file.e2e.len() % 2, 0);
    for pair in file.e2e.chunks(2) {
        assert_eq!(pair[0].pipeline, "reference");
        assert_eq!(pair[1].pipeline, "streaming");
        assert_eq!(pair[0].threads, pair[1].threads);
        for r in pair {
            assert!(
                r.seconds > 0.0 && r.gcups_host > 0.0,
                "threads {}",
                r.threads
            );
            assert!(r.host_cores >= 1);
        }
        assert!((pair[0].speedup_vs_reference - 1.0).abs() < 1e-9);
    }
}

#[test]
fn partition_section_is_well_formed() {
    let file = load();
    assert_eq!(file.partition_command, PARTITION_REPRO_COMMAND);
    assert!(
        !file.partition.is_empty(),
        "partition section missing from BENCH_xdrop.json; regenerate with \
         `{PARTITION_REPRO_COMMAND}`"
    );
    // One serial oracle row, then the thread scaling at the default
    // shard count, then the shard sweep.
    assert_eq!(
        file.partition.len(),
        1 + THREAD_COUNTS.len() + SHARD_SWEEP.len()
    );
    let serial = &file.partition[0];
    assert_eq!(serial.mode, "serial");
    assert_eq!((serial.threads, serial.shards), (1, 1));
    assert!((serial.speedup_vs_serial - 1.0).abs() < 1e-9);
    for r in &file.partition {
        assert!(r.mode == "serial" || r.mode == "sharded", "{}", r.mode);
        assert_eq!(r.comparisons, serial.comparisons);
        assert!(r.seconds > 0.0 && r.edges_per_sec > 0.0);
        assert!(r.speedup_vs_serial > 0.0);
        assert!(r.reuse_factor >= 1.0, "dedup never ships extra bytes");
        assert!(r.host_cores >= 1);
    }
    // The acceptance bar on reuse is unconditional (it is a property
    // of the deterministic output, not of the measuring host): at the
    // default shard count the sharded walk keeps the serial walk's
    // sequence reuse to within 5%.
    let sharded_default = file
        .partition
        .iter()
        .find(|r| r.mode == "sharded" && r.shards == DEFAULT_SHARD_COUNT)
        .expect("default-shard-count row in the committed baseline");
    assert!(
        sharded_default.reuse_factor >= serial.reuse_factor * 0.95,
        "sharding must keep >=95% of serial reuse: {:.3} vs {:.3}",
        sharded_default.reuse_factor,
        serial.reuse_factor
    );
}

#[test]
fn committed_baseline_shows_partitioner_win() {
    let file = load();
    let row = file
        .partition
        .iter()
        .find(|r| r.mode == "sharded" && r.threads == 4 && r.shards == DEFAULT_SHARD_COUNT)
        .expect("4-thread sharded row in the committed baseline");
    if row.host_cores >= 4 {
        // On a real multi-core host the sharded walk must clear the
        // acceptance margin over the serial oracle.
        assert!(
            row.speedup_vs_serial >= 2.0,
            "expected >=2x partitioner speedup at 4 threads on a \
             {}-core host, got {:.2}x",
            row.host_cores,
            row.speedup_vs_serial
        );
    } else {
        // Produced on a small host: parallelism cannot pay off, so
        // require no pathological regression instead of a speedup.
        assert!(
            row.speedup_vs_serial >= 0.4,
            "sharded walk must not collapse even on a {}-core host, \
             got {:.2}x",
            row.host_cores,
            row.speedup_vs_serial
        );
    }
}

#[test]
fn faults_section_is_well_formed() {
    let file = load();
    assert_eq!(file.faults_command, FAULTS_REPRO_COMMAND);
    assert!(
        !file.faults.is_empty(),
        "faults section missing from BENCH_xdrop.json; regenerate with \
         `{FAULTS_REPRO_COMMAND}`"
    );
    // Exactly the two scenarios, fault-free first.
    assert_eq!(file.faults.len(), 2);
    let (clean, lost) = (&file.faults[0], &file.faults[1]);
    assert_eq!(clean.scenario, "fault-free");
    assert_eq!(lost.scenario, "device-lost");
    for r in &file.faults {
        assert_eq!(r.devices, FAULT_DEVICES);
        assert_eq!(r.batches, clean.batches, "faults never change the plan");
        assert!(r.modeled_seconds > 0.0 && r.host_seconds > 0.0);
        assert!(r.host_cores >= 1);
    }
    assert_eq!(
        (clean.retries, clean.requeues, clean.devices_lost),
        (0, 0, 0)
    );
    assert_eq!(clean.recovery_seconds, 0.0);
    assert!((clean.overhead_vs_fault_free - 1.0).abs() < 1e-12);
    // The faulty scenario must actually have lost its device, and
    // recovery is bounded: losing 1 of 4 devices halfway through
    // cannot stretch the modeled makespan beyond the serial bound.
    assert_eq!(lost.devices_lost, 1);
    assert!(lost.overhead_vs_fault_free >= 1.0);
    assert!(
        lost.overhead_vs_fault_free <= FAULT_DEVICES as f64,
        "recovery overhead {}x exceeds the serial-execution bound",
        lost.overhead_vs_fault_free
    );
}

#[test]
fn batched_section_is_well_formed() {
    let file = load();
    assert_eq!(file.batched_command, BATCHED_REPRO_COMMAND);
    assert!(
        !file.batched.is_empty(),
        "batched section missing from BENCH_xdrop.json; regenerate with \
         `{BATCHED_REPRO_COMMAND}`"
    );
    // Row-level invariants hold for the whole section, sweep and
    // pinned backend rows alike.
    for r in &file.batched {
        assert!(r.comparisons > 0 && r.cells > 0, "{}", r.config);
        assert!(r.seconds_scalar > 0.0 && r.seconds_batched > 0.0);
        assert!(r.speedup_vs_scalar > 0.0);
        assert_eq!(
            r.reruns, 0,
            "bench pool scores fit i16; a rerun flags a guard-band bug"
        );
        assert!(r.hw_lanes >= 1 && r.host_cores >= 1);
        // v6 counters: occupancy is a fraction, and the staging
        // and round counters must have actually been measured.
        assert!(
            r.occupancy > 0.0 && r.occupancy <= 1.0,
            "{}: occupancy {} out of (0, 1]",
            r.config,
            r.occupancy
        );
        assert!(r.rounds > 0, "{}", r.config);
        assert!(r.staged_bytes_per_cell > 0.0, "{}", r.config);
        // v7: every row names the register backend that produced it.
        assert!(
            ["generic", "sse2", "avx2", "avx512"].contains(&r.sweep_backend.as_str()),
            "{}: unknown sweep backend {:?}",
            r.config,
            r.sweep_backend
        );
    }
    // The lanes × dispersion sweep leads the section: 3 lane counts
    // per dispersion, ascending lane order within each block, then
    // the pinned per-backend rows.
    let split = file
        .batched
        .iter()
        .position(|r| r.config.starts_with("backend-"))
        .unwrap_or(file.batched.len());
    let (sweep, pinned) = file.batched.split_at(split);
    assert_eq!(sweep.len() % 3, 0);
    for block in sweep.chunks(3) {
        assert_eq!(
            block.iter().map(|r| r.lanes).collect::<Vec<_>>(),
            vec![4, 8, 16]
        );
        for r in block {
            assert_eq!(r.dispersion_pct, block[0].dispersion_pct);
            assert_eq!(
                r.config,
                format!("lanes{}/disp{}", r.lanes, r.dispersion_pct)
            );
            // Bit-identity: the counted work never depends on lanes.
            assert_eq!(r.cells, block[0].cells, "{}", r.config);
        }
    }
    let disps: Vec<u32> = sweep.chunks(3).map(|b| b[0].dispersion_pct).collect();
    assert_eq!(disps, vec![0, 25, 75]);
    // v7 pinned rows: at least the portable backends on every host,
    // one row per backend, each recording the backend it was forced
    // to and doing the same counted work as the disp25 sweep.
    assert!(
        pinned.len() >= 2,
        "pinned backend rows missing; regenerate with `{BATCHED_REPRO_COMMAND}`"
    );
    let disp25_cells = sweep
        .iter()
        .find(|r| r.dispersion_pct == 25)
        .map(|r| r.cells)
        .expect("disp25 sweep block");
    let mut seen = Vec::new();
    for r in pinned {
        assert_eq!(r.config, format!("backend-{}/disp25", r.sweep_backend));
        assert_eq!(r.dispersion_pct, 25, "{}", r.config);
        assert_eq!(r.cells, disp25_cells, "{}", r.config);
        assert!(
            !seen.contains(&r.sweep_backend),
            "duplicate pinned backend row {}",
            r.config
        );
        seen.push(r.sweep_backend.clone());
    }
    // Key the expected coverage on the *producing* host's recorded
    // capability, not on the testing host's architecture.
    assert!(
        seen.iter().any(|s| s == "generic"),
        "every baseline must pin the generic backend"
    );
    if ["sse2", "sse4.1", "avx2", "avx512bw"].contains(&file.host_simd.as_str()) {
        assert!(
            seen.iter().any(|s| s == "sse2"),
            "an x86_64 baseline must pin the sse2 backend"
        );
    }
    if file.host_simd == "avx512bw" {
        assert!(
            seen.iter().any(|s| s == "avx2") && seen.iter().any(|s| s == "avx512"),
            "an avx512bw baseline must pin the avx2 and avx512 backends"
        );
    }
}

/// The v6 acceptance gates on the persistent-staging kernel's own
/// counters. Both are host-independent (they count deterministic
/// bytes and rounds, not wall-clock), so they hold unconditionally:
/// staging traffic per scored cell must be at least halved versus the
/// v5 operand-copy kernel's ≈14 B/cell, and mid-flight refill must
/// hold mean lane occupancy at ≥ 0.8 on the high-dispersion buckets
/// it exists for.
#[test]
fn committed_baseline_shows_staging_reduction_and_occupancy() {
    let file = load();
    assert!(!file.batched.is_empty());
    for r in &file.batched {
        assert!(
            r.staged_bytes_per_cell <= V5_STAGED_BYTES_PER_CELL / 2.0,
            "{}: staged {} B/cell, above half the v5 kernel's {} B/cell",
            r.config,
            r.staged_bytes_per_cell,
            V5_STAGED_BYTES_PER_CELL
        );
    }
    let high_disp: Vec<_> = file
        .batched
        .iter()
        .filter(|r| r.dispersion_pct >= 75)
        .collect();
    assert!(!high_disp.is_empty(), "high-dispersion block missing");
    for r in high_disp {
        assert!(
            r.occupancy >= 0.8,
            "{}: mean lane occupancy {:.3} below the 0.8 refill bar",
            r.config,
            r.occupancy
        );
        assert!(
            r.refills > 0,
            "{}: dispersed buckets must exercise mid-flight refill",
            r.config
        );
    }
}

/// The v7 acceptance bar is keyed on the producing host's recorded
/// SIMD capability, not on its core count: the batched win is
/// register-level and single-threaded (the engine never spawns a
/// thread), so a 1-core AVX-512 box must clear the same bar as a
/// 64-core one. The tiers track the committed wide-host baseline —
/// avx512bw measures ~9x on the reference container, avx2-only hosts
/// land ~6-7x, and the SSE floor keeps the historical 3x bar so a
/// staging regression can't slip through anywhere.
#[test]
fn committed_baseline_shows_batched_win() {
    let file = load();
    let best = file
        .batched
        .iter()
        .map(|r| r.speedup_vs_scalar)
        .fold(0.0f64, f64::max);
    let (bar, tier) = match file.host_simd.as_str() {
        "avx512bw" => (8.0, "an AVX-512BW"),
        "avx2" => (6.0, "an AVX2"),
        _ => (3.0, "a narrow-SIMD"),
    };
    assert!(
        best >= bar,
        "expected a >={bar}x single-threaded batched speedup on {tier} host \
         (host_simd={}), best was {best:.2}x",
        file.host_simd
    );
}

#[test]
fn scaling_section_is_well_formed() {
    let file = load();
    assert_eq!(file.scaling_command, SCALING_REPRO_COMMAND);
    assert!(
        !file.scaling.rows.is_empty(),
        "scaling section missing from BENCH_xdrop.json; regenerate with \
         `{SCALING_REPRO_COMMAND}`"
    );
    let s = &file.scaling;
    assert_eq!(s.window_comparisons, SCALING_WINDOW_COMPARISONS);
    assert!(
        s.in_core_payload_bytes > 0,
        "in-core payload comparison basis missing; regenerate with `{SCALING_REPRO_COMMAND}`"
    );
    // The committed run comes from the `experiments` binary, which
    // installs the tracking allocator — and the windowed front end
    // must have stayed under the bytes an in-core pool would pin.
    assert!(
        s.peak_rss_bytes > 0,
        "peak heap not tracked; regenerate with `{SCALING_REPRO_COMMAND}`"
    );
    assert!(
        s.peak_rss_bytes < s.in_core_payload_bytes,
        "windowed run peaked at {} B, above the {} B an in-core payload \
         pool would pin — the out-of-core path is not bounding memory; \
         regenerate with `{SCALING_REPRO_COMMAND}` and investigate",
        s.peak_rss_bytes,
        s.in_core_payload_bytes
    );
    // Exactly the documented sweep: per device count, an uncontended
    // row then a contended row.
    assert_eq!(s.rows.len(), 2 * SCALING_DEVICE_SWEEP.len());
    for (pair, &devices) in s.rows.chunks(2).zip(&SCALING_DEVICE_SWEEP) {
        assert_eq!(pair[0].devices, devices);
        assert_eq!(pair[1].devices, devices);
        assert_eq!(pair[0].contention, 0.0);
        assert_eq!(pair[1].contention, SCALING_CONTENTION_ETA);
        for r in pair {
            assert!(r.batches >= 2, "devices {devices}");
            assert!(r.seconds > 0.0 && r.gcups > 0.0, "devices {devices}");
            assert!(r.speedup > 0.0, "devices {devices}");
            assert!(
                (0.0..=1.0 + 1e-9).contains(&r.link_busy),
                "devices {devices}"
            );
            assert!(
                (0.0..=1.0 + 1e-9).contains(&r.device_busy),
                "devices {devices}"
            );
        }
        // Contention can only slow the modeled fleet down.
        assert!(
            pair[1].seconds >= pair[0].seconds,
            "devices {devices}: contended model faster than uncontended; \
             regenerate with `{SCALING_REPRO_COMMAND}`"
        );
    }
    // Speedups are normalized to the smallest fleet of each model.
    assert!((s.rows[0].speedup - 1.0).abs() < 1e-9);
    assert!((s.rows[1].speedup - 1.0).abs() < 1e-9);
}

#[test]
fn committed_baseline_shows_host_link_saturation_knee() {
    let file = load();
    let s = &file.scaling;
    let row = |devices: usize, eta: f64| {
        s.rows
            .iter()
            .find(|r| r.devices == devices && r.contention == eta)
            .unwrap_or_else(|| {
                panic!(
                    "missing scaling row (devices {devices}, eta {eta}); \
                     regenerate with `{SCALING_REPRO_COMMAND}`"
                )
            })
    };
    let (first, last) = (
        SCALING_DEVICE_SWEEP[0],
        *SCALING_DEVICE_SWEEP.last().unwrap(),
    );
    // Uncontended model: adding devices never hurts — the curve rises
    // to the serialized-host-link wall and plateaus there.
    assert!(
        row(last, 0.0).gcups >= row(first, 0.0).gcups * 0.999,
        "uncontended model lost throughput growing the fleet; \
         regenerate with `{SCALING_REPRO_COMMAND}`"
    );
    // Contended model: the knee. Past the small-fleet regime the
    // shared link derates per waiting device, so fleet-scale GCUPS
    // collapse well below both the uncontended curve and the
    // contended small-fleet point.
    let cont_last = row(last, SCALING_CONTENTION_ETA);
    assert!(
        cont_last.gcups < row(last, 0.0).gcups / 2.0,
        "no saturation knee: contended {last}-device model at {:.1} GCUPS \
         is not well below the uncontended {:.1}; regenerate with \
         `{SCALING_REPRO_COMMAND}`",
        cont_last.gcups,
        row(last, 0.0).gcups
    );
    assert!(
        cont_last.gcups < row(16, SCALING_CONTENTION_ETA).gcups,
        "contended curve failed to collapse past its knee; \
         regenerate with `{SCALING_REPRO_COMMAND}`"
    );
}

#[test]
fn committed_baseline_shows_streaming_win() {
    let file = load();
    let row = file
        .e2e
        .iter()
        .find(|r| r.pipeline == "streaming" && r.threads == 8)
        .expect("8-thread streaming row in the committed baseline");
    if row.host_cores >= 4 {
        // On a real multi-core host the streaming pipeline must beat
        // the barriered reference by the acceptance margin.
        assert!(
            row.speedup_vs_reference >= 1.5,
            "expected >=1.5x streaming speedup at 8 threads on a \
             {}-core host, got {:.2}x",
            row.host_cores,
            row.speedup_vs_reference
        );
    } else {
        // The committed baseline was produced on a host with fewer
        // than 4 cores, where parallel overlap cannot pay off; require
        // no material regression instead of a speedup.
        assert!(
            row.speedup_vs_reference >= 0.7,
            "streaming must not materially regress even on a \
             {}-core host, got {:.2}x",
            row.host_cores,
            row.speedup_vs_reference
        );
    }
}
