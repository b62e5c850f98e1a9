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
//! occupancy and staging counters of the multi-lane kernel; v7 adds
//! the top-level `host_simd` capability string and the batched rows'
//! `sweep_backend` column; v8 replaces the lanes × dispersion sweep
//! with one-pair rows — the `i16` fused sweep on each `grow10pct`
//! kernel config, once per register backend the producing host
//! supports — whose batched-win bar is gated on the recorded SIMD
//! tier (the win is register-level and single-threaded, so core
//! counts are irrelevant); v9 drops the `simd` kernel rows and adds a
//! BLOSUM62 protein config to the kernel grid and the batched
//! section, whose rows must beat scalar on every backend; v10 drops
//! the `e2e` section, which timed the pooled pipeline against a
//! static-chunk twin that no longer exists. Regenerate the kernel
//! rows and the batched section with `cargo run --release -p
//! xdrop-bench --bin experiments -- bench --bench-json` and the
//! partition/faults/scaling rows with the same command using
//! `partition`, `faults` or `scaling`.

use xdrop_bench::exp::faultbench::{FAULTS_REPRO_COMMAND, FAULT_DEVICES};
use xdrop_bench::exp::fleetscale::{
    SCALING_CONTENTION_ETA, SCALING_DEVICE_SWEEP, SCALING_REPRO_COMMAND, SCALING_WINDOW_COMPARISONS,
};
use xdrop_bench::exp::kernelbench::{BenchFile, REPRO_COMMAND, SCHEMA};
use xdrop_bench::exp::partbench::PARTITION_REPRO_COMMAND;

fn load() -> BenchFile {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_xdrop.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing perf baseline {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| {
        panic!(
            "BENCH_xdrop.json does not parse against the {SCHEMA} schema ({e}); \
             a stale baseline is missing a section — regenerate the kernel rows \
             with `{REPRO_COMMAND}`, then the other sections with \
             `{PARTITION_REPRO_COMMAND}`, `{FAULTS_REPRO_COMMAND}` and \
             `{SCALING_REPRO_COMMAND}` (a \
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

    let kernels = ["scalar", "batched"];
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
fn partition_section_is_well_formed() {
    let file = load();
    assert_eq!(file.partition_command, PARTITION_REPRO_COMMAND);
    // One row: the serial greedy walk, the only partitioner.
    assert_eq!(
        file.partition.len(),
        1,
        "partition section must hold the one serial row; regenerate with \
         `{PARTITION_REPRO_COMMAND}`"
    );
    let serial = &file.partition[0];
    assert_eq!(serial.mode, "serial");
    assert_eq!((serial.threads, serial.shards), (1, 1));
    assert!((serial.speedup_vs_serial - 1.0).abs() < 1e-9);
    assert!(serial.comparisons > 0);
    assert!(serial.seconds > 0.0 && serial.edges_per_sec > 0.0);
    assert!(serial.reuse_factor >= 1.0, "dedup never ships extra bytes");
    assert!(serial.host_cores >= 1);
}

#[test]
fn committed_baseline_shows_partitioner_budget() {
    // §4.3: the greedy walk partitions millions of comparisons in
    // "usually less than one second" and reuses each transferred
    // sequence at least twice. Both bars hold on one host thread, so
    // they apply on any measuring host.
    let file = load();
    let serial = &file.partition[0];
    assert!(
        serial.comparisons >= 1_000_000,
        "the budget is gated on the ~1M-edge ring, got {} edges",
        serial.comparisons
    );
    assert!(
        serial.seconds < 1.0,
        "serial walk took {:.3} s, over the paper's one-second budget",
        serial.seconds
    );
    assert!(
        serial.reuse_factor >= 2.0,
        "serial walk reuse {:.3}x is under the paper's 2x",
        serial.reuse_factor
    );
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

/// The batched section holds, per `grow10pct` DNA kernel config and
/// per `blosum62` protein config, one one-pair row per register
/// backend the *producing* host supports (keyed on its recorded
/// `host_simd`, not on the testing host's architecture), each doing
/// exactly its config's scalar work.
#[test]
fn batched_section_is_well_formed() {
    let file = load();
    assert!(
        !file.batched.is_empty(),
        "batched section missing from BENCH_xdrop.json; regenerate with `{REPRO_COMMAND}`"
    );
    let mut want = vec!["generic"];
    if ["sse2", "sse4.1", "avx2", "avx512bw"].contains(&file.host_simd.as_str()) {
        want.push("sse2");
    }
    if file.host_simd == "avx2" {
        want.push("avx2");
    }
    if file.host_simd == "avx512bw" {
        want.extend(["avx2", "avx512"]);
    }
    let configs: Vec<&str> = file
        .rows
        .iter()
        .filter(|r| r.kernel == "scalar")
        .map(|r| r.config.as_str())
        .filter(|c| c.starts_with("grow10pct/") || c.starts_with("blosum62/"))
        .collect();
    assert!(
        configs.iter().any(|c| c.starts_with("grow10pct/")),
        "kernel grid has no grow10pct config"
    );
    assert_eq!(
        configs
            .iter()
            .filter(|c| c.starts_with("blosum62/"))
            .count(),
        1,
        "kernel grid has no BLOSUM62 config; regenerate with `{REPRO_COMMAND}`"
    );
    assert_eq!(file.batched.len(), configs.len() * want.len());
    for (block, config) in file.batched.chunks(want.len()).zip(&configs) {
        let scalar = file
            .rows
            .iter()
            .find(|r| r.kernel == "scalar" && r.config == *config)
            .expect("scalar row");
        let backends: Vec<&str> = block.iter().map(|r| r.sweep_backend.as_str()).collect();
        assert_eq!(
            backends, want,
            "{config}: backends of a {} host",
            file.host_simd
        );
        for r in block {
            assert_eq!(r.config, *config);
            assert_eq!(r.cells, scalar.cells, "{config} {}", r.sweep_backend);
            assert!(r.seconds > 0.0, "{config} {}", r.sweep_backend);
            let speedup = scalar.seconds / r.seconds;
            assert!(
                (r.speedup_vs_scalar - speedup).abs() <= 1e-9 * speedup,
                "{config} {}: speedup {} is not scalar {} s / {} s",
                r.sweep_backend,
                r.speedup_vs_scalar,
                scalar.seconds,
                r.seconds
            );
        }
    }
}

/// The acceptance bar is keyed on the producing host's recorded SIMD
/// capability, not on its core count: the batched win is
/// register-level and single-threaded, so a 1-core AVX-512 box must
/// clear the same bar as a 64-core one. The tiers track the committed
/// wide-host baseline — avx512bw measures ~9x on the reference
/// container, avx2-only hosts land ~6-7x, and the SSE floor keeps the
/// historical 3x bar so a sweep regression can't slip through
/// anywhere.
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

/// BLOSUM62 runs in the `i16` lanes: on the committed protein config
/// every recorded backend beats the scalar reference (the lanes
/// replaced a kernel that ran protein at ~1.2× scalar, so anything
/// slower than scalar is a regression whatever the host).
#[test]
fn committed_baseline_shows_protein_lanes_win() {
    let file = load();
    let protein: Vec<_> = file
        .batched
        .iter()
        .filter(|r| r.config.starts_with("blosum62/"))
        .collect();
    assert!(
        !protein.is_empty(),
        "no BLOSUM62 rows in the batched section; regenerate with `{REPRO_COMMAND}`"
    );
    for r in protein {
        assert!(
            r.speedup_vs_scalar > 1.0,
            "{} {}: BLOSUM62 lanes at {:.2}x scalar",
            r.config,
            r.sweep_backend,
            r.speedup_vs_scalar
        );
    }
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
