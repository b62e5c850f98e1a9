//! Golden-file tests for the cluster telemetry serialization: a
//! deterministic cluster run must serialize to byte-identical JSON
//! (both the `ClusterReport` and its Chrome trace), and both dumps
//! must deserialize back to equal values.
//!
//! Regenerate the fixtures after an intentional format change with
//! `UPDATE_FIXTURES=1 cargo test --test trace_golden`.

use std::path::PathBuf;

use xdrop_ipu::sim::batch::{Batch, TileAssignment};
use xdrop_ipu::sim::cluster::{
    run_cluster_faulty, run_cluster_opts, ClusterOptions, ClusterReport,
};
use xdrop_ipu::sim::cost::{CostModel, OptFlags};
use xdrop_ipu::sim::exec::WorkUnit;
use xdrop_ipu::sim::fault::{DeviceDeath, FaultPlan, LinkStall, TransientFault};
use xdrop_ipu::sim::spec::IpuSpec;
use xdrop_ipu::sim::trace::{ChromeTrace, PID_LINK, TID_FAULT};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A small fixed scenario: three devices, five batches with varied
/// transfer and compute weights. Everything is constant, so the
/// JSON is reproducible down to the byte.
fn scenario_inputs() -> (Vec<WorkUnit>, Vec<Batch>) {
    let units: Vec<WorkUnit> = (0..5u64)
        .map(|i| WorkUnit {
            cmp: i as u32,
            side: None,
            stats: xdrop_ipu::core::stats::AlignStats {
                cells_computed: 4_000_000 + i * 1_500_000,
                antidiagonals: 128,
                ..Default::default()
            },
            score: 0,
            est_complexity: 1,
        })
        .collect();
    let batches: Vec<Batch> = (0..5usize)
        .map(|i| Batch {
            tiles: vec![TileAssignment {
                units: vec![i as u32],
                transfer_bytes: 800_000_000 + i as u64 * 350_000_000,
                est_load: 1,
            }],
        })
        .collect();
    (units, batches)
}

fn scenario() -> (ClusterReport, ChromeTrace) {
    let (units, batches) = scenario_inputs();
    let (report, trace) = run_cluster_opts(
        &units,
        &batches,
        3,
        &IpuSpec::gc200(),
        &OptFlags::full(),
        &CostModel::default(),
        &ClusterOptions {
            host_threads: 1,
            collect_trace: true,
            ..ClusterOptions::default()
        },
    );
    (report, trace.expect("trace requested"))
}

/// The same scenario under a fixed recoverable fault plan: device 1
/// dies mid-run, batch 2 fails transiently once, and batch 3's first
/// transfer is stalled. Pins the on-disk shape of the recovery
/// counters and of the dedicated `fault` trace track.
fn faulty_scenario() -> (ClusterReport, ChromeTrace) {
    let (units, batches) = scenario_inputs();
    let plan = FaultPlan {
        deaths: vec![DeviceDeath {
            device: 1,
            at_seconds: 0.25,
        }],
        transients: vec![TransientFault {
            batch: 2,
            failures: 1,
        }],
        stalls: vec![LinkStall {
            batch: 3,
            attempt: 0,
            extra_seconds: 0.01,
        }],
        ..FaultPlan::none()
    };
    let (report, trace) = run_cluster_faulty(
        &units,
        &batches,
        3,
        &IpuSpec::gc200(),
        &OptFlags::full(),
        &CostModel::default(),
        &ClusterOptions {
            host_threads: 1,
            collect_trace: true,
            ..ClusterOptions::default()
        },
        &plan,
    )
    .expect("the plan is recoverable");
    (report, trace.expect("trace requested"))
}

/// The `host_simd:<capability>` meta event names the *producing*
/// host's detected SIMD width, which would make the byte-exact golden
/// fixtures host-dependent. Normalize it to a canonical form before
/// comparison (the live-trace assertions below separately pin that
/// the real capability is recorded); everything else in the trace is
/// deterministic and stays byte-exact.
fn normalize_host_simd(trace: &ChromeTrace) -> ChromeTrace {
    let mut t = trace.clone();
    for e in &mut t.traceEvents {
        if e.ph == "M" && e.name.starts_with("host_simd:") {
            e.name = "host_simd:normalized".to_string();
            e.args.insert("simd_tier".to_string(), -1.0);
        }
    }
    t
}

/// Asserts the un-normalized trace records this host's actual
/// detected capability, name and tier both.
fn assert_live_host_simd(trace: &ChromeTrace) {
    let expect = format!("host_simd:{}", xdrop_ipu::core::kernel::host_simd());
    let ev = trace
        .traceEvents
        .iter()
        .find(|e| e.ph == "M" && e.name.starts_with("host_simd:"))
        .expect("trace must carry a host_simd meta event");
    assert_eq!(
        ev.name, expect,
        "host_simd meta must name the detected capability"
    );
    assert_eq!(
        ev.args.get("simd_tier").copied(),
        Some(f64::from(xdrop_ipu::core::kernel::host_simd_tier())),
        "host_simd meta must carry the numeric tier"
    );
}

fn check_golden(name: &str, json: &str) {
    let path = fixture_path(name);
    if std::env::var("UPDATE_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        json,
        fixture.as_str(),
        "{name} drifted from its golden fixture"
    );
}

#[test]
fn cluster_report_golden_roundtrip() {
    let (report, _) = scenario();
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    check_golden("cluster_report.json", &json);
    let back: ClusterReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
}

#[test]
fn chrome_trace_golden_roundtrip() {
    let (_, trace) = scenario();
    let norm = normalize_host_simd(&trace);
    let json = norm.to_json();
    check_golden("cluster_trace.json", &json);
    let back: ChromeTrace = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, norm);
    // Structural sanity of the Chrome format: complete spans plus
    // the host-meta annotations.
    assert!(json.starts_with('{'));
    assert!(json.contains("\"traceEvents\""));
    assert!(trace
        .traceEvents
        .iter()
        .all(|e| e.ph == "X" || (e.ph == "M" && e.cat == "meta")));
    assert!(trace.traceEvents.iter().any(|e| e.ph == "M"));
    // The live (un-normalized) trace must name this host's detected
    // SIMD capability.
    assert_live_host_simd(&trace);
}

#[test]
fn faulty_cluster_report_golden_roundtrip() {
    let (report, _) = faulty_scenario();
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    check_golden("cluster_report_faulty.json", &json);
    let back: ClusterReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
    // The fixture must actually exercise the recovery counters —
    // otherwise it pins nothing the fault-free fixture doesn't.
    assert_eq!(report.retries, 1);
    assert_eq!(report.devices_lost, 1);
    assert!(report.recovery_seconds > 0.0);
}

#[test]
fn faulty_chrome_trace_golden_roundtrip() {
    let (_, trace) = faulty_scenario();
    let norm = normalize_host_simd(&trace);
    let json = norm.to_json();
    check_golden("cluster_trace_faulty.json", &json);
    let back: ChromeTrace = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, norm);
    assert_live_host_simd(&trace);
    // Fault events live on their own track of the link process as
    // complete spans, so Chrome renders them as a separate lane.
    let faults: Vec<_> = trace.events_in("fault").collect();
    assert!(!faults.is_empty(), "faulty run must emit fault events");
    assert!(faults
        .iter()
        .all(|e| e.ph == "X" && e.pid == PID_LINK && e.tid == TID_FAULT));
    assert!(faults.iter().any(|e| e.name.starts_with("death")));
    assert!(faults.iter().any(|e| e.name.starts_with("retry")));
    assert!(faults.iter().any(|e| e.name.starts_with("stall")));
}
