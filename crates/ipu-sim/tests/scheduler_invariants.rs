//! Invariants of the event-driven cluster scheduler: physical lower
//! bounds on the makespan, monotonicity in the device count, and
//! bit-identical reports regardless of the host-side kernel pool.

use ipu_sim::batch::{Batch, TileAssignment};
use ipu_sim::cluster::{run_cluster, run_cluster_opts, ClusterOptions};
use ipu_sim::cost::{CostModel, OptFlags};
use ipu_sim::exec::WorkUnit;
use ipu_sim::spec::IpuSpec;
use proptest::prelude::*;
use xdrop_core::stats::AlignStats;

/// Units with varied cell counts; one unit per eventual tile.
fn mk_units(n: usize) -> Vec<WorkUnit> {
    (0..n)
        .map(|i| WorkUnit {
            cmp: i as u32,
            side: None,
            stats: AlignStats {
                cells_computed: 10_000 + (i as u64 * 7_919) % 2_000_000,
                antidiagonals: 100,
                ..Default::default()
            },
            score: 0,
            est_complexity: 1,
        })
        .collect()
}

/// One single-tile batch per unit, with per-batch transfer sizes
/// spread around `bytes`.
fn mk_batches(units: &[WorkUnit], per_batch: usize, bytes: u64) -> Vec<Batch> {
    (0..units.len())
        .collect::<Vec<_>>()
        .chunks(per_batch.max(1))
        .map(|chunk| Batch {
            tiles: chunk
                .iter()
                .map(|&u| TileAssignment {
                    units: vec![u as u32],
                    transfer_bytes: bytes + (u as u64 * 131) % (bytes / 2 + 1),
                    est_load: 1,
                })
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The makespan can never beat either physical floor: the
    /// serialized host link (sum of all transfer times) or perfectly
    /// parallel compute (total device seconds over the device count).
    #[test]
    fn makespan_respects_both_floors(
        n in 1usize..40,
        per_batch in 1usize..6,
        bytes in 1u64..80_000_000,
        devices in 1usize..9,
    ) {
        let units = mk_units(n);
        let batches = mk_batches(&units, per_batch, bytes);
        let spec = IpuSpec::gc200();
        let r = run_cluster(&units, &batches, devices, &spec, &OptFlags::full(), &CostModel::default());
        let transfer_floor = r.host_bytes as f64 / spec.host_link_bytes_per_s;
        let compute_total: f64 = r.batch_reports.iter().map(|b| b.device_seconds()).sum();
        let compute_floor = compute_total / devices as f64;
        let floor = transfer_floor.max(compute_floor);
        prop_assert!(
            r.total_seconds >= floor * (1.0 - 1e-9),
            "makespan {} below floor {} (transfer {}, compute {})",
            r.total_seconds, floor, transfer_floor, compute_floor
        );
    }

    /// Adding devices never increases the makespan.
    #[test]
    fn makespan_monotone_in_devices(
        n in 1usize..40,
        per_batch in 1usize..6,
        bytes in 1u64..80_000_000,
    ) {
        let units = mk_units(n);
        let batches = mk_batches(&units, per_batch, bytes);
        let spec = IpuSpec::gc200();
        let mut prev = f64::INFINITY;
        for d in [1usize, 2, 3, 4, 6, 8, 16] {
            let r = run_cluster(&units, &batches, d, &spec, &OptFlags::full(), &CostModel::default());
            prop_assert!(
                r.total_seconds <= prev * (1.0 + 1e-12),
                "{d} devices slower: {} > {}", r.total_seconds, prev
            );
            prev = r.total_seconds;
        }
    }

    /// The host-side kernel pool is a wall-clock optimization only:
    /// every field of the report — modeled times, percentiles,
    /// per-batch reports — is bit-identical for any thread count.
    #[test]
    fn report_bit_identical_across_host_threads(
        n in 1usize..30,
        per_batch in 1usize..6,
        bytes in 1u64..50_000_000,
        devices in 1usize..6,
        threads in 2usize..16,
    ) {
        let units = mk_units(n);
        let batches = mk_batches(&units, per_batch, bytes);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let serial = run_cluster_opts(
            &units, &batches, devices, &spec, &flags, &cost,
            &ClusterOptions { host_threads: 1, collect_trace: true, ..ClusterOptions::default() },
        );
        let pooled = run_cluster_opts(
            &units, &batches, devices, &spec, &flags, &cost,
            &ClusterOptions { host_threads: threads, collect_trace: true, ..ClusterOptions::default() },
        );
        prop_assert_eq!(&serial.0, &pooled.0);
        // The recorded timeline is part of the deterministic output —
        // except the host-meta annotation, which by design records
        // the requested pool size and so differs across thread
        // counts. All modeled spans must match.
        let spans = |t: &Option<ipu_sim::trace::ChromeTrace>| -> Vec<ipu_sim::trace::TraceEvent> {
            t.as_ref()
                .expect("trace requested")
                .traceEvents
                .iter()
                .filter(|e| e.cat != "meta")
                .cloned()
                .collect()
        };
        prop_assert_eq!(spans(&serial.1), spans(&pooled.1));
    }

    /// Trace sanity on arbitrary shapes: per-batch span counts, all
    /// events inside the makespan, and a never-overlapping host link.
    #[test]
    fn trace_is_consistent(
        n in 1usize..25,
        per_batch in 1usize..5,
        bytes in 1u64..50_000_000,
        devices in 1usize..5,
    ) {
        let units = mk_units(n);
        let batches = mk_batches(&units, per_batch, bytes);
        let spec = IpuSpec::gc200();
        let (r, trace) = run_cluster_opts(
            &units, &batches, devices, &spec, &OptFlags::full(), &CostModel::default(),
            &ClusterOptions { host_threads: 1, collect_trace: true, ..ClusterOptions::default() },
        );
        let trace = trace.expect("trace requested");
        prop_assert_eq!(trace.events_in("fetch").count(), batches.len());
        prop_assert_eq!(trace.events_in("link").count(), batches.len());
        prop_assert_eq!(trace.events_in("compute").count(), batches.len());
        let total_us = r.total_seconds * 1e6;
        for e in &trace.traceEvents {
            prop_assert!(e.ts >= -1e-9);
            prop_assert!(e.end_ts() <= total_us * (1.0 + 1e-9));
        }
        let mut link: Vec<_> = trace.events_in("link").collect();
        link.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        for w in link.windows(2) {
            prop_assert!(w[0].end_ts() <= w[1].ts + 1e-6);
        }
    }
}
