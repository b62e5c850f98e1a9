//! Fleet-scale strong scaling: the windowed out-of-core pipeline
//! feeding a hundreds-of-devices cluster model with host-link
//! contention.
//!
//! Figure 7 stops at 32 IPUs, where the serialized host link is the
//! only scaling wall. This experiment pushes the same model to
//! {4, 16, 64, 256, 512} devices and turns on the shared-bandwidth
//! contention term ([`ipu_sim::cost::CostModel::host_link_contention`]):
//! every transfer is derated by the number of other devices already
//! queued on the link, so the modeled GCUPS curve develops a
//! *saturation knee* — it keeps climbing under the uncontended model
//! but flattens once the fleet outgrows the link.
//!
//! The alignment front end runs **once**, through
//! [`xdrop_partition::run_pipeline_out_of_core`]: the dataset is
//! generated window by window (`seqdata`'s bounded-memory
//! `Dataset::windows`), partitioned and planned from a lengths-only
//! skeleton, and executed with at most a few windows of payload
//! resident. When the [`crate::alloc::TrackingAllocator`] is
//! installed (the `experiments` binary does), the section also
//! records the tracked peak heap of that windowed run next to the
//! bytes an in-core payload pool would have pinned.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release -p xdrop-bench --bin experiments -- scaling --bench-json
//! ```

use crate::exp::dna_scorer;
use crate::exp::scaling::FIG7_MACHINE_SCALE;
use ipu_sim::cluster::run_cluster;
use ipu_sim::cost::CostModel;
use ipu_sim::spec::IpuSpec;
use seqdata::{Dataset, DatasetKind};
use xdrop_partition::plan::{plan_batches_timed, PlanConfig};
use xdrop_partition::{run_pipeline_out_of_core, PipelineConfig};

/// Device counts of the fleet sweep.
pub const SCALING_DEVICE_SWEEP: [usize; 5] = [4, 16, 64, 256, 512];

/// Per-waiter bandwidth derating used for the contended rows. At 511
/// waiters the link runs at ~1/11 of nominal — the regime where the
/// knee is unmistakable without washing out the small-fleet rows.
pub const SCALING_CONTENTION_ETA: f64 = 0.02;

/// Window size (comparisons) of the out-of-core front end.
pub const SCALING_WINDOW_COMPARISONS: usize = 256;

/// The command documented to regenerate the scaling section of
/// `BENCH_xdrop.json`.
pub const SCALING_REPRO_COMMAND: &str =
    "cargo run --release -p xdrop-bench --bin experiments -- scaling --bench-json";

/// One (device count × contention) cell of the fleet sweep.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScalingRow {
    /// Dataset name.
    pub dataset: String,
    /// Devices pulling from the shared batch queue.
    pub devices: usize,
    /// Host-link contention coefficient (0.0 = uncontended model).
    pub contention: f64,
    /// Batches planned for this device count.
    pub batches: usize,
    /// Modeled makespan in seconds.
    pub seconds: f64,
    /// Modeled GCUPS (theoretical cells / makespan).
    pub gcups: f64,
    /// Speedup over the smallest fleet of the same contention model.
    pub speedup: f64,
    /// Host-link busy fraction (1.0 = saturated).
    pub link_busy: f64,
    /// Mean device compute-busy fraction.
    pub device_busy: f64,
}

/// The `scaling` section of `BENCH_xdrop.json`.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ScalingSection {
    /// Comparisons per generation window of the out-of-core run.
    pub window_comparisons: usize,
    /// Tracked peak heap bytes during the windowed front end (0 when
    /// the producing binary had no tracking allocator installed).
    pub peak_rss_bytes: u64,
    /// Payload bytes an in-core sequence pool would have pinned for
    /// the whole run — the number the windowed path avoids.
    pub in_core_payload_bytes: u64,
    /// The device × contention sweep.
    pub rows: Vec<ScalingRow>,
}

/// Runs the fleet sweep. `scale` shrinks/grows the dataset (1.0 =
/// bench default); modeled time is deterministic, so no iteration
/// count is needed.
pub fn run(scale: f64) -> ScalingSection {
    let sc = dna_scorer();
    // 85%-identity full-extension pairs at X = 100: the highest
    // compute-per-transferred-byte regime the generator offers, so
    // the uncontended model still gains devices where the contended
    // one has already hit its knee.
    let ds = Dataset::new(DatasetKind::Simulated85, (0.05 * scale).max(0.001));
    let spec = IpuSpec::bow().scaled(FIG7_MACHINE_SCALE);

    // Metadata pass: lengths + comparisons, no payloads.
    let meta = ds.meta();
    let in_core_payload_bytes: u64 = meta.seq_lens.iter().map(|&l| u64::from(l)).sum();
    let skeleton = meta.into_skeleton();
    let cells = skeleton.theoretical_cells();

    // The alignment front end runs once, windowed: skeleton-planned
    // batches, bounded payload residency.
    let mut cfg = PipelineConfig::new(100);
    cfg.devices = SCALING_DEVICE_SWEEP[0];
    cfg.plan = PlanConfig::partitioned(512);
    crate::alloc::reset_peak();
    let windows = ds.windows(SCALING_WINDOW_COMPARISONS);
    let out = run_pipeline_out_of_core(&skeleton, windows, &sc, &spec, &cfg, 2)
        .expect("bench dataset aligns under the grow policy");
    let peak_rss_bytes = crate::alloc::peak_bytes();

    // Device sweep over the reconstructed units. Like Figure 7, the
    // driver plans offline and submits whichever layout wins for the
    // fleet at hand — coarse reuse-maximal batches or fine batches
    // that keep every device pipelined — evaluated under the cost
    // model actually in effect.
    let mut rows = Vec::new();
    for &devices in &SCALING_DEVICE_SWEEP {
        let fine = (2 * devices).min(out.exec.units.len().max(2)).max(2);
        let plans: Vec<Vec<ipu_sim::batch::Batch>> = [2usize, fine]
            .into_iter()
            .map(|min_batches| {
                plan_batches_timed(
                    &skeleton,
                    &out.exec.units,
                    &spec,
                    &PlanConfig::partitioned(512).with_min_batches(min_batches),
                )
                .expect("bench dataset fits the tile budget")
                .0
            })
            .collect();
        for eta in [0.0, SCALING_CONTENTION_ETA] {
            let cost = CostModel {
                host_link_contention: eta,
                ..CostModel::default()
            };
            let (batches, r) = plans
                .iter()
                .map(|b| {
                    (
                        b,
                        run_cluster(&out.exec.units, b, devices, &spec, &cfg.flags, &cost),
                    )
                })
                .min_by(|a, b| a.1.total_seconds.total_cmp(&b.1.total_seconds))
                .expect("two candidate plans");
            rows.push(ScalingRow {
                dataset: ds.kind.name().to_string(),
                devices,
                contention: eta,
                batches: batches.len(),
                seconds: r.total_seconds,
                gcups: r.gcups(cells),
                speedup: 0.0,
                link_busy: r.link_busy_fraction,
                device_busy: r.device_busy_fraction,
            });
        }
    }
    // Speedup relative to the smallest fleet of the same model.
    for i in 0..rows.len() {
        let base = rows
            .iter()
            .find(|r| r.devices == SCALING_DEVICE_SWEEP[0] && r.contention == rows[i].contention)
            .map(|r| r.seconds)
            .unwrap_or(rows[i].seconds);
        rows[i].speedup = if rows[i].seconds > 0.0 {
            base / rows[i].seconds
        } else {
            1.0
        };
    }

    ScalingSection {
        window_comparisons: SCALING_WINDOW_COMPARISONS,
        peak_rss_bytes,
        in_core_payload_bytes,
        rows,
    }
}

/// Renders the section as an aligned text table.
pub fn render(s: &ScalingSection) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "window {} comparisons; peak tracked heap {}; in-core payloads would pin {} B\n",
        s.window_comparisons,
        if s.peak_rss_bytes > 0 {
            format!("{} B", s.peak_rss_bytes)
        } else {
            "(not tracked)".to_string()
        },
        s.in_core_payload_bytes,
    ));
    out.push_str(
        "dataset      devices  eta    batches    seconds      GCUPS   speedup  link%  dev%\n",
    );
    for r in &s.rows {
        out.push_str(&format!(
            "{:<12} {:>7} {:>5.2} {:>8} {:>10.6} {:>10.3} {:>8.2}x {:>6.2} {:>5.2}\n",
            r.dataset,
            r.devices,
            r.contention,
            r.batches,
            r.seconds,
            r.gcups,
            r.speedup,
            r.link_busy,
            r.device_busy,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sweep_shape() {
        let s = run(0.01);
        // One row per (device count × contention model).
        assert_eq!(s.rows.len(), 2 * SCALING_DEVICE_SWEEP.len());
        assert_eq!(s.window_comparisons, SCALING_WINDOW_COMPARISONS);
        assert!(s.in_core_payload_bytes > 0);
        let get = |devices: usize, eta: f64| {
            s.rows
                .iter()
                .find(|r| r.devices == devices && r.contention == eta)
                .expect("row")
        };
        for &d in &SCALING_DEVICE_SWEEP {
            let free = get(d, 0.0);
            let cont = get(d, SCALING_CONTENTION_ETA);
            assert!(free.gcups > 0.0 && cont.gcups > 0.0);
            // Contention can only slow the model down (each model
            // already picked its best batch layout).

            assert!(
                cont.seconds >= free.seconds,
                "d={d}: contended {} < free {}",
                cont.seconds,
                free.seconds
            );
        }
        // The baseline rows define speedup 1.0.
        assert_eq!(get(4, 0.0).speedup, 1.0);
        assert_eq!(get(4, SCALING_CONTENTION_ETA).speedup, 1.0);
        // The contended model saturates harder at fleet scale: its
        // 512-device speedup cannot beat the uncontended one.
        assert!(get(512, SCALING_CONTENTION_ETA).speedup <= get(512, 0.0).speedup + 1e-9);
        let txt = render(&s);
        assert!(txt.contains("GCUPS"));
    }
}
