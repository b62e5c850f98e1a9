//! Single-device BSP batch execution.
//!
//! One batch = one BSP program run: host streams the batch input in,
//! the exchange fabric distributes it to tiles, every tile computes
//! (Compute phase), and the device synchronizes. Compute time is the
//! *maximum* over tiles — the load-imbalance penalty the paper's
//! batching and work stealing fight against.

use crate::batch::Batch;
use crate::cost::{CostModel, OptFlags};
use crate::exec::WorkUnit;
use crate::spec::IpuSpec;
use crate::tile::schedule_tile;

/// Timing and utilization of one batch on one device.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchReport {
    /// Compute-phase length: slowest tile, in cycles.
    pub compute_cycles: u64,
    /// Compute-phase length in seconds.
    pub compute_seconds: f64,
    /// Exchange-phase time distributing the batch input on-chip.
    pub exchange_seconds: f64,
    /// Host→device payload of this batch.
    pub host_bytes: u64,
    /// Tiles that had work.
    pub occupied_tiles: usize,
    /// Mean tile busy-fraction relative to the slowest tile.
    pub tile_utilization: f64,
    /// Total steal races across tiles.
    pub races: u64,
    /// Work units executed.
    pub units: usize,
}

impl BatchReport {
    /// On-device time of the batch (exchange + compute; host
    /// transfer is accounted by the cluster driver, which overlaps
    /// it with compute via prefetching).
    pub fn device_seconds(&self) -> f64 {
        self.compute_seconds + self.exchange_seconds
    }
}

/// Reusable scratch for batch replay: holds the per-tile instruction
/// vector so replaying thousands of tiles doesn't re-allocate it per
/// tile. One per worker thread; contents are transient.
#[derive(Debug, Default)]
pub struct BatchScratch {
    instr: Vec<u64>,
}

/// Executes one batch on one device, building each tile's
/// instruction vector in `scratch` (one per worker, reused across the
/// batches it replays).
pub fn run_batch_on_device(
    units: &[WorkUnit],
    batch: &Batch,
    spec: &IpuSpec,
    flags: &OptFlags,
    cost: &CostModel,
    scratch: &mut BatchScratch,
) -> BatchReport {
    let mut compute_cycles = 0u64;
    let mut busy_sum = 0u64;
    let mut races = 0u64;
    let mut n_units = 0usize;
    for tile in &batch.tiles {
        scratch.instr.clear();
        scratch.instr.extend(
            tile.units
                .iter()
                .map(|&ui| cost.unit_instructions(&units[ui as usize].stats, flags.dual_issue)),
        );
        let r = schedule_tile(&scratch.instr, spec, flags);
        compute_cycles = compute_cycles.max(r.cycles);
        busy_sum += r.cycles;
        races += r.races;
        n_units += tile.units.len();
    }
    let occupied = batch.tiles.len();
    let tile_utilization = if occupied == 0 || compute_cycles == 0 {
        1.0
    } else {
        busy_sum as f64 / (compute_cycles as f64 * occupied as f64)
    };
    let host_bytes = batch.transfer_bytes();
    BatchReport {
        compute_cycles,
        compute_seconds: spec.cycles_to_seconds(compute_cycles),
        exchange_seconds: host_bytes as f64 / spec.exchange_bytes_per_s,
        host_bytes,
        occupied_tiles: occupied,
        tile_utilization,
        races,
        units: n_units,
    }
}

/// Sums a sequence of batch reports into aggregate device time.
pub fn total_device_seconds(reports: &[BatchReport]) -> f64 {
    reports.iter().map(BatchReport::device_seconds).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TileAssignment;
    use xdrop_core::stats::AlignStats;

    fn unit(cells: u64) -> WorkUnit {
        WorkUnit {
            cmp: 0,
            side: None,
            stats: AlignStats {
                cells_computed: cells,
                antidiagonals: 10,
                ..Default::default()
            },
            score: 0,
            est_complexity: cells,
        }
    }

    /// One batch under the default cost model, in a fresh scratch.
    fn run(units: &[WorkUnit], b: &Batch, spec: &IpuSpec, flags: &OptFlags) -> BatchReport {
        let cost = CostModel::default();
        run_batch_on_device(units, b, spec, flags, &cost, &mut BatchScratch::default())
    }

    fn batch_of(tiles: Vec<Vec<u32>>) -> Batch {
        Batch {
            tiles: tiles
                .into_iter()
                .map(|units| TileAssignment {
                    units,
                    transfer_bytes: 1_000,
                    est_load: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn compute_is_max_over_tiles() {
        let units = vec![unit(1_000), unit(100_000)];
        let b = batch_of(vec![vec![0], vec![1]]);
        let spec = IpuSpec::gc200();
        let r = run(&units, &b, &spec, &OptFlags::full());
        let solo = batch_of(vec![vec![1]]);
        let r_solo = run(&units, &solo, &spec, &OptFlags::full());
        assert_eq!(r.compute_cycles, r_solo.compute_cycles);
        assert!(
            r.tile_utilization < 1.0,
            "imbalanced batch must show poor utilization"
        );
    }

    #[test]
    fn dual_issue_speeds_up_compute() {
        let units = vec![unit(1_000_000)];
        let b = batch_of(vec![vec![0]]);
        let spec = IpuSpec::gc200();
        let mut flags = OptFlags::full();
        let fast = run(&units, &b, &spec, &flags);
        flags.dual_issue = false;
        let slow = run(&units, &b, &spec, &flags);
        let ratio = slow.compute_cycles as f64 / fast.compute_cycles as f64;
        assert!((ratio - 1.30).abs() < 0.02, "dual issue ratio {ratio}");
    }

    #[test]
    fn bow_faster_than_gc200_in_seconds_not_cycles() {
        let units = vec![unit(1_000_000)];
        let b = batch_of(vec![vec![0]]);
        let flags = OptFlags::full();
        let g = run(&units, &b, &IpuSpec::gc200(), &flags);
        let w = run(&units, &b, &IpuSpec::bow(), &flags);
        assert_eq!(g.compute_cycles, w.compute_cycles);
        assert!(w.compute_seconds < g.compute_seconds);
        let ratio = g.compute_seconds / w.compute_seconds;
        assert!((ratio - 1.85 / 1.33).abs() < 0.01);
    }

    #[test]
    fn empty_batch_is_free() {
        let r = run(&[], &Batch::default(), &IpuSpec::gc200(), &OptFlags::full());
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.host_bytes, 0);
        assert_eq!(r.device_seconds(), 0.0);
    }

    #[test]
    fn six_threads_beat_one() {
        let units: Vec<WorkUnit> = (0..12).map(|_| unit(50_000)).collect();
        let b = batch_of(vec![(0..12).collect()]);
        let spec = IpuSpec::gc200();
        let mut flags = OptFlags::full();
        flags.work_stealing = false;
        let six = run(&units, &b, &spec, &flags);
        flags.threads = 1;
        let one = run(&units, &b, &spec, &flags);
        let ratio = one.compute_cycles as f64 / six.compute_cycles as f64;
        assert!((ratio - 6.0).abs() < 0.01, "thread scaling ratio {ratio}");
    }
}
