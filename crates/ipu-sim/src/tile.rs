//! Intra-tile thread scheduling (§4.1.2–4.1.3).
//!
//! A tile runs up to six temporally-multithreaded hardware threads;
//! every instruction takes [`crate::spec::IpuSpec::instr_cycles`]
//! cycles, so a thread that executes `I` instructions occupies the
//! tile for `6 I` cycles of wall-clock, and the tile finishes when
//! its *slowest* thread does (BSP: everyone else waits).
//!
//! Two work-distribution schemes are modeled:
//!
//! * **Static round-robin** — unit `i` goes to thread `i mod T`.
//! * **Eventual work stealing** — threads pull the next unit from a
//!   shared list when idle. The IPU has no atomics, so the paper's
//!   kernel swaps a global value instead; two threads that dequeue
//!   within the same unsynchronized window both execute the unit.
//!   Because instruction latencies are deterministic, tied threads
//!   *stay* tied ("two threads stealing the same unit of work will
//!   perpetually continue to do so", §4.1.3) until a per-thread
//!   busy-wait jitter loop breaks the symmetry. The simulator
//!   reproduces exactly this dynamic.

use crate::cost::OptFlags;
use crate::spec::IpuSpec;

/// Instructions a dequeue takes — the race window within which two
/// threads grab the same unit.
pub const STEAL_WINDOW_INSTR: u64 = 12;

/// Per-thread busy-wait jitter offsets (distinct, larger than the
/// race window) applied when `steal_jitter` is on.
pub const JITTER_INSTR: [u64; 6] = [0, 17, 37, 61, 89, 113];

/// Outcome of scheduling one tile's unit list.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TileReport {
    /// Tile wall-clock in cycles (slowest thread × instr_cycles).
    pub cycles: u64,
    /// Instructions executed per thread (length = threads used).
    pub thread_instr: Vec<u64>,
    /// Number of duplicate executions caused by steal races.
    pub races: u64,
    /// Instructions wasted re-executing raced units.
    pub duplicated_instr: u64,
}

impl TileReport {
    /// An idle tile.
    pub fn idle(threads: usize) -> Self {
        Self {
            cycles: 0,
            thread_instr: vec![0; threads],
            races: 0,
            duplicated_instr: 0,
        }
    }

    /// Useful instructions (sum over threads minus duplicates).
    pub fn useful_instr(&self) -> u64 {
        self.thread_instr.iter().sum::<u64>() - self.duplicated_instr
    }

    /// Thread-level utilization: mean busy fraction relative to the
    /// slowest thread (1.0 = perfectly balanced).
    pub fn thread_utilization(&self) -> f64 {
        let max = *self.thread_instr.iter().max().unwrap_or(&0);
        if max == 0 {
            return 1.0;
        }
        let sum: u64 = self.thread_instr.iter().sum();
        sum as f64 / (max as f64 * self.thread_instr.len() as f64)
    }
}

/// Schedules `unit_instr` (instruction cost per work unit, in queue
/// order) onto one tile.
pub fn schedule_tile(unit_instr: &[u64], spec: &IpuSpec, flags: &OptFlags) -> TileReport {
    let threads = flags.threads.clamp(1, spec.threads_per_tile);
    if unit_instr.is_empty() {
        return TileReport::idle(threads);
    }
    let mut report = if flags.work_stealing && threads > 1 {
        schedule_stealing(unit_instr, threads, flags.steal_jitter)
    } else {
        schedule_round_robin(unit_instr, threads)
    };
    report.cycles = report.thread_instr.iter().max().copied().unwrap_or(0) * spec.instr_cycles;
    report
}

fn schedule_round_robin(unit_instr: &[u64], threads: usize) -> TileReport {
    let mut thread_instr = vec![0u64; threads];
    for (i, &cost) in unit_instr.iter().enumerate() {
        thread_instr[i % threads] += cost;
    }
    TileReport {
        cycles: 0,
        thread_instr,
        races: 0,
        duplicated_instr: 0,
    }
}

/// The design the paper *rejected* (§4.1): combine the six hardware
/// threads into one supervised gang that cooperates on a single
/// alignment at a time. The antidiagonal sweep parallelizes across
/// the gang, but every antidiagonal needs a synchronization point,
/// and on the IPU joining threads means a context switch — so each
/// antidiagonal pays `sync_instr` of overhead while the parallel
/// part shrinks with the band width.
///
/// `unit_work` carries `(instructions, antidiagonals)` per unit.
/// Worth keeping around as an ablation: for a *single* long
/// alignment the gang wins (nearly 6× latency), but for throughput
/// over many alignments the per-antidiagonal sync tax loses to the
/// paper's one-alignment-per-thread design — exactly the paper's
/// argument.
pub fn schedule_supervisor(
    unit_work: &[(u64, u64)],
    spec: &IpuSpec,
    sync_instr: u64,
) -> TileReport {
    let threads = spec.threads_per_tile;
    if unit_work.is_empty() {
        return TileReport::idle(threads);
    }
    let mut total = 0u64;
    for &(instr, diags) in unit_work {
        // The per-cell work divides across the gang; the
        // per-antidiagonal overhead and synchronization do not.
        let parallel = instr.div_ceil(threads as u64);
        total += parallel + diags * sync_instr;
    }
    TileReport {
        cycles: total * spec.instr_cycles,
        thread_instr: vec![total; threads],
        races: 0,
        duplicated_instr: 0,
    }
}

fn schedule_stealing(unit_instr: &[u64], threads: usize, jitter: bool) -> TileReport {
    let mut t = vec![0u64; threads];
    if jitter {
        for (i, ti) in t.iter_mut().enumerate() {
            *ti = JITTER_INSTR[i % JITTER_INSTR.len()];
        }
    }
    let mut races = 0u64;
    let mut duplicated = 0u64;
    let mut qi = 0usize;
    while qi < unit_instr.len() {
        let cost = unit_instr[qi];
        qi += 1;
        // The earliest-idle thread grabs the unit; any thread whose
        // idle time falls inside the dequeue window grabs it too.
        let t0 = t.iter().copied().min().unwrap_or(0);
        let mut first = true;
        for ti in t.iter_mut() {
            if *ti < t0 + STEAL_WINDOW_INSTR {
                if !first {
                    races += 1;
                    duplicated += cost;
                }
                *ti += cost + STEAL_WINDOW_INSTR;
                first = false;
            }
        }
    }
    TileReport {
        cycles: 0,
        thread_instr: t,
        races,
        duplicated_instr: duplicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IpuSpec {
        IpuSpec::gc200()
    }

    fn flags(threads: usize, steal: bool, jitter: bool) -> OptFlags {
        OptFlags {
            all_tiles: true,
            threads,
            lr_split: false,
            work_stealing: steal,
            steal_jitter: jitter,
            dual_issue: false,
        }
    }

    #[test]
    fn single_thread_serializes() {
        let units = vec![100, 200, 300];
        let r = schedule_tile(&units, &spec(), &flags(1, false, false));
        assert_eq!(r.thread_instr, vec![600]);
        assert_eq!(r.cycles, 600 * 6);
    }

    #[test]
    fn six_threads_balanced_uniform_load() {
        let units = vec![100u64; 12];
        let r = schedule_tile(&units, &spec(), &flags(6, false, false));
        assert_eq!(r.thread_instr, vec![200; 6]);
        assert_eq!(r.cycles, 200 * 6);
        assert!((r.thread_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_robin_suffers_on_skew() {
        // Round-robin stacks both big units on thread 0; stealing
        // spreads them.
        let mut units = vec![10u64; 12];
        units[0] = 5_000;
        units[6] = 5_000;
        let rr = schedule_tile(&units, &spec(), &flags(6, false, false));
        let ws = schedule_tile(&units, &spec(), &flags(6, true, true));
        assert!(
            ws.cycles < rr.cycles,
            "stealing {} must beat round-robin {} on skewed load",
            ws.cycles,
            rr.cycles
        );
    }

    #[test]
    fn stealing_without_jitter_races_perpetually() {
        // Uniform costs, synchronized threads: every unit raced —
        // the §4.1.3 pathology.
        let units = vec![500u64; 24];
        let no_jit = schedule_tile(&units, &spec(), &flags(6, true, false));
        let jit = schedule_tile(&units, &spec(), &flags(6, true, true));
        assert!(
            no_jit.races > 10 * jit.races,
            "no-jitter {} vs jitter {}",
            no_jit.races,
            jit.races
        );
        assert!(no_jit.duplicated_instr > 0);
        assert_eq!(jit.races, 0);
    }

    #[test]
    fn races_waste_time() {
        let units = vec![500u64; 24];
        let no_jit = schedule_tile(&units, &spec(), &flags(6, true, false));
        let jit = schedule_tile(&units, &spec(), &flags(6, true, true));
        assert!(no_jit.cycles > jit.cycles);
        assert_eq!(jit.useful_instr(), jit.thread_instr.iter().sum::<u64>());
    }

    #[test]
    fn empty_tile_is_idle() {
        let r = schedule_tile(&[], &spec(), &flags(6, true, true));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.thread_utilization(), 1.0);
    }

    #[test]
    fn threads_clamped_to_hardware() {
        let units = vec![100u64; 10];
        let r = schedule_tile(&units, &spec(), &flags(99, false, false));
        assert_eq!(r.thread_instr.len(), 6);
    }

    #[test]
    fn supervisor_wins_single_long_alignment() {
        // One big alignment: the gang's 6-way inner loop beats one
        // worker thread even after sync costs.
        let spec = spec();
        let instr = 6_000_000u64;
        let diags = 20_000u64;
        let sup = schedule_supervisor(&[(instr, diags)], &spec, 30);
        let worker = schedule_tile(&[instr], &spec, &flags(6, false, false));
        assert!(
            sup.cycles < worker.cycles / 3,
            "supervisor {} vs worker {}",
            sup.cycles,
            worker.cycles
        );
    }

    #[test]
    fn supervisor_loses_throughput_on_many_alignments() {
        // Many narrow alignments (band ~ a few cells per thread):
        // the per-antidiagonal sync tax dominates, and the paper's
        // one-alignment-per-thread layout wins — §4.1's rationale.
        let spec = spec();
        // 60 alignments: 20 instr/diag (~3 cells/thread) over 5000
        // antidiagonals each.
        let units_sup: Vec<(u64, u64)> = (0..60).map(|_| (100_000, 5_000)).collect();
        let units_worker: Vec<u64> = units_sup.iter().map(|&(i, _)| i).collect();
        let sup = schedule_supervisor(&units_sup, &spec, 30);
        let worker = schedule_tile(&units_worker, &spec, &flags(6, true, true));
        assert!(
            worker.cycles < sup.cycles,
            "worker {} must beat supervisor {}",
            worker.cycles,
            sup.cycles
        );
    }

    #[test]
    fn supervisor_empty_is_idle() {
        let r = schedule_supervisor(&[], &spec(), 30);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn stealing_deterministic() {
        let units: Vec<u64> = (0..50).map(|i| 100 + (i * 37) % 400).collect();
        let a = schedule_tile(&units, &spec(), &flags(6, true, true));
        let b = schedule_tile(&units, &spec(), &flags(6, true, true));
        assert_eq!(a, b);
    }
}
