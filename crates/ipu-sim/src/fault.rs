//! Seeded, deterministic fault injection for the cluster driver.
//!
//! The paper's multi-IPU driver (§4.4) pulls batches from a shared
//! work queue — exactly the structure that makes recovery from
//! device loss possible, because no batch is ever owned by a device
//! before the moment it starts fetching. This module gives the
//! simulated cluster a failure model on top of that structure:
//!
//! * [`FaultPlan`] — a typed, fully deterministic schedule of fault
//!   events: device death at a modeled time, transient
//!   batch-execution failures with attempt counts, and host-link
//!   stalls that inflate a transfer. Plans are either handcrafted or
//!   generated from a single seed ([`FaultPlan::from_seed`]) via the
//!   vendored deterministic RNG, so every chaos run is reproducible
//!   bit-for-bit from `(workload, plan)` alone.
//! * [`ClusterError`] — the typed unrecoverable outcomes: every
//!   device retired ([`ClusterError::AllDevicesLost`]) or a batch
//!   exhausting its transient-retry budget
//!   ([`ClusterError::RetriesExhausted`]). Batches bind strictly in
//!   submission order, so the failing batch index is always the
//!   *smallest* one that cannot complete — the same
//!   smallest-index convention the exec and partition layers use.
//! * [`BackoffConfig`] — capped exponential backoff, in *modeled*
//!   seconds, gating when a failed batch may re-enter the transfer
//!   queue.
//!
//! Recovery semantics (implemented by
//! [`crate::cluster::BatchScheduler`], summarized here because the
//! conformance tests pin them):
//!
//! * A device whose death time is ≤ its fetch-free event time is
//!   **retired at pop**: its event leaves the min-heap permanently
//!   and it never binds again.
//! * A death that falls inside a bound batch's handling window —
//!   after the fetch would begin, up to **and including** the end of
//!   its compute superstep — kills the attempt: the link time
//!   actually consumed is charged, the device retires, and the batch
//!   is **requeued** onto the surviving devices after a backoff
//!   delay. Death exactly at a superstep boundary (`t == fetch end`
//!   or `t == compute end`) counts as *during* the batch.
//! * A transient failure consumes the full transfer and compute of
//!   the attempt, then fails; the device survives and the batch
//!   retries after backoff. More than
//!   [`FaultPlan::max_retries`] transient failures on one batch is
//!   unrecoverable.
//! * A link stall adds seconds to one specific `(batch, attempt)`
//!   transfer; the link is genuinely occupied for the extra time.
//!
//! Because every fault decision is a pure function of modeled time,
//! the recovered schedule — and therefore every report field and
//! every batch result — is bit-identical for any host thread count
//! and either report producer, which is what the
//! chaos-conformance harness (`tests/fault_recovery.rs`) enforces.

use std::collections::{BTreeMap, BTreeSet};

/// Capped exponential backoff in modeled seconds: a batch whose
/// attempt `k` (1-based) failed may not re-enter the transfer queue
/// until `fail_time + delay(k)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackoffConfig {
    /// Delay after the first failed attempt.
    pub base_seconds: f64,
    /// Multiplier per further failed attempt.
    pub factor: f64,
    /// Ceiling on any single delay.
    pub cap_seconds: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_seconds: 1e-3,
            factor: 2.0,
            cap_seconds: 0.1,
        }
    }
}

impl BackoffConfig {
    /// The delay imposed after `failed_attempts` failures:
    /// `min(base * factor^(failed_attempts - 1), cap)`, and `0.0`
    /// when nothing has failed yet. Negative configuration values
    /// are treated as zero.
    pub fn delay(&self, failed_attempts: u32) -> f64 {
        if failed_attempts == 0 {
            return 0.0;
        }
        let base = self.base_seconds.max(0.0);
        let cap = self.cap_seconds.max(0.0);
        let factor = self.factor.max(0.0);
        (base * factor.powi(failed_attempts as i32 - 1)).min(cap)
    }
}

/// A device failing permanently at a modeled time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeviceDeath {
    /// Device index.
    pub device: u32,
    /// Modeled time of the failure, in seconds. `0.0` means the
    /// device is dead on arrival.
    pub at_seconds: f64,
}

/// A batch whose first `failures` execution attempts fail (detected
/// at the end of the attempt's compute superstep).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransientFault {
    /// Batch index (submission order).
    pub batch: u32,
    /// Number of leading attempts that fail.
    pub failures: u32,
}

/// Extra host-link seconds charged to one specific attempt of one
/// batch's transfer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkStall {
    /// Batch index (submission order).
    pub batch: u32,
    /// Which attempt of that batch stalls (0 = first).
    pub attempt: u32,
    /// Extra transfer seconds.
    pub extra_seconds: f64,
}

/// A complete, deterministic fault schedule for one cluster run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (`0` for handcrafted plans;
    /// provenance only — replaying a plan never consults an RNG).
    pub seed: u64,
    /// Permanent device failures.
    pub deaths: Vec<DeviceDeath>,
    /// Transient per-batch execution failures.
    pub transients: Vec<TransientFault>,
    /// Per-attempt host-link stalls.
    pub stalls: Vec<LinkStall>,
    /// Transient failures tolerated per batch before the run aborts
    /// with [`ClusterError::RetriesExhausted`]. A cap of zero makes
    /// any transient failure fatal.
    pub max_retries: u32,
    /// Backoff gating failed batches' re-entry into the queue.
    pub backoff: BackoffConfig,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Shape of a generated [`FaultPlan`] — how many devices/batches the
/// run has and how aggressive each fault class should be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanSpec {
    /// Devices of the cluster the plan targets.
    pub devices: usize,
    /// Batches of the run the plan targets.
    pub batches: usize,
    /// Per-device death probability.
    pub death_rate: f64,
    /// `true` samples every death at `t = 0` (dead on arrival —
    /// exactly predictable counters); `false` samples death times
    /// uniformly in `(0, horizon_seconds]`.
    pub immediate_deaths: bool,
    /// Upper bound of sampled death times.
    pub horizon_seconds: f64,
    /// Per-batch transient-failure probability.
    pub transient_rate: f64,
    /// Per-batch first-attempt stall probability.
    pub stall_rate: f64,
    /// Upper bound of sampled stall durations.
    pub max_stall_seconds: f64,
    /// Retry cap copied into the plan.
    pub max_retries: u32,
    /// Backoff copied into the plan.
    pub backoff: BackoffConfig,
}

impl FaultPlanSpec {
    /// A moderate chaos profile: ~1 in 4 devices dies mid-run, ~1 in
    /// 5 batches fails transiently (within the retry cap of 3), ~1
    /// in 8 first transfers stalls.
    pub fn new(devices: usize, batches: usize) -> Self {
        FaultPlanSpec {
            devices,
            batches,
            death_rate: 0.25,
            immediate_deaths: false,
            horizon_seconds: 1.0,
            transient_rate: 0.2,
            stall_rate: 0.125,
            max_stall_seconds: 0.01,
            max_retries: 3,
            backoff: BackoffConfig::default(),
        }
    }
}

impl FaultPlan {
    /// The empty plan: no faults, default retry budget. Running under
    /// this plan is exactly the fault-free scheduler.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            deaths: Vec::new(),
            transients: Vec::new(),
            stalls: Vec::new(),
            max_retries: 3,
            backoff: BackoffConfig::default(),
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty() && self.transients.is_empty() && self.stalls.is_empty()
    }

    /// Generates a *recoverable* plan from a single seed: at least
    /// one device always survives and every transient stays within
    /// the retry cap, so
    /// [`FaultPlan::is_recoverable`] holds by construction. The same
    /// `(seed, spec)` always yields the same plan — the generator
    /// uses the vendored deterministic RNG and never consults OS
    /// entropy.
    pub fn from_seed(seed: u64, spec: &FaultPlanSpec) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deaths = Vec::new();
        for d in 0..spec.devices as u32 {
            if rng.gen_bool(spec.death_rate.clamp(0.0, 1.0)) {
                let at_seconds = if spec.immediate_deaths {
                    0.0
                } else {
                    rng.gen_range(0.0..spec.horizon_seconds.max(f64::MIN_POSITIVE))
                };
                deaths.push(DeviceDeath {
                    device: d,
                    at_seconds,
                });
            }
        }
        // Spare the highest-index device so the plan is recoverable
        // by construction.
        if deaths.len() >= spec.devices {
            deaths.pop();
        }
        let mut transients = Vec::new();
        let mut stalls = Vec::new();
        for b in 0..spec.batches as u32 {
            if spec.max_retries > 0 && rng.gen_bool(spec.transient_rate.clamp(0.0, 1.0)) {
                transients.push(TransientFault {
                    batch: b,
                    failures: rng.gen_range(1..=spec.max_retries),
                });
            }
            if rng.gen_bool(spec.stall_rate.clamp(0.0, 1.0)) {
                stalls.push(LinkStall {
                    batch: b,
                    attempt: 0,
                    extra_seconds: rng
                        .gen_range(0.0..spec.max_stall_seconds.max(f64::MIN_POSITIVE)),
                });
            }
        }
        FaultPlan {
            seed,
            deaths,
            transients,
            stalls,
            max_retries: spec.max_retries,
            backoff: spec.backoff,
        }
    }

    /// Distinct devices (< `devices`) the plan kills.
    pub fn distinct_dead_devices(&self, devices: usize) -> usize {
        self.deaths
            .iter()
            .map(|d| d.device)
            .filter(|&d| (d as usize) < devices)
            .collect::<BTreeSet<u32>>()
            .len()
    }

    /// Whether the plan is *guaranteed* recoverable on a cluster of
    /// `devices`: at least one device has no scheduled death, and no
    /// batch's transient failures exceed the retry cap. (A plan
    /// failing this check may still happen to complete — e.g. a late
    /// death never observed because the run ends first — but only
    /// plans passing it carry the bit-identical-results guarantee
    /// unconditionally.)
    pub fn is_recoverable(&self, devices: usize) -> bool {
        self.distinct_dead_devices(devices) < devices.max(1)
            && self
                .transients
                .iter()
                .all(|t| t.failures <= self.max_retries)
    }

    /// Total transient failures the plan injects on batches
    /// `< batches` — on a recoverable plan, exactly the
    /// [`crate::cluster::ClusterReport::retries`] a run over that
    /// many batches reports.
    pub fn expected_retries(&self, batches: usize) -> u64 {
        self.transients
            .iter()
            .filter(|t| (t.batch as usize) < batches)
            .map(|t| u64::from(t.failures))
            .sum()
    }

    /// Smallest batch index (< `batches`) whose transient failures
    /// exceed the retry cap — the batch a run must blame in
    /// [`ClusterError::RetriesExhausted`], because batches bind in
    /// submission order.
    pub fn first_unrecoverable_batch(&self, batches: usize) -> Option<u32> {
        self.transients
            .iter()
            .filter(|t| (t.batch as usize) < batches && t.failures > self.max_retries)
            .map(|t| t.batch)
            .min()
    }
}

/// Typed unrecoverable cluster outcomes. Batches bind strictly in
/// submission order, so `batch` is always the smallest index that
/// cannot complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    /// Every device of the cluster was retired before (or while)
    /// batch `batch` could complete.
    AllDevicesLost {
        /// Smallest batch index left unservable.
        batch: u32,
    },
    /// Batch `batch` failed transiently more times than the plan's
    /// retry cap allows.
    RetriesExhausted {
        /// Smallest batch index that exhausted its budget.
        batch: u32,
        /// Failed attempts consumed (`max_retries + 1`).
        attempts: u32,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::AllDevicesLost { batch } => {
                write!(f, "all devices lost before batch {batch} could complete")
            }
            ClusterError::RetriesExhausted { batch, attempts } => write!(
                f,
                "batch {batch} exhausted its retry budget after {attempts} failed attempts"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Runtime view of a [`FaultPlan`], consumed by the scheduler as the
/// run progresses: per-device death times, per-batch remaining
/// transient failures, per-attempt stalls.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Death time per device; `f64::INFINITY` = never dies.
    death: Vec<f64>,
    /// Remaining transient failures per batch.
    transient: BTreeMap<u32, u32>,
    /// Extra transfer seconds per `(batch, attempt)`.
    stalls: BTreeMap<(u32, u32), f64>,
    /// Transient-failure budget per batch.
    pub max_retries: u32,
    /// Backoff schedule.
    pub backoff: BackoffConfig,
}

impl FaultState {
    /// Compiles a plan against a concrete device count. Multiple
    /// deaths of one device collapse to the earliest; negative times
    /// clamp to zero; entries addressing devices outside the cluster
    /// are ignored.
    pub(crate) fn new(plan: &FaultPlan, devices: usize) -> Self {
        let mut death = vec![f64::INFINITY; devices];
        for d in &plan.deaths {
            if let Some(slot) = death.get_mut(d.device as usize) {
                *slot = slot.min(d.at_seconds.max(0.0));
            }
        }
        let mut transient = BTreeMap::new();
        for t in &plan.transients {
            if t.failures > 0 {
                *transient.entry(t.batch).or_insert(0) += t.failures;
            }
        }
        let mut stalls = BTreeMap::new();
        for s in &plan.stalls {
            if s.extra_seconds > 0.0 {
                *stalls.entry((s.batch, s.attempt)).or_insert(0.0) += s.extra_seconds;
            }
        }
        FaultState {
            death,
            transient,
            stalls,
            max_retries: plan.max_retries,
            backoff: plan.backoff,
        }
    }

    /// Modeled death time of `device` (`INFINITY` = immortal).
    pub(crate) fn death_time(&self, device: usize) -> f64 {
        self.death.get(device).copied().unwrap_or(f64::INFINITY)
    }

    /// Consumes one pending transient failure of `batch`, returning
    /// `true` when this attempt must fail. Only called for attempts
    /// that actually reach the end of their compute superstep.
    pub(crate) fn take_transient(&mut self, batch: u32) -> bool {
        match self.transient.get_mut(&batch) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }

    /// Extra link seconds injected into attempt `attempt` of
    /// `batch`'s transfer.
    pub(crate) fn stall_seconds(&self, batch: u32, attempt: u32) -> f64 {
        self.stalls.get(&(batch, attempt)).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let b = BackoffConfig {
            base_seconds: 0.001,
            factor: 2.0,
            cap_seconds: 0.005,
        };
        assert_eq!(b.delay(0), 0.0);
        assert!((b.delay(1) - 0.001).abs() < 1e-15);
        assert!((b.delay(2) - 0.002).abs() < 1e-15);
        assert!((b.delay(3) - 0.004).abs() < 1e-15);
        // Capped from attempt 4 on.
        assert_eq!(b.delay(4), 0.005);
        assert_eq!(b.delay(30), 0.005);
    }

    #[test]
    fn backoff_degenerate_configs_are_sane() {
        let zero = BackoffConfig {
            base_seconds: 0.0,
            factor: 2.0,
            cap_seconds: 1.0,
        };
        assert_eq!(zero.delay(5), 0.0);
        let negative = BackoffConfig {
            base_seconds: -1.0,
            factor: -3.0,
            cap_seconds: -2.0,
        };
        assert_eq!(negative.delay(1), 0.0);
        assert_eq!(negative.delay(7), 0.0);
    }

    #[test]
    fn from_seed_is_reproducible_and_recoverable() {
        let spec = FaultPlanSpec {
            death_rate: 0.9,
            transient_rate: 0.8,
            stall_rate: 0.5,
            ..FaultPlanSpec::new(4, 32)
        };
        let a = FaultPlan::from_seed(99, &spec);
        let b = FaultPlan::from_seed(99, &spec);
        assert_eq!(a, b, "same seed must yield the same plan");
        let c = FaultPlan::from_seed(100, &spec);
        assert_ne!(a, c, "different seeds should differ at these rates");
        for seed in 0..50 {
            let p = FaultPlan::from_seed(seed, &spec);
            assert!(p.is_recoverable(4), "seed {seed} generated {p:?}");
            for t in &p.transients {
                assert!(t.failures >= 1 && t.failures <= p.max_retries);
            }
            for s in &p.stalls {
                assert!(s.extra_seconds >= 0.0 && s.attempt == 0);
            }
        }
    }

    #[test]
    fn recoverability_classification() {
        let mut p = FaultPlan::none();
        assert!(p.is_recoverable(1));
        p.deaths = vec![
            DeviceDeath {
                device: 0,
                at_seconds: 0.0,
            },
            DeviceDeath {
                device: 1,
                at_seconds: 0.5,
            },
        ];
        assert!(!p.is_recoverable(2), "both devices die");
        assert!(p.is_recoverable(3), "a third device survives");
        // Duplicate deaths of one device count once.
        p.deaths.push(DeviceDeath {
            device: 0,
            at_seconds: 0.9,
        });
        assert_eq!(p.distinct_dead_devices(3), 2);
        // Out-of-range devices are ignored.
        assert_eq!(p.distinct_dead_devices(1), 1);
        p.deaths.clear();
        p.max_retries = 2;
        p.transients = vec![TransientFault {
            batch: 5,
            failures: 3,
        }];
        assert!(!p.is_recoverable(4), "failures exceed the cap");
        assert_eq!(p.first_unrecoverable_batch(16), Some(5));
        assert_eq!(p.first_unrecoverable_batch(4), None, "batch out of run");
        p.transients[0].failures = 2;
        assert!(p.is_recoverable(4));
        assert_eq!(p.expected_retries(16), 2);
        assert_eq!(p.expected_retries(5), 0);
    }

    #[test]
    fn fault_state_compiles_the_plan() {
        let plan = FaultPlan {
            seed: 0,
            deaths: vec![
                DeviceDeath {
                    device: 1,
                    at_seconds: 2.0,
                },
                DeviceDeath {
                    device: 1,
                    at_seconds: 1.0,
                },
                DeviceDeath {
                    device: 9,
                    at_seconds: 0.5,
                },
            ],
            transients: vec![TransientFault {
                batch: 3,
                failures: 2,
            }],
            stalls: vec![LinkStall {
                batch: 0,
                attempt: 1,
                extra_seconds: 0.25,
            }],
            max_retries: 3,
            backoff: BackoffConfig::default(),
        };
        let mut st = FaultState::new(&plan, 3);
        assert_eq!(st.death_time(0), f64::INFINITY);
        assert_eq!(st.death_time(1), 1.0, "earliest death wins");
        assert_eq!(st.death_time(9), f64::INFINITY, "out of range ignored");
        assert!(st.take_transient(3));
        assert!(st.take_transient(3));
        assert!(!st.take_transient(3), "budget consumed");
        assert!(!st.take_transient(0));
        assert_eq!(st.stall_seconds(0, 1), 0.25);
        assert_eq!(st.stall_seconds(0, 0), 0.0);
    }
}
