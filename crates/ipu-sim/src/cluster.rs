//! Multi-IPU execution: the load-balancing driver of §4.4.
//!
//! The paper rejects the "virtual big IPU" model in favour of
//! independent devices pulling batches from a shared work queue,
//! with fully-preprocessed batches streamed ahead of time so the IPU
//! can prefetch — transfer overlaps compute. The constraint that
//! makes strong scaling interesting is the *shared* host link
//! (100 Gb/s Ethernet for the whole machine, §2.1.1): once the sum
//! of transfer times exceeds the per-device compute time, adding
//! IPUs stops helping — unless the graph partitioner shrinks the
//! bytes per batch, which is exactly the Figure 7 result.
//!
//! At fleet scale (hundreds of devices stealing work off the one
//! shared queue) serialization alone understates the wall: real
//! shared links lose goodput to protocol and switch overhead as the
//! number of concurrently-streaming endpoints grows. The optional
//! contention term [`CostModel::host_link_contention`] derates each
//! transfer's bandwidth by the number of other devices already
//! queued on the link ([`contended_bandwidth`]), producing the
//! saturation knee in the modeled strong-scaling curve; at the
//! default `0.0` the historical timing is reproduced bit-for-bit.
//!
//! The driver is an event-driven simulation: a min-heap of device
//! fetch-engine events decides which device binds to the next queued
//! batch at the moment it can start fetching (late binding, exactly
//! the shared-queue pull model of the paper), while the shared host
//! link serializes transfers and each device double-buffers. Kernel
//! execution ([`run_batch_on_device`]) is off the scheduling
//! critical path: every batch report is produced first — by the
//! work-stealing host pool ([`crate::pool::steal`]), or on the
//! retained reference path by a static-chunk pre-pass
//! ([`crate::pool::chunked`]) — and then bound into the
//! [`BatchScheduler`] strictly in batch order. Either way the host
//! thread count changes wall-clock only: report `i` is a pure
//! function of batch `i` and is bound as batch `i`, so modeled time
//! is bit-identical for any thread count and any completion
//! interleaving. The scheduler can also record a Chrome-trace
//! timeline of the run ([`crate::trace`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;

use crate::batch::Batch;
use crate::cost::{contended_bandwidth, CostModel, OptFlags};
use crate::device::{run_batch_on_device, run_batch_on_device_scratch, BatchReport, BatchScratch};
use crate::exec::WorkUnit;
use crate::fault::{ClusterError, FaultPlan, FaultState};
use crate::pool::{self, resolve_threads, Claim, Order, SharedSlots};
use crate::spec::IpuSpec;
use crate::trace::{ChromeTrace, TraceBuilder};

/// Outcome of a cluster run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClusterReport {
    /// Wall-clock makespan in seconds.
    pub total_seconds: f64,
    /// Number of devices used.
    pub devices: usize,
    /// Batches executed.
    pub batches: usize,
    /// Total host→devices bytes.
    pub host_bytes: u64,
    /// Fraction of the makespan the host link was busy (1.0 =
    /// interconnect-saturated).
    pub link_busy_fraction: f64,
    /// Mean device compute-busy fraction.
    pub device_busy_fraction: f64,
    /// Median batch queue wait: seconds from submission (t = 0; all
    /// batches are fully preprocessed up front, §4.4) until the
    /// batch's host-link transfer began.
    pub queue_wait_p50: f64,
    /// 99th-percentile batch queue wait.
    pub queue_wait_p99: f64,
    /// Transient execution failures retried (one per failed attempt
    /// on a surviving device). Zero on a fault-free run.
    pub retries: u64,
    /// Batches requeued onto another device because the device
    /// handling them died mid-attempt. Zero on a fault-free run.
    pub requeues: u64,
    /// Devices retired after an *observed* death — a scheduled death
    /// the run ended before observing is not counted.
    pub devices_lost: u64,
    /// Modeled seconds of recovery overhead: link/compute time
    /// consumed by failed attempts, injected stall seconds, and the
    /// nominal backoff delay after each failure. Exactly computable
    /// from the injected [`FaultPlan`] and the per-batch reports.
    pub recovery_seconds: f64,
    /// Per-device compute-busy fraction of the makespan.
    pub per_device_busy: Vec<f64>,
    /// Per-batch device reports, in submission order.
    pub batch_reports: Vec<BatchReport>,
}

impl ClusterReport {
    /// Aggregate GCUPS given the theoretical cell count of the
    /// workload (the paper's metric, §5.1).
    pub fn gcups(&self, theoretical_cells: u64) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        theoretical_cells as f64 / self.total_seconds / 1e9
    }
}

/// Host-side options of the cluster driver. These change how fast
/// the simulation runs and what it records — never the modeled
/// timing.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOptions {
    /// Threads of the host-side pool that replays the batches'
    /// modeled tile schedules (no alignment kernel runs here: the
    /// units arrive already aligned). `0` means "auto"
    /// ([`std::thread::available_parallelism`]). The schedule (and
    /// every report field) is bit-identical for any value; the
    /// resolved count is logged in the trace metadata
    /// (`cat == "meta"`).
    pub host_threads: usize,
    /// Record a Chrome-trace timeline of the run.
    pub collect_trace: bool,
    /// Produce the batch reports on the work-stealing pool (LPT claim
    /// order, each report written into its batch's slot). `false`
    /// selects the reference path: a static-chunk pre-pass. Either
    /// way every report exists before the scheduler binds them in
    /// batch order, and both produce bit-identical output.
    pub streaming: bool,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            host_threads: 0,
            collect_trace: false,
            streaming: true,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One device's fetch engine becoming free, keyed for the min-heap
/// (earliest free first, ties to the lowest device id — the same
/// order the static driver's argmin scan produced).
#[derive(Debug, Clone, Copy)]
struct FetchFree {
    at: f64,
    device: usize,
}

impl PartialEq for FetchFree {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for FetchFree {}
impl PartialOrd for FetchFree {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FetchFree {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.device.cmp(&other.device))
    }
}

/// Runs `batches` on `devices` IPUs sharing one host link.
///
/// Event-driven deterministic simulation: devices pull batches from
/// the shared FIFO queue at the moment their fetch engine frees up
/// (late binding); each device double-buffers (it may fetch batch
/// *n+1* while computing batch *n*); the host link serializes all
/// transfers. Equivalent to [`run_cluster_opts`] with default
/// options (serial host pool, no trace).
pub fn run_cluster(
    units: &[WorkUnit],
    batches: &[Batch],
    devices: usize,
    spec: &IpuSpec,
    flags: &OptFlags,
    cost: &CostModel,
) -> ClusterReport {
    run_cluster_opts(
        units,
        batches,
        devices,
        spec,
        flags,
        cost,
        &ClusterOptions::default(),
    )
    .0
}

/// The event-driven scheduler: bind the batch reports in submission
/// order via [`BatchScheduler::bind`], then hand the same reports to
/// [`BatchScheduler::finish`].
///
/// One [`BatchScheduler::bind`] call is one step of the event loop:
/// the min-heap consumes report `i` at the moment it binds batch `i`,
/// preserving the late-binding semantics. Feeding it the same reports
/// in the same order performs the same float operations in the same
/// order, so the output is bit-identical no matter how the reports
/// were produced.
#[derive(Debug)]
pub struct BatchScheduler {
    devices: usize,
    host_link_bytes_per_s: f64,
    /// Per-waiter shared-link contention coefficient
    /// ([`CostModel::host_link_contention`]); `0.0` reproduces the
    /// uncontended timing bit-for-bit.
    link_contention: f64,
    link_free: f64,
    link_busy: f64,
    compute_free: Vec<f64>,
    compute_busy: Vec<f64>,
    host_bytes: u64,
    queue_waits: Vec<f64>,
    tracer: Option<TraceBuilder>,
    fetch_events: BinaryHeap<Reverse<FetchFree>>,
    bound: usize,
    faults: FaultState,
    retries: u64,
    requeues: u64,
    devices_lost: u64,
    recovery_seconds: f64,
}

impl BatchScheduler {
    /// A scheduler over `devices` IPUs (at least one) that replays the
    /// deterministic fault schedule of `plan` while it runs. With
    /// [`FaultPlan::none`] the fault checks all come back inert and
    /// the float operations performed per batch are those of the
    /// fault-free model, so a fault-free plan reproduces the
    /// fault-free run bit-for-bit. The resolved host pool size is
    /// recorded in the trace metadata when tracing is on — it
    /// annotates the run, it never affects the schedule.
    pub fn with_faults(
        devices: usize,
        spec: &IpuSpec,
        collect_trace: bool,
        resolved_host_threads: usize,
        plan: &FaultPlan,
    ) -> Self {
        let devices = devices.max(1);
        let tracer = collect_trace.then(|| {
            let mut tb = TraceBuilder::new(devices);
            tb.host_meta(
                resolved_host_threads,
                xdrop_core::kernel::host_simd(),
                xdrop_core::kernel::host_simd_tier(),
            );
            tb
        });
        BatchScheduler {
            devices,
            host_link_bytes_per_s: spec.host_link_bytes_per_s,
            link_contention: 0.0,
            link_free: 0.0,
            link_busy: 0.0,
            compute_free: vec![0.0; devices],
            compute_busy: vec![0.0; devices],
            host_bytes: 0,
            queue_waits: Vec::new(),
            tracer,
            // Min-heap of fetch-engine-free events: the device popped
            // first is the one that can start fetching earliest, and
            // it binds to the batch at the head of the FIFO queue
            // only at that moment.
            fetch_events: (0..devices)
                .map(|d| Reverse(FetchFree { at: 0.0, device: d }))
                .collect(),
            bound: 0,
            faults: FaultState::new(plan, devices),
            retries: 0,
            requeues: 0,
            devices_lost: 0,
            recovery_seconds: 0.0,
        }
    }

    /// Sets the shared-link contention coefficient
    /// ([`CostModel::host_link_contention`]). With `eta > 0.0` every
    /// transfer's bandwidth is derated by the number of *other*
    /// devices whose fetch engines are already free at the moment the
    /// transfer starts ([`contended_bandwidth`]) — the queue of
    /// idle-and-hungry devices is exactly the contention the shared
    /// host link sees at fleet scale. `0.0` (the default) divides by
    /// exactly `1.0` and is bit-identical to the historical model.
    pub fn with_link_contention(mut self, eta: f64) -> Self {
        self.link_contention = eta;
        self
    }

    /// Binds the next batch (in submission order) to the device
    /// whose fetch engine frees earliest, replaying any faults the
    /// plan schedules for it.
    ///
    /// A failed attempt retries *before* the next batch binds
    /// (head-of-queue retry): requeue and retry are immediate in
    /// modeled time, gated only by the backoff window, so submission
    /// order — and with it the smallest-failing-index convention and
    /// bit-identical results — survives any fault schedule. Failure
    /// semantics:
    ///
    /// * A device whose death time is at or before its fetch-free
    ///   event retires silently at pop; an empty heap is
    ///   [`ClusterError::AllDevicesLost`].
    /// * A death inside the attempt window — up to and including the
    ///   end of the compute superstep — kills the attempt: the link
    ///   and compute time actually consumed is charged (bytes are
    ///   not: the transfer never completed), the device retires, and
    ///   the batch requeues after backoff.
    /// * A transient failure is observed at compute end: the full
    ///   transfer and compute are charged (bytes included — they
    ///   moved), the device survives, and the batch retries after
    ///   backoff; exceeding the plan's cap is
    ///   [`ClusterError::RetriesExhausted`].
    /// * The queue-wait sample records the successful attempt's
    ///   transfer start, so fault-induced delay shows up in the
    ///   percentiles.
    pub fn bind(&mut self, report: &BatchReport) -> Result<(), ClusterError> {
        let i = self.bound;
        let batch = i as u32;
        // Failed attempts of this batch so far (either kind) — drives
        // the backoff exponent and the stall lookup.
        let mut attempt: u32 = 0;
        let mut transient_failed: u32 = 0;
        // Earliest modeled time a retry may re-enter the queue.
        let mut not_before = 0.0f64;
        loop {
            // Pop the earliest live fetch event, retiring devices
            // already dead by their event time.
            let ev = loop {
                let Some(Reverse(ev)) = self.fetch_events.pop() else {
                    return Err(ClusterError::AllDevicesLost { batch });
                };
                let death = self.faults.death_time(ev.device);
                if death <= ev.at {
                    self.devices_lost += 1;
                    if let Some(tb) = self.tracer.as_mut() {
                        tb.fault_death(ev.device, death);
                    }
                    continue;
                }
                break ev;
            };
            let d = ev.device;
            let stall = self.faults.stall_seconds(batch, attempt);
            let start = ev.at.max(not_before).max(self.link_free);
            // Shared-link contention: every *other* device whose
            // fetch engine is already free when this transfer starts
            // is queued on the same link, derating its bandwidth.
            // The count is a pure function of heap contents (order
            // never matters), so it is deterministic for any host
            // thread count and either report producer.
            let waiters = self
                .fetch_events
                .iter()
                .filter(|Reverse(e)| e.at <= start)
                .count();
            let bandwidth =
                contended_bandwidth(self.host_link_bytes_per_s, self.link_contention, waiters);
            let transfer_time = report.host_bytes as f64 / bandwidth + stall;
            let fetched = start + transfer_time;
            let begin = fetched.max(self.compute_free[d]);
            let end = begin + report.device_seconds();
            let death = self.faults.death_time(d);
            if death <= end {
                // The device dies while handling this attempt (death
                // exactly at a superstep boundary counts as during
                // it). Charge what was actually consumed, retire the
                // device — its event is not pushed back — and requeue
                // the batch after backoff.
                attempt += 1;
                let consumed_until = death.clamp(start, fetched);
                let consumed_link = consumed_until - start;
                if consumed_link > 0.0 {
                    self.link_free = consumed_until;
                    self.link_busy += consumed_link;
                }
                let consumed_compute = (death - begin).clamp(0.0, report.device_seconds());
                if consumed_compute > 0.0 {
                    self.compute_free[d] = begin + consumed_compute;
                    self.compute_busy[d] += consumed_compute;
                }
                let delay = self.faults.backoff.delay(attempt);
                not_before = death + delay;
                self.devices_lost += 1;
                self.requeues += 1;
                self.recovery_seconds += consumed_link + consumed_compute + delay;
                if let Some(tb) = self.tracer.as_mut() {
                    if consumed_link > 0.0 {
                        tb.link(i, start, consumed_until, report.host_bytes);
                        tb.fetch(d, i, start, consumed_until, start);
                    }
                    if consumed_compute > 0.0 {
                        tb.compute(d, i, begin, begin + consumed_compute);
                    }
                    tb.fault_death(d, death);
                    tb.fault_requeue(i, d, attempt, death, not_before);
                }
                continue;
            }
            if self.faults.take_transient(batch) {
                // Transient execution failure, observed at the end of
                // the compute superstep: the attempt consumed its
                // full transfer and compute, the device survives.
                attempt += 1;
                transient_failed += 1;
                if transient_failed > self.faults.max_retries {
                    return Err(ClusterError::RetriesExhausted {
                        batch,
                        attempts: transient_failed,
                    });
                }
                self.link_free = fetched;
                self.link_busy += transfer_time;
                self.fetch_events.push(Reverse(FetchFree {
                    at: fetched,
                    device: d,
                }));
                self.compute_free[d] = end;
                self.compute_busy[d] += report.device_seconds();
                self.host_bytes += report.host_bytes;
                let delay = self.faults.backoff.delay(attempt);
                not_before = end + delay;
                self.retries += 1;
                self.recovery_seconds += transfer_time + report.device_seconds() + delay;
                if let Some(tb) = self.tracer.as_mut() {
                    tb.link(i, start, fetched, report.host_bytes);
                    tb.fetch(d, i, start, fetched, start);
                    if stall > 0.0 {
                        tb.fault_stall(i, attempt - 1, fetched - stall, fetched);
                    }
                    tb.compute(d, i, begin, end);
                    tb.fault_retry(i, d, attempt, end, not_before);
                }
                continue;
            }
            // Success. With an empty plan this performs exactly the
            // fault-free scheduler's float operations: `not_before`
            // and `stall` are 0.0 and every time is non-negative, so
            // the extra `max`/`+` terms are bit-exact identities.
            self.link_free = fetched;
            self.link_busy += transfer_time;
            // Double buffering: the device's next fetch may begin as
            // soon as this one completed; compute begins when both
            // the data is there and the previous batch finished.
            self.fetch_events.push(Reverse(FetchFree {
                at: fetched,
                device: d,
            }));
            self.compute_free[d] = end;
            self.compute_busy[d] += report.device_seconds();
            self.host_bytes += report.host_bytes;
            self.queue_waits.push(start);
            if stall > 0.0 {
                self.recovery_seconds += stall;
            }
            if let Some(tb) = self.tracer.as_mut() {
                tb.link(i, start, fetched, report.host_bytes);
                tb.fetch(d, i, start, fetched, start);
                if stall > 0.0 {
                    tb.fault_stall(i, attempt, fetched - stall, fetched);
                }
                tb.compute(d, i, begin, end);
            }
            self.bound += 1;
            return Ok(());
        }
    }

    /// Closes the run and assembles the report (and trace, when
    /// requested) around `reports`, the reports bound, in batch order.
    pub fn finish(self, reports: Vec<BatchReport>) -> (ClusterReport, Option<ChromeTrace>) {
        assert_eq!(reports.len(), self.bound, "finish takes the bound reports");
        let total = self
            .compute_free
            .iter()
            .chain(std::iter::once(&self.link_free))
            .fold(0.0f64, |acc, &t| acc.max(t));
        let per_device_busy: Vec<f64> = self
            .compute_busy
            .iter()
            .map(|&b| if total > 0.0 { b / total } else { 0.0 })
            .collect();
        let device_busy_fraction = if total > 0.0 {
            self.compute_busy.iter().sum::<f64>() / (total * self.devices as f64)
        } else {
            1.0
        };
        let mut sorted_waits = self.queue_waits;
        sorted_waits.sort_unstable_by(f64::total_cmp);
        let report = ClusterReport {
            total_seconds: total,
            devices: self.devices,
            batches: reports.len(),
            host_bytes: self.host_bytes,
            link_busy_fraction: if total > 0.0 {
                self.link_busy / total
            } else {
                0.0
            },
            device_busy_fraction,
            queue_wait_p50: percentile(&sorted_waits, 0.50),
            queue_wait_p99: percentile(&sorted_waits, 0.99),
            retries: self.retries,
            requeues: self.requeues,
            devices_lost: self.devices_lost,
            recovery_seconds: self.recovery_seconds,
            per_device_busy,
            batch_reports: reports,
        };
        let trace = self.tracer.map(|tb| tb.finish(total));
        (report, trace)
    }
}

/// [`run_cluster`] with host-side options: a kernel thread pool
/// (wall-clock only; modeled time is bit-identical for any
/// `host_threads`), work-stealing vs reference report production, and
/// optional Chrome-trace recording.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_opts(
    units: &[WorkUnit],
    batches: &[Batch],
    devices: usize,
    spec: &IpuSpec,
    flags: &OptFlags,
    cost: &CostModel,
    opts: &ClusterOptions,
) -> (ClusterReport, Option<ChromeTrace>) {
    run_cluster_faulty(
        units,
        batches,
        devices,
        spec,
        flags,
        cost,
        opts,
        &FaultPlan::none(),
    )
    .expect("fault-free cluster run cannot fail")
}

/// [`run_cluster_opts`] under an injected [`FaultPlan`]: the
/// scheduler replays the plan's deterministic fault schedule,
/// requeuing failed batches onto surviving devices with capped
/// exponential backoff. With a recoverable plan the per-batch
/// reports are bit-identical to the fault-free run (kernel execution
/// is a pure function of the batch; only the modeled timeline and
/// the recovery counters change); an unrecoverable plan returns the
/// typed [`ClusterError`] naming the smallest batch index that could
/// not complete. Every batch report is produced before the first bind,
/// so an unrecoverable plan still replays every batch, then fails on
/// the bind of the smallest failing batch index. Errors and output are
/// bit-identical for any `host_threads` and either report producer.
#[allow(clippy::too_many_arguments)]
pub fn run_cluster_faulty(
    units: &[WorkUnit],
    batches: &[Batch],
    devices: usize,
    spec: &IpuSpec,
    flags: &OptFlags,
    cost: &CostModel,
    opts: &ClusterOptions,
    plan: &FaultPlan,
) -> Result<(ClusterReport, Option<ChromeTrace>), ClusterError> {
    let resolved = resolve_threads(opts.host_threads);
    let reports: Vec<BatchReport> = if opts.streaming {
        // Heaviest batch (by its slowest-tile load estimate) first,
        // one reusable scratch per worker.
        let max_load = |bi: usize| {
            let tiles = batches[bi].tiles.iter();
            tiles.map(|t| t.est_load).max().unwrap_or(0)
        };
        let Ok(reports) = pool::steal(
            batches.len(),
            Order::Lpt(&max_load),
            1,
            resolved,
            SharedSlots::new(batches.len(), 1, BatchReport::default()),
            BatchScratch::default,
            |scratch, claim: &mut Claim<'_, _, Infallible>| {
                for &bi in claim.tasks() {
                    let batch = &batches[bi as usize];
                    claim.slot(bi)[0] =
                        run_batch_on_device_scratch(units, batch, spec, flags, cost, scratch);
                }
            },
        );
        reports.into_vec()
    } else {
        // The reference pre-pass: static contiguous chunks.
        let chunk = |range: std::ops::Range<usize>| -> Vec<BatchReport> {
            let batches = batches[range].iter();
            batches
                .map(|b| run_batch_on_device(units, b, spec, flags, cost))
                .collect()
        };
        let chunks = pool::chunked(batches.len(), resolved, chunk);
        chunks.into_iter().flatten().collect()
    };
    let mut sched = BatchScheduler::with_faults(devices, spec, opts.collect_trace, resolved, plan)
        .with_link_contention(cost.host_link_contention);
    for report in &reports {
        sched.bind(report)?;
    }
    Ok(sched.finish(reports))
}

/// The pre-event-driven driver: a static in-order handout loop that
/// scans all devices for the earliest fetch slot and runs every
/// batch kernel serially on the critical path. Kept verbatim as the
/// differential-testing oracle for [`run_cluster`] — the two must
/// agree bit-for-bit on every report field.
pub fn run_cluster_reference(
    units: &[WorkUnit],
    batches: &[Batch],
    devices: usize,
    spec: &IpuSpec,
    flags: &OptFlags,
    cost: &CostModel,
) -> ClusterReport {
    let devices = devices.max(1);
    let mut link_free = 0.0f64;
    let mut link_busy = 0.0f64;
    let mut fetch_free = vec![0.0f64; devices];
    let mut compute_free = vec![0.0f64; devices];
    let mut compute_busy = vec![0.0f64; devices];
    let mut reports = Vec::with_capacity(batches.len());
    let mut host_bytes = 0u64;
    let mut queue_waits = Vec::with_capacity(batches.len());

    for batch in batches {
        let report = run_batch_on_device(units, batch, spec, flags, cost);
        // Device that can start fetching earliest takes the batch.
        let d = (0..devices)
            .min_by(|&a, &b| {
                fetch_free[a]
                    .partial_cmp(&fetch_free[b])
                    .expect("finite times")
                    .then(a.cmp(&b))
            })
            .expect("devices >= 1");
        let start = fetch_free[d].max(link_free);
        // Same contention term as the event-driven scheduler: the
        // heap there holds one event per device minus the one just
        // popped, so the waiter set is every *other* device whose
        // fetch engine freed at or before `start`.
        let waiters = (0..devices)
            .filter(|&x| x != d && fetch_free[x] <= start)
            .count();
        let bandwidth = contended_bandwidth(
            spec.host_link_bytes_per_s,
            cost.host_link_contention,
            waiters,
        );
        let transfer_time = report.host_bytes as f64 / bandwidth;
        let fetched = start + transfer_time;
        link_free = fetched;
        link_busy += transfer_time;
        fetch_free[d] = fetched;
        let begin = fetched.max(compute_free[d]);
        compute_free[d] = begin + report.device_seconds();
        compute_busy[d] += report.device_seconds();
        host_bytes += report.host_bytes;
        queue_waits.push(start);
        reports.push(report);
    }

    let total = compute_free
        .iter()
        .chain(std::iter::once(&link_free))
        .fold(0.0f64, |acc, &t| acc.max(t));
    let per_device_busy: Vec<f64> = compute_busy
        .iter()
        .map(|&b| if total > 0.0 { b / total } else { 0.0 })
        .collect();
    let device_busy_fraction = if total > 0.0 {
        compute_busy.iter().sum::<f64>() / (total * devices as f64)
    } else {
        1.0
    };
    let mut sorted_waits = queue_waits;
    sorted_waits.sort_by(f64::total_cmp);
    ClusterReport {
        total_seconds: total,
        devices,
        batches: batches.len(),
        host_bytes,
        link_busy_fraction: if total > 0.0 { link_busy / total } else { 0.0 },
        device_busy_fraction,
        queue_wait_p50: percentile(&sorted_waits, 0.50),
        queue_wait_p99: percentile(&sorted_waits, 0.99),
        retries: 0,
        requeues: 0,
        devices_lost: 0,
        recovery_seconds: 0.0,
        per_device_busy,
        batch_reports: reports,
    }
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

    /// `n` identical batches, each `bytes` of transfer and one
    /// compute-heavy tile.
    fn mk_batches(n: usize, bytes: u64, cells: u64) -> (Vec<WorkUnit>, Vec<Batch>) {
        let units = vec![unit(cells)];
        let batches = (0..n)
            .map(|_| Batch {
                tiles: vec![TileAssignment {
                    units: vec![0],
                    transfer_bytes: bytes,
                    est_load: 0,
                }],
            })
            .collect();
        (units, batches)
    }

    #[test]
    fn compute_bound_scales_linearly() {
        // Tiny transfers, huge compute: doubling devices should
        // nearly halve the makespan.
        let (units, batches) = mk_batches(32, 1_000, 50_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let t1 = run_cluster(&units, &batches, 1, &spec, &flags, &cost).total_seconds;
        let t2 = run_cluster(&units, &batches, 2, &spec, &flags, &cost).total_seconds;
        let t4 = run_cluster(&units, &batches, 4, &spec, &flags, &cost).total_seconds;
        assert!((t1 / t2 - 2.0).abs() < 0.1, "2-dev speedup {}", t1 / t2);
        assert!((t1 / t4 - 4.0).abs() < 0.2, "4-dev speedup {}", t1 / t4);
    }

    #[test]
    fn link_bound_stops_scaling() {
        // Huge transfers, trivial compute: the serialized host link
        // caps throughput regardless of device count.
        let (units, batches) = mk_batches(32, 5_000_000_000, 1_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let t1 = run_cluster(&units, &batches, 1, &spec, &flags, &cost);
        let t8 = run_cluster(&units, &batches, 8, &spec, &flags, &cost);
        assert!(t1.total_seconds / t8.total_seconds < 1.2);
        assert!(t8.link_busy_fraction > 0.95);
    }

    #[test]
    fn fewer_bytes_scale_further() {
        // The Figure 7 mechanism: halving the payload lets more
        // devices stay busy.
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let (u_big, b_big) = mk_batches(64, 2_000_000_000, 20_000_000);
        let (u_small, b_small) = mk_batches(64, 500_000_000, 20_000_000);
        let big16 = run_cluster(&u_big, &b_big, 16, &spec, &flags, &cost);
        let small16 = run_cluster(&u_small, &b_small, 16, &spec, &flags, &cost);
        assert!(small16.total_seconds < big16.total_seconds);
        assert!(small16.device_busy_fraction > big16.device_busy_fraction);
    }

    #[test]
    fn prefetch_overlaps_transfer_and_compute() {
        // With balanced transfer/compute, double buffering should
        // hide most of the transfer: makespan ≈ max(sum_compute,
        // sum_transfer) + one pipeline fill, not the sum of both.
        let (units, batches) = mk_batches(16, 1_250_000_000, 3_200_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let r = run_cluster(&units, &batches, 1, &spec, &flags, &cost);
        let per_transfer = 1_250_000_000.0 / spec.host_link_bytes_per_s;
        let per_compute = r.batch_reports[0].device_seconds();
        let serial = 16.0 * (per_transfer + per_compute);
        let pipelined = 16.0 * per_transfer.max(per_compute) + per_transfer.min(per_compute);
        assert!(
            (r.total_seconds - pipelined).abs() / pipelined < 0.01,
            "expected pipelined {pipelined}, got {}",
            r.total_seconds
        );
        assert!(r.total_seconds < serial * 0.75);
    }

    #[test]
    fn empty_batches_zero_time() {
        let r = run_cluster(
            &[],
            &[],
            4,
            &IpuSpec::gc200(),
            &OptFlags::full(),
            &CostModel::default(),
        );
        assert_eq!(r.total_seconds, 0.0);
        assert_eq!(r.gcups(1_000_000), 0.0);
        assert_eq!(r.queue_wait_p50, 0.0);
        assert_eq!(r.queue_wait_p99, 0.0);
    }

    #[test]
    fn gcups_metric() {
        let (units, batches) = mk_batches(4, 1_000, 50_000_000);
        let r = run_cluster(
            &units,
            &batches,
            1,
            &IpuSpec::gc200(),
            &OptFlags::full(),
            &CostModel::default(),
        );
        let g = r.gcups(4_000_000_000);
        assert!(g > 0.0);
        assert!((g - 4.0 / r.total_seconds).abs() < 1e-9);
    }

    #[test]
    fn queue_wait_percentiles_ordered() {
        let (units, batches) = mk_batches(20, 1_000_000_000, 1_000_000);
        let r = run_cluster(
            &units,
            &batches,
            2,
            &IpuSpec::gc200(),
            &OptFlags::full(),
            &CostModel::default(),
        );
        // Link-bound run: later batches wait longer, so the tail
        // percentile dominates the median and per-device fractions
        // are populated.
        assert!(r.queue_wait_p99 >= r.queue_wait_p50);
        assert!(r.queue_wait_p99 > 0.0);
        assert_eq!(r.per_device_busy.len(), 2);
        let mean: f64 = r.per_device_busy.iter().sum::<f64>() / 2.0;
        assert!((mean - r.device_busy_fraction).abs() < 1e-12);
    }

    #[test]
    fn trace_spans_cover_the_run() {
        let (units, batches) = mk_batches(8, 500_000_000, 10_000_000);
        let opts = ClusterOptions {
            host_threads: 1,
            collect_trace: true,
            streaming: true,
        };
        let (r, trace) = run_cluster_opts(
            &units,
            &batches,
            2,
            &IpuSpec::gc200(),
            &OptFlags::full(),
            &CostModel::default(),
            &opts,
        );
        let trace = trace.expect("trace requested");
        let total_us = r.total_seconds * 1e6;
        // One fetch, one link, one compute span per batch; all
        // within the makespan.
        assert_eq!(trace.events_in("fetch").count(), 8);
        assert_eq!(trace.events_in("link").count(), 8);
        assert_eq!(trace.events_in("compute").count(), 8);
        for e in &trace.traceEvents {
            assert!(
                e.ts >= -1e-9 && e.end_ts() <= total_us * (1.0 + 1e-9),
                "{e:?}"
            );
        }
        // The serialized host link's spans must not overlap.
        let mut link: Vec<_> = trace.events_in("link").collect();
        link.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        for w in link.windows(2) {
            assert!(w[0].end_ts() <= w[1].ts + 1e-6);
        }
        // Compute busy time in the trace matches the report.
        for d in 0..2usize {
            let busy_us: f64 = trace
                .events_in("compute")
                .filter(|e| e.pid == d as u32 + 1)
                .map(|e| e.dur)
                .sum();
            assert!((busy_us / 1e6 - r.per_device_busy[d] * r.total_seconds).abs() < 1e-9);
        }
    }

    #[test]
    fn host_pool_is_modeled_time_invariant() {
        let (units, batches) = mk_batches(13, 700_000_000, 5_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let serial = run_cluster_opts(
            &units,
            &batches,
            3,
            &spec,
            &flags,
            &cost,
            &ClusterOptions {
                host_threads: 1,
                collect_trace: false,
                streaming: true,
            },
        )
        .0;
        let pooled = run_cluster_opts(
            &units,
            &batches,
            3,
            &spec,
            &flags,
            &cost,
            &ClusterOptions {
                host_threads: 8,
                collect_trace: false,
                streaming: true,
            },
        )
        .0;
        assert_eq!(serial, pooled);
    }

    #[test]
    fn streaming_matches_reference_pre_pass() {
        // The work-stealing replay must be bit-identical to the
        // static-chunk reference pre-pass for every report field
        // and the full trace (including the meta record, which only
        // depends on the requested thread count).
        for (n, bytes, cells) in [(1, 0, 0), (13, 700_000_000, 5_000_000), (32, 1_000, 50_000)] {
            let (units, batches) = mk_batches(n, bytes, cells);
            let spec = IpuSpec::gc200();
            let flags = OptFlags::full();
            let cost = CostModel::default();
            for threads in [1usize, 3, 8] {
                let streamed = run_cluster_opts(
                    &units,
                    &batches,
                    3,
                    &spec,
                    &flags,
                    &cost,
                    &ClusterOptions {
                        host_threads: threads,
                        collect_trace: true,
                        streaming: true,
                    },
                );
                let reference = run_cluster_opts(
                    &units,
                    &batches,
                    3,
                    &spec,
                    &flags,
                    &cost,
                    &ClusterOptions {
                        host_threads: threads,
                        collect_trace: true,
                        streaming: false,
                    },
                );
                assert_eq!(streamed.0, reference.0, "n={n} threads={threads}");
                assert_eq!(streamed.1, reference.1, "n={n} threads={threads}");
            }
        }
    }

    /// Fault-free modeled timing of `mk_batches` output: per-batch
    /// transfer seconds and per-batch compute seconds.
    fn probe_times(units: &[WorkUnit], batches: &[Batch], spec: &IpuSpec) -> (f64, f64) {
        let r = run_cluster(
            units,
            batches,
            1,
            spec,
            &OptFlags::full(),
            &CostModel::default(),
        );
        let transfer = r.batch_reports[0].host_bytes as f64 / spec.host_link_bytes_per_s;
        (transfer, r.batch_reports[0].device_seconds())
    }

    fn faulty_opts() -> ClusterOptions {
        ClusterOptions {
            host_threads: 1,
            collect_trace: false,
            streaming: true,
        }
    }

    #[test]
    fn recoverable_chaos_reproduces_fault_free_results() {
        use crate::fault::{DeviceDeath, FaultPlan, LinkStall, TransientFault};
        let (units, batches) = mk_batches(12, 400_000_000, 4_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let clean = run_cluster(&units, &batches, 3, &spec, &flags, &cost);
        let (transfer, compute) = probe_times(&units, &batches, &spec);
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 0,
            at_seconds: 0.0,
        }];
        plan.transients = vec![
            TransientFault {
                batch: 2,
                failures: 2,
            },
            TransientFault {
                batch: 7,
                failures: 1,
            },
        ];
        plan.stalls = vec![LinkStall {
            batch: 4,
            attempt: 0,
            extra_seconds: 0.003,
        }];
        assert!(plan.is_recoverable(3));
        let (faulty, _) = run_cluster_faulty(
            &units,
            &batches,
            3,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect("recoverable plan must complete");
        // Headline claim: per-batch results bit-identical to the
        // fault-free run.
        assert_eq!(faulty.batch_reports, clean.batch_reports);
        // Recovery counters exact against the injected plan.
        assert_eq!(faulty.retries, plan.expected_retries(batches.len()));
        assert_eq!(faulty.requeues, 0, "dead-on-arrival device never binds");
        assert_eq!(faulty.devices_lost, 1);
        let expected_recovery = 2.0 * (transfer + compute)
            + plan.backoff.delay(1)
            + plan.backoff.delay(2)
            + (transfer + compute + plan.backoff.delay(1))
            + 0.003;
        assert!(
            (faulty.recovery_seconds - expected_recovery).abs() < 1e-12,
            "recovery {} vs expected {expected_recovery}",
            faulty.recovery_seconds
        );
        // Bytes: every batch once, plus one full re-transfer per
        // transient attempt.
        assert_eq!(faulty.host_bytes, clean.host_bytes + 3 * 400_000_000);
        assert!(faulty.total_seconds > clean.total_seconds);
    }

    #[test]
    fn faulty_streaming_matches_faulty_reference() {
        use crate::fault::{FaultPlan, FaultPlanSpec};
        let (units, batches) = mk_batches(16, 300_000_000, 3_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        for seed in [3u64, 11, 42] {
            let plan = FaultPlan::from_seed(seed, &FaultPlanSpec::new(4, batches.len()));
            let mut outcomes = Vec::new();
            for streaming in [false, true] {
                for threads in [1usize, 4, 8] {
                    let opts = ClusterOptions {
                        host_threads: threads,
                        collect_trace: true,
                        streaming,
                    };
                    let (report, trace) =
                        run_cluster_faulty(&units, &batches, 4, &spec, &flags, &cost, &opts, &plan)
                            .expect("generated plans are recoverable");
                    outcomes.push((threads, report, trace));
                }
            }
            // Reports are bit-identical across streaming modes and
            // thread counts; traces are identical whenever the thread
            // count matches (the `meta` record annotates the resolved
            // pool size, so it legitimately varies with it).
            for (threads, report, trace) in &outcomes[1..] {
                assert_eq!(report, &outcomes[0].1, "seed {seed}");
                if *threads == outcomes[0].0 {
                    assert_eq!(trace, &outcomes[0].2, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn mid_batch_death_requeues_onto_survivor() {
        use crate::fault::{DeviceDeath, FaultPlan};
        let (units, batches) = mk_batches(4, 500_000_000, 5_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let clean = run_cluster(&units, &batches, 2, &spec, &flags, &cost);
        let (transfer, compute) = probe_times(&units, &batches, &spec);
        // Device 0 takes batch 0 (earliest event, lowest id) and dies
        // halfway through its compute superstep.
        let death = transfer + 0.5 * compute;
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 0,
            at_seconds: death,
        }];
        let (faulty, trace) = run_cluster_faulty(
            &units,
            &batches,
            2,
            &spec,
            &flags,
            &cost,
            &ClusterOptions {
                host_threads: 1,
                collect_trace: true,
                streaming: true,
            },
            &plan,
        )
        .expect("one device survives");
        assert_eq!(faulty.batch_reports, clean.batch_reports);
        assert_eq!(faulty.requeues, 1);
        assert_eq!(faulty.devices_lost, 1);
        assert_eq!(faulty.retries, 0);
        let expected_recovery = transfer + 0.5 * compute + plan.backoff.delay(1);
        assert!((faulty.recovery_seconds - expected_recovery).abs() < 1e-9);
        // No span on the dead device may end after its death.
        let trace = trace.expect("trace requested");
        for e in trace
            .traceEvents
            .iter()
            .filter(|e| e.pid == 1 && (e.cat == "fetch" || e.cat == "compute"))
        {
            assert!(e.end_ts() <= death * 1e6 + 1e-6, "{e:?}");
        }
        // The fault track records the death and the requeue window.
        assert_eq!(trace.events_in("fault").count(), 2);
    }

    #[test]
    fn last_device_dying_mid_batch_is_all_devices_lost() {
        use crate::fault::{ClusterError, DeviceDeath, FaultPlan};
        let (units, batches) = mk_batches(3, 500_000_000, 5_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let (transfer, compute) = probe_times(&units, &batches, &spec);
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 0,
            at_seconds: transfer + 0.5 * compute,
        }];
        assert!(!plan.is_recoverable(1));
        let err = run_cluster_faulty(
            &units,
            &batches,
            1,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect_err("no survivor");
        assert_eq!(err, ClusterError::AllDevicesLost { batch: 0 });
        // All devices dead on arrival: same error, batch 0 blamed.
        plan.deaths = vec![
            DeviceDeath {
                device: 0,
                at_seconds: 0.0,
            },
            DeviceDeath {
                device: 1,
                at_seconds: 0.0,
            },
        ];
        let err = run_cluster_faulty(
            &units,
            &batches,
            2,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect_err("no survivor");
        assert_eq!(err, ClusterError::AllDevicesLost { batch: 0 });
    }

    #[test]
    fn death_exactly_at_superstep_boundary_kills_the_batch() {
        use crate::fault::{DeviceDeath, FaultPlan};
        let (units, batches) = mk_batches(1, 500_000_000, 5_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let (transfer, compute) = probe_times(&units, &batches, &spec);
        let end = transfer + compute;
        // Death exactly at the end of the compute superstep counts as
        // during the batch: the single device retires, nothing is
        // left to requeue onto.
        let mut plan = FaultPlan::none();
        plan.deaths = vec![DeviceDeath {
            device: 0,
            at_seconds: end,
        }];
        run_cluster_faulty(
            &units,
            &batches,
            1,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect_err("boundary death kills the in-flight batch");
        // One representable instant later the batch has already
        // committed: the run completes and loses nothing it observed.
        plan.deaths[0].at_seconds = end * (1.0 + 1e-15) + f64::MIN_POSITIVE;
        let (r, _) = run_cluster_faulty(
            &units,
            &batches,
            1,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect("death after commit");
        assert_eq!(r.requeues, 0);
        assert_eq!(r.batches, 1);
    }

    #[test]
    fn retry_cap_of_zero_fails_on_first_transient() {
        use crate::fault::{ClusterError, FaultPlan, TransientFault};
        let (units, batches) = mk_batches(6, 100_000_000, 1_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let mut plan = FaultPlan::none();
        plan.max_retries = 0;
        plan.transients = vec![
            TransientFault {
                batch: 4,
                failures: 1,
            },
            TransientFault {
                batch: 2,
                failures: 1,
            },
        ];
        assert!(!plan.is_recoverable(2));
        assert_eq!(plan.first_unrecoverable_batch(6), Some(2));
        let err = run_cluster_faulty(
            &units,
            &batches,
            2,
            &spec,
            &flags,
            &cost,
            &faulty_opts(),
            &plan,
        )
        .expect_err("cap of zero");
        // Smallest failing batch wins, with one consumed attempt.
        assert_eq!(
            err,
            ClusterError::RetriesExhausted {
                batch: 2,
                attempts: 1
            }
        );
    }

    #[test]
    fn retries_exhausted_blames_smallest_batch() {
        use crate::fault::{ClusterError, FaultPlan, TransientFault};
        let (units, batches) = mk_batches(8, 100_000_000, 1_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        let mut plan = FaultPlan::none();
        plan.max_retries = 2;
        plan.transients = vec![
            TransientFault {
                batch: 6,
                failures: 5,
            },
            TransientFault {
                batch: 3,
                failures: 4,
            },
            TransientFault {
                batch: 5,
                failures: 1,
            },
        ];
        assert_eq!(plan.first_unrecoverable_batch(8), Some(3));
        for streaming in [false, true] {
            for threads in [1usize, 4] {
                let opts = ClusterOptions {
                    host_threads: threads,
                    collect_trace: false,
                    streaming,
                };
                let err =
                    run_cluster_faulty(&units, &batches, 2, &spec, &flags, &cost, &opts, &plan)
                        .expect_err("batch 3 exceeds the cap");
                assert_eq!(
                    err,
                    ClusterError::RetriesExhausted {
                        batch: 3,
                        attempts: 3
                    },
                    "streaming={streaming} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn event_driver_matches_reference_exactly() {
        for (n, bytes, cells) in [
            (1, 0, 0),
            (7, 1_000, 50_000_000),
            (32, 5_000_000_000, 1_000),
            (16, 1_250_000_000, 3_200_000),
        ] {
            let (units, batches) = mk_batches(n, bytes, cells);
            for d in [1usize, 2, 3, 8] {
                for eta in [0.0, 0.02, 0.2] {
                    let spec = IpuSpec::gc200();
                    let flags = OptFlags::full();
                    let cost = CostModel {
                        host_link_contention: eta,
                        ..CostModel::default()
                    };
                    let new = run_cluster(&units, &batches, d, &spec, &flags, &cost);
                    let old = run_cluster_reference(&units, &batches, d, &spec, &flags, &cost);
                    assert_eq!(
                        new, old,
                        "n={n} bytes={bytes} cells={cells} d={d} eta={eta}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_contention_is_bit_identical_to_legacy() {
        // `host_link_contention: 0.0` must not move a single bit of
        // any report field relative to a model that never heard of
        // the term — division by exactly 1.0 is an IEEE identity.
        let (units, batches) = mk_batches(24, 900_000_000, 4_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let cost = CostModel::default();
        for d in [1usize, 3, 16] {
            let r = run_cluster(&units, &batches, d, &spec, &flags, &cost);
            // Replay the pre-contention timeline verbatim (the old
            // static argmin driver with `bytes / B` transfers) and
            // demand bitwise agreement on the makespan.
            let devices = d;
            let mut link_free = 0.0f64;
            let mut fetch_free = vec![0.0f64; devices];
            let mut compute_free = vec![0.0f64; devices];
            for b in &r.batch_reports {
                let dev = (0..devices)
                    .min_by(|&a, &b| fetch_free[a].total_cmp(&fetch_free[b]).then(a.cmp(&b)))
                    .unwrap();
                let transfer = b.host_bytes as f64 / spec.host_link_bytes_per_s;
                let start = fetch_free[dev].max(link_free);
                let fetched = start + transfer;
                link_free = fetched;
                fetch_free[dev] = fetched;
                let begin = fetched.max(compute_free[dev]);
                compute_free[dev] = begin + b.device_seconds();
            }
            let legacy_total = compute_free
                .iter()
                .chain(std::iter::once(&link_free))
                .fold(0.0f64, |acc, &t| acc.max(t));
            assert_eq!(r.total_seconds, legacy_total, "d={d}");
        }
    }

    #[test]
    fn contention_saturates_hundreds_of_devices() {
        // Fleet-scale strong scaling: transfer-heavy enough that the
        // shared link matters, compute-heavy enough that a handful of
        // devices is not already link-bound. With eta = 0 the curve
        // keeps improving toward the serialization wall; with eta > 0
        // the derated bandwidth bends it over — the knee — and the
        // 256 → 512 step buys almost nothing.
        let (units, batches) = mk_batches(2048, 40_000_000, 2_000_000);
        let spec = IpuSpec::gc200();
        let flags = OptFlags::full();
        let free = CostModel::default();
        let contended = CostModel {
            host_link_contention: 0.02,
            ..CostModel::default()
        };
        let mut t_free = Vec::new();
        let mut t_cont = Vec::new();
        for d in [4usize, 16, 64, 256, 512] {
            let rf = run_cluster(&units, &batches, d, &spec, &flags, &free);
            let rc = run_cluster(&units, &batches, d, &spec, &flags, &contended);
            assert_eq!(rf.per_device_busy.len(), d);
            // Contention can only slow a run down.
            assert!(
                rc.total_seconds >= rf.total_seconds,
                "d={d}: contended {} < free {}",
                rc.total_seconds,
                rf.total_seconds
            );
            t_free.push(rf.total_seconds);
            t_cont.push(rc.total_seconds);
        }
        // Small fleets barely notice the term...
        assert!(
            t_cont[0] / t_free[0] < 1.2,
            "4-device penalty {}",
            t_cont[0] / t_free[0]
        );
        // ...while at fleet scale the contended curve has flattened:
        // doubling 256 -> 512 devices improves the contended makespan
        // by < 5% even though the uncontended model still gains.
        let cont_step = t_cont[3] / t_cont[4];
        let free_step = t_free[3] / t_free[4];
        assert!(cont_step < 1.05, "contended 256->512 speedup {cont_step}");
        assert!(
            free_step > cont_step,
            "free {free_step} vs contended {cont_step}"
        );
        // And the contended 512-device run is strictly slower than
        // its own 64-device run would predict under perfect scaling.
        assert!(t_cont[4] > t_cont[2] * 64.0 / 512.0 * 1.5);
    }
}
