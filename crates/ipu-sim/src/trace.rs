//! Chrome `trace_event` telemetry for the cluster driver.
//!
//! The event-driven scheduler in [`crate::cluster`] can record what
//! every device and the shared host link were doing at every moment
//! of the simulated run: fetch spans, compute spans, idle gaps, and
//! link-occupancy intervals, each carrying its batch index and
//! queue-wait as arguments. The result serializes to the Chrome
//! `trace_event` JSON format (the `{"traceEvents": [...]}` wrapper
//! with `"ph": "X"` complete events), so a dump opens directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Track layout: process 0 is the shared host link (one thread);
//! process `d + 1` is device `d`, with thread 0 its fetch engine and
//! thread 1 its compute unit. Timestamps are microseconds of
//! *modeled* time — the trace describes the simulated machine, not
//! the simulation host.

use std::collections::BTreeMap;

/// Process id of the shared host link track.
pub const PID_LINK: u32 = 0;
/// Thread id of the host front-end track (within the link process):
/// partition/plan phase spans, in *host* wall-clock seconds.
pub const TID_HOST: u32 = 1;
/// Thread id of the fault/recovery track (within the link process):
/// device deaths, failed attempts, backoff windows, and injected
/// link stalls, in modeled time.
pub const TID_FAULT: u32 = 2;
/// Thread id of a device's fetch track (within its process).
pub const TID_FETCH: u32 = 0;
/// Thread id of a device's compute track (within its process).
pub const TID_COMPUTE: u32 = 1;

/// One Chrome `trace_event` complete event (`"ph": "X"`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Event label shown on the timeline slice.
    pub name: String,
    /// Category (`fetch`, `compute`, `idle`, or `link`).
    pub cat: String,
    /// Phase: `"X"` (complete event with a duration) for spans, or
    /// `"M"` for the zero-duration metadata record.
    pub ph: String,
    /// Start timestamp in microseconds of modeled time.
    pub ts: f64,
    /// Duration in microseconds.
    pub dur: f64,
    /// Process id (0 = host link, `d + 1` = device `d`).
    pub pid: u32,
    /// Thread id within the process.
    pub tid: u32,
    /// Numeric annotations (batch index, queue wait, bytes, …).
    pub args: BTreeMap<String, f64>,
}

impl TraceEvent {
    /// Builds a complete event spanning `[start_s, end_s]` seconds.
    pub fn complete(
        name: impl Into<String>,
        cat: impl Into<String>,
        pid: u32,
        tid: u32,
        start_s: f64,
        end_s: f64,
        args: BTreeMap<String, f64>,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ph: "X".to_string(),
            ts: start_s * 1e6,
            dur: (end_s - start_s).max(0.0) * 1e6,
            pid,
            tid,
            args,
        }
    }

    /// Event end timestamp in microseconds.
    pub fn end_ts(&self) -> f64 {
        self.ts + self.dur
    }
}

/// A full trace: the Chrome `trace_event` JSON object shape.
#[allow(non_snake_case)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChromeTrace {
    /// The recorded events. (Field name is the casing the Chrome
    /// trace viewer requires.)
    pub traceEvents: Vec<TraceEvent>,
    /// Display unit hint for the viewer.
    pub displayTimeUnit: String,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace {
            traceEvents: Vec::new(),
            displayTimeUnit: "ms".to_string(),
        }
    }

    /// Events of one category, in recording order.
    pub fn events_in<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.traceEvents.iter().filter(move |e| e.cat == cat)
    }

    /// Appends a host front-end phase span (`partition`, `plan`, …)
    /// on the [`TID_HOST`] track of the link process.
    ///
    /// Unlike every other span these are **host wall-clock** seconds,
    /// not modeled time — they show where the CPU front-end spends
    /// its time next to the modeled exchange/compute timeline.
    /// Consumers comparing traces across runs or thread counts must
    /// filter `cat == "host"` along with `cat == "meta"`.
    pub fn push_host_phase(&mut self, name: impl Into<String>, start_s: f64, end_s: f64) {
        self.traceEvents.push(TraceEvent::complete(
            name,
            "host",
            PID_LINK,
            TID_HOST,
            start_s,
            end_s,
            BTreeMap::new(),
        ));
    }

    /// Serializes to pretty-printed Chrome trace JSON.
    pub fn to_json(&self) -> String {
        // Every field is a string, a number, a map or a list of them:
        // nothing here can fail to serialize.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("trace serialization is infallible")
    }

    /// Writes the JSON dump to `path`.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental trace recorder used by the cluster scheduler.
///
/// Records fetch/compute/link spans as the event loop commits them;
/// [`TraceBuilder::finish`] then fills per-device idle gaps on the
/// compute tracks and returns the completed [`ChromeTrace`].
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    events: Vec<TraceEvent>,
    /// Per-device committed compute intervals, in commit order
    /// (which is chronological per device).
    compute_spans: Vec<Vec<(f64, f64)>>,
}

fn batch_args(batch: usize) -> BTreeMap<String, f64> {
    let mut args = BTreeMap::new();
    args.insert("batch".to_string(), batch as f64);
    args
}

impl TraceBuilder {
    /// A recorder for `devices` devices.
    pub fn new(devices: usize) -> Self {
        TraceBuilder {
            events: Vec::new(),
            compute_spans: vec![Vec::new(); devices],
        }
    }

    /// Records batch `batch` occupying the shared host link over
    /// `[start_s, end_s]`, moving `bytes` bytes.
    pub fn link(&mut self, batch: usize, start_s: f64, end_s: f64, bytes: u64) {
        let mut args = batch_args(batch);
        args.insert("bytes".to_string(), bytes as f64);
        self.events.push(TraceEvent::complete(
            format!("xfer b{batch}"),
            "link",
            PID_LINK,
            0,
            start_s,
            end_s,
            args,
        ));
    }

    /// Records device `device` fetching batch `batch` over
    /// `[start_s, end_s]` after waiting `queue_wait_s` in the queue.
    pub fn fetch(
        &mut self,
        device: usize,
        batch: usize,
        start_s: f64,
        end_s: f64,
        queue_wait_s: f64,
    ) {
        let mut args = batch_args(batch);
        args.insert("queue_wait_s".to_string(), queue_wait_s);
        self.events.push(TraceEvent::complete(
            format!("fetch b{batch}"),
            "fetch",
            device as u32 + 1,
            TID_FETCH,
            start_s,
            end_s,
            args,
        ));
    }

    /// Records host-side run metadata as `"ph": "M"` events on the
    /// link track: the *resolved* host thread count (after the
    /// `0 = auto` default is expanded) and the host's detected SIMD
    /// capability. Host threads and SIMD width never affect modeled
    /// time, so this is annotation only; consumers comparing traces
    /// across hosts should filter `cat == "meta"`.
    ///
    /// `host_simd` (e.g. `"avx512bw"`, from
    /// `xdrop_core::kernel::host_simd`) rides in the **name** of a
    /// second meta event, `host_simd:<capability>`, because
    /// [`TraceEvent::args`] is numeric-only; the numeric tier ordinal
    /// (`host_simd_tier`) accompanies it in the args so numeric
    /// consumers can gate on width without parsing names.
    pub fn host_meta(&mut self, host_threads: usize, host_simd: &str, host_simd_tier: u32) {
        let mut args = BTreeMap::new();
        args.insert("host_threads".to_string(), host_threads as f64);
        self.events.push(TraceEvent {
            name: "host".to_string(),
            cat: "meta".to_string(),
            ph: "M".to_string(),
            ts: 0.0,
            dur: 0.0,
            pid: PID_LINK,
            tid: 0,
            args,
        });
        let mut simd_args = BTreeMap::new();
        simd_args.insert("simd_tier".to_string(), f64::from(host_simd_tier));
        self.events.push(TraceEvent {
            name: format!("host_simd:{host_simd}"),
            cat: "meta".to_string(),
            ph: "M".to_string(),
            ts: 0.0,
            dur: 0.0,
            pid: PID_LINK,
            tid: 0,
            args: simd_args,
        });
    }

    /// Records device `device` dying at `at_s` (a zero-duration span
    /// on the fault track — the retirement instant).
    pub fn fault_death(&mut self, device: usize, at_s: f64) {
        let mut args = BTreeMap::new();
        args.insert("device".to_string(), device as f64);
        self.events.push(TraceEvent::complete(
            format!("death d{device}"),
            "fault",
            PID_LINK,
            TID_FAULT,
            at_s,
            at_s,
            args,
        ));
    }

    /// Records batch `batch` being requeued after its binding device
    /// died mid-attempt; the span covers the backoff window
    /// `[failed_s, not_before_s]` during which the batch may not
    /// re-enter the transfer queue.
    pub fn fault_requeue(
        &mut self,
        batch: usize,
        device: usize,
        attempt: u32,
        failed_s: f64,
        not_before_s: f64,
    ) {
        let mut args = batch_args(batch);
        args.insert("device".to_string(), device as f64);
        args.insert("attempt".to_string(), f64::from(attempt));
        self.events.push(TraceEvent::complete(
            format!("requeue b{batch}"),
            "fault",
            PID_LINK,
            TID_FAULT,
            failed_s,
            not_before_s,
            args,
        ));
    }

    /// Records a transient execution failure of batch `batch` on a
    /// surviving device; the span covers the backoff window
    /// `[failed_s, not_before_s]` before the retry may start.
    pub fn fault_retry(
        &mut self,
        batch: usize,
        device: usize,
        attempt: u32,
        failed_s: f64,
        not_before_s: f64,
    ) {
        let mut args = batch_args(batch);
        args.insert("device".to_string(), device as f64);
        args.insert("attempt".to_string(), f64::from(attempt));
        self.events.push(TraceEvent::complete(
            format!("retry b{batch}"),
            "fault",
            PID_LINK,
            TID_FAULT,
            failed_s,
            not_before_s,
            args,
        ));
    }

    /// Records an injected host-link stall inflating batch `batch`'s
    /// transfer over `[start_s, end_s]`.
    pub fn fault_stall(&mut self, batch: usize, attempt: u32, start_s: f64, end_s: f64) {
        let mut args = batch_args(batch);
        args.insert("attempt".to_string(), f64::from(attempt));
        self.events.push(TraceEvent::complete(
            format!("stall b{batch}"),
            "fault",
            PID_LINK,
            TID_FAULT,
            start_s,
            end_s,
            args,
        ));
    }

    /// Records device `device` computing batch `batch` over
    /// `[start_s, end_s]`.
    pub fn compute(&mut self, device: usize, batch: usize, start_s: f64, end_s: f64) {
        self.compute_spans[device].push((start_s, end_s));
        self.events.push(TraceEvent::complete(
            format!("compute b{batch}"),
            "compute",
            device as u32 + 1,
            TID_COMPUTE,
            start_s,
            end_s,
            batch_args(batch),
        ));
    }

    /// Closes the trace at makespan `total_s`, inserting idle spans
    /// into every gap of every device's compute track.
    pub fn finish(self, total_s: f64) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.traceEvents = self.events;
        for (d, spans) in self.compute_spans.iter().enumerate() {
            let mut cursor = 0.0f64;
            for &(start, end) in spans {
                if start > cursor + 1e-15 {
                    trace.traceEvents.push(TraceEvent::complete(
                        "idle",
                        "idle",
                        d as u32 + 1,
                        TID_COMPUTE,
                        cursor,
                        start,
                        BTreeMap::new(),
                    ));
                }
                cursor = cursor.max(end);
            }
            if total_s > cursor + 1e-15 {
                trace.traceEvents.push(TraceEvent::complete(
                    "idle",
                    "idle",
                    d as u32 + 1,
                    TID_COMPUTE,
                    cursor,
                    total_s,
                    BTreeMap::new(),
                ));
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_event_units() {
        let e = TraceEvent::complete("x", "fetch", 1, 0, 0.5, 0.75, BTreeMap::new());
        assert_eq!(e.ph, "X");
        assert!((e.ts - 5e5).abs() < 1e-9);
        assert!((e.dur - 2.5e5).abs() < 1e-9);
        assert!((e.end_ts() - 7.5e5).abs() < 1e-9);
    }

    #[test]
    fn builder_fills_idle_gaps() {
        let mut tb = TraceBuilder::new(2);
        tb.compute(0, 0, 1.0, 2.0);
        tb.compute(0, 1, 3.0, 4.0);
        let trace = tb.finish(5.0);
        // Device 0 compute track: idle [0,1], busy, idle [2,3],
        // busy, idle [4,5]. Device 1: one full-length idle span.
        let idle: Vec<&TraceEvent> = trace.events_in("idle").collect();
        assert_eq!(idle.len(), 4);
        let d0: Vec<_> = idle.iter().filter(|e| e.pid == 1).collect();
        assert_eq!(d0.len(), 3);
        let d1: Vec<_> = idle.iter().filter(|e| e.pid == 2).collect();
        assert_eq!(d1.len(), 1);
        assert!((d1[0].dur - 5e6).abs() < 1e-6);
    }

    #[test]
    fn host_phase_lands_on_the_host_track() {
        let mut trace = ChromeTrace::new();
        trace.push_host_phase("partition", 0.0, 0.002);
        trace.push_host_phase("plan", 0.002, 0.0025);
        let host: Vec<&TraceEvent> = trace.events_in("host").collect();
        assert_eq!(host.len(), 2);
        assert_eq!(host[0].name, "partition");
        assert_eq!(host[0].pid, PID_LINK);
        assert_eq!(host[0].tid, TID_HOST);
        assert!((host[1].ts - 2_000.0).abs() < 1e-9);
        assert!((host[1].dur - 500.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let mut tb = TraceBuilder::new(1);
        tb.link(0, 0.0, 0.25, 4096);
        tb.fetch(0, 0, 0.0, 0.25, 0.0);
        tb.compute(0, 0, 0.25, 1.0);
        let trace = tb.finish(1.0);
        let json = trace.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        let back: ChromeTrace = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, trace);
    }
}
