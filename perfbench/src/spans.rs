//! Host wall-clock spans recorded by the benchmark around its calls
//! into each library layer.
//!
//! Spans live in memory (name, start, end, parent, iteration) and are
//! written once at the end as Chrome `trace_event` JSON, in the same
//! shape as the library's modeled timelines (`ipu_sim::trace`). A
//! disabled recorder runs the wrapped calls and records nothing, and
//! it skips *probes*: extra calls the traced run makes only to time a
//! layer that the pipeline call runs internally.

use ipu_sim::trace::{ChromeTrace, TraceEvent, PID_LINK, TID_HOST};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub iteration: u32,
    /// A probe span times a layer outside the pipeline call; its
    /// duration is excluded from the traced iteration's wall time.
    pub probe: bool,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u32,
    /// Counts recorded at layer boundaries during the current
    /// iteration (cleared by [`Tracer::begin_iteration`]).
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn begin_iteration(&mut self) {
        self.iteration += 1;
        self.counts.clear();
    }

    fn record<T>(&mut self, name: &'static str, probe: bool, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
            probe,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Runs `f` inside a span named `name` (just runs it when
    /// disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.enabled {
            self.record(name, false, f)
        } else {
            f(self)
        }
    }

    /// Runs `f` as a probe span when enabled; skips it otherwise.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.enabled.then(|| self.record(name, true, f))
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `value` to a count of the current iteration.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Raises a count of the current iteration to at least `value`.
    pub fn count_max(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            let c = self.counts.entry(name).or_default();
            *c = c.max(value);
        }
    }

    /// A count of the current iteration (0 when not recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Summed duration of the current iteration's spans named `name`.
    pub fn dur(&self, name: &str) -> f64 {
        self.current()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .sum()
    }

    /// Summed duration of the current iteration's probe spans.
    pub fn probe_dur(&self) -> f64 {
        self.current().filter(|s| s.probe).map(Span::dur).sum()
    }

    /// Summed duration of the current iteration's non-probe spans
    /// whose parent is named `parent`.
    pub fn child_dur(&self, parent: &str) -> f64 {
        self.current()
            .filter(|s| !s.probe && s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::dur)
            .sum()
    }

    fn current(&self) -> impl Iterator<Item = &Span> {
        let it = self.iteration;
        self.spans
            .iter()
            .rev()
            .take_while(move |s| s.iteration == it)
    }

    /// Chrome `trace_event` form: one complete event per span on the
    /// host track, with the span index, parent index (−1 for a root)
    /// and iteration in `args`. Probes carry category `probe`.
    pub fn to_chrome(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for (i, s) in self.spans.iter().enumerate() {
            let args = BTreeMap::from([
                ("span".to_string(), i as f64),
                ("parent".to_string(), s.parent.map_or(-1.0, |p| p as f64)),
                ("iteration".to_string(), f64::from(s.iteration)),
            ]);
            let cat = if s.probe { "probe" } else { "host" };
            trace.traceEvents.push(TraceEvent::complete(
                s.name, cat, PID_LINK, TID_HOST, s.start_s, s.end_s, args,
            ));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_skips_probes_and_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_iteration();
        assert_eq!(t.span("a", |_| 7), 7);
        assert_eq!(t.probe("p", |_| 1), None);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_parents_and_probe_time() {
        let mut t = Tracer::new(true);
        t.begin_iteration();
        t.span("iteration", |t| {
            t.span("child", |_| ());
            t.probe("p", |_| ());
        });
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[2].probe && !s[1].probe);
        assert!(t.dur("iteration") >= t.dur("child") + t.probe_dur());
        assert_eq!(t.child_dur("iteration"), t.dur("child"));
        assert_eq!(t.to_chrome().traceEvents.len(), 3);
    }
}
