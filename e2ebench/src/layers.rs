//! Per-layer attribution from the flight recorder.
//!
//! The benchmark wraps each public call it times in a span of its own
//! (`asmap.generate`, `sim.infra`, `core.tick`, `dynamic.step`, ...); the
//! program records its own spans inside them (`repair.isolation`,
//! `repair.plan`, `cache.miss_fill`, `compute.*`, `probe.traceroute`,
//! `dynamic.quiescence`, ...). A span's self time is its duration minus the
//! spans nested directly inside it on the same thread. Spans on worker
//! threads (the batch fixed points of `World::new`) are attributed on
//! their own tracks, so summed self time can exceed wall time on more
//! than one core.

use lg_telemetry::trace::{ThreadEvents, TraceKind};
use std::collections::BTreeMap;

/// Time attributed to one span name within a window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Completed spans.
    pub count: u64,
    /// Summed duration, seconds.
    pub inclusive_s: f64,
    /// Summed duration minus directly nested spans, seconds.
    pub self_s: f64,
}

/// The attribution of one window of a run.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    /// Totals per span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Seconds of the window on the main thread covered by no span.
    pub untracked_s: f64,
    /// Span events collected inside the window, all threads.
    pub events: u64,
    /// Span ends with no matching begin, plus begins never closed: each
    /// is a lost ring slot (or a span cut by the window edge).
    pub unmatched: u64,
    /// Threads whose full ring starts inside the window: they overwrote
    /// events of the window, so its attribution is incomplete.
    pub wrapped: u64,
}

impl Attribution {
    /// Totals for `name` (zero when it never ran).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name`, seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.get(name).self_s
    }
}

/// Attribute the span events of `threads` that fall in
/// `[from_ns, to_ns]` (recorder ticks). `main` names the thread whose
/// uncovered time is the window's untracked time; `capacity` is the
/// recorder's ring size.
pub fn attribute(
    threads: &[ThreadEvents],
    from_ns: u64,
    to_ns: u64,
    main: &str,
    capacity: usize,
) -> Attribution {
    let mut out = Attribution::default();
    for t in threads {
        if t.events.len() >= capacity
            && t.events
                .first()
                .is_some_and(|e| e.tick_ns > from_ns && e.tick_ns <= to_ns)
        {
            out.wrapped += 1;
        }
        // (name, begin tick, nested duration)
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut covered_ns = 0u64;
        for ev in t
            .events
            .iter()
            .filter(|e| e.tick_ns >= from_ns && e.tick_ns <= to_ns)
        {
            match ev.kind {
                TraceKind::SpanBegin => {
                    out.events += 1;
                    stack.push((ev.name, ev.tick_ns, 0));
                }
                TraceKind::SpanEnd => {
                    out.events += 1;
                    // Pop to the matching begin; anything above it lost
                    // its end event.
                    let Some(pos) = stack.iter().rposition(|(n, _, _)| *n == ev.name) else {
                        out.unmatched += 1;
                        continue;
                    };
                    out.unmatched += (stack.len() - pos - 1) as u64;
                    stack.truncate(pos + 1);
                    let (name, begin, nested) = stack.pop().expect("matched above");
                    let dur = ev.tick_ns.saturating_sub(begin);
                    let e = out.spans.entry(name).or_default();
                    e.count += 1;
                    e.inclusive_s += dur as f64 * 1e-9;
                    e.self_s += dur.saturating_sub(nested) as f64 * 1e-9;
                    match stack.last_mut() {
                        Some(parent) => parent.2 += dur,
                        None => covered_ns += dur,
                    }
                }
                TraceKind::Instant | TraceKind::Annot => {}
            }
        }
        out.unmatched += stack.len() as u64;
        if t.label == main {
            out.untracked_s +=
                to_ns.saturating_sub(from_ns).saturating_sub(covered_ns) as f64 * 1e-9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_telemetry::trace::{TraceEvent, TraceValue};
    use lg_telemetry::TraceId;

    fn ev(tick_ns: u64, kind: TraceKind, name: &'static str) -> TraceEvent {
        TraceEvent {
            tick_ns,
            trace: TraceId::NONE,
            kind,
            name,
            value: TraceValue::None,
        }
    }

    #[test]
    fn self_time_excludes_nested_spans_and_counts_losses() {
        use TraceKind::{SpanBegin as B, SpanEnd as E};
        let main = ThreadEvents {
            tid: 0,
            label: "main".into(),
            events: vec![
                ev(100, B, "outer"),
                ev(200, B, "inner"),
                ev(500, E, "inner"),
                ev(1_100, E, "outer"),
                ev(1_200, E, "orphan"),
                ev(1_300, B, "open"),
            ],
        };
        let a = attribute(std::slice::from_ref(&main), 0, 2_000, "main", 1024);
        assert_eq!(a.get("outer").count, 1);
        assert!((a.get("outer").inclusive_s - 1_000e-9).abs() < 1e-15);
        assert!((a.self_s("outer") - 700e-9).abs() < 1e-15);
        assert!((a.self_s("inner") - 300e-9).abs() < 1e-15);
        assert_eq!(a.unmatched, 2);
        assert_eq!(a.events, 6);
        assert!((a.untracked_s - 1_000e-9).abs() < 1e-15);
        assert_eq!(a.wrapped, 0);
        // A full ring whose oldest event lies inside the window lost the
        // window's start.
        assert_eq!(attribute(&[main], 50, 2_000, "main", 6).wrapped, 1);
    }
}
