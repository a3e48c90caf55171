//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON (Perfetto and `chrome://tracing` open
//! it) and reduced to self time per span name.
//!
//! Spans are recorded only by the thread that drives a workload, so the
//! recorder is a plain `RefCell`. A disabled tracer records nothing and
//! reads no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use hic_serve::Json;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Shared by every span of one unit of work (cell, job or case
    /// chunk); 0 for spans that belong to no unit.
    pub unit: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                unit,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover. Children of one span never overlap (one
/// recording thread), so the self times of a tree sum to its root's
/// duration.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - children;
    }
    out
}

/// The spans as a Chrome trace-event document: one complete (`"X"`)
/// event per span, microsecond timestamps, the layer as category.
pub fn chrome_json(spans: &[Span]) -> Json {
    let us = |s: f64| Json::Num((s * 1e6).round());
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer)),
                ("ph", Json::str("X")),
                ("ts", us(s.start)),
                ("dur", us(s.end - s.start)),
                ("pid", Json::uint(1)),
                ("tid", Json::uint(1)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::uint(i as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                        ),
                        ("unit", Json::uint(s.unit)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("bench.round", 0.0, 10.0, None),
            span("runtime.run", 1.0, 4.0, Some(0)),
            span("runtime.run", 5.0, 9.0, Some(0)),
            span("machine.execute", 2.0, 3.0, Some(1)),
            span("bench.probes", 10.0, 12.0, None),
        ];
        let st = self_times(&spans);
        assert!((st["bench.round"] - 3.0).abs() < 1e-12);
        assert!((st["runtime.run"] - 6.0).abs() < 1e-12);
        assert!((st["machine.execute"] - 1.0).abs() < 1e-12);
        assert!((st["bench.probes"] - 2.0).abs() < 1e-12);
        // The self times of both trees sum to the roots' 10 + 2 seconds.
        let total: f64 = st.values().sum();
        assert!((total - 12.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_exports_parseable_json() {
        let t = Tracer::new(true);
        let v = t.span("bench.round", 0, || {
            t.span("runtime.run", 7, || 1) + t.span("runtime.run", 8, || 2)
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].unit, 8);
        let doc = Json::parse(&chrome_json(&spans).to_string()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("runtime"));

        let off = Tracer::new(false);
        assert_eq!(off.span("bench.round", 0, || 5), 5);
        assert!(off.spans().is_empty());
    }
}
