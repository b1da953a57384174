//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded only by benchmark code (nothing inside the engine
//! is instrumented), kept in memory, and written as JSON lines when the
//! run ends. A span's self time is its duration minus the part of it its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one operation share its id.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One per thread; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record a span whose interval was measured elsewhere (offsets from
    /// this tracer's epoch).
    pub fn record(
        &mut self,
        name: &'static str,
        interval_ns: (u64, u64),
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: interval_ns.0,
            end_ns: interval_ns.1,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Record a span around one call.
    pub fn scoped<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order: duration minus the union
    /// of the intervals its direct children cover (clipped to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.duration_ns() as f64 / 1e3);
        }
        out
    }

    /// Self times of every span named `name`, in microseconds.
    pub fn self_times_us(&self, name: &str) -> Samples {
        let mut out = Samples::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            if s.name == name {
                out.push(self_ns as f64 / 1e3);
            }
        }
        out
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Total nanoseconds by child name, over the direct children of every
    /// span named `parent`.
    pub fn child_totals_ns(&self, parent: &str) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            if s.parent
                .is_some_and(|p| self.spans[p as usize].name == parent)
            {
                *totals.entry(s.name).or_insert(0) += s.duration_ns();
            }
        }
        totals
    }

    /// One JSON object per span: `{name, start_ns, end_ns, parent, op_id}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 7,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer(vec![
            span("op", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("exec", 50, 80, Some(2)),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 20, 20, 30]);
        assert_eq!(t.self_times_us("run").median(), 0.02);
        assert_eq!(t.total_ns("op"), 100);
        let kids = t.child_totals_ns("op");
        assert_eq!((kids["parse"], kids["run"], kids.len()), (20, 50, 2));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [20, 30); one overhangs the parent's end.
        let t = tracer(vec![
            span("op", 0, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
        ]);
        // Covered: [10, 40) and [45, 50) = 35 of 50.
        assert_eq!(t.self_times_ns()[0], 15);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = tracer(vec![span("op", 0, 10, None)]);
        let b = tracer(vec![span("op", 5, 20, None), span("x", 6, 9, Some(0))]);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times_ns(), vec![10, 12, 3]);
        let mut d = a.durations_us("op");
        assert_eq!(d.len(), 2);
        assert_eq!(d.percentile(1.0), 0.015);
    }

    #[test]
    fn scoped_records_a_closed_span() {
        let mut t = Tracer::new(Instant::now());
        let op = t.begin("op", None, 1);
        assert_eq!(t.scoped("inner", Some(op), 1, || 41 + 1), 42);
        t.end(op);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
