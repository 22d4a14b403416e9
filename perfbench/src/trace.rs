//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on the run's clock, the span that
//! caused it and, for spans of one request, the request's id. Spans
//! stay in memory while the run measures and are written out as JSON
//! lines when it ends. A span's *self time* is its duration minus the
//! part of its interval that its children cover, so a request span
//! with server-side children leaves exactly the client-observed time
//! the server did not account for (transport, framing, JSON, socket
//! queueing).

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub request: Option<u64>,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one run, on a clock starting at the origin given to
/// [`Trace::new`].
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the trace origin to `at`.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at the matching [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Trace::open`] now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.ns(Instant::now());
        let out = f();
        let end = self.ns(Instant::now());
        self.record(name, start, end, parent, None);
        out
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the union of its
    /// children's intervals, each clipped to the parent's interval.
    /// Overlapping children (concurrent requests) are counted once.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Self times of every span named `name`, in microseconds, sorted.
    #[must_use]
    pub fn self_us_of(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Writes every span, with its self time, as one JSON object per
    /// line.
    ///
    /// # Errors
    ///
    /// Any error writing to `out`.
    pub fn write_jsonl<W: Write>(&self, out: W) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{},\"request\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.record("run", 0, 100, None, None);
        // Two overlapping children cover 10..40 once (30 ns), a third
        // covers 60..70; 40 ns of the root's 100 are covered.
        let a = t.record("request", 10, 30, Some(root), Some(1));
        t.record("request", 20, 40, Some(root), Some(2));
        t.record("request", 60, 70, Some(root), Some(3));
        // A grandchild reduces its parent's self time, not the root's.
        t.record("server.eval", 25, 30, Some(a), Some(1));
        assert_eq!(t.self_times_ns(), vec![60, 15, 20, 10, 5]);
        assert_eq!(t.self_us_of("request"), vec![0.01, 0.015, 0.02]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = Trace::new(Instant::now());
        let root = t.record("request", 100, 200, None, Some(7));
        t.record("server.queue", 50, 120, Some(root), Some(7));
        t.record("server.eval", 190, 260, Some(root), Some(7));
        t.record("server.build", 110, 130, Some(root), Some(7));
        assert_eq!(t.self_times_ns()[0], 100 - 30 - 10);
        // A child covering its whole parent leaves no self time.
        let mut t = Trace::new(Instant::now());
        let root = t.record("run", 0, 10, None, None);
        t.record("all", 0, 10, Some(root), None);
        assert_eq!(t.self_times_ns(), vec![0, 10]);
    }

    #[test]
    fn spans_write_out_as_json_lines() {
        let mut t = Trace::new(Instant::now());
        let root = t.record("run", 0, 10, None, None);
        t.record("request", 2, 5, Some(root), Some(3));
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"request\",\"start_ns\":2,\"end_ns\":5,\"self_ns\":3,\"parent\":0,\"request\":3}"
        );
        assert!(lines[0].contains("\"self_ns\":7"));
    }
}
