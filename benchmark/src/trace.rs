//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (no span lives inside the program), kept in memory while the workload
//! runs, and written as JSON lines when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, `<crate>.<call>` (e.g. `scads.select_related`).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (run, request or call) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while `on`; every method is a no-op while off, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (the traced run alternates to measure
    /// its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A span timestamp: nanoseconds since the tracer was created, or 0
    /// while off (nothing will be recorded, so the clock is not read).
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that ran from `start_ns` to `end_ns`; returns its
    /// index, or `None` while off.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start = self.stamp();
        let out = f();
        let end = self.stamp();
        (out, self.record(name, start, end, parent, op))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover. Children of one parent never overlap (every traced
    /// call is serial), so their durations add.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: count, total and self time in nanoseconds, sorted by
    /// name.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.duration_ns();
            row.2 += self_ns;
        }
        rows.into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, idx) = t.span("x", None, 0, || 7);
        assert_eq!((v, idx), (7, None));
        assert!(t.record("y", 0, 1, None, 0).is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.record("root", 0, 100, None, 1);
        t.record("a", 10, 30, root, 1);
        t.record("b", 40, 90, root, 1);
        assert_eq!(t.self_times_ns(), vec![30, 20, 50]);
        let summary = t.summary();
        assert_eq!(summary[2], ("root", 1, 100, 30));
    }
}
