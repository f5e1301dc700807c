//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls the
//! harness makes into the crates; spans inside the crates are a later
//! change (ROADMAP item 5). Nothing is written until the run ends, and
//! with tracing off `begin` does not even read the clock, so the untraced
//! run that produces the end-to-end metrics pays one predictable branch.

use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder; `NONE` when tracing is off or absent.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

/// Marker for a span that belongs to no operation.
pub const NO_OP: u64 = u64::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op_id: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a span whose start was taken earlier with [`Self::stamp`]
    /// (an operation that completes on a later loop iteration).
    pub fn record(&mut self, name: &'static str, start_ns: u64, parent: SpanId, op_id: u64) {
        if self.on {
            let end_ns = self.now_ns();
            self.spans.push(Span { name, start_ns, end_ns, parent, op_id });
        }
    }

    /// The recorder's clock, for [`Self::record`]; 0 with tracing off.
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns - s.start_ns
    }

    /// Summed duration of the direct children of `parent`, optionally only
    /// those called `name`.
    pub fn children_ns(&self, parent: SpanId, name: Option<&str>) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == parent && name.is_none_or(|n| s.name == n))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's self time as a share of its duration: what is left after
    /// the intervals its child spans cover.
    pub fn self_share(&self, id: SpanId) -> f64 {
        let total = self.duration_ns(id);
        if total == 0 {
            return 0.0;
        }
        total.saturating_sub(self.children_ns(id, None)) as f64 / total as f64
    }

    /// One JSON object per span: `name, start_ns, end_ns, parent, op_id`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { "null".to_string() } else { s.parent.to_string() };
            let op = if s.op_id == NO_OP { "null".to_string() } else { s.op_id.to_string() };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op_id\": {op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", NONE, NO_OP);
        t.end(id);
        t.record("y", t.stamp(), NONE, 3);
        assert_eq!(id, NONE);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span { name: "w", start_ns: 0, end_ns: 100, parent: NONE, op_id: NO_OP });
        t.spans.push(Span { name: "a", start_ns: 10, end_ns: 40, parent: 0, op_id: 1 });
        t.spans.push(Span { name: "b", start_ns: 50, end_ns: 90, parent: 0, op_id: 1 });
        t.spans.push(Span { name: "a.inner", start_ns: 12, end_ns: 30, parent: 1, op_id: 1 });
        assert_eq!(t.children_ns(0, None), 70);
        assert_eq!(t.children_ns(0, Some("a")), 30);
        assert!((t.self_share(0) - 0.30).abs() < 1e-12);
    }
}
