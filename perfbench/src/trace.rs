//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into each layer's public
//! entry points: name, start, end, parent span and request id. They are
//! kept in memory and written out when the run ends. The program's own
//! tracing is never enabled or read.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within a run, never 0).
    pub id: u64,
    /// Enclosing span id (0 for a root).
    pub parent: u64,
    /// Request the span belongs to (0 outside any request).
    pub req: u64,
    /// Layer-qualified name, e.g. `pl_serve.step`.
    pub name: &'static str,
    /// Start (ns since the epoch).
    pub start_ns: u64,
    /// End (ns since the epoch).
    pub end_ns: u64,
}

/// An in-memory span store; records nothing while off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), next_id: 1, spans: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts or stops keeping spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Reserves an id for a span that will be recorded when it ends
    /// (children can name it as their parent meanwhile).
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a completed span under a reserved `id`.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, req, name, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Records a completed span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, preceded by a header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_records_nothing_and_parents_link() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        t.record("a", 0, 1, now, now);
        assert!(t.spans().is_empty());
        t.set_on(true);
        let parent = t.reserve();
        t.record("child", parent, 1, now, now + Duration::from_micros(5));
        t.record_as(parent, "req", 0, 1, now, now + Duration::from_micros(9));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, parent);
        assert_eq!(t.spans()[0].end_ns - t.spans()[0].start_ns, 5_000);
        assert!(t.to_jsonl("{}").lines().count() == 3);
    }
}
