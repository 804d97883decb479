//! Span-based stage tracing in sim-time.
//!
//! A [`Span`] is a named interval of *simulated* time plus an event
//! sequence number. Wall clock never appears: two replays of the same
//! seeded run — sequential or parallel — produce byte-identical traces.
//! Sequence numbers order spans that open at the same sim-time instant
//! (e.g. back-to-back pipeline stages of zero simulated length).

use crate::json_escape;
use std::fmt::Write as _;

/// Sentinel `end_ns` for a span that was opened but never closed.
pub const OPEN_END: u64 = u64::MAX;

/// One traced interval, in sim-time nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Span {
    /// Monotonic per-tracer sequence number, assigned at open.
    pub seq: u64,
    /// Stage name, e.g. `roadtest/run` or `mitigate[10.1.1.10]`.
    pub name: String,
    /// Sim-time at open, nanoseconds.
    pub start_ns: u64,
    /// Sim-time at close, nanoseconds ([`OPEN_END`] while open).
    pub end_ns: u64,
}

impl Span {
    /// Span duration in sim-time nanoseconds; zero while still open.
    pub fn duration_ns(&self) -> u64 {
        if self.end_ns == OPEN_END {
            0
        } else {
            self.end_ns.saturating_sub(self.start_ns)
        }
    }
}

/// Handle returned by [`Tracer::open`], consumed by [`Tracer::close`].
/// A handle still open at a freeze barrier checkpoints as its span's
/// index, and is only meaningful against the tracer it was frozen beside.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
#[must_use = "open spans should be closed"]
pub struct OpenSpan(usize);

/// An append-only span log with a deterministic sequence counter.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Tracer {
    spans: Vec<Span>,
    seq: u64,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Hand out the next event sequence number (also advanced by every
    /// span open). Usable standalone to stamp non-span events.
    pub fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Open a span at sim-time `start_ns`.
    pub fn open(&mut self, name: impl Into<String>, start_ns: u64) -> OpenSpan {
        let seq = self.next_seq();
        self.spans.push(Span { seq, name: name.into(), start_ns, end_ns: OPEN_END });
        OpenSpan(self.spans.len() - 1)
    }

    /// Close a previously opened span at sim-time `end_ns`.
    pub fn close(&mut self, span: OpenSpan, end_ns: u64) {
        self.spans[span.0].end_ns = end_ns;
    }

    /// Record a fully-formed span in one call.
    pub fn record(&mut self, name: impl Into<String>, start_ns: u64, end_ns: u64) {
        let seq = self.next_seq();
        self.spans.push(Span { seq, name: name.into(), start_ns, end_ns });
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans, re-sequencing them after this
    /// tracer's own. Appending in a fixed order (e.g. per experiment
    /// point) keeps the merged trace deterministic.
    pub fn merge_from(&mut self, other: &Tracer) {
        let base = self.seq;
        for s in &other.spans {
            self.spans.push(Span { seq: base + s.seq, ..s.clone() });
        }
        self.seq = base + other.seq;
    }

    /// Render as a JSON array, one span per line, hand-rolled and
    /// byte-deterministic.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"seq\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.seq,
                json_escape(&s.name),
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_and_record_sequence() {
        let mut t = Tracer::new();
        let a = t.open("collect", 0);
        t.record("flash", 5, 9);
        t.close(a, 100);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].seq, 0);
        assert_eq!(t.spans()[0].end_ns, 100);
        assert_eq!(t.spans()[1].seq, 1);
        assert_eq!(t.spans()[1].duration_ns(), 4);
    }

    #[test]
    fn json_render_is_stable() {
        let mut t = Tracer::new();
        t.record("a\"quote", 1, 2);
        let j = t.render_json();
        assert_eq!(j, "[\n  {\"seq\":0,\"name\":\"a\\\"quote\",\"start_ns\":1,\"end_ns\":2}\n]\n");
        assert_eq!(j, t.render_json());
    }

    #[test]
    fn merge_resequences() {
        let mut a = Tracer::new();
        a.record("x", 0, 1);
        let mut b = Tracer::new();
        b.record("y", 2, 3);
        b.record("z", 4, 5);
        a.merge_from(&b);
        let seqs: Vec<u64> = a.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(a.next_seq(), 3);
    }

    #[test]
    fn empty_trace_renders_bracket_pair() {
        assert_eq!(Tracer::new().render_json(), "[\n]\n");
    }
}
