//! In-memory spans for the traced run, written as JSON lines when the
//! benchmark ends, and the self-time arithmetic of the layer replay.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer; nothing inside the serving stack is instrumented.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval. Spans of one request share `request`; `parent`
/// is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Model lane the span belongs to (empty when not per model).
    pub model: &'static str,
    /// Coalesced batch size the work ran at (0 when not applicable).
    pub batch: usize,
    /// Serving worker that executed the request (request spans only).
    pub worker: usize,
    /// True for a child that could not be timed nested inside its
    /// parent from outside the crate and was replayed on the same
    /// inputs instead: its interval lies after the parent's.
    pub replayed: bool,
}

/// Span recorder with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id; the caller fills the
    /// attributes it has through [`Tracer::span_mut`].
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            model: "",
            batch: 0,
            worker: 0,
            replayed: false,
        });
        self.spans.len() - 1
    }

    pub fn span_mut(&mut self, id: SpanId) -> &mut Span {
        &mut self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one header line (`header`, already JSON) and one JSON
    /// object per span.
    pub fn write_jsonl(&self, mut out: impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start_ns, s.end_ns
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(r) = s.request {
                write!(out, ",\"request\":{r}")?;
            }
            if !s.model.is_empty() {
                write!(out, ",\"model\":\"{}\"", s.model)?;
            }
            if s.batch > 0 {
                write!(out, ",\"batch\":{},\"worker\":{}", s.batch, s.worker)?;
            }
            if s.replayed {
                write!(out, ",\"replayed\":true")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Self time of a parent given its children's times: the parent minus
/// the sum of the children, clamped at 0. The flag is set when the
/// children exceed the parent by more than 10 %, which means the
/// separately replayed children did not repeat what the parent did.
pub fn self_time(parent: f64, children: &[f64]) -> (f64, bool) {
    let covered: f64 = children.iter().sum();
    ((parent - covered).max(0.0), covered > parent * 1.10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_parent_minus_children_clamped() {
        assert_eq!(self_time(10.0, &[3.0, 4.0]), (3.0, false));
        // Children 5 % over the parent: clamped, within tolerance.
        assert_eq!(self_time(10.0, &[6.0, 4.5]), (0.0, false));
        // Children 20 % over the parent: clamped and flagged.
        assert_eq!(self_time(10.0, &[8.0, 4.0]), (0.0, true));
        assert_eq!(self_time(10.0, &[]), (10.0, false));
    }

    #[test]
    fn request_spans_share_the_request_id_in_the_file() {
        let mut t = Tracer::new();
        let now = t.origin;
        let later = now + Duration::from_micros(5);
        let root = t.record("request", None, Some(17), now, later);
        t.record("serve.submit", Some(root), Some(17), now, now);
        let inflight = t.record("serve.inflight", Some(root), Some(17), now, later);
        let span = t.span_mut(inflight);
        span.model = "rm1";
        span.batch = 4;
        span.worker = 0;
        let mut file = Vec::new();
        t.write_jsonl(&mut file, "{\"header\":true}")
            .expect("trace written");
        let text = String::from_utf8(file).expect("utf-8 trace");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "{\"header\":true}");
        assert!(lines[1..].iter().all(|l| l.contains("\"request\":17")));
        assert_eq!(
            lines[3],
            "{\"id\":2,\"name\":\"serve.inflight\",\"start_ns\":0,\"end_ns\":5000,\
             \"parent\":0,\"request\":17,\"model\":\"rm1\",\"batch\":4,\"worker\":0}"
        );
    }
}
