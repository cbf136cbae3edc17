//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as JSON when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// The operation (one client request) the span belongs to.
    pub op: u64,
    /// Layer and call, such as `engine.run` or `store.append`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Measurements attached to the span (query-profile stages, `/proc`
    /// deltas).
    pub attrs: Vec<(String, f64)>,
}

/// Collects spans; a disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished call that ran from `start` to `end`; returns its
    /// id (0 when disabled). Spans are recorded when they end, so a parent
    /// is set afterwards with [`Tracer::adopt`].
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        attrs: Vec<(String, f64)>,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: None,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            attrs,
        });
        id
    }

    /// Makes `parent` the parent of each span in `children`.
    pub fn adopt(&mut self, parent: u64, children: &[u64]) {
        for &c in children {
            if let Some(span) = c
                .checked_sub(1)
                .and_then(|i| self.spans.get_mut(i as usize))
            {
                span.parent = Some(parent);
            }
        }
    }

    /// The recorded spans, in the order they ended.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Renders spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n ");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        );
        for (j, (k, v)) in s.attrs.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{}", json_number(*v));
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// A JSON number with every digit of `v`; `null` for a non-finite value.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("engine.run", 1, now, now, vec![]), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_are_adopted_and_rendered() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let child = t.record("engine.run", 7, now, now, vec![("ssed_ms".into(), 1.5)]);
        let root = t.record("op.query", 7, now, now, vec![]);
        t.adopt(root, &[child]);
        assert_eq!(t.spans()[0].parent, Some(root));
        let json = spans_json(t.spans());
        assert!(json.contains("\"parent\":2") && json.contains("\"ssed_ms\":1.5"));
    }
}
