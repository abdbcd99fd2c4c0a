//! Spans recorded from outside the program: one around each public
//! call the harness makes, kept in memory until the run ends. With the
//! tracer off `span` is a plain call, so the untraced run — the one
//! every end-to-end number comes from — pays nothing.

use std::time::Instant;

/// One timed interval. `parent` indexes into the tracer's span list;
/// spans of one operation share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    op: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            open: vec![],
            op: 0,
            spans: vec![],
        }
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, a child of whichever span
    /// is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never overlap — one thread records).
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.nanos());
        }
    }
    own
}

/// Seconds spent in spans named `name`, one total per operation
/// `0..ops` (an operation without such a span reads `0.0`).
pub fn per_op_seconds(spans: &[Span], name: &str, ops: usize) -> Vec<f64> {
    let mut out = vec![0.0; ops];
    for s in spans.iter().filter(|s| s.name == name && s.op < ops) {
        out[s.op] += s.nanos() as f64 / 1e9;
    }
    out
}

/// The spans as a JSON array, for `--spans <file>`.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )
        })
        .collect();
    format!("[{}]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) ├ a [10,40) ─ a1 [15,25)
        //            └ b [50,90)
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_nanos(&spans), [30, 20, 10, 40]);
    }

    #[test]
    fn tracer_records_parents_in_call_order() {
        let mut tr = Tracer::new(true);
        tr.set_op(3);
        tr.span("op", |tr| {
            tr.span("a", |tr| tr.span("a1", |_| ()));
            tr.span("b", |_| ());
        });
        let shape: Vec<_> = tr.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            [
                ("op", None, 3),
                ("a", Some(0), 3),
                ("a1", Some(1), 3),
                ("b", Some(0), 3)
            ]
        );
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_nanos(&tr.spans);
        assert_eq!(own.iter().sum::<u64>(), tr.spans[0].nanos());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |tr| tr.span("a", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn per_op_totals_sum_repeated_spans() {
        let mut a = span("q", 0, 1_000_000_000, None);
        let mut b = span("q", 0, 500_000_000, None);
        a.op = 1;
        b.op = 1;
        assert_eq!(per_op_seconds(&[a, b], "q", 2), [0.0, 1.5]);
    }
}
