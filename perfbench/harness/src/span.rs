//! In-memory spans around the harness's calls into each layer.
//!
//! A traced run wraps every call it makes into a layer's public
//! functions in a span (name, start, end, parent). Spans stay in memory
//! and are written out once, as a Chrome `trace_event` document, when
//! the run ends. An untraced run uses a disabled [`Tracer`], whose calls
//! do nothing.

use crate::out::Val;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.quote_batch`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 when no span ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1_000.0
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals by span name, sorted by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// The spans as a Chrome `trace_event` document (complete events, one
/// track, parent index in `args`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<Val> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Val::obj([
                ("name", Val::str(s.name)),
                ("ph", Val::str("X")),
                ("pid", Val::Int(1)),
                ("tid", Val::Int(1)),
                ("ts", Val::Num(s.start_ns as f64 / 1_000.0)),
                ("dur", Val::Num(s.duration_ns() as f64 / 1_000.0)),
                (
                    "args",
                    Val::obj([
                        ("id", Val::Int(i as u64)),
                        ("parent", s.parent.map_or(Val::Null, |p| Val::Int(p as u64))),
                    ]),
                ),
            ])
        })
        .collect();
    Val::obj([("traceEvents", Val::Arr(events))]).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two overlapping children cover [10, 50) = 40 ns together.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50),
            // A child running past its parent counts only inside it.
            span("c", Some(0), 90, 130),
            // A grandchild is the child's business, not the root's.
            span("d", Some(1), 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 30 - 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 10);
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].count, 1);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        tracer.span("inner", || std::hint::black_box(1 + 1));
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let doc = chrome_trace(spans);
        assert!(doc.starts_with("{\"traceEvents\":["));

        let mut off = Tracer::new(false);
        let id = off.begin("x");
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
