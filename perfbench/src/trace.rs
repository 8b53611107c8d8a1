//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent and op id. Spans stay in
//! memory until the run ends. A span's *self time* is its duration minus
//! the part of that interval its child spans cover. With tracing off the
//! tracer only runs the closures, so the untraced run pays one branch per
//! call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (times in nanoseconds since the tracer's origin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags every span opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Nanoseconds of each span covered by its direct children.
fn child_cover_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| covered_ns(c, s.start_ns, s.end_ns))
        .collect()
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_cover_ns(spans))
        .map(|(s, c)| s.duration_ns() - c)
        .collect()
}

/// Seconds of self time per span name, summed within each op: one list
/// of per-op values per name, in op order.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per_op: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *per_op.entry((s.name, s.op)).or_default() += t;
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        out.entry(name).or_default().push(ns as f64 * 1e-9);
    }
    out
}

/// For every root span named `root`, the share of its duration that its
/// direct children cover.
pub fn child_coverage(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(child_cover_ns(spans))
        .filter(|(s, _)| s.parent.is_none() && s.name == root && s.duration_ns() > 0)
        .map(|(s, c)| c as f64 / s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,50); c [70,90) under root.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 50, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        // The grandchild is inside its parent's interval: the root loses
        // only its direct children's time.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
        assert_eq!(child_coverage(&spans, "root"), vec![0.7]);
    }

    #[test]
    fn self_time_with_back_to_back_children() {
        // Children that touch end-to-start leave no gap and never
        // double-count the shared instant.
        let spans = vec![
            span("root", 0, 30, None),
            span("a", 0, 10, Some(0)),
            span("b", 10, 20, Some(0)),
            span("c", 20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 10, 10, 10]);
        assert_eq!(child_coverage(&spans, "root"), vec![1.0]);
    }

    #[test]
    fn overlapping_children_count_as_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let v = t.span("root", |t| t.span("leaf", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        let by_name = self_seconds_by_name(s);
        assert_eq!(by_name.len(), 2);
        assert!(t.to_json_lines().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", |t| t.span("leaf", |_| 1)), 1);
        assert!(t.spans().is_empty());
    }
}
