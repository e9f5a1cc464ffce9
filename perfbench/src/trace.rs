//! The benchmark's own in-memory spans around calls into each layer.
//!
//! A span has a name (`layer.operation`), a start and an end, the span
//! that caused it and a request id shared by the spans of one request.
//! Spans stay in memory while a pass runs and are written out when the
//! run ends. A layer's *self time* is its spans' durations minus the
//! part of each span that its child spans cover.
//!
//! Some children are not observed directly but reconstructed from a
//! report field — the executor's makespan inside a `Solver::run` call,
//! say. Those are placed at the end of their parent; only their
//! duration is a measurement.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin.
    pub end: f64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request id (job id, call number) shared by one request's spans.
    pub req: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: usize,
    /// Sum of span durations.
    pub total: f64,
    /// Sum of self times.
    pub self_time: f64,
}

/// An append-only span log; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer measuring from `origin`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a span; returns its index (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let (start, end) = (self.at(start), self.at(end));
        self.push(name, start, end, parent, req)
    }

    /// Record a child of `parent` that ends where the parent ends and
    /// lasts `secs` (clipped to the parent): a duration known from a
    /// report field, not from the benchmark's own clock.
    pub fn record_tail(&mut self, name: &'static str, parent: usize, secs: f64) -> usize {
        if !self.enabled {
            return 0;
        }
        let p = self.spans[parent];
        let start = (p.end - secs.max(0.0)).max(p.start);
        self.push(name, start, p.end, Some(parent), p.req)
    }

    /// Record a child of `parent` that starts where the parent starts
    /// and lasts `secs` (clipped to the parent).
    pub fn record_head(&mut self, name: &'static str, parent: usize, secs: f64) -> usize {
        if !self.enabled {
            return 0;
        }
        let p = self.spans[parent];
        let end = (p.start + secs.max(0.0)).min(p.end);
        self.push(name, p.start, end, Some(parent), p.req)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a root span named `name`.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, t0, Instant::now(), None, req);
        r
    }

    /// Totals and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered(
                s.start,
                s.end,
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start, self.spans[c].end)),
            );
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total += s.end - s.start;
            e.self_time += (s.end - s.start) - covered;
        }
        out
    }

    /// Tab-separated dump: `id parent req name start end`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\treq\tname\tstart_s\tend_s\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{:.9}\t{:.9}",
                s.req, s.name, s.start, s.end
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0, true);
        let root = tr.record("facade.run", at(0), at(100), None, 7);
        // overlapping children cover 10..50, plus 60..70
        tr.record("exec.a", at(10), at(40), Some(root), 7);
        tr.record("exec.a", at(30), at(50), Some(root), 7);
        tr.record("exec.b", at(60), at(70), Some(root), 7);
        let lt = tr.layer_times();
        let f = lt["facade.run"];
        assert_eq!(f.count, 1);
        assert!((f.self_time - 0.050).abs() < 1e-9, "{f:?}");
        assert_eq!(lt["exec.a"].count, 2);
        assert!((lt["exec.a"].total - 0.050).abs() < 1e-9);
    }

    #[test]
    fn tail_children_end_with_their_parent() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, true);
        let root = tr.record("facade.run", t0, t0 + Duration::from_millis(10), None, 1);
        tr.record_tail("exec.factor", root, 0.004);
        let lt = tr.layer_times();
        assert!((lt["facade.run"].self_time - 0.006).abs() < 1e-9);
        assert!((lt["exec.factor"].self_time - 0.004).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::new(Instant::now(), false);
        assert_eq!(tr.time("x.y", 0, || 3), 3);
        assert!(tr.layer_times().is_empty());
    }
}
