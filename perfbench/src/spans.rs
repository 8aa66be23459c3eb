//! The benchmark's own host-time spans around calls into each layer's
//! public API. Each rank keeps its spans in memory; they are written out
//! when the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use dstreams_trace::json::Value;

/// One timed call on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.write`.
    pub name: &'static str,
    /// Round the span belongs to (set-up spans carry the next round id).
    pub round: u32,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// Host nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Host nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in host nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Open {
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
}

/// Per-rank span recorder. A disabled log only runs the timed closures.
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    open: RefCell<Open>,
}

impl SpanLog {
    /// A log timing from `origin`; records nothing unless `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> SpanLog {
        SpanLog {
            origin,
            enabled,
            open: RefCell::default(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans recorded from now on with `round`.
    pub fn set_round(&self, round: u32) {
        self.open.borrow_mut().round = round;
    }

    /// Run `f` inside a span named `name`, nested in whichever span is
    /// open on this rank.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let idx = {
            let mut o = self.open.borrow_mut();
            let idx = o.spans.len();
            let parent = o.stack.last().copied();
            let round = o.round;
            o.spans.push(Span {
                name,
                round,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            o.stack.push(idx);
            idx
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut o = self.open.borrow_mut();
        o.spans[idx].end_ns = end_ns;
        let top = o.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.open.into_inner().spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Per-name totals over every rank's spans.
pub fn totals(ranks: &[Vec<Span>]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for spans in ranks {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Every span plus the per-name summary, as one JSON document.
pub fn to_json(workload: &str, seed: u64, ranks: &[Vec<Span>]) -> Value {
    let mut rows = Vec::new();
    for (rank, spans) in ranks.iter().enumerate() {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            rows.push(Value::Obj(vec![
                ("rank".into(), Value::Int(rank as i64)),
                ("round".into(), Value::Int(i64::from(s.round))),
                ("name".into(), Value::Str(s.name.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("start_ns".into(), Value::Int(s.start_ns as i64)),
                ("end_ns".into(), Value::Int(s.end_ns as i64)),
                ("self_ns".into(), Value::Int(self_ns as i64)),
            ]));
        }
    }
    let summary = totals(ranks)
        .into_iter()
        .map(|(name, t)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name.into())),
                ("count".into(), Value::Int(t.count as i64)),
                ("total_ms".into(), Value::Num(t.total_ns as f64 / 1e6)),
                ("self_ms".into(), Value::Num(t.self_ns as f64 / 1e6)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::Int(seed as i64)),
        ("summary".into(), Value::Arr(summary)),
        ("spans".into(), Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("a.inner", Some(1), 12, 28),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 4, 16, 40]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", None, 100, 200),
            span("c1", Some(0), 90, 130),
            span("c2", Some(0), 120, 150),
            span("c3", Some(0), 190, 250),
            span("empty", Some(0), 160, 160),
        ];
        // Covered: [100, 150) and [190, 200) = 60 of 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn log_nests_spans_and_totals_sum_ranks() {
        let log = SpanLog::new(Instant::now(), true);
        log.set_round(3);
        let v = log.time("round", || log.time("core.write", || 7));
        assert_eq!(v, 7);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.round == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let t = totals(&[spans.clone(), spans]);
        assert_eq!(t["core.write"].count, 2);
        assert_eq!(t["round"].count, 2);
        assert_eq!(
            t["round"].self_ns + t["core.write"].total_ns,
            t["round"].total_ns
        );
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SpanLog::new(Instant::now(), false);
        assert_eq!(log.time("x", || 1), 1);
        assert!(log.into_spans().is_empty());
    }
}
