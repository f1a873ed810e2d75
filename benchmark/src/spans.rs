//! In-memory spans around the calls into each layer, for the traced pass.
//!
//! A span is one call the benchmark makes into the product (`Mapper::run`,
//! `submit`, `wait`, `train`, `search_with_budget`) or one phase of a round.
//! Calls that take microseconds (`evaluate`, `propose`, `report`) are not
//! spans of their own: the decorators add them up and the totals are
//! attached to the enclosing span as [`Busy`] entries. Nothing is written
//! until the run ends.

use std::time::Instant;

use crate::json::Value;

/// Summed time of many short calls made inside one span.
#[derive(Debug, Clone, PartialEq)]
pub struct Busy {
    pub name: &'static str,
    pub count: u64,
    pub ns: u64,
    /// Spent on pool threads, concurrently with the driving thread: reported
    /// beside the span, never subtracted from its wall time.
    pub pool: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Run or request id; spans of one request share it.
    pub id: u64,
    /// Display row in the Chrome trace (the tenant, for requests).
    pub lane: u32,
    pub busy: Vec<Busy>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64, lane: u32) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, id, lane)
    }

    pub fn close(&mut self, span: usize) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(span) {
            s.end_ns = now;
        }
    }

    /// Record a span with explicit times.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
        lane: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            lane,
            busy: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attach the summed time of `count` short calls to `span`.
    pub fn add_busy(&mut self, span: usize, name: &'static str, count: u64, ns: u64, pool: bool) {
        if let Some(s) = self.spans.get_mut(span) {
            s.busy.push(Busy {
                name,
                count,
                ns,
                pool,
            });
        }
    }

    /// A span's duration minus the part of it its child spans cover.
    /// Children may overlap each other (concurrent requests) or stick out of
    /// the parent; covered time is the union of the children clipped to the
    /// parent, so nothing is subtracted twice.
    pub fn self_ns(&self, span: usize) -> u64 {
        let Some(parent) = self.spans.get(span) else {
            return 0;
        };
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.duration_ns() - covered
    }

    /// Per span name: count, total and self seconds, and the busy entries
    /// summed; plus every span for the per-run view.
    pub fn ledger(&self) -> Value {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let secs = |ns: u64| Value::Num(ns as f64 * 1e-9);
        let by_name = names
            .iter()
            .map(|&name| {
                let members: Vec<usize> = (0..self.spans.len())
                    .filter(|&i| self.spans[i].name == name)
                    .collect();
                let total: u64 = members.iter().map(|&i| self.spans[i].duration_ns()).sum();
                let own: u64 = members.iter().map(|&i| self.self_ns(i)).sum();
                let mut busy: Vec<Busy> = Vec::new();
                for b in members.iter().flat_map(|&i| &self.spans[i].busy) {
                    match busy
                        .iter_mut()
                        .find(|x| x.name == b.name && x.pool == b.pool)
                    {
                        Some(x) => {
                            x.count += b.count;
                            x.ns += b.ns;
                        }
                        None => busy.push(b.clone()),
                    }
                }
                Value::obj(vec![
                    ("name", Value::str(name)),
                    ("count", Value::Num(members.len() as f64)),
                    ("total_s", secs(total)),
                    ("self_s", secs(own)),
                    ("busy", Value::Arr(busy.iter().map(busy_value).collect())),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("id", Value::Num(s.id as f64)),
                    ("start_s", secs(s.start_ns)),
                    ("end_s", secs(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("busy", Value::Arr(s.busy.iter().map(busy_value).collect())),
                ])
            })
            .collect();
        Value::obj(vec![
            ("by_name", Value::Arr(by_name)),
            ("spans", Value::Arr(spans)),
        ])
    }

    /// The spans as Chrome trace events (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.lane))),
                    ("args", Value::obj(vec![("id", Value::Num(s.id as f64))])),
                ])
            })
            .collect();
        Value::obj(vec![("traceEvents", Value::Arr(events))])
    }
}

fn busy_value(b: &Busy) -> Value {
    Value::obj(vec![
        ("name", Value::str(b.name)),
        ("count", Value::Num(b.count as f64)),
        ("busy_s", Value::Num(b.ns as f64 * 1e-9)),
        ("pool", Value::Bool(b.pool)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_of_nested_spans() {
        let mut r = Recorder::new();
        let root = r.record("round", 0, 100, None, 0, 0);
        let run = r.record("mapper.run", 10, 70, Some(root), 1, 0);
        let _leaf = r.record("inner", 20, 30, Some(run), 1, 0);
        let _other = r.record("mapper.run", 70, 90, Some(root), 2, 0);
        assert_eq!(r.self_ns(root), 100 - 60 - 20);
        assert_eq!(r.self_ns(run), 60 - 10);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(r.self_ns(_leaf), 10);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let mut r = Recorder::new();
        let root = r.record("timed", 0, 100, None, 0, 0);
        // Four concurrent requests: [10,50] [20,60] [55,80] and one inside
        // another, [25,30].
        r.record("request", 10, 50, Some(root), 1, 0);
        r.record("request", 20, 60, Some(root), 2, 1);
        r.record("request", 55, 80, Some(root), 3, 2);
        r.record("request", 25, 30, Some(root), 4, 3);
        // Union is [10,80] = 70.
        assert_eq!(r.self_ns(root), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut r = Recorder::new();
        let root = r.record("timed", 10, 20, None, 0, 0);
        r.record("early", 0, 12, Some(root), 1, 0);
        r.record("late", 18, 40, Some(root), 2, 0);
        r.record("outside", 30, 40, Some(root), 3, 0);
        assert_eq!(r.self_ns(root), 10 - 2 - 2);
        assert_eq!(r.self_ns(99), 0);
    }

    #[test]
    fn pool_busy_time_is_kept_apart_from_the_driving_thread() {
        let mut r = Recorder::new();
        let run = r.record("wait", 0, 100, None, 7, 0);
        r.add_busy(run, "evaluate", 10, 40, false);
        r.add_busy(run, "evaluate", 5, 300, true);
        // Self time is about child spans only; busy entries never change it.
        assert_eq!(r.self_ns(run), 100);
        let ledger = r.ledger().render().unwrap();
        assert!(ledger.contains("\"pool\": true"), "{ledger}");
    }

    #[test]
    fn ledger_and_trace_are_valid_json() {
        let mut r = Recorder::new();
        let a = r.open("mapper.run", None, 3, 0);
        r.add_busy(a, "propose", 2, 10, false);
        r.close(a);
        for doc in [r.ledger(), r.chrome_trace()] {
            let text = doc.render().unwrap();
            assert_eq!(crate::json::parse(&text).unwrap(), doc);
        }
        assert!(r.spans[a].end_ns >= r.spans[a].start_ns);
    }
}
