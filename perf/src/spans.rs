//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! The tracer lives in the benchmark, not in the program: a span brackets
//! one call through a public function (`plan`, `mttkrp`, `solve`, …).
//! Spans are held in memory and written out once, at exit.

use crate::json::{obj, Json};
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this
/// one started (`None` for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub rep: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread (the driver's).
pub struct Tracer {
    origin: Instant,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Repetition number stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the tracer so
    /// it can open child spans.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let line = obj([
                ("id", Json::from(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("name", Json::from(s.name.as_str())),
                ("workload", Json::from(workload)),
                ("rep", Json::from(s.rep)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(own)),
            ]);
            out.push_str(&line.to_line());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (interval union), so concurrent
/// children never drive a self time below zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations in seconds of every span named `name`.
pub fn durations_s(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_one_level_only() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; root ⊃ c [50,70]
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // children [10,60] and [40,80] overlap; [90,130] sticks out of the
        // parent and is clipped to [90,100]; [95,98] is inside the third.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
            span(4, Some(0), 95, 98),
        ];
        // covered = [10,80] ∪ [90,100] = 80 → self = 20
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_records_parents_reps_and_order() {
        let mut t = Tracer::new();
        t.set_rep(3);
        let v = t.span("run", |t| {
            t.span("plan", |_| ());
            t.span("iter", |t| t.span("mttkrp", |_| 7))
        });
        assert_eq!(v, 7);
        let names: Vec<_> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["run", "plan", "iter", "mttkrp"]);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let run = &t.spans()[0];
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.start_ns >= run.start_ns && s.end_ns <= run.end_ns));
        assert_eq!(durations_s(t.spans(), "plan").len(), 1);
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let mut t = Tracer::new();
        t.span("run", |t| t.span("plan", |_| ()));
        let text = t.to_jsonl("coo3_synt");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let plan = Json::parse(lines[1]).unwrap();
        assert_eq!(plan.get("name").and_then(Json::as_str), Some("plan"));
        assert_eq!(plan.num("parent"), Some(0.0));
        assert_eq!(
            plan.get("workload").and_then(Json::as_str),
            Some("coo3_synt")
        );
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
