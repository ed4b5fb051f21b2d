//! `perf compare <a.json> <b.json>`: the rule later performance changes
//! are judged by.
//!
//! `a` is the baseline, `b` the change; both are summaries written by
//! `perf all`. For every end-to-end metric × workload the change's median
//! may not be worse than the baseline's by more than the metric's bound.
//! Where either side's run-to-run spread (quartile distance over median)
//! is wider than the bound the pair is `unresolved`, not `ok` — unless
//! every sample of the change reads better than every sample of the
//! baseline. Exact counts from the traced pass must not differ at all.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Better,
    Unresolved,
    Regressed,
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges one metric of one workload. `change` is how much worse `b`'s
/// median is than `a`'s, as a share of `a`'s (negative = improved).
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> (Verdict, f64) {
    let (worse_by, b_beats_a) = match better {
        Better::Lower => (b.median - a.median, b.max < a.min),
        Better::Higher => (a.median - b.median, b.min > a.max),
    };
    let change = if a.median == 0.0 {
        if worse_by == 0.0 {
            0.0
        } else {
            worse_by.signum() * f64::INFINITY
        }
    } else {
        worse_by / a.median.abs()
    };
    let verdict = if b_beats_a {
        Verdict::Better
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, change)
}

fn summary_of(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.num("median")?,
        q1: metric.num("q1")?,
        q3: metric.num("q3")?,
        min: metric.num("min")?,
        max: metric.num("max")?,
        n: metric.num("n")? as usize,
    })
}

/// Compares two summaries; returns the report and whether anything
/// regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    for key in ["nproc", "threads", "scale_div"] {
        let (x, y) = (
            a.get("host").and_then(|h| h.num(key)),
            b.get("host").and_then(|h| h.num(key)),
        );
        if x != y {
            report += &format!(
                "warning: host.{key} differs ({x:?} vs {y:?}); the runs are not comparable\n"
            );
        }
    }
    let empty = Json::Obj(vec![]);
    let workloads = a.get("workloads").unwrap_or(&empty).members();
    for (name, wa) in workloads {
        let wb = b.get("workloads").and_then(|w| w.get(name));
        let mut cells = Vec::new();
        for m in END_TO_END.iter() {
            let side = |w: Option<&Json>| {
                w.and_then(|w| w.get("end_to_end"))
                    .and_then(|e| e.get(m.name))
                    .and_then(summary_of)
            };
            let cell = match (side(Some(wa)), side(wb)) {
                (Some(sa), Some(sb)) => {
                    let (verdict, change) = judge(&sa, &sb, m.better, m.bound);
                    regressed |= verdict == Verdict::Regressed;
                    format!("{}={}({:+.1}%)", m.name, verdict.as_str(), change * 100.0)
                }
                _ => {
                    regressed = true;
                    format!("{}={}", m.name, Verdict::Missing.as_str())
                }
            };
            cells.push(cell);
        }
        let failed = |w: Option<&Json>| w.and_then(|w| w.num("failed")).unwrap_or(f64::NAN);
        if failed(wb) > failed(Some(wa)) || failed(wb).is_nan() {
            regressed = true;
            cells.push(format!(
                "failed={}->{} REGRESSED",
                failed(Some(wa)),
                failed(wb)
            ));
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |w: Option<&Json>| {
                w.and_then(|w| w.get("per_layer"))
                    .and_then(|p| p.get(m.name))
                    .and_then(|v| v.num("value"))
            };
            if let (Some(x), Some(y)) = (value(Some(wa)), value(wb)) {
                if x != y {
                    cells.push(format!("{}: {x} -> {y} (exact count differs)", m.name));
                }
            }
        }
        report += &format!("{name}: {}\n", cells.join("  "));
    }
    report += if regressed {
        "result: REGRESSED\n"
    } else {
        "result: no regression\n"
    };
    (report, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values).unwrap()
    }

    #[test]
    fn direction_aware_regression() {
        let base = s(&[1.00, 1.01, 0.99, 1.00]);
        let slow = s(&[1.20, 1.21, 1.19, 1.20]);
        assert_eq!(
            judge(&base, &slow, Better::Lower, 0.10).0,
            Verdict::Regressed
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10).0, Verdict::Better);
        assert_eq!(
            judge(&slow, &base, Better::Higher, 0.10).0,
            Verdict::Regressed
        );
        let (v, change) = judge(&base, &s(&[1.05, 1.04, 1.06, 1.05]), Better::Lower, 0.10);
        assert_eq!(v, Verdict::Ok);
        assert!((change - 0.05).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let noisy = s(&[0.8, 1.0, 1.2, 1.4, 0.9, 1.1]);
        let similar = s(&[0.9, 1.0, 1.3, 1.2, 1.0, 1.1]);
        assert_eq!(
            judge(&noisy, &similar, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
        let clear_win = s(&[0.5, 0.6, 0.7, 0.55]);
        assert_eq!(
            judge(&noisy, &clear_win, Better::Lower, 0.10).0,
            Verdict::Better
        );
    }

    #[test]
    fn exact_counts_must_match_within_their_bound() {
        let a = s(&[1000.0; 4]);
        assert_eq!(
            judge(&a, &s(&[1000.0; 4]), Better::Lower, 0.005).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &s(&[1010.0; 4]), Better::Lower, 0.005).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &s(&[990.0; 4]), Better::Lower, 0.005).0,
            Verdict::Better
        );
    }

    fn doc(wall: f64, stages: f64) -> Json {
        let text = format!(
            r#"{{"host": {{"nproc": 2, "threads": 2, "scale_div": 2}},
                "workloads": {{"coo3_synt": {{"failed": 0,
                  "end_to_end": {{
                    "wall_s": {{"median": {wall}, "q1": {wall}, "q3": {wall}, "min": {wall}, "max": {wall}, "n": 4}},
                    "iter_s": {{"median": 1, "q1": 1, "q3": 1, "min": 1, "max": 1, "n": 4}},
                    "setup_s": {{"median": 1, "q1": 1, "q3": 1, "min": 1, "max": 1, "n": 4}},
                    "peak_rss_mb": {{"median": 1, "q1": 1, "q3": 1, "min": 1, "max": 1, "n": 4}},
                    "shuffle_bytes_iter": {{"median": 1, "q1": 1, "q3": 1, "min": 1, "max": 1, "n": 4}},
                    "jobs_per_s": {{"median": 1, "q1": 1, "q3": 1, "min": 1, "max": 1, "n": 4}}}},
                  "per_layer": {{"dataflow.scheduler.stages_per_iter": {{"value": {stages}}}}}}}}}}}"#
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn one_row_per_workload_and_regressions_are_flagged() {
        let (report, regressed) = compare(&doc(1.0, 9.0), &doc(1.0, 9.0));
        assert!(!regressed, "{report}");
        assert!(report.contains("coo3_synt: wall_s=ok(+0.0%)"));
        assert!(report.contains("no regression"));

        let (report, regressed) = compare(&doc(1.0, 9.0), &doc(1.5, 12.0));
        assert!(regressed);
        assert!(report.contains("wall_s=REGRESSED(+50.0%)"), "{report}");
        assert!(report.contains("stages_per_iter: 9 -> 12"), "{report}");

        let (_, regressed) = compare(
            &doc(1.0, 9.0),
            &Json::parse(r#"{"workloads": {}}"#).unwrap(),
        );
        assert!(
            regressed,
            "a workload missing from the change is a regression"
        );
    }
}
