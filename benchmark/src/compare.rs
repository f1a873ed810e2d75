//! `benchmark compare A B`: judge run file B against run file A.
//!
//! A run file holds one JSON object per line, as `--out` appends them:
//! `{"workload", "seed", "trace", "result": {correct, attempted, failed,
//! metrics}}`. Each (workload, metric) gets one row with both medians and
//! the change relative to A, judged by the metric's own direction and
//! bound:
//!
//! * a metric that is a function of the seed alone must be bit-equal for
//!   every seed both files hold, or the row reads `DIFFERS`;
//! * where either side's spread (inter-quartile distance ÷ median) is wider
//!   than the bound, a difference cannot be told from noise: the row reads
//!   `unresolved`, unless every run of B beats every run of A;
//! * otherwise B's median worse than A's by more than the bound is a
//!   `REGRESSION`.
//!
//! Per-layer metrics have no bound: they are listed, and only the exact
//! ones are judged.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Value};
use crate::metrics::{find, Better, Metric, WORKLOADS};
use crate::stats::{median, spread};

/// Values of one (workload, metric), with the seed each came from.
type Samples = Vec<(u64, f64)>;

#[derive(Debug, Default)]
pub struct RunFile {
    /// `(workload, metric)` → samples, in file order.
    pub samples: BTreeMap<(String, String), Samples>,
    /// Runs whose result was not `correct` or counted failures.
    pub failed_runs: Vec<String>,
}

/// Read a run file.
///
/// # Errors
///
/// On a line that is not a run record.
pub fn read(text: &str) -> Result<RunFile, String> {
    let mut file = RunFile::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", n + 1);
        let doc = parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no workload"))?;
        let seed = doc
            .get("seed")
            .and_then(Value::as_f64)
            .ok_or_else(|| at("no seed"))? as u64;
        let result = doc.get("result").ok_or_else(|| at("no result"))?;
        let correct = result.get("correct").and_then(Value::as_bool);
        let failed = result.get("failed").and_then(Value::as_f64);
        if correct != Some(true) || failed != Some(0.0) {
            file.failed_runs.push(format!("{workload} seed {seed}"));
        }
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| at("no metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            file.samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(file)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Listed,
    Unresolved,
    Regression,
    Differs,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Listed => "-",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Differs => "DIFFERS",
        }
    }

    fn blocks(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Differs)
    }
}

fn values(samples: &Samples) -> Vec<f64> {
    samples.iter().map(|(_, v)| *v).collect()
}

/// Share of A's median by which B is worse (negative: better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(metric: &Metric, a: &Samples, b: &Samples) -> Verdict {
    if metric.exact {
        let differs = a.iter().any(|(seed, x)| {
            b.iter()
                .any(|(s, y)| s == seed && x.to_bits() != y.to_bits())
        });
        if differs {
            return Verdict::Differs;
        }
    }
    let Some(bound) = metric.bound else {
        return Verdict::Listed;
    };
    let (va, vb) = (values(a), values(b));
    let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
        return Verdict::Listed;
    };
    let wide = [&va, &vb]
        .iter()
        .filter_map(|v| spread(v))
        .any(|s| s > bound);
    if wide {
        let b_always_better = vb
            .iter()
            .all(|y| va.iter().all(|x| worsening(metric, *x, *y) < 0.0));
        return if b_always_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(metric, ma, mb) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The table, and whether anything in it blocks.
pub fn report(a: &RunFile, b: &RunFile) -> (String, bool) {
    let mut out = String::new();
    let mut blocked = false;
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "A spread", "B spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for ((w, name), sa) in a.samples.iter().filter(|((w, _), _)| w == workload) {
            let Some(sb) = b.samples.get(&(w.clone(), name.clone())) else {
                continue;
            };
            let Some(metric) = find(name) else { continue };
            let (va, vb) = (values(sa), values(sb));
            let (ma, mb) = (
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
            );
            let verdict = judge(metric, sa, sb);
            blocked |= verdict.blocks();
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<16} {:<32} {:>14.6e} {:>14.6e} {:>+8.1}% {:>8} {:>8} {:>6}  {} ({} is better; base A, n={}/{})",
                w,
                name,
                ma,
                mb,
                (mb / ma - 1.0) * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
                pct(metric.bound),
                verdict.word(),
                metric.better.word(),
                va.len(),
                vb.len(),
            );
        }
    }
    for (label, file) in [("A", a), ("B", b)] {
        for run in &file.failed_runs {
            let _ = writeln!(out, "FAILED run in {label}: {run}");
            blocked = true;
        }
    }
    (out, blocked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, seed: u64, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"result\": \
             {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}}}\n"
        )
    }

    fn file(workload: &str, metric: &str, values: &[f64]) -> RunFile {
        let text: String = values
            .iter()
            .enumerate()
            .map(|(i, v)| line(workload, i as u64 + 1, metric, *v))
            .collect();
        read(&text).unwrap()
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let (fa, fb) = (
            file("layer_search", metric, a),
            file("layer_search", metric, b),
        );
        let key = ("layer_search".to_string(), metric.to_string());
        judge(find(metric).unwrap(), &fa.samples[&key], &fb.samples[&key])
    }

    #[test]
    fn direction_and_bound_are_the_metrics_own() {
        // evals_per_s: higher is better, bound 12 %.
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict("evals_per_s", &a, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("evals_per_s", &a, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Regression
        );
        assert_eq!(
            verdict("evals_per_s", &a, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Ok
        );
        // request_s_p50: lower is better, bound 12 %.
        assert_eq!(
            verdict("request_s_p50", &a, &[114.0, 115.0, 113.0, 114.5, 113.5]),
            Verdict::Regression
        );
        assert_eq!(
            verdict("request_s_p50", &a, &[80.0, 81.0, 79.0, 80.5, 79.5]),
            Verdict::Ok
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(verdict("evals_per_s", &noisy, &noisy), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(
            verdict("evals_per_s", &noisy, &[200.0, 260.0, 160.0, 240.0, 180.0]),
            Verdict::Ok
        );
    }

    #[test]
    fn exact_metrics_must_agree_to_the_bit_per_seed() {
        let a = [12.5, 12.6];
        assert_eq!(verdict("best_edp_norm", &a, &a), Verdict::Ok);
        assert_eq!(
            verdict("best_edp_norm", &a, &[12.5, 12.600_000_000_000_002]),
            Verdict::Differs
        );
        // Per-layer exact metric: judged for equality, otherwise only listed.
        assert_eq!(verdict("accel.evals", &[480.0], &[480.0]), Verdict::Listed);
        assert_eq!(verdict("accel.evals", &[480.0], &[481.0]), Verdict::Differs);
        assert_eq!(verdict("accel.busy_s", &[1.0], &[9.0]), Verdict::Listed);
    }

    #[test]
    fn report_has_one_row_per_workload_metric_and_blocks_on_regression() {
        let a = file("serve_seq", "requests_per_s", &[10.0, 10.1, 9.9]);
        let b = file("serve_seq", "requests_per_s", &[5.0, 5.1, 4.9]);
        let (table, blocked) = report(&a, &b);
        assert!(blocked);
        assert_eq!(table.lines().count(), 2, "{table}");
        assert!(
            table.contains("REGRESSION") && table.contains("base A"),
            "{table}"
        );
        let (_, blocked) = report(&a, &a);
        assert!(!blocked);
    }

    #[test]
    fn a_failed_run_blocks_and_bad_lines_are_errors() {
        let bad = "{\"workload\": \"serve_seq\", \"seed\": 1, \"trace\": 0, \"result\": \
                   {\"correct\": false, \"attempted\": 5, \"failed\": 1, \"metrics\": {}}}\n";
        let file = read(bad).unwrap();
        assert_eq!(file.failed_runs.len(), 1);
        assert!(report(&file, &file).1);
        assert!(read("{\"seed\": 1}\n").is_err());
        assert!(read("not json\n").is_err());
    }
}
