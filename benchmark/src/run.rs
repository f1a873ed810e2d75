//! One run: rounds of one workload until the clock says stop, then the
//! numbers.
//!
//! A round is set-up plus the timed phase on the same seeded inputs, so a
//! run holds several measurements of the same work. Rates, set-up time and
//! the percentiles of single-call timings are each taken per round and the
//! median over rounds is reported; rounds go on until together they hold
//! enough calls for the high percentile. Every round must produce the same
//! digest of deterministic outputs as the first, and
//! in a traced run the decorated rounds must match the plain ones: that is
//! the proof the decorators are transparent.

use std::time::{Duration, Instant};

use crate::common::{best_edp_norm, LayerMetrics, Round, Workload};
use crate::gradient_search::GradientSearch;
use crate::json::Value;
use crate::layer_search::LayerSearch;
use crate::metrics::name;
use crate::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::proc::{peak_rss_mb, Placement};
use crate::serve::{Serve, ServeKind};
use crate::spans::Recorder;
use crate::stats::{median, percentile};

/// Rounds below which "median over rounds" means little.
const MIN_ROUNDS: usize = 3;
/// Calls the rounds must hold together before `request_s_p90` is reported:
/// 10 % of them are the ≥ 10 samples beyond it.
const MIN_CALLS: usize = 100;

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a run measured, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In table order: every end-to-end metric, or every per-layer metric
    /// of a traced run.
    pub metrics: Vec<(&'static Metric, f64)>,
    pub rounds: usize,
    /// The spans of the traced rounds.
    pub recorder: Option<Recorder>,
}

impl Outcome {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                Value::obj(vec![
                                    ("value", Value::Num(*v)),
                                    ("unit", Value::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The workload called `name`, with the calling thread placed as its
/// driving thread.
///
/// # Errors
///
/// Lists the names there are.
pub fn workload(name: &str, seed: u64, placement: &Placement) -> Result<Box<dyn Workload>, String> {
    placement.pin_driver()?;
    let placement = placement.clone();
    Ok(match name {
        "layer_search" => Box::new(LayerSearch::new(seed)),
        "serve_batch" => Box::new(Serve::new(ServeKind::Batch, seed, placement)),
        "serve_seq" => Box::new(Serve::new(ServeKind::Seq, seed, placement)),
        "serve_reuse" => Box::new(Serve::new(ServeKind::Reuse, seed, placement)),
        "gradient_search" => Box::new(GradientSearch::new(seed)),
        _ => {
            let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload '{name}'; there are {known:?}"));
        }
    })
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Result<f64, String> {
    median(&rounds.iter().map(f).collect::<Vec<_>>()).ok_or_else(|| "no rounds".to_string())
}

/// The eight end-to-end numbers from the plain rounds.
fn end_to_end(rounds: &[Round]) -> Result<Vec<f64>, String> {
    let calls: Vec<&[f64]> = rounds.iter().map(|r| r.calls_s.as_slice()).collect();
    let first = rounds.first().ok_or("no rounds")?;
    let values = [
        ("setup_s", median_of(rounds, |r| r.setup_s)?),
        (
            "evals_per_s",
            median_of(rounds, |r| r.evals as f64 / r.timed_s)?,
        ),
        (
            "requests_per_s",
            median_of(rounds, |r| r.calls_s.len() as f64 / r.timed_s)?,
        ),
        ("request_s_p50", percentile(&calls, 0.5)?),
        ("request_s_p90", percentile(&calls, 0.9)?),
        (
            "ttq_s_p50",
            median_of(rounds, |r| {
                let penalised: Vec<f64> = r.ttq.iter().map(|t| t.penalised_s()).collect();
                median(&penalised).unwrap_or(f64::NAN)
            })?,
        ),
        (
            "best_edp_norm",
            best_edp_norm(&first.results).ok_or("no result to take best_edp_norm from")?,
        ),
        ("peak_rss_mb", peak_rss_mb()?),
    ];
    END_TO_END
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("end-to-end metric {} is not computed", m.name))
        })
        .collect()
}

/// The 51 per-layer numbers: median over traced rounds where a round
/// measures the metric, the once-per-run extras otherwise, 0 for a layer
/// the workload never enters.
fn per_layer(plain: &[Round], traced: &[Round], extras: &LayerMetrics) -> Result<Vec<f64>, String> {
    let overhead = median_of(traced, |r| r.timed_s)? / median_of(plain, |r| r.timed_s)? - 1.0;
    let measured = traced
        .iter()
        .flat_map(|r| r.layer.keys())
        .chain(extras.keys());
    if let Some(stray) = measured
        .into_iter()
        .find(|k| crate::metrics::find(k).is_none())
    {
        return Err(format!(
            "'{stray}' was measured but is not a per-layer metric"
        ));
    }
    Ok(PER_LAYER
        .iter()
        .map(|m| {
            if m.name == name::BENCH_TRACE_OVERHEAD {
                return overhead;
            }
            let per_round: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layer.get(m.name).copied())
                .collect();
            median(&per_round)
                .or_else(|| extras.get(m.name).copied())
                .unwrap_or(0.0)
        })
        .collect())
}

/// Run `options.workload` for `options.seconds` seconds.
///
/// # Errors
///
/// When the benchmark cannot measure (unknown workload, unreadable `/proc`,
/// too few samples for a percentile). Wrong results are not errors: they
/// are counted in [`Outcome::failed`].
pub fn run(options: &Options, placement: &Placement) -> Result<Outcome, String> {
    let mut workload = workload(&options.workload, options.seed, placement)?;
    let budget = Duration::from_secs(options.seconds);
    let mut recorder = options.trace.then(Recorder::new);
    let (mut plain, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        plain.push(workload.round(None)?);
        if let Some(rec) = recorder.as_mut() {
            traced.push(workload.round(Some(rec))?);
        }
        let calls: usize = plain.iter().map(|r| r.calls_s.len()).sum();
        if start.elapsed() >= budget && plain.len() >= MIN_ROUNDS && calls >= MIN_CALLS {
            break;
        }
    }

    let mut attempted = 0;
    let mut failed = 0;
    let reference = plain.first().map(|r| r.digest);
    for (i, round) in plain.iter().chain(&traced).enumerate() {
        attempted += round.attempted;
        failed += round.failures.len() as u64;
        if Some(round.digest) != reference {
            failed += 1;
            let pass = if i < plain.len() { "plain" } else { "traced" };
            eprintln!(
                "FAILED {} {pass} round {}: deterministic outputs differ from the first round",
                options.workload,
                i % plain.len()
            );
        }
    }

    let (table, values): (&[Metric], Vec<f64>) = if options.trace {
        let extras = workload.extras()?;
        (&PER_LAYER, per_layer(&plain, &traced, &extras)?)
    } else {
        (&END_TO_END, end_to_end(&plain)?)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics: table.iter().zip(values).collect(),
        rounds: plain.len(),
        recorder,
    })
}
