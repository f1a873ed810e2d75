//! The repo's benchmark. See README.md beside this package.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark suite [--seeds A..B] [--seconds S] [--trace 0|1|both] --out DIR
//! benchmark compare A.jsonl B.jsonl
//! benchmark calibrate
//! ```
//!
//! A run prints every metric by name with its unit, then, as the last line
//! of standard output, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`. It exits 1 if any correctness check
//! failed and 2 if it could not measure.

mod common;
mod compare;
mod decor;
mod gradient_search;
mod inputs;
mod iso;
mod json;
mod layer_search;
mod metrics;
mod proc;
mod run;
mod serve;
mod spans;
mod stats;
mod targets;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use metrics::WORKLOADS;
use proc::Placement;
use run::Options;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  benchmark suite [--seeds A..B] [--seconds S] [--trace 0|1|both] --out DIR
  benchmark compare A.jsonl B.jsonl
  benchmark calibrate";

/// `--key value` pairs after the subcommand; a bare `--trace` means 1.
struct Args(Vec<String>);

impl Args {
    fn take(&mut self, key: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.remove(at);
        if key == "--trace"
            && !matches!(self.0.get(at).map(String::as_str), Some("0" | "1" | "both"))
        {
            return Some("1".to_string());
        }
        (at < self.0.len()).then(|| self.0.remove(at))
    }

    fn number(&mut self, key: &str, default: u64) -> Result<u64, String> {
        match self.take(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{key} takes a whole number, not '{text}'")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn append_line(dir: &Path, name: &str, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload. Returns whether every check passed.
fn run_workload(mut args: Args) -> Result<bool, String> {
    let options = Options {
        workload: args
            .take("--workload")
            .ok_or("--workload NAME is required")?,
        seed: args.number("--seed", 1)?,
        seconds: args.number("--seconds", 10)?,
        trace: args.number("--trace", 0)? != 0,
    };
    let out = args.take("--out");
    args.done()?;

    let placement = Placement::of_this_process()?;
    let outcome = run::run(&options, &placement)?;
    println!(
        "workload {} seed {} trace {} rounds {} available_parallelism {} pool_workers {}",
        options.workload,
        options.seed,
        u8::from(options.trace),
        outcome.rounds,
        placement.cpus(),
        placement.pool_workers(),
    );
    for (metric, value) in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", metric.name, value, metric.unit);
    }
    println!(
        "attempted {} failed {} failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let result = outcome.result_json();
    let line = result.render()?;

    if let Some(dir) = out.as_deref().map(Path::new) {
        let record = Value::obj(vec![
            ("workload", Value::str(options.workload.as_str())),
            ("seed", Value::Num(options.seed as f64)),
            ("trace", Value::Num(f64::from(u8::from(options.trace)))),
            ("seconds", Value::Num(options.seconds as f64)),
            ("rounds", Value::Num(outcome.rounds as f64)),
            ("available_parallelism", Value::Num(placement.cpus() as f64)),
            ("result", result),
        ]);
        append_line(dir, "runs.jsonl", &record.render()?)?;
        write_file(
            dir,
            &format!("INPUTS_seed{}.txt", options.seed),
            &inputs::describe(options.seed),
        )?;
        if let Some(recorder) = &outcome.recorder {
            let name = &options.workload;
            write_file(
                dir,
                &format!("LEDGER_{name}.json"),
                &recorder.ledger().render()?,
            )?;
            write_file(
                dir,
                &format!("TRACE_{name}.json"),
                &recorder.chrome_trace().render()?,
            )?;
        }
    }
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// Every workload × seed × pass, each in a fresh process of this same
/// executable: clean peak RSS, pools and allocator per run.
fn suite(mut args: Args) -> Result<bool, String> {
    let seeds = args.take("--seeds").unwrap_or_else(|| "1..1".to_string());
    let (first, last) = seeds
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or_else(|| format!("--seeds takes A..B (inclusive), not '{seeds}'"))?;
    let seconds = args.number("--seconds", 10)?;
    let passes: &[&str] = match args.take("--trace").as_deref() {
        None | Some("both") => &["0", "1"],
        Some("0") => &["0"],
        Some("1") => &["1"],
        Some(other) => return Err(format!("--trace takes 0, 1 or both, not '{other}'")),
    };
    let out = args.take("--out").ok_or("suite needs --out DIR")?;
    args.done()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_passed = true;
    for seed in first..=last {
        for (workload, _) in WORKLOADS {
            for pass in passes {
                // `output` waits for the child and reaps it.
                let child = Command::new(&exe)
                    .args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", pass])
                    .args(["--out", &out])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                println!(
                    "{workload} seed {seed} trace {pass}: {}",
                    stdout.lines().last().unwrap_or("(no output)")
                );
                all_passed &= child.status.success();
            }
        }
    }
    Ok(all_passed)
}

fn compare_files(args: Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare takes two run files".to_string());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::read(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, blocked) = compare::report(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!blocked)
}

/// Print the target tables of `targets.rs` again from scratch: one plain
/// round per workload and calibration seed, then the rule.
fn calibrate(args: Args) -> Result<bool, String> {
    args.done()?;
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=5;
    let placement = Placement::of_this_process()?;
    let names: Vec<String> = inputs::table1_problems()
        .into_iter()
        .map(|p| p.name)
        .collect();
    let best = |norms: &[f64]| norms.iter().copied().fold(f64::INFINITY, f64::min);
    for (workload, _) in WORKLOADS {
        // Per row of the target table, what every judged call ended on.
        let mut finals: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut seed1_best = Vec::new();
        for seed in SEEDS {
            let round = run::workload(workload, seed, &placement)?.round(None)?;
            if round.failures.len() > 0 {
                return Err(format!(
                    "{workload} seed {seed}: {} checks failed",
                    round.failures.len()
                ));
            }
            for t in &round.ttq {
                finals.entry(t.row).or_default().push(t.norm);
            }
            if seed == *SEEDS.start() {
                seed1_best = finals.values().map(|v| best(v)).collect();
            }
        }
        println!("// {workload}: seed-1 best {seed1_best:?}");
        // One row: the workload's whole requests. Eight: the problems.
        let requests = finals.len() == 1;
        for (row, norms) in &finals {
            let name = if requests {
                workload
            } else {
                names[*row].as_str()
            };
            let share = if requests {
                targets::REACH_SHARE_REQUESTS
            } else {
                targets::REACH_SHARE
            };
            let (best, factor) = (best(norms), targets::pick_factor(best(norms), norms, share));
            let reached = norms.iter().filter(|n| **n <= best * factor).count();
            println!(
                "    row(\"{name}\", {best:?}, {factor:?}), // {reached}/{} reach it",
                norms.len()
            );
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("suite" | "compare" | "calibrate") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let passed = match command.as_str() {
        "suite" => suite(args),
        "compare" => compare_files(args),
        "calibrate" => calibrate(args),
        _ => run_workload(args),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
