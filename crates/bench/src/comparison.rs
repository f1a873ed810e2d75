//! The SA / GA / RL / Random / MM comparison machinery behind Figures 5
//! and 6: run every search method on one target problem under a common
//! budget, average over several runs, and report normalized-EDP traces
//! ([`run_comparison`]); and the one loop that both figure binaries drive
//! over Table 1 ([`run_figure`]).

use mm_accel::CostModel;
use mm_core::{CostModelObjective, GradientSearch, Phase2Config, Surrogate};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::{
    drive, AnnealingConfig, Budget, DdpgAgent, DdpgConfig, GeneticAlgorithm, GeneticConfig,
    ProposalSearch, RandomSearch, SearchTrace, SimulatedAnnealing,
};
use mm_workloads::table1::{self, Algorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::report::{self, fmt, format_table};
use crate::{geometric_mean, train_surrogate, ExperimentScale};

/// The baselines every figure divides by MM, in the order of the paper's
/// ratios.
const BASELINES: [&str; 3] = ["SA", "GA", "RL"];

/// How many times faster a Mind Mappings step is than an SA / GA / RL step
/// in the paper (Section 5.4.2).
const PAPER_STEP_SPEEDUPS: [f64; 3] = [153.7, 286.8, 425.5];

/// How far from the algorithmic minimum Mind Mappings ends in the paper
/// (Table 3, geomean).
const PAPER_MM_DISTANCE: f64 = 5.32;

/// The averaged result of one search method on one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodRun {
    /// Method name (`SA`, `GA`, `RL`, `Random`, `MM`).
    pub method: String,
    /// Run-averaged trace with costs normalized to the algorithmic minimum.
    pub trace: SearchTrace,
    /// Best normalized EDP, averaged across runs.
    pub best_normalized_edp: f64,
    /// Mean wall-clock seconds per cost-function (or surrogate) query.
    pub seconds_per_query: f64,
}

/// Results for all methods on one target problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// Problem name.
    pub problem: String,
    /// log10 of the estimated map-space size (Section 5.1.3 context).
    pub log10_space_size: f64,
    /// One entry per method.
    pub methods: Vec<MethodRun>,
}

impl ComparisonResult {
    /// Best normalized EDP of a method, if present.
    pub fn best_of(&self, method: &str) -> Option<f64> {
        self.methods
            .iter()
            .find(|m| m.method == method)
            .map(|m| m.best_normalized_edp)
    }

    /// Ratio `best(method) / best(MM)` — how much worse a baseline is than
    /// Mind Mappings (the headline numbers of the abstract).
    pub fn ratio_vs_mm(&self, method: &str) -> Option<f64> {
        let mm = self.best_of("MM")?;
        Some(self.best_of(method)? / mm)
    }
}

/// Run Random, SA, GA and RL, and MM when a `surrogate` is given, on
/// `problem` for the given budget, averaging `runs` independent repetitions.
/// Costs in the returned traces are EDPs normalized to the problem's
/// algorithmic minimum (the `y`-axis of Figures 5 and 6).
pub fn run_comparison(
    problem: &ProblemSpec,
    surrogate: Option<&Surrogate>,
    budget: Budget,
    runs: usize,
    seed: u64,
) -> ComparisonResult {
    let arch = mm_workloads::evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), problem.clone());
    let lb_edp = model.lower_bound().edp;
    let runs = runs.max(1);

    let mut methods: Vec<MethodRun> = Vec::new();

    let mut run_baseline = |name: &str, make: &dyn Fn() -> Box<dyn ProposalSearch>| {
        let mut traces = Vec::with_capacity(runs);
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed ^ (r as u64) << 16 ^ hash_name(name));
            let mut searcher = make();
            let mut objective = CostModelObjective::new(model.clone());
            let mut trace = drive(&mut *searcher, &space, &mut objective, budget, &mut rng);
            normalize_trace(&mut trace, lb_edp);
            traces.push(trace);
        }
        let avg = SearchTrace::average(&traces);
        methods.push(MethodRun {
            method: name.to_string(),
            best_normalized_edp: avg.best_cost,
            seconds_per_query: avg.seconds_per_query(),
            trace: avg,
        });
    };

    run_baseline("Random", &|| Box::new(RandomSearch::new()));
    run_baseline("SA", &|| {
        Box::new(SimulatedAnnealing::new(AnnealingConfig::default()))
    });
    run_baseline("GA", &|| {
        Box::new(GeneticAlgorithm::new(GeneticConfig::default()))
    });
    run_baseline("RL", &|| Box::new(DdpgAgent::new(DdpgConfig::default())));

    if let Some(surrogate) = surrogate {
        let gs = GradientSearch::new(surrogate, problem.clone(), Phase2Config::default())
            .expect("surrogate family must match the problem");
        let mut traces = Vec::with_capacity(runs);
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(seed ^ (r as u64) << 16 ^ hash_name("MM"));
            let mut trace = gs.run(budget, &model, &mut rng);
            normalize_trace(&mut trace, lb_edp);
            traces.push(trace);
        }
        let avg = SearchTrace::average(&traces);
        methods.push(MethodRun {
            method: "MM".to_string(),
            best_normalized_edp: avg.best_cost,
            seconds_per_query: avg.seconds_per_query(),
            trace: avg,
        });
    }

    ComparisonResult {
        problem: problem.name.clone(),
        log10_space_size: space.log10_size_estimate(),
        methods,
    }
}

/// Regenerate one comparison figure over every Table-1 problem.
///
/// Trains a CNN-Layer and an MTTKRP surrogate from `surrogate_seed` at
/// `scale`, then runs [`run_comparison`] under `budget` with `scale.runs`
/// runs per method on every problem. Writes `{name}_summary.csv` (best per
/// method), `{name}_traces.csv` (best-so-far curves, thinned to about 200
/// points; the x column is `elapsed_s` when `budget` has a time bound and
/// `iteration` otherwise) and `{name}_step_cost.csv` (seconds per query and
/// slowdown against MM). Prints the geomean of best(X) ÷ best(MM) for SA, GA
/// and RL beside `paper_ratios`, MM's distance to the algorithmic minimum
/// and MM's per-step speed-ups, each beside the paper's.
pub fn run_figure(
    name: &str,
    scale: &ExperimentScale,
    budget: Budget,
    surrogate_seed: u64,
    seed: u64,
    paper_ratios: [f64; 3],
) {
    println!("{name}: {budget:?}, {} runs per method", scale.runs);
    println!("training surrogates at scale '{}'…", scale.name);
    let mut rng = StdRng::seed_from_u64(surrogate_seed);
    let (cnn, _) = train_surrogate(Algorithm::CnnLayer, scale, &mut rng).expect("CNN surrogate");
    let (mttkrp, _) =
        train_surrogate(Algorithm::Mttkrp, scale, &mut rng).expect("MTTKRP surrogate");

    let timed = budget.max_time.is_some();
    let mut summary_rows = Vec::new();
    let mut trace_rows = Vec::new();
    let mut step_rows = Vec::new();
    let mut ratios: [Vec<f64>; 3] = Default::default();
    let mut step_speedups: [Vec<f64>; 3] = Default::default();
    let mut mm_best = Vec::new();
    for target in table1::all_problems() {
        let problem = &target.problem.name;
        let surrogate = match target.algorithm {
            Algorithm::CnnLayer => &cnn,
            Algorithm::Mttkrp => &mttkrp,
        };
        println!("searching {problem} …");
        let result = run_comparison(
            &target.problem,
            Some(surrogate),
            budget,
            scale.runs,
            seed ^ hash_name(problem),
        );
        let mm = result
            .methods
            .iter()
            .find(|m| m.method == "MM")
            .expect("MM runs when given a surrogate");
        mm_best.push(mm.best_normalized_edp);
        let mut bests = Vec::new();
        for m in &result.methods {
            bests.push(format!("{}={}", m.method, fmt(m.best_normalized_edp)));
            let stride = 10.max(m.trace.points.len() / 200);
            for p in m.trace.points.iter().step_by(stride) {
                let x = if timed {
                    fmt(p.elapsed_s)
                } else {
                    p.queries.to_string()
                };
                trace_rows.push(vec![problem.clone(), m.method.clone(), x, fmt(p.best_cost)]);
            }
            let slowdown = m.seconds_per_query / mm.seconds_per_query.max(1e-12);
            step_rows.push(vec![
                problem.clone(),
                m.method.clone(),
                fmt(m.seconds_per_query),
                fmt(slowdown),
            ]);
            if let Some(i) = BASELINES.iter().position(|b| *b == m.method) {
                ratios[i].push(m.best_normalized_edp / mm.best_normalized_edp);
                step_speedups[i].push(slowdown);
            }
        }
        summary_rows.push(vec![problem.clone(), bests.join(" ")]);
    }

    let write = |file: &str, header: &[&str], rows: &[Vec<String>]| {
        let path = report::write_csv(&format!("{name}_{file}.csv"), header, rows);
        println!("wrote {}", path.expect("write results CSV").display());
    };
    let summary_header = ["problem", "methods (best normalized EDP)"];
    write("summary", &summary_header, &summary_rows);
    let x_column = if timed { "elapsed_s" } else { "iteration" };
    let trace_header = ["problem", "method", x_column, "best_normalized_edp"];
    write("traces", &trace_header, &trace_rows);
    let step_header = ["problem", "method", "seconds_per_step", "slowdown_vs_mm"];
    write("step_cost", &step_header, &step_rows);

    println!("\nFinal best normalized EDP per method:");
    println!("{}", format_table(&["problem", "results"], &summary_rows));
    println!("Geomean over {} problems (paper):", mm_best.len());
    for (i, baseline) in BASELINES.iter().enumerate() {
        println!(
            "  {baseline} ÷ MM best EDP: {}x ({:.2}x)   MM per-step speed-up over {baseline}: {}x ({:.1}x)",
            fmt(geometric_mean(&ratios[i])),
            paper_ratios[i],
            fmt(geometric_mean(&step_speedups[i])),
            PAPER_STEP_SPEEDUPS[i],
        );
    }
    println!(
        "  MM distance to algorithmic minimum: {}x ({PAPER_MM_DISTANCE:.2}x)",
        fmt(geometric_mean(&mm_best))
    );
}

/// Mean normalized EDP of uniformly random valid mappings — the
/// characterization statistic of Section 5.1.3 (reported there as energy;
/// we report both energy and EDP in the Table 1 binary).
pub fn random_sampling_statistics(
    problem: &ProblemSpec,
    samples: usize,
    seed: u64,
) -> (f64, f64, f64, f64) {
    let arch = mm_workloads::evaluated_accelerator();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem.clone());
    let lb = model.lower_bound();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut energy = Vec::with_capacity(samples);
    let mut edp = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let m = space.random_mapping(&mut rng);
        let cost = model.evaluate(&m);
        energy.push(cost.total_energy_pj / lb.energy_pj);
        edp.push(cost.edp / lb.edp);
    }
    (mean(&energy), std_dev(&energy), mean(&edp), std_dev(&edp))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn std_dev(v: &[f64]) -> f64 {
    let m = mean(v);
    (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len().max(1) as f64).sqrt()
}

fn normalize_trace(trace: &mut SearchTrace, lb_edp: f64) {
    for p in &mut trace.points {
        p.cost /= lb_edp;
        p.best_cost /= lb_edp;
    }
    trace.best_cost /= lb_edp;
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::Phase1Config;
    use mm_nn::Loss;
    use mm_workloads::mttkrp::MttkrpShape;
    use std::fmt::Write as _;
    use std::path::PathBuf;

    #[test]
    fn comparison_without_surrogate_runs_baselines() {
        let problem = MttkrpShape {
            name: "tiny",
            i: 64,
            j: 64,
            k: 64,
            l: 64,
        }
        .into_problem();
        let result = run_comparison(&problem, None, Budget::iterations(60), 1, 7);
        assert_eq!(result.methods.len(), 4); // Random, SA, GA, RL
        for m in &result.methods {
            assert!(m.best_normalized_edp >= 0.99, "{}", m.best_normalized_edp);
            assert!(!m.trace.is_empty());
        }
        assert!(result.best_of("SA").is_some());
        assert!(result.best_of("MM").is_none());
        assert!(result.ratio_vs_mm("SA").is_none());
        assert!(result.log10_space_size > 0.0);
    }

    #[test]
    fn random_statistics_are_positive() {
        let problem = MttkrpShape {
            name: "tiny2",
            i: 64,
            j: 128,
            k: 64,
            l: 64,
        }
        .into_problem();
        let (e_mean, e_std, edp_mean, edp_std) = random_sampling_statistics(&problem, 50, 3);
        assert!(e_mean >= 1.0);
        assert!(e_std >= 0.0);
        assert!(edp_mean >= 1.0);
        assert!(edp_std >= 0.0);
    }

    // Golden fixture for `run_comparison`, the loop behind every Figure 5
    // and Figure 6 row: what each of the five methods finds on one CNN and
    // one MTTKRP Table-1 problem at a fixed seed, to the bit. Per (problem,
    // method) it records the best normalized EDP (`to_bits` hex and `{:e}`),
    // the trace length and an FNV-1a digest of every trace point's
    // best-so-far bits, so a change that reshapes a curve without moving its
    // end still shows. MM runs on a small surrogate trained once per family
    // from an explicit configuration. Regenerate deliberately with
    // `MM_BLESS=1 cargo test -p mm-bench --lib run_comparison_matches_fixture`
    // and commit the new fixture with the code that moved it.

    const PROBLEMS: [&str; 2] = ["ResNet Conv_4", "MTTKRP_0"];
    const QUERIES: u64 = 100;
    const RUNS: usize = 1;
    const SEED: u64 = 0xC0FFEE;

    fn phase1() -> Phase1Config {
        Phase1Config {
            num_samples: 400,
            mappings_per_problem: 50,
            hidden_layers: vec![16, 16],
            epochs: 4,
            batch_size: 32,
            learning_rate: 5e-3,
            momentum: 0.9,
            lr_schedule: None,
            loss: Loss::Huber { delta: 1.0 },
            test_fraction: 0.1,
        }
    }

    fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
        bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, word| {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    fn render() -> String {
        let mut out = String::new();
        writeln!(
            out,
            "# run_comparison: {RUNS} run x {QUERIES} queries, seed {SEED:#x}"
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(SEED);
        for name in PROBLEMS {
            let target = table1::by_name(name).expect("Table-1 problem");
            let (surrogate, _) =
                crate::train_surrogate_with_config(target.algorithm, &phase1(), &mut rng)
                    .expect("surrogate trains");
            let family = match target.algorithm {
                Algorithm::CnnLayer => "cnn",
                Algorithm::Mttkrp => "mttkrp",
            };
            writeln!(out, "problem {name} ({family} surrogate)").unwrap();
            let budget = Budget::iterations(QUERIES);
            let result = run_comparison(&target.problem, Some(&surrogate), budget, RUNS, SEED);
            for m in &result.methods {
                let best = m.best_normalized_edp;
                let digest = fnv(m.trace.points.iter().map(|p| p.best_cost.to_bits()));
                writeln!(
                    out,
                    "  {:<6} best {:#018x} ({best:e}) points {} digest {digest:#018x}",
                    m.method,
                    best.to_bits(),
                    m.trace.points.len()
                )
                .unwrap();
            }
        }
        out
    }

    #[test]
    fn run_comparison_matches_fixture() {
        let actual = render();
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/comparison_quality.txt");
        if std::env::var_os("MM_BLESS").is_some() {
            std::fs::write(&path, &actual).expect("write fixture");
            return;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {} ({e}); bless it with MM_BLESS=1", path.display()));
        assert!(
            expected == actual,
            "run_comparison drifted from {}:\n--- expected\n{expected}--- actual\n{actual}\
             if the change is intentional, re-bless with MM_BLESS=1 and commit the diff",
            path.display()
        );
    }
}
