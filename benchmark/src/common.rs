//! What every workload shares: the per-problem reference objects the checks
//! need, the shape of one round's outcome, and the correctness gate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mm_accel::{Architecture, CostModel};
use mm_mapper::{MapperConfig, SyncPolicy, TerminationPolicy};
use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
use mm_search::{
    AnnealingConfig, GeneticAlgorithm, GeneticConfig, ProposalSearch, RandomSearch,
    SimulatedAnnealing,
};

use crate::inputs::SearcherKind;
use crate::spans::Recorder;
use crate::stats::geomean;

/// A problem with what the benchmark needs to judge results for it. Built
/// by the benchmark from the public constructors, so a check never trusts
/// an object the code under test handed back.
pub struct Problem {
    pub spec: ProblemSpec,
    pub space: MapSpace,
    pub model: CostModel,
    /// EDP of the algorithmic minimum: the floor no mapping can beat.
    pub min_edp: f64,
}

pub fn build_problems(arch: &Architecture, specs: Vec<ProblemSpec>) -> Vec<Problem> {
    specs
        .into_iter()
        .map(|spec| {
            let model = CostModel::new(arch.clone(), spec.clone());
            Problem {
                space: MapSpace::new(spec.clone(), arch.mapping_constraints()),
                min_edp: model.lower_bound().edp,
                model,
                spec,
            }
        })
        .collect()
}

/// A fresh searcher of `kind` with its own default configuration.
pub fn searcher(kind: SearcherKind) -> Box<dyn ProposalSearch> {
    match kind {
        SearcherKind::Random => Box::new(RandomSearch::new()),
        SearcherKind::Sa => Box::new(SimulatedAnnealing::new(AnnealingConfig::default())),
        SearcherKind::Ga => Box::new(GeneticAlgorithm::new(GeneticConfig::default())),
    }
}

/// The `Mapper` configuration of every single search the benchmark runs: 1
/// thread, 1 shard, no sync, `evals` evaluations, the rest the `Mapper`'s
/// own defaults.
pub fn mapper_config(seed: u64, evals: u64) -> MapperConfig {
    MapperConfig {
        threads: 1,
        shards: Some(1),
        seed,
        termination: TerminationPolicy::search_size(evals),
        sync: SyncPolicy::Off,
        ..MapperConfig::default()
    }
}

/// One call that is judged against a frozen quality target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ttq {
    /// Row of the workload's target table (the problem; 0 for requests).
    pub row: usize,
    /// Quality the call ended on: EDP ÷ algorithmic minimum (geomean over
    /// layers for a request; ∞ for a call that returned nothing usable).
    /// `benchmark calibrate` sets the targets from these.
    pub norm: f64,
    /// Seconds from the call's start until the caller held a result at or
    /// below the target; `None` if it never did.
    pub reached_s: Option<f64>,
    /// The whole call, which is what an unreached target is censored at.
    pub wall_s: f64,
}

/// An unreached target counts as this many times the call's whole wall
/// time, so that the median stays a finite number that no arrived search
/// could have produced.
pub const UNREACHED_PENALTY: f64 = 10.0;

impl Ttq {
    pub fn penalised_s(&self) -> f64 {
        self.reached_s.unwrap_or(UNREACHED_PENALTY * self.wall_s)
    }
}

/// One result a caller received, scored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored {
    /// Index of the problem in the workload's problem list.
    pub problem: usize,
    /// Results of one problem that share a cell are restarts of one method
    /// (the reps of a searcher): only the best of them counts. Results a
    /// service delivers are each their own cell.
    pub cell: u64,
    /// True EDP ÷ EDP of the algorithmic minimum.
    pub norm: f64,
}

/// `best_edp_norm`: per (problem, cell) the best restart, per problem the
/// geometric mean over cells, then the geometric mean over problems — every
/// problem weighs the same however often a workload happens to ask for it.
pub fn best_edp_norm(results: &[Scored]) -> Option<f64> {
    let mut best: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    for r in results {
        let slot = best.entry((r.problem, r.cell)).or_insert(f64::INFINITY);
        *slot = slot.min(r.norm);
    }
    let mut per_problem: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((problem, _), norm) in best {
        per_problem.entry(problem).or_default().push(norm);
    }
    let means: Option<Vec<f64>> = per_problem.values().map(|v| geomean(v)).collect();
    geomean(&means?)
}

/// The lines of the correctness gate that failed. Each is printed as it is
/// recorded, with the run or request id it starts with.
#[derive(Debug, Default)]
pub struct Failures(Vec<String>);

impl Failures {
    pub fn push(&mut self, line: String) {
        eprintln!("FAILED {line}");
        self.0.push(line);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Per-layer numbers of one traced round, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// What one round (set-up + timed phase) produced.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Evaluations delivered: for every result handed back, what the search
    /// that produced it spent (a replay counts its original search;
    /// gradient steps on `gradient_search`).
    pub evals: u64,
    /// Wall seconds of every call a user makes (`Mapper::run`,
    /// `search_with_budget`, or `submit` → `wait`), timed from outside.
    pub calls_s: Vec<f64>,
    /// The calls judged against a frozen quality target.
    pub ttq: Vec<Ttq>,
    /// Every result handed back, scored against the algorithmic minimum.
    pub results: Vec<Scored>,
    /// Digest of every deterministic output, to hold rounds and passes
    /// bit-equal to each other.
    pub digest: u64,
    /// Operations checked (searches or requests) and what failed.
    pub attempted: u64,
    pub failures: Failures,
    pub layer: LayerMetrics,
}

/// One of the five workloads. A round repeats the same seeded work, so every
/// round of a run must produce the same [`Round::digest`].
pub trait Workload {
    /// Set up, run the timed phase, check every result. With a recorder the
    /// round runs behind the timing decorators and fills [`Round::layer`].
    ///
    /// # Errors
    ///
    /// Only when the benchmark itself cannot go on (an input it generated
    /// was refused, say); a wrong result is a [`Round::failures`] entry.
    fn round(&mut self, trace: Option<&mut Recorder>) -> Result<Round, String>;

    /// Per-layer measurements taken once per traced run, outside the
    /// rounds: isolated loops and same-run comparisons.
    ///
    /// # Errors
    ///
    /// As [`round`](Self::round).
    fn extras(&mut self) -> Result<LayerMetrics, String>;
}

/// Set-up time of a round. Set-up that takes microseconds cannot be told
/// from clock jitter in one go, so it is repeated until [`SETUP_FLOOR`] is on
/// the clock and the median is reported; the last state built is the one
/// the timed phase runs on. Set-up slower than the floor runs once.
///
/// # Errors
///
/// Whatever `build` fails with.
pub fn timed_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let begin = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let start = Instant::now();
        let state = build()?;
        seconds.push(start.elapsed().as_secs_f64());
        if begin.elapsed() >= SETUP_FLOOR || seconds.len() >= SETUP_MAX_REPEATS {
            return Ok((crate::stats::median(&seconds).unwrap_or(0.0), state));
        }
    }
}

const SETUP_FLOOR: Duration = Duration::from_millis(25);
const SETUP_MAX_REPEATS: usize = 1_000;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The checks every returned mapping must pass, whatever layer returned it.
/// Pushes one line per failed check, led by `id`, and returns the result's
/// EDP as a multiple of the algorithmic minimum when it can be judged.
pub fn check_result(
    id: &str,
    problem: &Problem,
    mapping: Option<&Mapping>,
    reported_edp: f64,
    failures: &mut Failures,
) -> Option<f64> {
    let Some(mapping) = mapping else {
        failures.push(format!("{id}: no mapping returned"));
        return None;
    };
    if let Err(why) = problem.space.validate(mapping) {
        failures.push(format!("{id}: mapping fails MapSpace::validate: {why}"));
        return None;
    }
    let fresh = problem.model.evaluate(mapping).edp;
    if fresh.to_bits() != reported_edp.to_bits() {
        failures.push(format!(
            "{id}: reported EDP {reported_edp:e} differs from a fresh CostModel::evaluate {fresh:e}"
        ));
    }
    // The floor is a bound on real numbers; allow the last bits of rounding.
    if !(fresh.is_finite() && fresh >= problem.min_edp * (1.0 - 1e-9)) {
        failures.push(format!(
            "{id}: EDP {fresh:e} is below the algorithmic minimum {:e}",
            problem.min_edp
        ));
        return None;
    }
    Some(fresh / problem.min_edp)
}

/// What [`check_count`] calls the evaluations a timing decorator counted.
pub const DECORATOR_EVALS: &str = "evaluations seen by the decorator";

/// Pushes a failure unless `got == want`.
pub fn check_count(id: &str, what: &str, got: u64, want: u64, failures: &mut Failures) {
    if got != want {
        failures.push(format!("{id}: {what} is {got}, expected {want}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_workloads::evaluated_accelerator;
    use rand::SeedableRng;

    fn problem() -> Problem {
        let arch = evaluated_accelerator();
        build_problems(&arch, crate::inputs::table1_problems()).remove(0)
    }

    #[test]
    fn a_valid_mapping_with_its_own_cost_passes() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = p.space.random_mapping(&mut rng);
        let edp = p.model.evaluate(&m).edp;
        let mut failures = Failures::default();
        let norm = check_result("run 0", &p, Some(&m), edp, &mut failures);
        assert_eq!(failures.len(), 0, "{failures:?}");
        assert!(norm.unwrap() >= 1.0);
    }

    #[test]
    fn every_kind_of_bad_result_is_caught() {
        let p = problem();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = p.space.random_mapping(&mut rng);
        let edp = p.model.evaluate(&m).edp;

        let mut failures = Failures::default();
        assert_eq!(check_result("a", &p, None, edp, &mut failures), None);
        assert!(failures.0[0].contains("no mapping"));

        let mut failures = Failures::default();
        check_result("b", &p, Some(&m), edp * 1.000_000_1, &mut failures);
        assert!(failures.0[0].contains("differs"), "{failures:?}");

        let mut failures = Failures::default();
        let mut broken = m.clone();
        broken.tiles[0][0] = 0;
        assert_eq!(
            check_result("c", &p, Some(&broken), edp, &mut failures),
            None
        );
        assert!(failures.0[0].contains("validate"), "{failures:?}");

        let mut failures = Failures::default();
        check_count("d", "evaluations", 9, 10, &mut failures);
        check_count("d", "evaluations", 10, 10, &mut failures);
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn best_edp_norm_keeps_the_best_restart_and_weighs_problems_equally() {
        let r = |problem, cell, norm| Scored {
            problem,
            cell,
            norm,
        };
        // Problem 0: method 0 restarts 8 and 2 (best 2), method 1 gives 8:
        // geomean(2, 8) = 4. Problem 1, asked for three times over: 16 each.
        let results = [
            r(0, 0, 8.0),
            r(0, 0, 2.0),
            r(0, 1, 8.0),
            r(1, 10, 16.0),
            r(1, 11, 16.0),
            r(1, 12, 16.0),
        ];
        assert!((best_edp_norm(&results).unwrap() - 8.0).abs() < 1e-12);
        assert_eq!(best_edp_norm(&[]), None);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.text("x");
        assert_ne!(c.finish(), Digest::default().finish());
    }
}
