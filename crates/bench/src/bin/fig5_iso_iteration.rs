//! Experiment E4 — Figure 5: iso-iteration comparison.
//!
//! Every search method (Simulated Annealing, Genetic Algorithm, RL, random
//! sampling, and Mind Mappings) is run for the same number of cost-function
//! evaluations on every Table 1 target problem; for the baselines those are
//! queries of the reference cost model, for Mind Mappings they are surrogate
//! queries (Section 5.2). Results are averaged over `MM_RUNS` runs and
//! reported as EDP normalized to the algorithmic minimum; the paper reports
//! Mind Mappings 1.40× / 1.76× / 1.29× better than SA / GA / RL.
//!
//! Writes `results/fig5_{summary,traces,step_cost}.csv`
//! (see [`mm_bench::comparison::run_figure`]).

use mm_bench::{comparison, ExperimentScale};
use mm_search::Budget;

fn main() {
    let scale = ExperimentScale::from_env();
    let budget = Budget::iterations(scale.search_iterations);
    comparison::run_figure("fig5", &scale, budget, 42, 0xF1605, [1.40, 1.76, 1.29]);
}
