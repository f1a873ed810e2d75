//! Experiment E5 — Figure 6: iso-time comparison.
//!
//! Every method is given the same wall-clock budget per problem. The
//! baselines must pay for a reference cost-model evaluation on every step,
//! while Mind Mappings only queries its surrogate, so it completes far more
//! steps per unit time (Section 5.4.2). The paper reports Mind Mappings
//! 3.16× / 4.19× / 2.90× better than SA / GA / RL, and a step 153.7× /
//! 286.8× / 425.5× cheaper.
//!
//! Writes `results/fig6_{summary,traces,step_cost}.csv`
//! (see [`mm_bench::comparison::run_figure`]).

use std::time::Duration;

use mm_bench::{comparison, ExperimentScale};
use mm_search::Budget;

fn main() {
    let scale = ExperimentScale::from_env();
    let limit = Duration::from_millis(scale.time_budget_ms);
    let budget = Budget::queries_and_time(u64::MAX / 2, limit);
    comparison::run_figure("fig6", &scale, budget, 43, 0xF1606, [3.16, 4.19, 2.90]);
}
