//! Adapter exposing the `mm-accel` cost model as an `mm-search`
//! [`Objective`], with query counting.
//!
//! The black-box baselines (SA, GA, RL) query this objective directly — one
//! query is one evaluation of the reference cost model, exactly the quantity
//! fixed by the iso-iteration comparison of Figure 5.

use mm_accel::{CostModel, EvalScratch};
use mm_mapspace::Mapping;
use mm_search::Objective;

/// The reference cost model as a search objective (EDP, in joule-seconds).
///
/// Queries go through one reused [`EvalScratch`] — the same allocation-free
/// path Mind Mappings' own post-hoc scoring takes — so an iso-time
/// comparison charges every method the same price per query.
#[derive(Debug, Clone)]
pub struct CostModelObjective {
    model: CostModel,
    scratch: EvalScratch,
    queries: u64,
}

impl CostModelObjective {
    /// Objective returning absolute EDP in joule-seconds.
    pub fn new(model: CostModel) -> Self {
        CostModelObjective {
            model,
            scratch: EvalScratch::new(),
            queries: 0,
        }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CostModel {
        &self.model
    }
}

impl Objective for CostModelObjective {
    fn cost(&mut self, mapping: &Mapping) -> f64 {
        self.queries += 1;
        self.model.evaluate_into(&mut self.scratch, mapping).edp
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_accel::Architecture;
    use mm_mapspace::{MapSpace, ProblemSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_queries_and_matches_model_edp_to_the_bit() {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(128, 5);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let model = CostModel::new(arch, problem);
        let mut objective = CostModelObjective::new(model.clone());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..64 {
            let m = space.random_mapping(&mut rng);
            assert_eq!(objective.cost(&m).to_bits(), model.edp(&m).to_bits());
        }
        assert_eq!(objective.queries(), 64);
        assert!(objective.model().problem().name.contains("conv1d"));
    }
}
