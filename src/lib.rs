//! # mind-mappings
//!
//! Umbrella crate for the Mind Mappings reproduction (ASPLOS 2021): a
//! gradient-based algorithm-accelerator mapping space search built on a
//! differentiable surrogate of an analytical accelerator cost model.
//!
//! This crate simply re-exports the workspace members so that the examples
//! and integration tests (and downstream users who want a single dependency)
//! can reach every component through one crate:
//!
//! * [`mapspace`] — problems, mappings, map spaces, encoding, projection;
//! * [`accel`] — the Timeloop-style analytical cost model;
//! * [`nn`] — the MLP/backprop substrate;
//! * [`search`] — SA, GA, RL, and random-search baselines, plus the
//!   stepwise `ProposalSearch` protocol;
//! * [`core`] — the Mind Mappings framework (surrogate + gradient search);
//! * [`mapper`] — the parallel mapper-orchestration engine (evaluation
//!   pool, multi-threaded sharded search, termination policies);
//! * [`serve`] — the multi-tenant whole-network mapping service (request
//!   admission, fair-share scheduling over one shared eval pool, result
//!   cache, batched surrogate evaluation);
//! * [`workloads`] — CNN-Layer, MTTKRP, 1D-Conv, the Table 1 problems, and
//!   whole-network workloads.
//!
//! See the repository README for a quickstart and `EXPERIMENTS.md` for the
//! reproduction methodology.

pub use mm_accel as accel;
pub use mm_core as core;
pub use mm_mapper as mapper;
pub use mm_mapspace as mapspace;
pub use mm_nn as nn;
pub use mm_search as search;
pub use mm_serve as serve;
pub use mm_workloads as workloads;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use mm_accel::{
        Architecture, BatchCosts, CostBreakdown, CostModel, CostSummary, EvalScratch,
    };
    pub use mm_core::{
        CostModelObjective, GradientProposer, MindMappings, Phase1Config, Phase2Config, Surrogate,
    };
    pub use mm_mapper::{
        CostEvaluator, EvalPool, Evaluation, Mapper, MapperConfig, MapperReport, ModelEvaluator,
        OptMetric, TerminationPolicy,
    };
    pub use mm_mapspace::{
        Encoding, MapSpace, MapSpaceView, Mapping, MappingConstraints, ProblemSpec, ShardedMapSpace,
    };
    pub use mm_search::{
        drive, Budget, GeneticAlgorithm, Objective, ProposalSearch, RandomSearch, SearchTrace,
        SimulatedAnnealing, SyncAction, SyncPolicy,
    };
    pub use mm_serve::{
        AdmissionError, MappingService, NetworkReport, RequestConfig, RequestError, RequestHandle,
        ServiceConfig, ServiceProfile, SurrogateEvaluator,
    };
    pub use mm_workloads::{
        cnn::CnnLayer, evaluated_accelerator, mttkrp::MttkrpShape, table1, table1_network, Network,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let arch = Architecture::example();
        assert!(arch.num_pes > 0);
        assert_eq!(table1::all_problems().len(), 8);
        // The parallel-mapper surface is reachable through the prelude too.
        let policy = TerminationPolicy::search_size(100).with_victory_condition(10);
        assert!(policy.is_bounded());
        assert_eq!(OptMetric::parse("edp"), Some(OptMetric::Edp));
        assert_eq!(MapperConfig::default().threads, 1);
        // The serving surface is reachable through the prelude too.
        assert!(RequestConfig::default().use_cache);
        assert!(ServiceConfig::default().queue_depth >= 1);
        assert_eq!(table1_network().len(), 8);
    }
}
