//! # mm-core — the Mind Mappings framework
//!
//! This crate implements the paper's primary contribution (*Mind Mappings:
//! Enabling Efficient Algorithm-Accelerator Mapping Space Search*, ASPLOS
//! 2021, Section 4): a two-phase, gradient-based mapping space search.
//!
//! * **Phase 1** ([`dataset`], [`surrogate`]): build a training set of
//!   `(mapping, problem-id, cost)` tuples by uniformly sampling valid
//!   mappings across a *family* of problems and labelling them with the
//!   reference cost model (`mm-accel`), then train a differentiable MLP
//!   surrogate `f*(m, p_id)` that predicts a vector of cost meta-statistics.
//! * **Phase 2** ([`gradient_search`]): starting from a random valid mapping,
//!   iteratively follow the surrogate's gradient with respect to the mapping
//!   (projected gradient descent), periodically injecting random mappings
//!   with a simulated-annealing-style acceptance rule to escape local minima.
//!
//! The [`MindMappings`] facade (module [`api`]) exposes the framework exactly
//! as Appendix B describes: `get_mapping`, `is_member`, `get_projection`, and
//! `search`.
//!
//! ```no_run
//! use mm_core::{MindMappings, Phase1Config, Phase2Config};
//! use mm_workloads::{cnn::CnnFamily, cnn::CnnLayer, evaluated_accelerator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let (mm, _history) = MindMappings::train(
//!     evaluated_accelerator(),
//!     &CnnFamily::default(),
//!     &Phase1Config::quick(),
//!     &mut rng,
//! ).unwrap();
//! let problem = CnnLayer::resnet_conv4().into_problem();
//! let trace = mm.search(&problem, 1000, &mut rng);
//! println!("best EDP found: {:.3e} J·s", trace.best_cost);
//! ```

pub mod api;
pub mod config;
pub mod dataset;
pub mod gradient_proposer;
pub mod gradient_search;
pub mod objective;
pub mod surrogate;

pub use api::MindMappings;
pub use config::{Phase1Config, Phase2Config};
pub use dataset::{generate_training_set, SurrogateDataset};
pub use gradient_proposer::GradientProposer;
pub use gradient_search::GradientSearch;
pub use objective::CostModelObjective;
pub use surrogate::{GradientScratch, Surrogate};

/// Errors produced by the Mind Mappings framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MindMappingsError {
    /// The surrogate was asked about a problem whose shape (number of
    /// dimensions / tensors) does not match the family it was trained on.
    FamilyMismatch {
        /// Description of the mismatch.
        what: String,
    },
    /// Training-set generation or training failed (e.g. zero samples).
    Training {
        /// Description of the failure.
        what: String,
    },
}

impl std::fmt::Display for MindMappingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MindMappingsError::FamilyMismatch { what } => write!(f, "family mismatch: {what}"),
            MindMappingsError::Training { what } => write!(f, "training failed: {what}"),
        }
    }
}

impl std::error::Error for MindMappingsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(MindMappingsError::FamilyMismatch {
            what: "dims".into()
        }
        .to_string()
        .contains("dims"));
        assert!(MindMappingsError::Training { what: "0".into() }
            .to_string()
            .contains("0"));
    }
}
