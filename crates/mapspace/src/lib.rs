//! # mm-mapspace
//!
//! Mapping and map-space abstractions for programmable hardware accelerators,
//! following the formulation of *Mind Mappings: Enabling Efficient
//! Algorithm-Accelerator Mapping Space Search* (ASPLOS 2021), Sections 2–3.
//!
//! A **problem** is a parameterized instance of an algorithm (e.g. one CNN
//! layer shape), described by a [`ProblemSpec`]: a set of named dimensions and
//! the tensors that project onto them. A **mapping** ([`Mapping`]) assigns the
//! accelerator's programmable attributes — per-level tile sizes, spatial
//! parallelism, loop orders, and buffer allocations — for that problem. The
//! [`MapSpace`] ties a problem to the accelerator's [`MappingConstraints`] and
//! provides the three routines required by the Mind Mappings API (Appendix B):
//!
//! * `random_mapping` (`getMapping`) — a uniformly sampled *valid* mapping,
//! * `is_member` (`isMember`) — validity check,
//! * [`project_into`](MapSpace::project_into) (`getProjection`) —
//!   nearest-valid projection of an arbitrary real vector, used by projected
//!   gradient descent.
//!
//! Mappings can be flattened to a fixed-length `f32` vector via [`Encoding`],
//! matching the input representation of Section 5.5 (62 values for CNN-Layer,
//! 40 for MTTKRP).
//!
//! Searchers consume the space through the object-safe [`MapSpaceView`]
//! trait — implemented by the full [`MapSpace`] and by [`ShardedMapSpace`]
//! ([`MapSpace::shard`]), a pairwise-disjoint, jointly-covering slice of the
//! space for provably non-overlapping parallel search (see [`view`]).
//!
//! ```
//! use mm_mapspace::problem::ProblemSpec;
//! use mm_mapspace::space::{MapSpace, MappingConstraints};
//!
//! // A toy 1D-convolution problem: O[x] += I[x + r] * F[r]
//! let problem = ProblemSpec::conv1d(64, 5);
//! let constraints = MappingConstraints::example();
//! let space = MapSpace::new(problem, constraints);
//! let mut rng = rand::thread_rng();
//! let mapping = space.random_mapping(&mut rng);
//! assert!(space.is_member(&mapping));
//! ```

pub mod encode;
pub mod mapping;
pub mod problem;
pub mod project;
pub mod space;
pub mod view;

pub use encode::Encoding;
pub use mapping::Mapping;
pub use problem::{DimId, ProblemFamily, ProblemSpec, TensorDim, TensorKind, TensorSpec};
pub use space::{MapSpace, MappingConstraints};
pub use view::{MapSpaceView, ShardAxis, ShardAxisKind, ShardedMapSpace};

/// Errors produced when constructing or validating mappings and problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSpaceError {
    /// A dimension size, tile size, or parallelism factor was zero.
    ZeroExtent {
        /// Human-readable description of the offending attribute.
        what: String,
    },
    /// The mapping's shape (number of levels/dims/tensors) does not match the
    /// problem or constraints it is being validated against.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        what: String,
    },
    /// A vector passed for decoding had the wrong length.
    BadVectorLength {
        /// Expected number of values.
        expected: usize,
        /// Number of values actually supplied.
        actual: usize,
    },
}

impl std::fmt::Display for MapSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapSpaceError::ZeroExtent { what } => write!(f, "zero extent in {what}"),
            MapSpaceError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            MapSpaceError::BadVectorLength { expected, actual } => {
                write!(f, "bad vector length: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for MapSpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = MapSpaceError::ZeroExtent {
            what: "tile".into(),
        };
        assert!(!e.to_string().is_empty());
        let e = MapSpaceError::BadVectorLength {
            expected: 62,
            actual: 40,
        };
        assert!(e.to_string().contains("62"));
    }

    #[test]
    fn shape_mismatch_display() {
        let e = MapSpaceError::ShapeMismatch {
            what: "dims".into(),
        };
        assert!(e.to_string().contains("dims"));
    }
}
