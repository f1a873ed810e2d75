//! Projection of arbitrary real vectors onto the valid map space
//! (`getProjection`, Appendix B).
//!
//! Projected Gradient Descent (Section 4.2) repeatedly nudges a continuous
//! mapping vector along the surrogate's gradient; after each step the vector
//! generally no longer corresponds to a valid mapping (tile sizes are
//! fractional, the parallelism product exceeds the PE count, tensor tiles no
//! longer fit in their buffer allocation, …). [`MapSpace::project_into`] rounds
//! every value to its attribute domain and then applies the deterministic
//! capacity repair, yielding the nearest valid mapping in the same sense used
//! by the reference implementation.

use crate::encode::Encoding;
use crate::mapping::Mapping;
use crate::space::MapSpace;
use crate::MapSpaceError;

impl MapSpace {
    /// Project the *mapping portion* of a flat vector (see
    /// [`Encoding::mapping_len`]) onto the valid map space, writing the valid
    /// mapping into `out` (reusing its allocations).
    ///
    /// This is `getProjection` from the Mind Mappings API: decode with
    /// rounding/clamping, then repair tile ordering, the PE budget, and buffer
    /// capacity violations.
    ///
    /// # Errors
    ///
    /// Returns [`MapSpaceError::BadVectorLength`], leaving `out` untouched,
    /// if the vector length does not match the encoding for this problem.
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn project_into(&self, values: &[f32], out: &mut Mapping) -> Result<(), MapSpaceError> {
        let problem = self.problem();
        Encoding::for_problem(problem).decode_mapping_into(problem, values, out)?;
        self.repair(out);
        debug_assert!(self.is_member(out), "{:?}", self.validate(out));
        Ok(())
    }

    /// Allocating form of [`project_into`](Self::project_into), behind
    /// `MindMappings::get_projection`.
    ///
    /// # Errors
    ///
    /// As [`project_into`](Self::project_into).
    pub fn project(&self, values: &[f32]) -> Result<Mapping, MapSpaceError> {
        let mut m = Mapping::default();
        self.project_into(values, &mut m)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemSpec;
    use crate::space::MappingConstraints;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn space() -> MapSpace {
        MapSpace::new(ProblemSpec::conv1d(256, 9), MappingConstraints::example())
    }

    #[test]
    fn projection_of_random_noise_is_valid() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let v: Vec<f32> = (0..enc.mapping_len())
                .map(|_| rng.gen_range(-50.0..500.0))
                .collect();
            let m = s.project(&v).unwrap();
            assert!(s.is_member(&m), "{:?}", s.validate(&m));
        }
    }

    #[test]
    fn projection_is_idempotent_on_valid_mappings() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let m = s.random_mapping(&mut rng);
            let v = enc.encode_mapping(s.problem(), &m);
            let m2 = s.project(&v).unwrap();
            // A valid mapping re-projected must stay valid and keep its
            // discrete structure (tiles / parallelism / orders).
            assert!(s.is_member(&m2));
            assert_eq!(m.tiles[0], m2.tiles[0]);
            assert_eq!(m.parallel, m2.parallel);
            assert_eq!(m.loop_orders, m2.loop_orders);
        }
    }

    #[test]
    fn projection_rejects_wrong_length() {
        let s = space();
        assert!(s.project(&[1.0, 2.0]).is_err());
    }
}
