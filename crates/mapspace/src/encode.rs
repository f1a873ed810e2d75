// mm-lint: identity — this file feeds canonical output; the determinism rule applies.
//! Flat-vector encoding of mappings (Section 4.1.2 / 5.5).
//!
//! The surrogate model consumes a fixed-length vector of floats per mapping:
//! a problem-id prefix (the dimension sizes) followed by the flattened
//! programmable attributes. For the CNN-Layer problems this yields 62 values
//! and for MTTKRP 40 values, exactly as reported in Section 5.5:
//!
//! | segment | CNN (7 dims, 3 tensors) | MTTKRP (4 dims, 4 tensors) |
//! |---|---|---|
//! | problem id | 7 | 4 |
//! | tile factors (3 levels × dims) | 21 | 12 |
//! | parallelism (dims) | 7 | 4 |
//! | loop order (3 levels × dims) | 21 | 12 |
//! | buffer allocation (2 levels × tensors) | 6 | 8 |
//! | **total** | **62** | **40** |

use serde::{Deserialize, Serialize};

use crate::mapping::{Level, Mapping, ONCHIP_LEVELS, ORDER_LEVELS};
use crate::problem::ProblemSpec;
use crate::MapSpaceError;

/// Describes the layout of the flat mapping vector for a problem family with
/// a fixed number of dimensions and tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Encoding {
    /// Number of problem dimensions.
    pub num_dims: usize,
    /// Number of tensors.
    pub num_tensors: usize,
}

impl Encoding {
    /// Encoding for the given problem.
    pub fn for_problem(problem: &ProblemSpec) -> Self {
        Encoding {
            num_dims: problem.num_dims(),
            num_tensors: problem.num_tensors(),
        }
    }

    /// Length of the problem-id prefix.
    #[inline]
    pub fn pid_len(&self) -> usize {
        self.num_dims
    }

    /// Length of the mapping portion (everything after the problem id).
    pub fn mapping_len(&self) -> usize {
        // tiles (3 levels) + parallelism + loop orders (3 levels) + alloc (2 levels)
        ORDER_LEVELS * self.num_dims
            + self.num_dims
            + ORDER_LEVELS * self.num_dims
            + ONCHIP_LEVELS * self.num_tensors
    }

    /// Total vector length (problem id + mapping).
    pub fn total_len(&self) -> usize {
        self.pid_len() + self.mapping_len()
    }

    /// Offset of the mapping portion within the full vector.
    #[inline]
    pub fn mapping_offset(&self) -> usize {
        self.pid_len()
    }

    /// Encode a mapping (together with its problem id) into a flat vector of
    /// length [`total_len`](Self::total_len).
    ///
    /// Tile values are encoded as the per-level *factors* of the paper: the
    /// L1 tile, the L2-over-spatial factor, and the DRAM-over-L2 factor.
    /// Loop orders are encoded as each dimension's position within the level's
    /// order; buffer allocations as fractions in `(0, 1]`.
    pub fn encode(&self, problem: &ProblemSpec, m: &Mapping) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.total_len());
        self.encode_into(problem, m, &mut v);
        v
    }

    /// In-place form of [`encode`](Self::encode): `v` is overwritten (its
    /// allocation reused).
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn encode_into(&self, problem: &ProblemSpec, m: &Mapping, v: &mut Vec<f32>) {
        v.clear();
        v.extend(problem.dim_sizes.iter().map(|&s| s as f32));
        self.push_mapping(problem, m, v);
    }

    /// Encode only the mapping portion (no problem-id prefix).
    pub fn encode_mapping(&self, problem: &ProblemSpec, m: &Mapping) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.mapping_len());
        self.push_mapping(problem, m, &mut v);
        v
    }

    /// Append the mapping portion to `v`.
    fn push_mapping(&self, problem: &ProblemSpec, m: &Mapping, v: &mut Vec<f32>) {
        // Tile factors for L1, L2, DRAM.
        for level in Level::ALL {
            for d in problem.dims() {
                v.push(m.trip_count(problem, level, d) as f32);
            }
        }
        // Parallelism.
        for d in problem.dims() {
            v.push(m.parallelism(d) as f32);
        }
        // Loop orders: position of each dimension within the level's order.
        for level in Level::ALL {
            let order = m.order(level);
            for d in 0..self.num_dims {
                let pos = order.iter().position(|&x| x == d).unwrap_or(d);
                v.push(pos as f32);
            }
        }
        // Buffer allocation fractions.
        for lv in 0..ONCHIP_LEVELS {
            for t in 0..self.num_tensors {
                v.push(m.buffer_alloc[lv][t] as f32);
            }
        }
    }

    /// Decode the mapping portion of a flat vector into `m` (reusing its
    /// allocations; every entry is overwritten), giving a possibly invalid
    /// mapping. Values are rounded/clamped to their attribute domains but
    /// capacity constraints are **not** enforced; follow with
    /// [`MapSpace::repair`](crate::space::MapSpace::repair), or call
    /// [`MapSpace::project_into`](crate::space::MapSpace::project_into), for
    /// a valid mapping.
    ///
    /// # Errors
    ///
    /// Returns [`MapSpaceError::BadVectorLength`], leaving `m` untouched, if
    /// `mapping_values` does not have exactly
    /// [`mapping_len`](Self::mapping_len) entries.
    // mm-lint: hot-path — one call per gradient-search step.
    pub fn decode_mapping_into(
        &self,
        problem: &ProblemSpec,
        mapping_values: &[f32],
        m: &mut Mapping,
    ) -> Result<(), MapSpaceError> {
        if mapping_values.len() != self.mapping_len() {
            return Err(MapSpaceError::BadVectorLength {
                expected: self.mapping_len(),
                actual: mapping_values.len(),
            });
        }
        let d = self.num_dims;
        m.reshape(d, self.num_tensors);
        // Segments: L1, L2 and DRAM tile factors (the last is implied by the
        // L2 tile), parallelism, loop-order keys, buffer fractions.
        let (factors, rest) = mapping_values.split_at(ORDER_LEVELS * d);
        let (par, rest) = rest.split_at(d);
        let (keys, fractions) = rest.split_at(ORDER_LEVELS * d);

        // Absolute tiles: t1 = f1, spatial = t1*par, t2 = spatial * f2
        // (clamped later by repair).
        let (l1, l2) = m.tiles.split_at_mut(1);
        for dim in 0..d {
            let size = problem.dim_sizes[dim];
            let t1 = round_positive(factors[dim]).clamp(1, size);
            let p = round_positive(par[dim]).clamp(1, size);
            let f2 = round_positive(factors[d + dim]);
            l1[0][dim] = t1;
            l2[0][dim] = (t1 * p).saturating_mul(f2).clamp(t1, size);
            m.parallel[dim] = p;
        }

        // Loop orders: stable argsort of the position values.
        for (lv, order) in m.loop_orders.iter_mut().enumerate() {
            let keys = &keys[lv * d..(lv + 1) * d];
            order.clear();
            order.extend(0..d);
            order.sort_by(|&a, &b| {
                keys[a]
                    .partial_cmp(&keys[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }

        // Buffer allocation fractions.
        let rows = m.buffer_alloc.iter_mut().flat_map(|row| row.iter_mut());
        for (slot, &f) in rows.zip(fractions) {
            let f = f as f64;
            *slot = if f.is_finite() {
                f.clamp(1e-3, 1.0)
            } else {
                1e-3
            };
        }
        Ok(())
    }
}

fn round_positive(f: f32) -> u64 {
    if !f.is_finite() || f < 1.0 {
        1
    } else {
        f.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{MapSpace, MappingConstraints};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> MapSpace {
        MapSpace::new(ProblemSpec::conv1d(128, 7), MappingConstraints::example())
    }

    #[test]
    fn encoding_lengths_match_paper_for_cnn_and_mttkrp_shapes() {
        // CNN-Layer: 7 dims, 3 tensors -> 62 values.
        let cnn = Encoding {
            num_dims: 7,
            num_tensors: 3,
        };
        assert_eq!(cnn.total_len(), 62);
        // MTTKRP: 4 dims, 4 tensors -> 40 values.
        let mttkrp = Encoding {
            num_dims: 4,
            num_tensors: 4,
        };
        assert_eq!(mttkrp.total_len(), 40);
    }

    #[test]
    fn encode_has_declared_length() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let mut rng = StdRng::seed_from_u64(2);
        let m = s.random_mapping(&mut rng);
        let v = enc.encode(s.problem(), &m);
        assert_eq!(v.len(), enc.total_len());
        let vm = enc.encode_mapping(s.problem(), &m);
        assert_eq!(vm.len(), enc.mapping_len());
        assert_eq!(&v[enc.mapping_offset()..], &vm[..]);
    }

    #[test]
    fn encode_decode_roundtrip_preserves_structure() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let m = s.random_mapping(&mut rng);
            let v = enc.encode_mapping(s.problem(), &m);
            let mut m2 = Mapping::default();
            enc.decode_mapping_into(s.problem(), &v, &mut m2).unwrap();
            // Loop orders and parallelism round-trip exactly.
            assert_eq!(m.loop_orders, m2.loop_orders);
            assert_eq!(m.parallel, m2.parallel);
            assert_eq!(m.tiles[0], m2.tiles[0]);
            // Buffer allocations round-trip within f32 precision.
            for lv in 0..2 {
                for t in 0..3 {
                    assert!((m.buffer_alloc[lv][t] - m2.buffer_alloc[lv][t]).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let mut m = Mapping::minimal(s.problem());
        let err = enc
            .decode_mapping_into(s.problem(), &[0.0; 3], &mut m)
            .unwrap_err();
        assert_eq!(
            err,
            MapSpaceError::BadVectorLength {
                expected: enc.mapping_len(),
                actual: 3
            }
        );
        assert_eq!(m, Mapping::minimal(s.problem()), "left untouched");
    }

    #[test]
    fn decode_clamps_garbage_values() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let v = vec![f32::NAN; enc.mapping_len()];
        let mut m = Mapping::default();
        enc.decode_mapping_into(s.problem(), &v, &mut m).unwrap();
        // Everything collapses to the minimal valid-ish structure.
        assert!(m.tiles[0].iter().all(|&t| t >= 1));
        assert!(m.buffer_alloc[0].iter().all(|&f| f > 0.0));
    }

    #[test]
    fn problem_id_prefix_matches_problem() {
        let s = space();
        let enc = Encoding::for_problem(s.problem());
        let m = Mapping::minimal(s.problem());
        let v = enc.encode(s.problem(), &m);
        assert_eq!(v[0], 122.0); // X = 128 - 7 + 1
        assert_eq!(v[1], 7.0); // R
    }
}
