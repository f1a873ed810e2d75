//! Reinforcement-learning baseline: a deep-deterministic-policy-gradient
//! (DDPG) actor–critic agent, following the HAQ-derived setup described in
//! Appendix A.
//!
//! The mapping problem is modelled as an MDP whose states are encoded
//! mappings. The actor proposes a continuous perturbation of the current
//! (normalized) mapping vector; the environment projects the perturbed vector
//! back onto the valid map space, evaluates its cost, and returns
//! `-log10(cost)` as the reward. The critic learns `Q(s, a)` and the actor is
//! updated along `∂Q/∂a`, exactly as in DDPG (actor and critic are
//! fully-connected networks, with soft-updated target copies).
//!
//! The agent is a stepwise state machine implementing [`ProposalSearch`]:
//! [`propose`](ProposalSearch::propose) runs the actor (plus exploration
//! noise) and emits the projected next mapping; the matching
//! [`report`](ProposalSearch::report) turns the evaluated cost into the
//! reward, stores the transition, and performs one learning step. Each
//! proposal depends on the previous transition, so
//! [`ProposalSearch::lookahead`] is 1.
//!
//! Under a [`SyncPolicy`](crate::SyncPolicy), [`SyncAction::Adopt`]
//! re-anchors the current episode state on the shared incumbent.

use mm_mapspace::{Encoding, MapSpaceView, Mapping, ProblemSpec};
use mm_nn::mlp::MlpGrad;
use mm_nn::optim::{Adam, Optimizer};
use mm_nn::{Activation, BackwardScratch, ForwardCache, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::proposal::{ProposalBuf, ProposalSearch};
use crate::sync::SyncAction;

/// DDPG hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Hidden width of the actor and critic networks (the paper uses 300).
    pub hidden: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Soft target-update rate.
    pub tau: f32,
    /// Learning rate for the actor.
    pub actor_lr: f32,
    /// Learning rate for the critic.
    pub critic_lr: f32,
    /// Replay-buffer capacity.
    pub replay_capacity: usize,
    /// Mini-batch size for updates.
    pub batch_size: usize,
    /// Number of environment steps before learning starts.
    pub warmup: usize,
    /// Episode length (steps before resetting to a fresh random mapping).
    pub episode_len: usize,
    /// Scale of the actor's action in normalized state units.
    pub action_scale: f32,
    /// Initial standard deviation of the exploration noise.
    pub exploration_noise: f32,
    /// Multiplicative decay of the exploration noise per episode.
    pub noise_decay: f32,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            hidden: 64,
            gamma: 0.95,
            tau: 0.01,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            replay_capacity: 4096,
            batch_size: 32,
            warmup: 64,
            episode_len: 32,
            action_scale: 0.25,
            exploration_noise: 0.4,
            noise_decay: 0.97,
        }
    }
}

/// One replay-buffer transition.
#[derive(Debug, Clone)]
struct Transition {
    state: Vec<f32>,
    action: Vec<f32>,
    reward: f32,
    next_state: Vec<f32>,
}

/// The live state of one DDPG run (networks, replay buffer, episode).
#[derive(Debug, Clone)]
struct DdpgState {
    problem: ProblemSpec,
    enc: Encoding,
    scales: Vec<f32>,
    dim: usize,
    actor: Mlp,
    critic: Mlp,
    actor_target: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    replay: Vec<Transition>,
    replay_next: usize,
    noise: f32,
    /// Normalized encoding of the current episode state.
    state_vec: Vec<f32>,
    /// The (state, action) pair of the proposal in flight (lookahead is 1).
    pending: Option<(Vec<f32>, Vec<f32>)>,
    steps_in_episode: usize,
    /// Start the next proposal from a fresh random mapping (episode reset,
    /// deferred to the next `propose` call where the map space is at hand).
    reset_pending: bool,
}

/// DDPG-style actor–critic searcher.
#[derive(Debug, Clone)]
pub struct DdpgAgent {
    config: DdpgConfig,
    state: Option<DdpgState>,
}

impl DdpgAgent {
    /// Create a DDPG agent.
    pub fn new(config: DdpgConfig) -> Self {
        DdpgAgent {
            config,
            state: None,
        }
    }
}

impl Default for DdpgAgent {
    fn default() -> Self {
        Self::new(DdpgConfig::default())
    }
}

/// Per-feature scales mapping raw encoded mapping values into roughly unit
/// range (and back).
fn feature_scales(space: &dyn MapSpaceView, enc: &Encoding) -> Vec<f32> {
    let p = space.problem();
    let d = enc.num_dims;
    let t = enc.num_tensors;
    let mut scales = Vec::with_capacity(enc.mapping_len());
    // Tile factors for 3 levels.
    for _level in 0..3 {
        for dim in 0..d {
            scales.push(p.dim_sizes[dim] as f32);
        }
    }
    // Parallelism.
    for dim in 0..d {
        scales.push((p.dim_sizes[dim].min(space.constraints().num_pes)) as f32);
    }
    // Loop-order positions.
    for _level in 0..3 {
        for _dim in 0..d {
            scales.push(d.max(1) as f32);
        }
    }
    // Buffer allocation fractions are already in [0, 1].
    scales.extend(std::iter::repeat_n(1.0, 2 * t));
    scales.iter().map(|&s| s.max(1.0)).collect()
}

fn normalize(raw: &[f32], scales: &[f32]) -> Vec<f32> {
    raw.iter().zip(scales).map(|(&v, &s)| v / s).collect()
}

fn denormalize(state: &[f32], scales: &[f32]) -> Vec<f32> {
    state.iter().zip(scales).map(|(&v, &s)| v * s).collect()
}

/// Soft update: `target ← tau · source + (1 − tau) · target`.
fn soft_update(target: &mut Mlp, source: &Mlp, tau: f32) {
    for (tl, sl) in target.layers_mut().iter_mut().zip(source.layers()) {
        tl.update(|weight, bias| {
            let sources = sl.weight().as_slice().iter().chain(sl.bias());
            for (t, s) in weight.iter_mut().chain(bias).zip(sources) {
                *t = tau * s + (1.0 - tau) * *t;
            }
        });
    }
}

/// The matrix whose row `i` is `left(i)` followed by `right(i)`.
fn concat_rows<'a>(
    rows: usize,
    left: impl Fn(usize) -> &'a [f32],
    right: impl Fn(usize) -> &'a [f32],
) -> Matrix {
    let mut data = Vec::new();
    for i in 0..rows {
        data.extend_from_slice(left(i));
        data.extend_from_slice(right(i));
    }
    Matrix::from_vec(rows, data.len() / rows.max(1), data)
}

impl DdpgState {
    /// The normalized encoding of `mapping`.
    fn encode(&self, mapping: &Mapping) -> Vec<f32> {
        normalize(
            &self.enc.encode_mapping(&self.problem, mapping),
            &self.scales,
        )
    }

    /// One DDPG learning step over a sampled replay mini-batch (critic TD
    /// update, actor ascent along `∂Q/∂a`, soft target updates).
    fn learn(&mut self, cfg: &DdpgConfig, rng: &mut StdRng) {
        if self.replay.len() < cfg.warmup.max(cfg.batch_size) {
            return;
        }
        let dim = self.dim;
        let batch: Vec<&Transition> = (0..cfg.batch_size)
            .map(|_| &self.replay[rng.gen_range(0..self.replay.len())])
            .collect();
        let n = batch.len();
        let mut cache = ForwardCache::default();
        let mut scratch = BackwardScratch::default();
        let mut grads = MlpGrad::default();

        // Critic update: y = r + gamma * Q'(s', a'(s')).
        let next_states = concat_rows(n, |i| &batch[i].next_state, |_| &[]);
        self.actor_target
            .forward_into(n, next_states.as_slice(), &mut cache);
        let next_sa = concat_rows(n, |i| &batch[i].next_state, |i| cache.output().row(i));
        let mut target_cache = ForwardCache::default();
        self.critic_target
            .forward_into(n, next_sa.as_slice(), &mut target_cache);
        let q_next = target_cache.output();
        let sa = concat_rows(n, |i| &batch[i].state, |i| &batch[i].action);
        self.critic.forward_into(n, sa.as_slice(), &mut cache);
        // MSE gradient.
        let loss_grad: Vec<f32> = (batch.iter().zip(cache.output().as_slice()).enumerate())
            .map(|(i, (t, q))| {
                let target = t.reward + cfg.gamma * q_next.get(i, 0);
                2.0 * (q - target) / n as f32
            })
            .collect();
        self.critic
            .backward_into(&cache, &loss_grad, &mut scratch, &mut grads);
        self.critic_opt.step(&mut self.critic, &grads);

        // Actor update: ascend ∂Q(s, π(s))/∂θ_π.
        let states = concat_rows(n, |i| &batch[i].state, |_| &[]);
        let mut actor_cache = ForwardCache::default();
        self.actor
            .forward_into(n, states.as_slice(), &mut actor_cache);
        let sa_pi = concat_rows(n, |i| &batch[i].state, |i| actor_cache.output().row(i));
        self.critic.forward_into(n, sa_pi.as_slice(), &mut cache);
        // dQ/d[s;a], we want -dQ/da (gradient ascent on Q). Only the input
        // gradient is needed: the critic's parameters are not updated here.
        let ones = vec![-1.0 / n as f32; n];
        let grad_sa = self.critic.backward_input(&cache, &ones, &mut scratch);
        let grad_action = concat_rows(n, |i| &grad_sa.row(i)[dim..], |_| &[]);
        self.actor.backward_into(
            &actor_cache,
            grad_action.as_slice(),
            &mut scratch,
            &mut grads,
        );
        self.actor_opt.step(&mut self.actor, &grads);

        // Soft-update the targets.
        soft_update(&mut self.actor_target, &self.actor, cfg.tau);
        soft_update(&mut self.critic_target, &self.critic, cfg.tau);
    }
}

impl ProposalSearch for DdpgAgent {
    fn name(&self) -> &str {
        "RL"
    }

    fn begin(&mut self, space: &dyn MapSpaceView, _horizon: Option<u64>, rng: &mut StdRng) {
        let cfg = self.config;
        let problem = space.problem().clone();
        let enc = Encoding::for_problem(&problem);
        let dim = enc.mapping_len();
        let scales = feature_scales(space, &enc);

        let actor = Mlp::with_activations(
            &[dim, cfg.hidden, cfg.hidden, dim],
            Activation::Relu,
            Activation::Tanh,
            rng,
        );
        let critic = Mlp::new(&[2 * dim, cfg.hidden, cfg.hidden, 1], rng);
        let actor_target = actor.clone();
        let critic_target = critic.clone();

        let current = space.random_mapping(rng);
        let raw = enc.encode_mapping(&problem, &current);
        let state_vec = normalize(&raw, &scales);
        self.state = Some(DdpgState {
            problem,
            enc,
            scales,
            dim,
            actor,
            critic,
            actor_target,
            critic_target,
            actor_opt: Adam::new(cfg.actor_lr),
            critic_opt: Adam::new(cfg.critic_lr),
            replay: Vec::with_capacity(cfg.replay_capacity),
            replay_next: 0,
            noise: cfg.exploration_noise,
            state_vec,
            pending: None,
            steps_in_episode: 0,
            reset_pending: false,
        });
    }

    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        _max: usize,
        out: &mut ProposalBuf,
    ) {
        let cfg = self.config;
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let state = self.state.as_mut().expect("begin() not called");
        if state.pending.is_some() {
            return;
        }
        if state.reset_pending {
            state.reset_pending = false;
            let fresh = space.random_mapping(rng);
            state.state_vec = state.encode(&fresh);
        }

        // Actor proposes a perturbation; add exploration noise.
        let mut action = state.actor.predict(&state.state_vec);
        for a in &mut action {
            *a = (*a + rng.gen_range(-1.0f32..1.0) * state.noise).clamp(-1.0, 1.0);
        }
        // Environment step: apply the action in normalized space and
        // project back to a valid mapping.
        let mut next_raw: Vec<f32> = state
            .state_vec
            .iter()
            .zip(&action)
            .map(|(&s, &a)| s + a * cfg.action_scale)
            .collect();
        next_raw = denormalize(&next_raw, &state.scales);
        let slot = out.next_slot();
        if space.project_into(&next_raw, slot).is_err() {
            space.random_mapping_into(slot, rng);
        }
        state.pending = Some((state.state_vec.clone(), action));
        static PROPOSED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
            std::sync::OnceLock::new();
        crate::tele_counter(&PROPOSED, "search.ddpg.proposed").bump(1);
    }

    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
        let cfg = self.config;
        // mm-lint: allow(panic): calling the strategy outside a begin()
        // session is a driver bug, not a recoverable state.
        let state = self.state.as_mut().expect("begin() not called");
        let Some((prev_state, action)) = state.pending.take() else {
            return;
        };
        let reward = -(cost.max(1e-300)).log10() as f32;
        let next_state = state.encode(mapping);

        // Store the transition.
        let transition = Transition {
            state: prev_state,
            action,
            reward,
            next_state: next_state.clone(),
        };
        if state.replay.len() < cfg.replay_capacity {
            state.replay.push(transition);
        } else {
            let slot = state.replay_next % cfg.replay_capacity;
            state.replay[slot] = transition;
            state.replay_next += 1;
        }

        state.learn(&cfg, rng);

        // Advance the episode.
        state.state_vec = next_state;
        state.steps_in_episode += 1;
        if state.steps_in_episode >= cfg.episode_len {
            state.steps_in_episode = 0;
            state.noise *= cfg.noise_decay;
            state.reset_pending = true;
        }
    }

    /// [`SyncAction::Adopt`] re-anchors the current episode on the shared
    /// incumbent (the next actor step starts from it).
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        mapping: &Mapping,
        _cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        state.state_vec = state.encode(mapping);
        state.reset_pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Budget, FnObjective};
    use crate::proposal::drive;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::{MapSpace, Mapping, ProblemSpec};
    use rand::SeedableRng;

    fn setup() -> (MapSpace, CostModel) {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        (space, CostModel::new(arch, problem))
    }

    #[test]
    fn feature_scales_cover_encoding() {
        let (space, _) = setup();
        let enc = Encoding::for_problem(space.problem());
        let scales = feature_scales(&space, &enc);
        assert_eq!(scales.len(), enc.mapping_len());
        assert!(scales.iter().all(|&s| s >= 1.0));
    }

    #[test]
    fn normalization_roundtrip() {
        let raw = vec![10.0, 4.0, 0.5];
        let scales = vec![10.0, 2.0, 1.0];
        let n = normalize(&raw, &scales);
        assert_eq!(n, vec![1.0, 2.0, 0.5]);
        assert_eq!(denormalize(&n, &scales), raw);
    }

    #[test]
    fn soft_update_blends_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Mlp::new(&[2, 3, 1], &mut rng);
        let b = Mlp::new(&[2, 3, 1], &mut rng);
        let mut target = b.clone();
        soft_update(&mut target, &a, 1.0);
        // tau = 1 copies the source exactly.
        assert_eq!(target.layers()[0].weight(), a.layers()[0].weight());
        let mut target = b.clone();
        soft_update(&mut target, &a, 0.0);
        assert_eq!(target.layers()[0].weight(), b.layers()[0].weight());
    }

    #[test]
    fn soft_update_is_seen_by_the_next_forward() {
        // The forward pass reads its own layout of the weights; a blend must
        // reach it. The reference reads the `[out, in]` weights as they are
        // after the update, one dot product at a time.
        let mut rng = StdRng::seed_from_u64(1);
        let source = Mlp::new(&[3, 9, 2], &mut rng);
        let mut target = Mlp::new(&[3, 9, 2], &mut rng);
        soft_update(&mut target, &source, 0.25);
        assert_ne!(target, source);

        let x = [0.5f32, -1.25, 2.0];
        let mut expected = x.to_vec();
        for (i, layer) in target.layers().iter().enumerate() {
            expected = (layer.weight().as_slice().chunks(layer.in_features()))
                .zip(layer.bias())
                .map(|(row, b)| {
                    let dot = row
                        .iter()
                        .zip(&expected)
                        .fold(0.0f32, |acc, (w, v)| acc + v * w);
                    let pre = dot + b;
                    // ReLU between the layers, identity after the last.
                    if i == 0 && pre < 0.0 {
                        0.0
                    } else {
                        pre
                    }
                })
                .collect();
        }
        assert_eq!(target.predict(&x), expected);
    }

    #[test]
    fn agent_respects_budget_and_returns_valid_best() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut agent = DdpgAgent::new(DdpgConfig {
            warmup: 8,
            batch_size: 4,
            ..DdpgConfig::default()
        });
        let trace = drive(
            &mut agent,
            &space,
            &mut obj,
            Budget::iterations(60),
            &mut rng,
        );
        assert_eq!(trace.len(), 60);
        assert!(space.is_member(trace.best_mapping.as_ref().unwrap()));
        assert!(trace.best_cost.is_finite());
        // The trace of this seed, to the bit, as recorded before the actor
        // update moved to the critic's input-only backward pass (52 of the
        // 60 steps learn): every cost folded in visiting order, and the best.
        let folded = trace
            .points
            .iter()
            .fold(0u64, |h, p| h.rotate_left(5) ^ p.cost.to_bits());
        assert_eq!(folded, 0x5951_e7a9_0dc4_e5d5);
        assert_eq!(trace.best_cost.to_bits(), 0x3d46_920e_1bde_d75a);
    }

    #[test]
    fn proposes_one_at_a_time_until_reported() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut agent = DdpgAgent::default();
        agent.begin(&space, Some(100), &mut rng);
        let mut buf = ProposalBuf::new();
        agent.propose(&space, &mut rng, 16, &mut buf);
        assert_eq!(buf.len(), 1, "DDPG is strictly sequential");
        let pending = buf[0].clone();
        assert!(space.is_member(&pending));
        buf.clear();
        agent.propose(&space, &mut rng, 16, &mut buf);
        assert!(buf.is_empty(), "no new proposal while one is in flight");
        agent.report(&pending, 1.0, &mut rng);
        agent.propose(&space, &mut rng, 16, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn adopt_reanchors_the_episode_and_keeps_the_noise_schedule() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut agent = DdpgAgent::new(DdpgConfig {
            episode_len: 4,
            warmup: 1000, // skip learning: this test drives episodes only
            ..DdpgConfig::default()
        });
        agent.begin(&space, Some(100), &mut rng);
        let mut buf = ProposalBuf::new();
        for _ in 0..9 {
            buf.clear();
            agent.propose(&space, &mut rng, 1, &mut buf);
            let cost = model.edp(&buf[0]);
            agent.report(&buf[0].clone(), cost, &mut rng);
        }
        let decayed = agent.state.as_ref().unwrap().noise;
        assert!(
            decayed < DdpgConfig::default().exploration_noise,
            "noise must decay over episodes"
        );

        let incumbent = space.random_mapping(&mut rng);
        agent.observe_global_best(&space, &incumbent, 1e-6, SyncAction::Adopt, &mut rng);
        let state = agent.state.as_ref().unwrap();
        assert_eq!(
            state.state_vec,
            state.encode(&incumbent),
            "episode re-anchored at the incumbent"
        );
        assert_eq!(state.noise, decayed, "adopt keeps the decayed schedule");
    }
}
