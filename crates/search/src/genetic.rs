//! Genetic Algorithm baseline (Appendix A): DEAP-style evolutionary search
//! with an initial population of 100, crossover probability 0.75, and
//! per-individual mutation probability 0.05, tournament selection by fitness
//! (EDP).
//!
//! The GA is a stepwise state machine implementing [`ProposalSearch`]:
//! children of one generation depend only on the *previous* generation, so a
//! whole generation of proposals can be in flight at once
//! ([`ProposalSearch::lookahead`] = population size) — the natural batch for
//! an evaluation pool.
//!
//! Under a [`SyncPolicy`](crate::SyncPolicy), [`SyncAction::Adopt`] injects
//! the shared incumbent into the population (replacing the current worst
//! individual when the incumbent beats it).

use mm_mapspace::{MapSpaceView, Mapping};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::proposal::{ProposalBuf, ProposalSearch};
use crate::sync::SyncAction;

/// Genetic Algorithm hyper-parameters (paper defaults from Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Probability that a selected pair is recombined.
    pub crossover_probability: f64,
    /// Probability that each attribute of an individual is randomly mutated.
    pub mutation_probability: f64,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// Number of elite individuals carried over unchanged each generation.
    pub elitism: usize,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            population: 100,
            crossover_probability: 0.75,
            mutation_probability: 0.05,
            tournament_size: 3,
            elitism: 2,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Individual {
    mapping: Mapping,
    fitness: f64,
    /// Position in the population when its sort began; see
    /// [`GaState::sort_population`].
    rank: usize,
}

impl Individual {
    /// Overwrite in place, into the mapping storage already held.
    fn set(&mut self, mapping: &Mapping, fitness: f64) {
        self.mapping.clone_from(mapping);
        self.fitness = fitness;
    }
}

#[derive(Debug, Clone, Default)]
struct GaState {
    /// The completed previous generation (sorted lazily at evolution time).
    population: Vec<Individual>,
    /// Reported members of the generation currently being built (starts with
    /// the elites, which carry their fitness without re-evaluation).
    incoming: Vec<Individual>,
    /// Proposals in flight (proposed, not yet reported).
    outstanding: usize,
    /// The generation before `population`, retired: its individuals are the
    /// storage `incoming` is built in, so a generation in steady state
    /// allocates nothing.
    spare: Vec<Individual>,
}

impl GaState {
    /// Sort the population by fitness, equals in the order they stand: what
    /// a stable sort gives, without the buffer one allocates at this size.
    fn sort_population(&mut self) {
        for (rank, individual) in self.population.iter_mut().enumerate() {
            individual.rank = rank;
        }
        self.population
            .sort_unstable_by(|a, b| a.fitness.total_cmp(&b.fitness).then(a.rank.cmp(&b.rank)));
    }

    /// Append an individual to the generation being built, in storage taken
    /// from the retired one.
    fn admit(&mut self, mapping: &Mapping, fitness: f64) {
        let mut individual = self.spare.pop().unwrap_or_default();
        individual.set(mapping, fitness);
        self.incoming.push(individual);
    }
}

/// Genetic Algorithm searcher.
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    config: GeneticConfig,
    state: GaState,
    /// Horizon-derived population cap installed at `begin` (`None`:
    /// unbounded): a population larger than half the evaluation horizon
    /// could never complete two generations, so tiny (e.g. per-shard)
    /// budgets shrink the effective population instead of spending the
    /// whole budget inside one unevolved generation. Like SA's cooling
    /// schedule, this reads whatever horizon the driver supplies —
    /// unconditionally, per the `begin` contract ("schedule-based methods
    /// size their schedules with it").
    horizon_population: Option<usize>,
}

impl GeneticAlgorithm {
    /// Create a GA searcher.
    pub fn new(config: GeneticConfig) -> Self {
        GeneticAlgorithm {
            config,
            state: GaState::default(),
            horizon_population: None,
        }
    }

    fn popsize(&self) -> usize {
        self.config
            .population
            .min(self.horizon_population.unwrap_or(usize::MAX))
            .max(2)
    }

    /// Elites per generation, always leaving room for at least one child so
    /// every generation proposes something.
    fn elites(&self) -> usize {
        self.config.elitism.min(self.popsize() - 1)
    }

    fn tournament(&self, rng: &mut StdRng) -> usize {
        let pop = &self.state.population;
        let mut best = rng.gen_range(0..pop.len());
        for _ in 1..self.config.tournament_size.max(1) {
            let other = rng.gen_range(0..pop.len());
            if pop[other].fitness < pop[best].fitness {
                best = other;
            }
        }
        best
    }

    /// Breed one child from the current population into `out` (reusing its
    /// allocations).
    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn breed_into(&mut self, space: &dyn MapSpaceView, rng: &mut StdRng, out: &mut Mapping) {
        let pa = self.tournament(rng);
        let pb = self.tournament(rng);
        let pop = &self.state.population;
        if rng.gen_bool(self.config.crossover_probability) {
            space.crossover_into(&pop[pa].mapping, &pop[pb].mapping, out, rng);
        } else {
            out.clone_from(&pop[pa].mapping);
        }
        // Per-attribute mutation: apply the map space's mutation kernel with
        // the configured probability, several times to approximate "each
        // attribute mutates independently".
        let attributes = space.problem().num_dims() * 3 + space.problem().num_tensors();
        for _ in 0..attributes {
            if rng.gen_bool(self.config.mutation_probability) {
                space.mutate_in_place(out, rng);
            }
        }
        space.repair(out);
    }
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        Self::new(GeneticConfig::default())
    }
}

impl ProposalSearch for GeneticAlgorithm {
    fn name(&self) -> &str {
        "GA"
    }

    fn begin(&mut self, _space: &dyn MapSpaceView, horizon: Option<u64>, _rng: &mut StdRng) {
        self.state = GaState::default();
        self.horizon_population =
            horizon.map(|h| usize::try_from((h / 2).max(2)).unwrap_or(usize::MAX));
    }

    fn lookahead(&self) -> usize {
        self.popsize()
    }

    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut ProposalBuf,
    ) {
        let popsize = self.popsize();
        // Starting a fresh (non-initial) generation: sort the completed one
        // and seed the next with elites (no re-evaluation, hence no
        // proposals for them).
        if !self.state.population.is_empty()
            && self.state.incoming.is_empty()
            && self.state.outstanding == 0
        {
            self.state.sort_population();
            let elites = self.elites();
            // Out and back in: `admit` borrows the whole state.
            let population = std::mem::take(&mut self.state.population);
            for elite in &population[..elites] {
                self.state.admit(&elite.mapping, elite.fitness);
            }
            self.state.population = population;
        }
        for _ in 0..max {
            if self.state.incoming.len() + self.state.outstanding >= popsize {
                break; // generation fully proposed; wait for reports
            }
            if self.state.population.is_empty() {
                space.random_mapping_into(out.next_slot(), rng); // initial generation
            } else {
                self.breed_into(space, rng, out.next_slot());
            }
            self.state.outstanding += 1;
            static PROPOSED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
                std::sync::OnceLock::new();
            crate::tele_counter(&PROPOSED, "search.ga.proposed").bump(1);
        }
    }

    // mm-lint: hot-path — the steady-state eval loop must not allocate.
    fn report(&mut self, mapping: &Mapping, cost: f64, _rng: &mut StdRng) {
        debug_assert!(self.state.outstanding > 0, "report without proposal");
        self.state.outstanding = self.state.outstanding.saturating_sub(1);
        self.state.admit(mapping, cost);
        static ACCEPTED: std::sync::OnceLock<std::sync::Arc<mm_telemetry::Counter>> =
            std::sync::OnceLock::new();
        crate::tele_counter(&ACCEPTED, "search.ga.accepted").bump(1);
        if self.state.incoming.len() >= self.popsize() && self.state.outstanding == 0 {
            // The generation is complete: it becomes the population, and the
            // population it replaces the next generation's storage.
            let state = &mut self.state;
            state.spare.append(&mut state.population);
            std::mem::swap(&mut state.population, &mut state.incoming);
        }
    }

    /// [`SyncAction::Adopt`] injects the incumbent into the completed
    /// population, replacing the worst individual when the incumbent beats
    /// it (no effect while the initial random generation is still being
    /// evaluated).
    fn observe_global_best(
        &mut self,
        _space: &dyn MapSpaceView,
        mapping: &Mapping,
        cost: f64,
        _action: SyncAction,
        _rng: &mut StdRng,
    ) {
        let Some((worst, _)) = self
            .state
            .population
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.fitness.total_cmp(&b.fitness))
        else {
            return;
        };
        if cost < self.state.population[worst].fitness {
            self.state.population[worst].set(mapping, cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Budget, FnObjective, Objective};
    use crate::proposal::drive;
    use mm_accel::{Architecture, CostModel};
    use mm_mapspace::{MapSpace, ProblemSpec};
    use rand::SeedableRng;

    fn setup() -> (MapSpace, CostModel) {
        let arch = Architecture::example();
        let problem = ProblemSpec::conv1d(512, 7);
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        (space, CostModel::new(arch, problem))
    }

    #[test]
    fn respects_query_budget_exactly() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut ga = GeneticAlgorithm::new(GeneticConfig {
            population: 10,
            ..GeneticConfig::default()
        });
        let trace = drive(&mut ga, &space, &mut obj, Budget::iterations(77), &mut rng);
        assert_eq!(obj.queries(), 77);
        assert_eq!(trace.len(), 77);
    }

    #[test]
    fn population_evolution_improves_over_initial_generation() {
        let (space, model) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let mut obj = FnObjective::new(|m: &Mapping| model.edp(m));
        let mut ga = GeneticAlgorithm::new(GeneticConfig {
            population: 16,
            ..GeneticConfig::default()
        });
        let trace = drive(&mut ga, &space, &mut obj, Budget::iterations(400), &mut rng);
        // Best of the initial random generation vs. final best.
        let initial_best = trace.points[..16]
            .iter()
            .map(|p| p.cost)
            .fold(f64::INFINITY, f64::min);
        assert!(trace.best_cost <= initial_best);
        assert!(space.is_member(trace.best_mapping.as_ref().unwrap()));
    }

    #[test]
    fn default_config_matches_appendix_a() {
        let c = GeneticConfig::default();
        assert_eq!(c.population, 100);
        assert!((c.crossover_probability - 0.75).abs() < 1e-9);
        assert!((c.mutation_probability - 0.05).abs() < 1e-9);
    }

    #[test]
    fn adopt_replaces_the_worst_individual() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let mut ga = GeneticAlgorithm::new(GeneticConfig {
            population: 4,
            ..GeneticConfig::default()
        });
        ga.begin(&space, None, &mut rng);
        let mut buf = ProposalBuf::new();
        ga.propose(&space, &mut rng, 16, &mut buf);
        let gen0 = std::mem::take(&mut buf);
        for (i, m) in gen0.iter().enumerate() {
            ga.report(m, 10.0 + i as f64, &mut rng);
        }
        assert_eq!(ga.state.population.len(), 4);

        // Adopt: a strong incumbent replaces the worst individual…
        let incumbent = space.random_mapping(&mut rng);
        ga.observe_global_best(&space, &incumbent, 1.0, SyncAction::Adopt, &mut rng);
        assert!(ga.state.population.iter().any(|i| i.fitness == 1.0));
        assert!(!ga.state.population.iter().any(|i| i.fitness == 13.0));
        // …and a weak one changes nothing.
        ga.observe_global_best(&space, &incumbent, 500.0, SyncAction::Adopt, &mut rng);
        assert!(!ga.state.population.iter().any(|i| i.fitness == 500.0));
    }

    #[test]
    fn tiny_horizons_shrink_the_effective_population() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ga = GeneticAlgorithm::default(); // population 100
        ga.begin(&space, Some(20), &mut rng);
        let mut buf = ProposalBuf::new();
        ga.propose(&space, &mut rng, 256, &mut buf);
        assert_eq!(
            buf.len(),
            10,
            "a 20-eval horizon fits two 10-individual generations"
        );
        // No horizon (or a roomy one): the configured population stands.
        let mut ga = GeneticAlgorithm::default();
        ga.begin(&space, None, &mut rng);
        buf.clear();
        ga.propose(&space, &mut rng, 256, &mut buf);
        assert_eq!(buf.len(), 100);
        let mut ga = GeneticAlgorithm::default();
        ga.begin(&space, Some(1), &mut rng);
        buf.clear();
        ga.propose(&space, &mut rng, 256, &mut buf);
        assert_eq!(buf.len(), 2, "population never drops below 2");
    }

    #[test]
    fn whole_generation_can_be_in_flight() {
        let (space, _) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let mut ga = GeneticAlgorithm::new(GeneticConfig {
            population: 8,
            ..GeneticConfig::default()
        });
        ga.begin(&space, None, &mut rng);
        let mut buf = ProposalBuf::new();
        ga.propose(&space, &mut rng, 64, &mut buf);
        assert_eq!(buf.len(), 8, "initial generation batches fully");
        let pending = std::mem::take(&mut buf);
        ga.propose(&space, &mut rng, 64, &mut buf);
        assert!(buf.is_empty(), "waits for the generation's reports");
        for (i, m) in pending.iter().enumerate() {
            ga.report(m, i as f64, &mut rng);
        }
        // Next generation: elites are carried without proposals, the rest
        // are bred children.
        ga.propose(&space, &mut rng, 64, &mut buf);
        assert_eq!(buf.len(), 8 - 2, "popsize minus elites");
    }
}
