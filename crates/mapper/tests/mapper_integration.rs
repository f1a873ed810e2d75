//! Integration tests of the parallel mapper's headline guarantees:
//!
//! * **Determinism** — same seed + same thread count ⇒ identical best
//!   mapping (under deterministic termination policies);
//! * **Equivalence** — an N-threaded run strictly contains a 1-threaded run
//!   with the same seed and per-thread budget (thread 0's stream is
//!   identical), so the N-threaded best can never be worse;
//! * **Orchestration breadth** — every searcher kind (stepwise SA/GA/
//!   random/DDPG, the mm-core gradient proposer) runs under the same driver.

use std::sync::Arc;

use mm_accel::{Architecture, CostModel};
use mm_mapper::{
    Mapper, MapperConfig, ModelEvaluator, OptMetric, StopReason, SyncPolicy, TerminationPolicy,
};
use mm_mapspace::{MapSpace, ProblemSpec};
use mm_search::{
    AnnealingConfig, DdpgAgent, DdpgConfig, GeneticAlgorithm, GeneticConfig, ProposalSearch,
    RandomSearch, SimulatedAnnealing,
};

fn setup() -> (MapSpace, Arc<dyn mm_mapper::CostEvaluator>) {
    let arch = Architecture::example();
    let problem = ProblemSpec::conv1d(768, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch, problem);
    (space, Arc::new(ModelEvaluator::edp(model)))
}

fn sa_factory(_thread: usize) -> Box<dyn ProposalSearch> {
    Box::new(SimulatedAnnealing::new(AnnealingConfig::default()))
}

/// Same seed + same thread count ⇒ byte-identical best mapping and metrics,
/// for a stateful searcher, across repeated runs.
#[test]
fn same_seed_same_threads_is_deterministic() {
    let (space, evaluator) = setup();
    let config = MapperConfig {
        threads: 4,
        seed: 42,
        sync_interval: 32,
        termination: TerminationPolicy::search_size(1200),
        ..MapperConfig::default()
    };
    let run = |cfg: &MapperConfig| {
        Mapper::new(cfg.clone()).run(&space, Arc::clone(&evaluator), sa_factory)
    };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.total_evaluations, 1200);
    assert_eq!(
        a.best_mapping, b.best_mapping,
        "best mapping must be stable"
    );
    assert_eq!(a.best_metrics, b.best_metrics);
    assert_eq!(a.total_evaluations, b.total_evaluations);
    for (ta, tb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(ta.evaluations, tb.evaluations);
        assert_eq!(
            ta.best.as_ref().map(|(m, _)| m),
            tb.best.as_ref().map(|(m, _)| m)
        );
    }

    // A different seed explores differently (overwhelmingly likely).
    let other = run(&MapperConfig {
        seed: 43,
        ..config.clone()
    });
    assert_ne!(
        a.best_mapping, other.best_mapping,
        "different seeds should find different best mappings"
    );
}

/// Victory-condition runs are thread-local and therefore also
/// deterministic.
#[test]
fn victory_condition_runs_are_deterministic() {
    let (space, evaluator) = setup();
    let config = MapperConfig {
        threads: 2,
        seed: 9,
        termination: TerminationPolicy::search_size(50_000).with_victory_condition(40),
        ..MapperConfig::default()
    };
    let a = Mapper::new(config.clone()).run(&space, Arc::clone(&evaluator), |_| {
        Box::new(RandomSearch::new())
    });
    let b = Mapper::new(config).run(&space, Arc::clone(&evaluator), |_| {
        Box::new(RandomSearch::new())
    });
    assert_eq!(a.total_evaluations, b.total_evaluations);
    assert_eq!(a.best_mapping, b.best_mapping);
    assert!(a.shards.iter().all(|t| t.stop == StopReason::Victory));
}

/// With the same seed and the same per-thread budget, thread 0 of the
/// N-threaded run replays the 1-threaded run exactly; extra threads only
/// add exploration. So the N-threaded best is never worse under an
/// iso-per-thread evaluation budget.
#[test]
fn more_threads_never_worse_at_iso_per_thread_budget() {
    let (space, evaluator) = setup();
    const PER_THREAD: u64 = 400;
    for (searcher_name, factory) in [
        ("SA", sa_factory as fn(usize) -> Box<dyn ProposalSearch>),
        ("Random", |_| Box::new(RandomSearch::new())),
        ("GA", |_| {
            Box::new(GeneticAlgorithm::new(GeneticConfig {
                population: 20,
                ..GeneticConfig::default()
            }))
        }),
    ] {
        let run = |threads: u64| {
            Mapper::new(MapperConfig {
                threads: threads as usize,
                seed: 7,
                termination: TerminationPolicy::search_size(PER_THREAD * threads),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), factory)
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(single.total_evaluations, PER_THREAD);
        assert_eq!(multi.total_evaluations, 4 * PER_THREAD);
        // Thread 0 of the multi run replicates the single run.
        assert_eq!(
            multi.shards[0].best.as_ref().map(|(m, _)| m),
            single.shards[0].best.as_ref().map(|(m, _)| m),
            "{searcher_name}: thread 0 must replay the single-threaded run"
        );
        assert!(
            multi.best_cost() <= single.best_cost(),
            "{searcher_name}: 4-threaded best {} worse than single-threaded {}",
            multi.best_cost(),
            single.best_cost()
        );
    }
}

/// Prioritized optimization metrics flow end-to-end: the winning mapping's
/// metric vector matches a fresh evaluation, in priority order.
#[test]
fn prioritized_metrics_flow_through_the_report() {
    let arch = Architecture::example();
    let problem = ProblemSpec::conv1d(768, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), problem);
    let evaluator = Arc::new(ModelEvaluator::with_metrics(
        model.clone(),
        vec![OptMetric::Delay, OptMetric::Energy, OptMetric::Edp],
    ));
    let mapper = Mapper::new(MapperConfig {
        threads: 2,
        seed: 5,
        termination: TerminationPolicy::search_size(300),
        ..MapperConfig::default()
    });
    let report = mapper.run(&space, evaluator, |_| Box::new(RandomSearch::new()));
    let best = report.best_mapping.as_ref().expect("best mapping");
    let metrics = report.best_metrics.as_ref().expect("metrics");
    assert_eq!(metrics.metrics.len(), 3);
    let cost = model.evaluate(best);
    assert_eq!(metrics.metrics[0], OptMetric::Delay.resolve(&cost, &arch));
    assert_eq!(metrics.metrics[1], OptMetric::Energy.resolve(&cost, &arch));
    assert_eq!(metrics.metrics[2], OptMetric::Edp.resolve(&cost, &arch));
    // No other thread found a strictly better delay (lexicographic winner).
    for t in &report.shards {
        if let Some((_, eval)) = &t.best {
            assert!(!eval.better_than(metrics));
        }
    }
}

/// The mm-core gradient proposer (Phase-2 surrogate search) shards across
/// mapper threads like any other searcher.
#[test]
fn gradient_proposer_runs_under_the_mapper() {
    use mm_core::{generate_training_set, Phase1Config, Phase2Config, Surrogate};
    use mm_workloads::conv1d::Conv1dFamily;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let arch = Architecture::example();
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = generate_training_set(&arch, &Conv1dFamily::default(), 1200, 40, &mut rng)
        .expect("dataset");
    let phase1 = Phase1Config {
        hidden_layers: vec![32, 32],
        epochs: 15,
        batch_size: 64,
        ..Phase1Config::quick()
    };
    let (surrogate, _) = Surrogate::train(arch.clone(), &dataset, &phase1, &mut rng).unwrap();

    let problem = ProblemSpec::conv1d(900, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator = Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem.clone())));

    let mapper = Mapper::new(MapperConfig {
        threads: 2,
        seed: 13,
        termination: TerminationPolicy::search_size(400),
        ..MapperConfig::default()
    });
    let report = mapper.run(&space, evaluator, |_| {
        Box::new(
            mm_core::GradientProposer::new(&surrogate, problem.clone(), Phase2Config::default())
                .expect("family match"),
        )
    });
    assert_eq!(report.total_evaluations, 400);
    let best = report.best_mapping.as_ref().expect("best mapping");
    assert!(space.is_member(best));
    assert!(report.best_cost().is_finite());
}

/// Acceptance: the canonical report is byte-identical across worker counts
/// — on the toy conv1d problem and on
/// every Table 1 target — with the map space sharded into disjoint slices.
#[test]
fn deterministic_canonical_reports_are_worker_count_independent() {
    use mm_workloads::{evaluated_accelerator, table1};

    let arch = evaluated_accelerator();
    let mut problems = vec![ProblemSpec::conv1d(768, 7)];
    problems.extend(table1::all_problems().into_iter().map(|t| t.problem));
    for problem in problems {
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let evaluator: Arc<dyn mm_mapper::CostEvaluator> = Arc::new(ModelEvaluator::edp(
            CostModel::new(arch.clone(), problem.clone()),
        ));
        let run = |threads: usize| {
            Mapper::new(MapperConfig {
                threads,
                shards: Some(4),
                shard_space: true,
                seed: 17,
                termination: TerminationPolicy::search_size(160),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), |_| {
                Box::new(RandomSearch::new())
            })
        };
        let canon1 = run(1).canonical_string();
        let canon4 = run(4).canonical_string();
        assert_eq!(
            canon1, canon4,
            "{}: worker count leaked into the report",
            problem.name
        );
    }
}

/// Acceptance: the canonical report stays byte-identical across 1/2/4
/// worker threads for **every** sync policy — policy-enabled runs exchange
/// incumbents between rounds whose content is worker-count independent —
/// and this holds both with pure RNG-stream shards and with the map space
/// itself sharded into disjoint slices.
#[test]
fn canonical_reports_are_worker_count_independent_under_every_sync_policy() {
    let (space, evaluator) = setup();
    let policies = [
        SyncPolicy::Off,
        SyncPolicy::Anchor,
        SyncPolicy::Annealed {
            start: 0.9,
            end: 0.1,
        },
    ];
    for sync in policies {
        for shard_space in [false, true] {
            let run = |threads: usize| {
                Mapper::new(MapperConfig {
                    threads,
                    shards: Some(4),
                    shard_space,
                    seed: 29,
                    sync_interval: 16,
                    sync,
                    termination: TerminationPolicy::search_size(320),
                    ..MapperConfig::default()
                })
                .run(&space, Arc::clone(&evaluator), sa_factory)
            };
            let canon1 = run(1).canonical_string();
            let canon2 = run(2).canonical_string();
            let canon4 = run(4).canonical_string();
            assert_eq!(
                canon1, canon2,
                "{sync} (shard_space={shard_space}): 2 workers leaked into the report"
            );
            assert_eq!(
                canon1, canon4,
                "{sync} (shard_space={shard_space}): 4 workers leaked into the report"
            );
        }
    }
}

/// Every stepwise searcher — Random/SA/GA and the DDPG agent — runs under
/// an enabled sync policy and still spends the exact budget.
#[test]
fn sync_policies_drive_every_searcher_kind() {
    let (space, evaluator) = setup();
    type Factory = fn(usize) -> Box<dyn ProposalSearch>;
    let factories: Vec<(&str, Factory)> = vec![
        ("Random", |_| Box::new(RandomSearch::new())),
        ("SA", sa_factory),
        ("GA", |_| {
            Box::new(GeneticAlgorithm::new(GeneticConfig {
                population: 12,
                ..GeneticConfig::default()
            }))
        }),
        ("RL", |_| {
            Box::new(DdpgAgent::new(DdpgConfig {
                warmup: 8,
                batch_size: 4,
                ..DdpgConfig::default()
            }))
        }),
    ];
    for (name, factory) in factories {
        for sync in [
            SyncPolicy::Anchor,
            SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            },
        ] {
            let report = Mapper::new(MapperConfig {
                threads: 2,
                shards: Some(2),
                seed: 31,
                sync_interval: 16,
                sync,
                termination: TerminationPolicy::search_size(128),
                ..MapperConfig::default()
            })
            .run(&space, Arc::clone(&evaluator), factory);
            assert_eq!(report.total_evaluations, 128, "{name} under {sync}");
            let best = report.best_mapping.as_ref().expect("found a mapping");
            assert!(space.is_member(best), "{name} under {sync}");
            assert!(report.best_cost().is_finite());
        }
    }
}
