//! Integration tests for the whole-network mapping service: full Table 1
//! serving over one shared pool, byte-identical determinism, cache-replay
//! semantics, and the batched surrogate evaluation path.

use std::sync::Arc;

use mm_accel::Architecture;
use mm_core::Phase1Config;
use mm_mapspace::ProblemSpec;
use mm_search::SimulatedAnnealing;
use mm_serve::{MappingService, RequestConfig, ServiceConfig, SurrogateEvaluator, SyncPolicy};
use mm_workloads::{evaluated_accelerator, table1_network, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_service() -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(2)
        .with_max_active_jobs(2)
        .with_queue_depth(4)
}

fn quick_request() -> RequestConfig {
    RequestConfig::default().with_seed(42).with_search_size(120)
}

fn quick_profile() -> (ServiceConfig, RequestConfig) {
    (quick_service(), quick_request())
}

#[test]
fn maps_full_table1_over_one_shared_pool() {
    let net = table1_network();
    let mut service = MappingService::new(evaluated_accelerator(), quick_profile());
    let report = service.map_network(&net);

    assert_eq!(report.layers.len(), 8);
    assert_eq!(report.unique_searches, 8, "all eight shapes are distinct");
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.total_evaluations, 8 * 120);
    for layer in &report.layers {
        assert!(!layer.cache_hit);
        assert_eq!(layer.evaluations, 120);
        assert!(
            layer.best_mapping.is_some(),
            "layer {} found a mapping",
            layer.layer
        );
        assert!(layer.edp().is_finite() && layer.edp() > 0.0);
        assert!(layer.energy_pj().unwrap() > 0.0);
        assert!(layer.delay_s().unwrap() > 0.0);
        // The MapperReport view carries the same result.
        let mr = layer.as_mapper_report();
        assert_eq!(mr.total_evaluations, 120);
        assert_eq!(mr.best_metrics, layer.best_metrics);
    }
    // Aggregates are repeat-weighted sums of the per-layer metrics.
    let energy: f64 = report.layers.iter().map(|l| l.energy_pj().unwrap()).sum();
    let delay: f64 = report.layers.iter().map(|l| l.delay_s().unwrap()).sum();
    assert_eq!(report.aggregate.total_energy_pj, Some(energy));
    assert_eq!(report.aggregate.total_delay_s, Some(delay));
    assert_eq!(report.aggregate.total_edp_js, Some(energy * 1e-12 * delay));
    assert_eq!(service.stats().searches_run, 8);
    assert_eq!(service.cached_results(), 8);
}

#[test]
fn same_seed_same_network_is_byte_identical() {
    let net = table1_network();
    let run = |workers: usize, max_active: usize| {
        let service_cfg = quick_service()
            .with_workers(workers)
            .with_max_active_jobs(max_active);
        let mut service =
            MappingService::new(evaluated_accelerator(), (service_cfg, quick_request()));
        service.map_network(&net).canonical_string()
    };
    let base = run(2, 2);
    assert_eq!(base, run(2, 2), "replay is byte-identical");
    assert_eq!(base, run(1, 1), "independent of concurrency");
    assert_eq!(base, run(4, 3), "independent of pool width");

    // A different seed must actually change the result.
    let mut service = MappingService::new(
        evaluated_accelerator(),
        (quick_service(), quick_request().with_seed(43)),
    );
    assert_ne!(base, service.map_network(&net).canonical_string());
}

#[test]
fn repeated_layers_hit_the_cache_with_identical_mappings() {
    let shape = ProblemSpec::conv1d(512, 7);
    let net = Network::new("repeats")
        .with_layer("block1", shape.clone(), 1)
        .with_layer("block2", shape.clone(), 3)
        .with_layer("other", ProblemSpec::conv1d(256, 5), 1)
        .with_layer("block3", shape.clone(), 1);

    let mut service = MappingService::new(Architecture::example(), quick_profile());
    let report = service.map_network(&net);

    assert_eq!(report.unique_searches, 2, "two distinct shapes");
    assert_eq!(report.cache_hits, 2, "block2 and block3 replay block1");
    assert_eq!(report.total_evaluations, 2 * 120, "repeats cost nothing");
    assert!(!report.layers[0].cache_hit);
    assert!(report.layers[1].cache_hit && report.layers[3].cache_hit);
    assert_eq!(
        report.layers[0].best_mapping, report.layers[1].best_mapping,
        "cache hits return the identical mapping"
    );
    assert_eq!(report.layers[0].best_metrics, report.layers[3].best_metrics);

    // A second call on the long-lived service is answered fully from cache,
    // with zero fresh evaluations and the identical deterministic report.
    let again = service.map_network(&net);
    assert_eq!(again.unique_searches, 0);
    assert_eq!(again.cache_hits, 4);
    assert_eq!(again.total_evaluations, 0);
    for (a, b) in report.layers.iter().zip(&again.layers) {
        assert_eq!(a.best_mapping, b.best_mapping);
        assert_eq!(a.best_metrics, b.best_metrics);
    }
    assert_eq!(service.stats().searches_run, 2);
    assert_eq!(service.stats().cache_hits, 2 + 4);
}

#[test]
fn cache_off_searches_every_occurrence_but_keeps_the_report() {
    let shape = ProblemSpec::conv1d(300, 5);
    let net = Network::new("dup")
        .with_layer("a", shape.clone(), 1)
        .with_layer("b", shape.clone(), 1);

    let mut with_cache = MappingService::new(Architecture::example(), quick_profile());
    let mut without_cache = MappingService::new(
        Architecture::example(),
        (quick_service(), quick_request().with_use_cache(false)),
    );
    let hit = with_cache.map_network(&net);
    let miss = without_cache.map_network(&net);

    assert_eq!(hit.unique_searches, 1);
    assert_eq!(
        miss.unique_searches, 2,
        "cache off: every occurrence searches"
    );
    assert_eq!(miss.cache_hits, 0);
    assert_eq!(miss.total_evaluations, 2 * hit.total_evaluations);
    // Same fingerprint ⇒ same derived seed ⇒ identical results either way.
    for (a, b) in hit.layers.iter().zip(&miss.layers) {
        assert_eq!(a.best_mapping, b.best_mapping);
        assert_eq!(a.best_metrics, b.best_metrics);
        assert!(!b.cache_hit);
    }
}

#[test]
fn searcher_choice_changes_the_fingerprint_and_result_path() {
    let net = Network::new("one").with_layer("l", ProblemSpec::conv1d(400, 5), 1);
    let mut random = MappingService::new(Architecture::example(), quick_profile());
    let mut annealed = MappingService::new(Architecture::example(), quick_profile())
        .with_searcher(Box::new(|| Box::new(SimulatedAnnealing::default())));

    let r = random.map_network(&net);
    let a = annealed.map_network(&net);
    assert_eq!(r.layers[0].searcher, "Random");
    assert_eq!(a.layers[0].searcher, "SA");
    assert_eq!(r.total_evaluations, a.total_evaluations);
    assert!(a.layers[0].edp().is_finite());

    // Swapping the searcher on a warm service drops the cache: fingerprints
    // identify searchers by name only, so results from a differently
    // configured same-name searcher must never replay.
    assert_eq!(random.cached_results(), 1);
    let mut swapped = random.with_searcher(Box::new(|| Box::new(SimulatedAnnealing::default())));
    assert_eq!(swapped.cached_results(), 0);
    let fresh = swapped.map_network(&net);
    assert_eq!(fresh.unique_searches, 1, "re-searches after the swap");
    assert_eq!(fresh.layers[0].searcher, "SA");
    assert_eq!(
        fresh.layers[0].best_metrics, a.layers[0].best_metrics,
        "and reproduces the SA service's result exactly"
    );
}

#[test]
fn map_problem_is_a_one_layer_network() {
    let mut service = MappingService::new(Architecture::example(), quick_profile());
    let layer = service.map_problem("solo", ProblemSpec::conv1d(200, 3));
    assert_eq!(layer.layer, "solo");
    assert_eq!(layer.evaluations, 120);
    assert!(layer.best_mapping.is_some());
    // The same problem through map_network now hits the cache.
    let net = Network::new("again").with_layer("same", ProblemSpec::conv1d(200, 3), 1);
    let report = service.map_network(&net);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.layers[0].best_mapping, layer.best_mapping);
}

#[test]
fn batched_surrogate_serving_path() {
    // Train one quick conv1d surrogate and serve a conv1d network through
    // it: every pool batch is answered by a single forward pass
    // (SurrogateEvaluator::evaluate_batch), and the serve path stays
    // deterministic.
    let arch = Architecture::example();
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = mm_core::generate_training_set(
        &arch,
        &mm_workloads::conv1d::Conv1dFamily::default(),
        400,
        40,
        &mut rng,
    )
    .unwrap();
    let config = Phase1Config {
        hidden_layers: vec![24, 24],
        epochs: 6,
        ..Phase1Config::quick()
    };
    let (surrogate, _) =
        mm_core::Surrogate::train(arch.clone(), &dataset, &config, &mut rng).unwrap();

    let net = Network::new("surrogate-net")
        .with_layer("u0", ProblemSpec::conv1d(700, 5), 1)
        .with_layer("u1", ProblemSpec::conv1d(900, 7), 2)
        .with_layer("u0_again", ProblemSpec::conv1d(700, 5), 1);

    let mk = |surrogate: mm_core::Surrogate| {
        MappingService::with_evaluator_factory(
            arch.clone(),
            quick_profile(),
            Box::new(move |_, problem| {
                Arc::new(
                    SurrogateEvaluator::new(surrogate.clone(), problem.clone())
                        .expect("conv1d family"),
                )
            }),
            "surrogate[normalized-edp]".to_string(),
        )
    };
    let mut service = mk(surrogate.clone());
    let report = service.map_network(&net);

    assert_eq!(report.unique_searches, 2);
    assert_eq!(report.cache_hits, 1);
    for layer in &report.layers {
        assert!(layer.edp().is_finite() && layer.edp() > 0.0);
        // The surrogate reports only its (normalized-EDP) primary metric…
        assert_eq!(layer.energy_pj(), None);
    }
    // …so network energy/delay aggregates are unavailable on this path.
    assert_eq!(report.aggregate.total_energy_pj, None);
    assert!(report.aggregate.sum_layer_edp_js > 0.0);

    // Determinism holds on the surrogate path too.
    let mut replay = mk(surrogate);
    assert_eq!(
        report.canonical_string(),
        replay.map_network(&net).canonical_string()
    );
}

#[test]
fn empty_network_yields_an_empty_report() {
    let mut service = MappingService::new(Architecture::example(), quick_profile());
    let report = service.map_network(&Network::new("empty"));
    assert!(report.layers.is_empty());
    assert_eq!(report.unique_searches, 0);
    assert_eq!(report.total_evaluations, 0);
}

/// Sharded layer searches split the budget exactly, stay deterministic, and
/// their cache replays byte-identically — per shard configuration.
#[test]
fn sharded_layer_searches_are_deterministic_and_budget_exact() {
    let net = table1_network();
    let profile = (quick_service(), quick_request().with_shards(3));
    let mut a = MappingService::new(evaluated_accelerator(), profile.clone());
    let report_a = a.map_network(&net);
    assert_eq!(report_a.unique_searches, 8);
    assert_eq!(
        report_a.total_evaluations,
        8 * 120,
        "shard budget shares must sum to search_size per layer"
    );
    for layer in &report_a.layers {
        assert_eq!(layer.evaluations, 120);
        assert!(layer.best_mapping.is_some());
    }

    // Same seed + same shard config ⇒ byte-identical report on a fresh
    // service, and a byte-identical cached replay on the same service.
    let mut b = MappingService::new(evaluated_accelerator(), profile);
    assert_eq!(
        report_a.canonical_string(),
        b.map_network(&net).canonical_string()
    );
    let replay = a.map_network(&net);
    assert_eq!(replay.cache_hits, 8);
    assert_eq!(replay.total_evaluations, 0, "replay searches nothing");
    for (fresh, cached) in report_a.layers.iter().zip(&replay.layers) {
        assert!(cached.cache_hit);
        assert_eq!(fresh.best_mapping, cached.best_mapping);
        assert_eq!(fresh.best_metrics, cached.best_metrics);
        assert_eq!(fresh.evaluations, cached.evaluations);
    }
}

/// Different shard counts are different search configurations: they produce
/// (almost surely) different best mappings, and — because the shard count is
/// folded into the result-cache fingerprint — a service never replays a
/// cached result across shard configurations.
#[test]
fn shard_config_changes_results_not_cache_replays() {
    let problem = ProblemSpec::conv1d(768, 7);
    let run = |shards: usize| {
        let mut service = MappingService::new(
            evaluated_accelerator(),
            (quick_service(), quick_request().with_shards(shards)),
        );
        service.map_problem("conv", problem.clone())
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.evaluations, four.evaluations);
    assert_ne!(
        one.best_mapping, four.best_mapping,
        "distinct shard configs should explore differently"
    );
}

/// Two configurations differing *only* in the sync policy never share
/// cache entries: the policy is folded into the result-cache fingerprint,
/// so each policy derives its own RNG streams and produces its own result.
#[test]
fn sync_policy_configs_never_share_cache_entries() {
    let problem = ProblemSpec::conv1d(768, 7);
    let run = |sync: SyncPolicy| {
        let request = quick_request().with_sync(sync).with_search_size(400);
        let mut service = MappingService::new(evaluated_accelerator(), (quick_service(), request))
            .with_searcher(Box::new(|| Box::new(SimulatedAnnealing::default())));
        service.map_problem("conv", problem.clone())
    };
    let off = run(SyncPolicy::Off);
    let anchored = run(SyncPolicy::Anchor);
    let annealed = run(SyncPolicy::Annealed {
        start: 0.9,
        end: 0.1,
    });
    assert_eq!(off.evaluations, anchored.evaluations);
    assert_ne!(
        off.best_mapping, anchored.best_mapping,
        "distinct sync configs must not replay each other's results"
    );
    assert_ne!(anchored.best_mapping, annealed.best_mapping);

    // And on one long-lived service, a cached replay reproduces the
    // policy-specific result exactly (never a cross-policy entry).
    let request = quick_request()
        .with_sync(SyncPolicy::Anchor)
        .with_search_size(400);
    let mut service = MappingService::new(evaluated_accelerator(), (quick_service(), request))
        .with_searcher(Box::new(|| Box::new(SimulatedAnnealing::default())));
    let fresh = service.map_problem("conv", problem.clone());
    let replay = service.map_problem("conv", problem.clone());
    assert!(replay.cache_hit);
    assert_eq!(fresh.best_mapping, anchored.best_mapping);
    assert_eq!(replay.best_mapping, anchored.best_mapping);
}

/// The serve determinism guarantee survives an enabled sync policy: the
/// policy is job-local, so reports stay byte-identical across pool shapes.
#[test]
fn synced_serving_is_byte_identical_across_pool_shapes() {
    let net = table1_network();
    let run = |workers: usize, max_active: usize| {
        let service_cfg = quick_service()
            .with_workers(workers)
            .with_max_active_jobs(max_active);
        let request = quick_request()
            .with_sync(SyncPolicy::Annealed {
                start: 0.9,
                end: 0.1,
            })
            .with_search_size(200);
        let mut service = MappingService::new(evaluated_accelerator(), (service_cfg, request))
            .with_searcher(Box::new(|| Box::new(SimulatedAnnealing::default())));
        service.map_network(&net).canonical_string()
    };
    let base = run(2, 2);
    assert_eq!(base, run(1, 1), "independent of concurrency");
    assert_eq!(base, run(4, 3), "independent of pool width");
}
