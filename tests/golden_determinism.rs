//! Golden determinism snapshots: byte-identical replay as a *checked-in
//! contract*.
//!
//! The mapper and the serving layer both promise that their canonical
//! report strings (`MapperReport::canonical_string`,
//! `NetworkReport::canonical_string`) depend only on the search
//! configuration and seed — never on worker counts, scheduling, or machine
//! speed. The pairwise runtime comparisons in the crate tests prove
//! worker-count independence *within* one build; these fixtures pin the
//! exact bytes across builds, so any change to the deterministic search
//! stream (RNG derivation, shard slicing, schedule sizing, merge order)
//! shows up as a reviewable fixture diff instead of silently reshuffling
//! results.
//!
//! A third fixture pins the paper's own method, which the canonical
//! strings never touch: surrogate training (`mm-nn`) and the Phase-2
//! gradient search (`mm-core`), to the bit. A change to the matrix kernels,
//! the forward/backward passes, the whitened encoding or the Section-4.2
//! step shows up as a diff of `gradient_search_canonical.txt`. Its `weights`
//! lines and `shards 1` blocks were generated on the commit *before* PR 12
//! rewrote the kernels and the step, and have not moved since; the `drive`
//! and `mapper` blocks pin the step's other caller, `GradientProposer`,
//! under the two drivers that run it.
//!
//! A fourth fixture, `search_quality.txt`, pins what the searches find:
//! best cost per problem, geomean and distinct best L2 orders for SA across
//! shard counts and sync policies and for random search across shard
//! counts, plus a digest of every evaluated cost, so that a change which
//! moves the stream without moving a best still shows.
//!
//! Regenerate deliberately with `MM_BLESS=1 cargo test --test
//! golden_determinism` after an intentional behaviour change, and commit
//! the new fixtures with the code that changed them.
//!
//! The multi-axis shard test also pins this release's acceptance criterion:
//! the mixed-radix axis product must beat the PR 3 single-axis capacity
//! (`d! · largest_dim`) by at least the parallelism-axis factor on Table 1
//! layers.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mind_mappings::prelude::*;
use mind_mappings::workloads::conv1d::Conv1dFamily;
use mind_mappings::workloads::mttkrp::MttkrpFamily;
use mm_core::generate_training_set;
use mm_mapper::MapperReport;
use mm_mapspace::problem::ProblemFamily;
use mm_mapspace::{ShardAxis, ShardAxisKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` against the checked-in fixture, or rewrite the fixture
/// when `MM_BLESS` is set.
fn check_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("MM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures/");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {name} ({e}); generate it with \
             MM_BLESS=1 cargo test --test golden_determinism"
        )
    });
    if expected != actual {
        let diff_at = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b);
        panic!(
            "canonical output diverged from fixture {name} (first differing line: {:?}); \
             if the change is intentional, re-bless with MM_BLESS=1 and commit the diff",
            diff_at
        );
    }
}

/// The pinned mapper scenario: multi-axis sharded SA over conv1d on the
/// example accelerator. The fixture was generated on the commit before the
/// `Mapper` became one round-based schedule, and passed unchanged after.
#[test]
fn mapper_canonical_report_matches_fixture() {
    let arch = Architecture::example();
    let problem = ProblemSpec::conv1d(512, 7);
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator: Arc<dyn CostEvaluator> =
        Arc::new(ModelEvaluator::edp(CostModel::new(arch, problem)));
    let report = Mapper::new(MapperConfig {
        threads: 2,
        shards: Some(4),
        shard_space: true,
        seed: 7,
        termination: TerminationPolicy::search_size(240),
        ..MapperConfig::default()
    })
    .run(&space, evaluator, |_| {
        Box::new(SimulatedAnnealing::default())
    });
    assert_eq!(report.total_evaluations, 240);
    check_fixture("mapper_canonical.txt", &report.canonical_string());
}

/// The pinned serving scenario: the whole Table 1 network over a shared
/// pool, two disjoint shards per layer.
#[test]
fn network_canonical_report_matches_fixture() {
    // The PR 9 API split must not move these bytes: the request tag renders
    // the legacy config_tag format, so the fixture pins that too.
    let mut service = MappingService::new(
        evaluated_accelerator(),
        (
            ServiceConfig::default()
                .with_workers(2)
                .with_max_active_jobs(2)
                .with_queue_depth(4),
            RequestConfig::default()
                .with_seed(42)
                .with_search_size(96)
                .with_shards(2),
        ),
    );
    let report = service.map_network(&table1_network());
    assert_eq!(report.layers.len(), 8);
    check_fixture("network_canonical.txt", &report.canonical_string());
}

const SEARCH_STEPS: u64 = 300;
const SEARCH_SEEDS: [u64; 2] = [1, 7];
const POINT_STRIDE: usize = 50;

/// The surrogate behind the gradient-search fixture: small enough to train
/// in a debug-mode test.
fn phase1() -> Phase1Config {
    Phase1Config {
        num_samples: 1_200,
        mappings_per_problem: 50,
        hidden_layers: vec![48, 40],
        epochs: 12,
        batch_size: 64,
        ..Phase1Config::quick()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the bit patterns of every weight and bias, in layer order.
fn weight_checksum(surrogate: &Surrogate) -> u64 {
    let mut hash = FNV_OFFSET;
    for layer in surrogate.mlp().layers() {
        for value in layer.weight().as_slice().iter().chain(layer.bias()) {
            hash = fnv1a(hash, &value.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Append one search's canonical lines to `out`: the trace length,
/// `best_cost.to_bits()`, the best mapping and every 50th trace point.
fn write_trace(out: &mut String, header: &str, trace: &SearchTrace) {
    writeln!(
        out,
        "{header} len {} best {:016x}",
        trace.len(),
        trace.best_cost.to_bits(),
    )
    .unwrap();
    writeln!(out, "  best_mapping {:?}", trace.best_mapping).unwrap();
    for p in trace.points.iter().step_by(POINT_STRIDE) {
        writeln!(
            out,
            "  point {} cost {:016x} best {:016x}",
            p.queries,
            p.cost.to_bits(),
            p.best_cost.to_bits(),
        )
        .unwrap();
    }
}

/// A [`GradientProposer`] that checks every proposal against the view it
/// was asked on, and counts the incumbents it is handed.
struct InShard {
    inner: GradientProposer,
    adoptions: Arc<AtomicU64>,
}

impl ProposalSearch for InShard {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, space: &dyn MapSpaceView, horizon: Option<u64>, rng: &mut StdRng) {
        self.inner.begin(space, horizon, rng);
    }

    fn lookahead(&self) -> usize {
        self.inner.lookahead()
    }

    fn propose(
        &mut self,
        space: &dyn MapSpaceView,
        rng: &mut StdRng,
        max: usize,
        out: &mut mm_search::ProposalBuf,
    ) {
        let before = out.len();
        self.inner.propose(space, rng, max, out);
        for mapping in &out[before..] {
            assert!(
                space.is_member(mapping),
                "proposal outside its shard: {mapping:?}"
            );
        }
    }

    fn report(&mut self, mapping: &Mapping, cost: f64, rng: &mut StdRng) {
        self.inner.report(mapping, cost, rng);
    }

    fn observe_global_best(
        &mut self,
        space: &dyn MapSpaceView,
        mapping: &Mapping,
        cost: f64,
        action: SyncAction,
        rng: &mut StdRng,
    ) {
        self.adoptions.fetch_add(1, Ordering::Relaxed);
        self.inner
            .observe_global_best(space, mapping, cost, action, rng);
    }
}

const MAPPER_SHARDS: usize = 4;
/// Not a multiple of the shard count, so the shares differ.
const MAPPER_SEARCH_SIZE: u64 = 302;

/// Sharded Phase 2: the `Mapper` over 4 pairwise-disjoint map-space shards,
/// one [`GradientProposer`] trajectory each, scored by the reference cost
/// model as they are visited.
fn mapper_phase2(
    surrogate: &Surrogate,
    problem: &ProblemSpec,
    threads: usize,
    sync: SyncPolicy,
    adoptions: &Arc<AtomicU64>,
) -> MapperReport {
    let arch = surrogate.arch();
    let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
    let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(CostModel::new(
        arch.clone(),
        problem.clone(),
    )));
    Mapper::new(MapperConfig {
        threads,
        shards: Some(MAPPER_SHARDS),
        shard_space: true,
        seed: 7,
        sync,
        termination: TerminationPolicy::search_size(MAPPER_SEARCH_SIZE),
        ..MapperConfig::default()
    })
    .run(&space, evaluator, |_| {
        Box::new(InShard {
            inner: GradientProposer::new(surrogate, problem.clone(), Phase2Config::default())
                .expect("family match"),
            adoptions: Arc::clone(adoptions),
        })
    })
}

/// Train the fixture's surrogate for `family` from `train_seed`.
fn train<F: ProblemFamily>(
    arch: Architecture,
    family: &F,
    train_seed: u64,
) -> (Surrogate, mm_nn::TrainHistory) {
    let mut rng = StdRng::seed_from_u64(train_seed);
    let config = phase1();
    let dataset = generate_training_set(
        &arch,
        family,
        config.num_samples,
        config.mappings_per_problem,
        &mut rng,
    )
    .expect("training set");
    Surrogate::train(arch, &dataset, &config, &mut rng).expect("surrogate")
}

const CONV1D_TRAIN_SEED: u64 = 0x5EED_C0DE;

fn conv1d_problem() -> ProblemSpec {
    ProblemSpec::conv1d(1777, 7)
}

/// Train a surrogate for `family` from `train_seed` and append its canonical
/// lines to `out`: a checksum of every trained weight, then — so both
/// callers of the shared Section-4.2 step stay pinned — for two search seeds
/// each the trace of `MindMappings::search_with_budget` (`GradientSearch`)
/// and of `drive` over a `GradientProposer` on the full space, and the
/// canonical report of the [`mapper_phase2`] run under `Anchor`.
fn snapshot<F: ProblemFamily>(
    out: &mut String,
    label: &str,
    arch: Architecture,
    family: &F,
    train_seed: u64,
    problem: &ProblemSpec,
) {
    let (surrogate, history) = train(arch.clone(), family, train_seed);
    writeln!(
        out,
        "{label} weights {:016x} train_loss {:08x} test_loss {:08x}",
        weight_checksum(&surrogate),
        history.final_train_loss().to_bits(),
        history.final_test_loss().to_bits(),
    )
    .unwrap();

    let mm = MindMappings::from_surrogate(surrogate.clone(), Phase2Config::default());
    for seed in SEARCH_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = mm
            .search_with_budget(problem, Budget::iterations(SEARCH_STEPS), &mut rng)
            .expect("search");
        write_trace(out, &format!("{label} shards 1 seed {seed}"), &trace);
    }

    let space = mm.map_space(problem);
    for seed in SEARCH_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proposer =
            GradientProposer::new(&surrogate, problem.clone(), Phase2Config::default())
                .expect("family match");
        let mut objective = CostModelObjective::new(CostModel::new(arch.clone(), problem.clone()));
        let trace = drive(
            &mut proposer,
            &space,
            &mut objective,
            Budget::iterations(SEARCH_STEPS),
            &mut rng,
        );
        write_trace(out, &format!("{label} drive seed {seed}"), &trace);
    }

    let report = mapper_phase2(
        &surrogate,
        problem,
        2,
        SyncPolicy::Anchor,
        &Arc::new(AtomicU64::new(0)),
    );
    writeln!(
        out,
        "{label} mapper shards {MAPPER_SHARDS} search_size {MAPPER_SEARCH_SIZE}"
    )
    .unwrap();
    for line in report.canonical_string().lines() {
        writeln!(out, "  {line}").unwrap();
    }
}

/// The pinned gradient-search scenario: a Conv1d and an MTTKRP surrogate
/// trained from fixed seeds, searched by `GradientSearch`, by `drive` over a
/// `GradientProposer`, and by the `Mapper` over 4 shards of them.
#[test]
fn gradient_search_weights_and_traces_match_fixture() {
    let mut actual = String::new();
    snapshot(
        &mut actual,
        "conv1d",
        Architecture::example(),
        &Conv1dFamily::default(),
        CONV1D_TRAIN_SEED,
        &conv1d_problem(),
    );
    snapshot(
        &mut actual,
        "mttkrp",
        evaluated_accelerator(),
        &MttkrpFamily::default(),
        0x5EED_7E45,
        &MttkrpShape::mttkrp_0().into_problem(),
    );
    check_fixture("gradient_search_canonical.txt", &actual);
}

/// Sharded Phase 2 is a `Mapper` run: it spends exactly `search_size`, no
/// trajectory leaves its shard — not even after adopting another shard's
/// incumbent — and the report does not depend on the thread count.
#[test]
fn mapper_driven_phase2_is_exact_in_shard_and_thread_count_independent() {
    let (surrogate, _) = train(
        Architecture::example(),
        &Conv1dFamily::default(),
        CONV1D_TRAIN_SEED,
    );
    for sync in [SyncPolicy::Off, SyncPolicy::Anchor] {
        let adoptions = Arc::new(AtomicU64::new(0));
        let reports =
            [1, 2, 4].map(|t| mapper_phase2(&surrogate, &conv1d_problem(), t, sync, &adoptions));
        for report in &reports {
            assert_eq!(report.total_evaluations, MAPPER_SEARCH_SIZE, "{sync}");
            assert_eq!(report.shards.len(), MAPPER_SHARDS, "{sync}");
            assert_eq!(
                report.canonical_string(),
                reports[0].canonical_string(),
                "{sync}"
            );
        }
        assert_eq!(
            adoptions.load(Ordering::Relaxed) > 0,
            sync.is_enabled(),
            "{sync}: incumbents are handed over under a policy, and only then"
        );
    }
}

/// Acceptance criterion of the multi-axis refactor: on Table 1 layers the
/// axis-product capacity strictly exceeds PR 3's single-axis
/// `d! · largest_dim` by (at least) the parallelism-axis factor.
#[test]
fn table1_shard_capacity_beats_the_single_axis_formula() {
    let arch = evaluated_accelerator();
    let mut checked = 0;
    for target in table1::all_problems() {
        let problem = target.problem;
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let d = problem.num_dims();
        let factorial: u128 = (1..=d as u128).product();
        let largest = problem.dims().map(|dd| problem.dim_size(dd)).max().unwrap();
        let pr3_capacity = factorial * u128::from(largest);

        let axes = space.axis_product();
        let par_factor = axes
            .iter()
            .find(|a| a.kind() == ShardAxisKind::Parallel)
            .map(ShardAxis::cardinality)
            .unwrap_or(1);
        if par_factor < 2 {
            continue; // no parallelism axis on this layer
        }
        assert!(
            space.shard_capacity() > pr3_capacity * par_factor,
            "{}: multi-axis capacity {} must exceed PR3 {} x par factor {}",
            problem.name,
            space.shard_capacity(),
            pr3_capacity,
            par_factor
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "at least two Table 1 layers must exercise the parallelism axis, got {checked}"
    );
}

/// Seed and per-problem budget of the search-quality sweeps.
const QUALITY_SEED: u64 = 7;
const QUALITY_EVALS: u64 = 200;
/// Short enough that a 4-shard share of 200 evaluations crosses three
/// rounds, so the sync policies act.
const QUALITY_SYNC_INTERVAL: u64 = 16;

/// FNV-1a over the bits of every evaluated cost, shard by shard: it pins the
/// whole search stream, not only where it ended.
fn trace_digest(report: &MapperReport) -> u64 {
    let mut hash = FNV_OFFSET;
    for shard in &report.shards {
        for point in &shard.trace.as_ref().expect("traces recorded").points {
            hash = fnv1a(hash, &point.cost.to_bits().to_le_bytes());
        }
    }
    hash
}

/// Run `config` over every problem and append one block: per problem the
/// best cost (bits and `{:e}`), the evaluations spent, the best mapping's
/// L2 loop order and the [`trace_digest`]; then the geometric-mean best
/// cost and the number of distinct L2 orders among the per-shard bests,
/// summed over the problems.
fn quality_block(
    out: &mut String,
    header: &str,
    problems: &[ProblemSpec],
    config: &MapperConfig,
    searcher: fn() -> Box<dyn ProposalSearch>,
) {
    let arch = evaluated_accelerator();
    let mut log_sum = 0.0f64;
    let mut distinct_orders = 0usize;
    writeln!(out, "{header}").unwrap();
    for problem in problems {
        let space = MapSpace::new(problem.clone(), arch.mapping_constraints());
        let evaluator: Arc<dyn CostEvaluator> = Arc::new(ModelEvaluator::edp(CostModel::new(
            arch.clone(),
            problem.clone(),
        )));
        let report = Mapper::new(config.clone()).run(&space, evaluator, |_| searcher());
        let best = report.best_cost();
        let l2_order = &report
            .best_mapping
            .as_ref()
            .expect("a best mapping")
            .loop_orders[1];
        writeln!(
            out,
            "  {:?} best {:016x} {best:e} evals {} l2 {l2_order:?} trace {:016x}",
            problem.name,
            best.to_bits(),
            report.total_evaluations,
            trace_digest(&report),
        )
        .unwrap();
        log_sum += best.ln();
        let mut orders: Vec<&Vec<usize>> = report
            .shards
            .iter()
            .filter_map(|s| s.best.as_ref().map(|(m, _)| &m.loop_orders[1]))
            .collect();
        orders.sort();
        orders.dedup();
        distinct_orders += orders.len();
    }
    let geomean = (log_sum / problems.len() as f64).exp();
    writeln!(
        out,
        "  geomean {geomean:.6e} {:016x} distinct_best_l2_orders {distinct_orders}",
        geomean.to_bits()
    )
    .unwrap();
}

fn simulated_annealing() -> Box<dyn ProposalSearch> {
    Box::new(SimulatedAnnealing::default())
}

fn random_search() -> Box<dyn ProposalSearch> {
    Box::new(RandomSearch::new())
}

/// The three search-quality sweeps at `threads` workers:
/// * SA over conv1d plus the Table 1 problems, at 1/2/4/8 disjoint shards;
/// * the same at 1/2/4 shards under each sync policy;
/// * random search on ResNet Conv_4 at 1/2/4/8 shards of 200 evaluations.
fn search_quality(threads: usize) -> String {
    let mut problems = vec![ProblemSpec::conv1d(1024, 7)];
    problems.extend(table1::all_problems().into_iter().map(|t| t.problem));
    let sharded = |shards: usize, search_size: u64| MapperConfig {
        threads,
        shards: Some(shards),
        shard_space: shards > 1,
        seed: QUALITY_SEED,
        termination: TerminationPolicy::search_size(search_size),
        record_traces: true,
        ..MapperConfig::default()
    };

    let mut out = String::new();
    for shards in [1, 2, 4, 8] {
        quality_block(
            &mut out,
            &format!("shard_scaling shards {shards}"),
            &problems,
            &sharded(shards, QUALITY_EVALS),
            simulated_annealing,
        );
    }
    let annealed = SyncPolicy::Annealed {
        start: 0.9,
        end: 0.1,
    };
    for sync in [SyncPolicy::Off, SyncPolicy::Anchor, annealed] {
        for shards in [1, 2, 4] {
            quality_block(
                &mut out,
                &format!("sync_policy {sync} shards {shards}"),
                &problems,
                &MapperConfig {
                    sync,
                    sync_interval: QUALITY_SYNC_INTERVAL,
                    ..sharded(shards, QUALITY_EVALS)
                },
                simulated_annealing,
            );
        }
    }
    let conv4 = [table1::by_name("ResNet Conv_4")
        .expect("table1 problem")
        .problem];
    for shards in [1, 2, 4, 8] {
        quality_block(
            &mut out,
            &format!("mapper_throughput random shards {shards}"),
            &conv4,
            &MapperConfig {
                shard_space: false,
                ..sharded(shards, QUALITY_EVALS * shards as u64)
            },
            random_search,
        );
    }
    out
}

/// Seed-deterministic search quality of the `Mapper`: SA across disjoint
/// shard counts and sync policies, and random search across shard counts.
/// The rows are the same at 1 and 2 workers, and pinned to the bit.
#[test]
fn search_quality_matches_fixture() {
    let one = search_quality(1);
    assert_eq!(one, search_quality(2), "quality must not depend on workers");
    check_fixture("search_quality.txt", &one);
}
