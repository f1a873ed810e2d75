//! Everything a workload is fed, derived from `--seed` before any timing.
//!
//! The generator is the benchmark's own (splitmix64), so the request
//! stream, the catalog and the run-seed tables do not move when the
//! product's RNG or samplers change. The program under test sees only the
//! generated inputs, never the seed's provenance.

use std::fmt::Write as _;

use mm_mapspace::ProblemSpec;
use mm_workloads::cnn::CnnLayer;
use mm_workloads::mttkrp::MttkrpShape;
use mm_workloads::table1;

// ---------------------------------------------------------------------
// Sizes. Fixed constants: a round is the same work on every commit. They
// were rescaled once from the issue's reference sizes so that one round
// takes 1–3 s on the 2-core reference box and a run of `run_seconds` holds
// several rounds (see README.md, "Sizes").
// ---------------------------------------------------------------------

/// `layer_search`: searches per (problem, searcher) and evaluations each.
pub const LAYER_REPS: usize = 4;
pub const LAYER_EVALS: u64 = 5_000;

/// `serve_batch` / `serve_seq`: requests per round and evaluations per layer.
pub const SERVE_REQUESTS: usize = 20;
pub const SERVE_BATCH_EVALS: u64 = 1_000;
pub const SERVE_SEQ_EVALS: u64 = 250;

/// Closed-loop clients of every serve workload.
pub const TENANTS: usize = 4;

/// `serve_reuse`: catalog shape (layers per network and how many of them are
/// distinct problems), request count, evaluations per layer, the share of
/// requests that carry a novel seed, and the cache bound.
pub const CATALOG_NETWORKS: usize = 12;
pub const NETWORK_LAYERS: usize = 8;
pub const NETWORK_DISTINCT: usize = 6;
pub const REUSE_REQUESTS: usize = 400;
pub const REUSE_EVALS: u64 = 250;
pub const NOVEL_SHARE: f64 = 0.20;
pub const REUSE_CACHE_CAPACITY: usize = 256;

/// `gradient_search`: searches per problem and gradient steps each.
pub const GRADIENT_REPS: usize = 5;
pub const GRADIENT_STEPS: u64 = 500;

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// splitmix64.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// A stream for one purpose: distinct `stream` tags give independent
    /// streams of the same seed.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            state = (state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut prng = Prng(state);
        prng.next_u64();
        prng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁵⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Problems
// ---------------------------------------------------------------------

/// The 8 problems of the paper's Table 1, in table order.
pub fn table1_problems() -> Vec<ProblemSpec> {
    table1::all_problems()
        .into_iter()
        .map(|t| t.problem)
        .collect()
}

/// Names of the 16 fixed variants: each Table-1 problem with its first
/// dimension halved (`/a`) and with its second dimension halved (`/b`).
const VARIANT_NAMES: [&str; 16] = [
    "ResNet Conv_3/a",
    "ResNet Conv_3/b",
    "ResNet Conv_4/a",
    "ResNet Conv_4/b",
    "Inception Conv_2/a",
    "Inception Conv_2/b",
    "VGG Conv_2/a",
    "VGG Conv_2/b",
    "AlexNet Conv_2/a",
    "AlexNet Conv_2/b",
    "AlexNet Conv_4/a",
    "AlexNet Conv_4/b",
    "MTTKRP_0/a",
    "MTTKRP_0/b",
    "MTTKRP_1/a",
    "MTTKRP_1/b",
];

/// The 24 distinct problems `serve_reuse` draws layers from: Table 1, then
/// the fixed variants. Independent of the seed.
pub fn reuse_problems() -> Vec<ProblemSpec> {
    let mut out = table1_problems();
    let mut names = VARIANT_NAMES.iter();
    let mut name = || names.next().copied().unwrap_or("variant");
    for layer in CnnLayer::table1_layers() {
        let a = CnnLayer {
            name: name(),
            n: layer.n / 2,
            ..layer
        };
        let b = CnnLayer {
            name: name(),
            k: layer.k / 2,
            ..layer
        };
        out.push(a.into_problem());
        out.push(b.into_problem());
    }
    for shape in MttkrpShape::table1_shapes() {
        let a = MttkrpShape {
            name: name(),
            i: shape.i / 2,
            ..shape
        };
        let b = MttkrpShape {
            name: name(),
            j: shape.j / 2,
            ..shape
        };
        out.push(a.into_problem());
        out.push(b.into_problem());
    }
    out
}

// ---------------------------------------------------------------------
// Run-seed tables
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SearcherKind {
    Random,
    Sa,
    Ga,
}

impl SearcherKind {
    pub const ALL: [SearcherKind; 3] = [SearcherKind::Random, SearcherKind::Sa, SearcherKind::Ga];

    pub fn label(self) -> &'static str {
        match self {
            SearcherKind::Random => "random",
            SearcherKind::Sa => "sa",
            SearcherKind::Ga => "ga",
        }
    }
}

/// One search of `layer_search` or `gradient_search`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRun {
    /// Index into [`table1_problems`].
    pub problem: usize,
    pub rep: usize,
    pub seed: u64,
}

/// `layer_search`: problems × {Random, SA, GA} × [`LAYER_REPS`], in that
/// nesting order.
pub fn layer_runs(seed: u64) -> Vec<(SearcherKind, SearchRun)> {
    let mut prng = Prng::new(seed, "layer_search");
    let mut runs = Vec::new();
    for problem in 0..table1_problems().len() {
        for searcher in SearcherKind::ALL {
            for rep in 0..LAYER_REPS {
                let seed = prng.next_u64();
                runs.push((searcher, SearchRun { problem, rep, seed }));
            }
        }
    }
    runs
}

/// Seeds of the two surrogate trainings (CNN, MTTKRP). Constants: the
/// surrogate is the system's own offline phase, not something a caller
/// asks for, and every run must search the same one — a surrogate retrained
/// from another sample shifts the quality of all its searches together by
/// more than any bound on `best_edp_norm` could allow for.
pub const TRAIN_SEEDS: [u64; 2] = [0x6D6D_2D63_6E6E, 0x6D6D_2D6D_7474];

/// `gradient_search`: the two surrogate-training seeds and problems ×
/// [`GRADIENT_REPS`] search seeds.
pub fn gradient_runs(seed: u64) -> ([u64; 2], Vec<SearchRun>) {
    let mut prng = Prng::new(seed, "gradient_search");
    let train = TRAIN_SEEDS;
    let mut runs = Vec::new();
    for problem in 0..table1_problems().len() {
        for rep in 0..GRADIENT_REPS {
            let seed = prng.next_u64();
            runs.push(SearchRun { problem, rep, seed });
        }
    }
    (train, runs)
}

// ---------------------------------------------------------------------
// Request streams
// ---------------------------------------------------------------------

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub tenant: usize,
    /// Index into the workload's network list.
    pub network: usize,
    /// The `RequestConfig` seed.
    pub seed: u64,
    /// Carries a seed no other request has, so nothing can be replayed.
    pub novel: bool,
}

/// `serve_batch` / `serve_seq`: [`SERVE_REQUESTS`] requests of the one
/// Table-1 network, every seed distinct so no search is shared.
pub fn serve_stream(seed: u64, workload: &str) -> Vec<Request> {
    let mut prng = Prng::new(seed, workload);
    let mut seeds: Vec<u64> = Vec::new();
    while seeds.len() < SERVE_REQUESTS {
        let s = prng.next_u64();
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    seeds
        .into_iter()
        .enumerate()
        .map(|(i, seed)| Request {
            tenant: i % TENANTS,
            network: 0,
            seed,
            novel: true,
        })
        .collect()
}

/// `serve_reuse`: the catalog and the request stream over it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseInputs {
    /// Per network, [`NETWORK_LAYERS`] indices into [`reuse_problems`],
    /// drawn with repeats.
    pub catalog: Vec<Vec<usize>>,
    /// The seed every non-novel request shares, so that their fingerprints
    /// collide across tenants.
    pub shared_seed: u64,
    pub requests: Vec<Request>,
}

/// Fisher–Yates on the first `n` places: afterwards they hold a uniform
/// draw without repeats from the whole slice, in uniform order.
fn shuffle_front(items: &mut [usize], n: usize, prng: &mut Prng) {
    for i in 0..n.min(items.len()) {
        let j = i + prng.below(items.len() - i);
        items.swap(i, j);
    }
}

pub fn reuse_inputs(seed: u64) -> ReuseInputs {
    let mut prng = Prng::new(seed, "serve_reuse");
    // Every network repeats some of its problems, and every network has the
    // same number of distinct ones: a request that misses everywhere then
    // costs the same number of searches whichever network it asks for.
    let problems = reuse_problems().len();
    let catalog: Vec<Vec<usize>> = (0..CATALOG_NETWORKS)
        .map(|_| {
            let mut pick: Vec<usize> = (0..problems).collect();
            shuffle_front(&mut pick, NETWORK_DISTINCT, &mut prng);
            let mut layers: Vec<usize> = pick[..NETWORK_DISTINCT].to_vec();
            while layers.len() < NETWORK_LAYERS {
                layers.push(pick[prng.below(NETWORK_DISTINCT)]);
            }
            shuffle_front(&mut layers, NETWORK_LAYERS, &mut prng);
            layers
        })
        .collect();
    let shared_seed = prng.next_u64();

    // Exactly NOVEL_SHARE of the requests are novel, at seeded positions: the
    // searches a round must run are then the same number for every seed, and
    // throughput does not swing with how many misses a seed happened to draw.
    let novel_count = (REUSE_REQUESTS as f64 * NOVEL_SHARE).round() as usize;
    let mut order: Vec<usize> = (0..REUSE_REQUESTS).collect();
    shuffle_front(&mut order, novel_count, &mut prng);
    let novel_at = &order[..novel_count.min(REUSE_REQUESTS)];

    // Zipf popularity: network of rank r is asked for with weight 1/(r+1).
    let weights: Vec<f64> = (0..CATALOG_NETWORKS)
        .map(|r| 1.0 / (r + 1) as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let requests = (0..REUSE_REQUESTS)
        .map(|i| {
            let mut u = prng.unit() * total;
            let mut network = CATALOG_NETWORKS - 1;
            for (r, w) in weights.iter().enumerate() {
                if u < *w {
                    network = r;
                    break;
                }
                u -= w;
            }
            let novel = novel_at.contains(&i);
            let novel_seed = prng.next_u64();
            Request {
                tenant: i % TENANTS,
                network,
                seed: if novel { novel_seed } else { shared_seed },
                novel,
            }
        })
        .collect();
    ReuseInputs {
        catalog,
        shared_seed,
        requests,
    }
}

/// Every generated input of every workload as text: what the
/// same-seed-same-bytes test compares, and what `--out` records.
pub fn describe(seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "seed {seed}");
    for run in layer_runs(seed) {
        let _ = writeln!(out, "layer_search {run:?}");
    }
    let (train, runs) = gradient_runs(seed);
    let _ = writeln!(out, "gradient_search train {train:?}");
    for run in runs {
        let _ = writeln!(out, "gradient_search {run:?}");
    }
    for workload in ["serve_batch", "serve_seq"] {
        for request in serve_stream(seed, workload) {
            let _ = writeln!(out, "{workload} {request:?}");
        }
    }
    let reuse = reuse_inputs(seed);
    let _ = writeln!(out, "serve_reuse shared_seed {}", reuse.shared_seed);
    for (i, layers) in reuse.catalog.iter().enumerate() {
        let _ = writeln!(out, "serve_reuse network {i} {layers:?}");
    }
    for request in &reuse.requests {
        let _ = writeln!(out, "serve_reuse {request:?}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = describe(7);
        assert_eq!(a, describe(7), "request stream, catalog and run seeds");
        assert_ne!(a, describe(8));
        assert!(a.lines().count() > 500);
    }

    #[test]
    fn run_tables_have_the_documented_shape() {
        let runs = layer_runs(1);
        assert_eq!(runs.len(), 8 * 3 * LAYER_REPS);
        let mut seeds: Vec<u64> = runs.iter().map(|(_, r)| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), runs.len(), "run seeds are distinct");
        let (train, gradient) = gradient_runs(1);
        assert_ne!(train[0], train[1]);
        assert_eq!(gradient.len(), 8 * GRADIENT_REPS);
    }

    #[test]
    fn serve_streams_never_share_a_seed() {
        for workload in ["serve_batch", "serve_seq"] {
            let stream = serve_stream(3, workload);
            assert_eq!(stream.len(), SERVE_REQUESTS);
            for (i, a) in stream.iter().enumerate() {
                assert!(stream[i + 1..].iter().all(|b| b.seed != a.seed));
            }
        }
        assert_ne!(serve_stream(3, "serve_batch"), serve_stream(3, "serve_seq"));
    }

    #[test]
    fn reuse_stream_is_popular_and_mostly_replayable() {
        let problems = reuse_problems();
        assert_eq!(problems.len(), 24);
        let mut names: Vec<&str> = problems.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 24, "problem names are distinct");

        let inputs = reuse_inputs(1);
        assert_eq!(inputs.catalog.len(), CATALOG_NETWORKS);
        for network in &inputs.catalog {
            assert_eq!(network.len(), NETWORK_LAYERS);
            let mut distinct = network.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), NETWORK_DISTINCT);
            assert!(distinct.iter().all(|&p| p < 24));
        }
        let novel = inputs.requests.iter().filter(|r| r.novel).count();
        assert_eq!(novel as f64, REUSE_REQUESTS as f64 * NOVEL_SHARE);
        assert!(inputs
            .requests
            .iter()
            .all(|r| r.novel != (r.seed == inputs.shared_seed)));
        // Zipf: the most popular network is asked for more than the least.
        let count = |n: usize| inputs.requests.iter().filter(|r| r.network == n).count();
        assert!(count(0) > 3 * count(CATALOG_NETWORKS - 1));
    }

    #[test]
    fn prng_streams_are_independent_and_in_range() {
        let mut a = Prng::new(1, "a");
        let mut b = Prng::new(1, "b");
        assert_ne!(a.next_u64(), b.next_u64());
        for _ in 0..1000 {
            assert!(a.below(7) < 7);
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
