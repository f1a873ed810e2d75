//! Compare all mapping-space search methods (Random, SA, GA, RL, Mind
//! Mappings) head-to-head on one CNN layer — a miniature version of the
//! paper's Figure 5 experiment.
//!
//! ```bash
//! cargo run --release --example compare_searchers
//! ```
//!
//! All methods get the same number of cost-function evaluations
//! (surrogate evaluations in the case of Mind Mappings), and results are
//! reported as EDP normalized to the algorithmic minimum, exactly as in the
//! paper's plots.

use mind_mappings::prelude::*;
use mind_mappings::workloads::cnn::CnnFamily;
use mm_core::GradientSearch;
use mm_search::{AnnealingConfig, DdpgAgent, DdpgConfig, GeneticConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let arch = evaluated_accelerator();
    let iterations = 800u64;

    // Phase 1 for Mind Mappings.
    println!("training the CNN-Layer surrogate…");
    let phase1 = Phase1Config {
        num_samples: 8_000,
        epochs: 25,
        hidden_layers: vec![64, 256, 128, 64],
        ..Phase1Config::default_experiment()
    };
    let (mm, _) = MindMappings::train(arch.clone(), &CnnFamily::default(), &phase1, &mut rng)
        .expect("surrogate training");

    let layer = table1::by_name("AlexNet Conv_4")
        .expect("table 1 problem")
        .problem;
    let space = MapSpace::new(layer.clone(), arch.mapping_constraints());
    let model = CostModel::new(arch.clone(), layer.clone());
    let lb = model.lower_bound().edp;
    println!("target: {layer}\nbudget: {iterations} cost-function evaluations per method\n");

    let mut results: Vec<(String, f64)> = Vec::new();

    // Black-box baselines query the reference cost model.
    let mut baselines: Vec<Box<dyn ProposalSearch>> = vec![
        Box::new(RandomSearch::new()),
        Box::new(SimulatedAnnealing::new(AnnealingConfig::default())),
        Box::new(GeneticAlgorithm::new(GeneticConfig::default())),
        Box::new(DdpgAgent::new(DdpgConfig::default())),
    ];
    for searcher in &mut baselines {
        let mut objective = CostModelObjective::new(model.clone());
        let trace = drive(
            &mut **searcher,
            &space,
            &mut objective,
            Budget::iterations(iterations),
            &mut rng,
        );
        results.push((searcher.name().to_string(), trace.best_cost / lb));
    }

    // Mind Mappings queries its surrogate instead.
    let gs = GradientSearch::new(mm.surrogate(), layer.clone(), Phase2Config::default())
        .expect("family match");
    let trace = gs.run(Budget::iterations(iterations), &model, &mut rng);
    results.push(("MM (this paper)".to_string(), trace.best_cost / lb));

    results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!("{:<18} {:>28}", "method", "best EDP / algorithmic minimum");
    println!("{}", "-".repeat(48));
    for (name, edp) in &results {
        println!("{name:<18} {edp:>28.2}");
    }
    println!("\n(lower is better; 1.0 would be the possibly-unachievable lower bound)");
}
