//! Map the MTTKRP tensor-algebra kernel (Table 1's MTTKRP_0 and MTTKRP_1)
//! onto the paper's accelerator with Mind Mappings, demonstrating that the
//! same framework works across target algorithms without any domain-specific
//! heuristics.
//!
//! ```bash
//! cargo run --release --example mttkrp_search
//! ```
//!
//! One surrogate is trained for the whole MTTKRP family and then reused for
//! both target shapes (Section 5.3: one surrogate per algorithm), including
//! shapes it never saw during training.

use mind_mappings::prelude::*;
use mind_mappings::workloads::mttkrp::MttkrpFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let arch = evaluated_accelerator();
    println!("accelerator: {arch}");

    println!("training the MTTKRP surrogate…");
    let phase1 = Phase1Config {
        num_samples: 6_000,
        epochs: 25,
        hidden_layers: vec![64, 128, 64],
        ..Phase1Config::default_experiment()
    };
    let (mm, _) = MindMappings::train(arch.clone(), &MttkrpFamily::default(), &phase1, &mut rng)
        .expect("surrogate training");

    for target in table1::mttkrp_problems() {
        let problem = target.problem;
        let model = CostModel::new(arch.clone(), problem.clone());
        println!("\nsearching mappings for {problem}");
        let trace = mm.search(&problem, 1_500, &mut rng);
        let best = trace.best_mapping.as_ref().expect("mapping found");
        let cost = model.evaluate(best);

        // Black-box baseline for context: simulated annealing with the same
        // number of cost-function queries.
        let space = mm.map_space(&problem);
        let mut sa = SimulatedAnnealing::default();
        let mut objective = CostModelObjective::new(model.clone());
        let sa_trace = drive(
            &mut sa,
            &space,
            &mut objective,
            Budget::iterations(1_500),
            &mut rng,
        );

        println!(
            "  algorithmic minimum EDP : {:.3e} J·s",
            model.lower_bound().edp
        );
        println!(
            "  Mind Mappings           : {:.3e} J·s ({:.1}x bound, utilization {:.0}%)",
            cost.edp,
            cost.edp / model.lower_bound().edp,
            cost.utilization * 100.0
        );
        println!(
            "  Simulated Annealing     : {:.3e} J·s ({:.1}x bound)",
            sa_trace.best_cost,
            sa_trace.best_cost / model.lower_bound().edp
        );
    }
}
