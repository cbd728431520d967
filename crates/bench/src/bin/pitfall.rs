//! Demonstrates the arrival-time-dependence pitfall the paper's
//! Section 1 raises against Yalcin & Hayes' hierarchical models:
//! per-pin delays measured in a fixed reference scenario, assembled
//! into a tuple *without joint validation*, can underapproximate true
//! delays — while HFTA's jointly-validated tuples never do.
//!
//! The binary searches seeded random circuits for a concrete
//! counterexample and prints the witness.
//!
//! Run with: `cargo run --release -p hfta-bench --bin pitfall`

use hfta_core::naive::{find_underapproximation, independent_relaxation_model};
use hfta_core::{AnalysisConfig, ModuleTiming};
use hfta_fta::OutputCone;
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};

fn main() {
    let mut found = 0usize;
    let mut sound_violations = 0usize;
    let mut examined = 0usize;
    for seed in 0..400u64 {
        let spec = RandomCircuitSpec {
            inputs: 5,
            gates: 14,
            seed,
            locality: 6,
            global_fanin_prob: 0.3,
            mix: GateMix::NandHeavy,
        };
        let nl = random_circuit("pitfall", spec);
        let sound =
            ModuleTiming::characterize(&nl, &AnalysisConfig::default()).expect("characterizes");
        for (k, &out) in nl.outputs().iter().enumerate() {
            examined += 1;
            // The sound model must never underapproximate.
            if find_underapproximation(&nl, out, sound.model(k))
                .expect("analyzes")
                .is_some()
            {
                sound_violations += 1;
            }
            // The naive model eventually does.
            let cone = OutputCone::new(&nl, out).expect("acyclic");
            let naive = independent_relaxation_model(&cone, 16).expect("analyzes");
            if let Some(w) = find_underapproximation(&nl, out, &naive).expect("analyzes") {
                found += 1;
                if found == 1 {
                    println!("counterexample found (seed {seed}, output #{k}):");
                    println!("  naive tuple:     {}", naive.tuples()[0]);
                    println!(
                        "  arrivals:        {:?}",
                        w.arrivals
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                    );
                    println!("  naive claims stable by: {}", w.claimed);
                    println!("  true XBD0 arrival:      {}", w.actual);
                    println!("  sound HFTA model:       {}", sound.model(k));
                    println!();
                }
            }
        }
        if found >= 1 && seed >= 50 {
            break;
        }
    }
    println!("{examined} (circuit, output) pairs examined");
    println!("naive independently-assembled models underapproximated on {found} of them");
    println!("jointly-validated HFTA models underapproximated on {sound_violations} (must be 0)");
    assert_eq!(sound_violations, 0, "soundness violation!");
    assert!(found > 0, "pitfall demonstration found no counterexample");
}
