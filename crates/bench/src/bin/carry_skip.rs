//! Timings behind **Table 1**: hierarchical (demand-driven) vs flat vs
//! topological analysis of carry-skip adder cascades.
//!
//! The paper's claim: on regular hierarchical circuits the flat
//! analyzer's cost explodes with size while hierarchical analysis
//! amortizes one block characterization across all instances.
//!
//! Run with `cargo run --release -p hfta-bench --bin carry_skip`; see
//! [`hfta_testkit::Harness`] for the environment knobs.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
use hfta_fta::{DelayAnalyzer, TopoSta};
use hfta_netlist::gen::carry_skip_adder;
use hfta_netlist::Time;
use hfta_testkit::Harness;

fn main() {
    let mut harness = Harness::new("carry_skip");
    {
        let mut group = harness.group("table1_carry_skip");
        for bits in [8usize, 16, 32] {
            let name = format!("csa{bits}.2");
            let design = carry_skip_adder(bits, 2, Default::default());
            let flat = design.flatten(&name).expect("flattens");
            let arrivals = vec![Time::ZERO; 2 * bits + 1];

            group.bench(&format!("hier_demand/{bits}"), || {
                let mut an =
                    DemandDrivenAnalyzer::with_config(&design, &name, &AnalysisConfig::default())
                        .expect("valid");
                an.analyze(&arrivals).expect("analyzes").delay
            });
            group.bench(&format!("flat_xbd0/{bits}"), || {
                let mut an = DelayAnalyzer::new_sat_shared(&flat, &arrivals).expect("valid");
                an.circuit_delay()
            });
            group.bench(&format!("topological/{bits}"), || {
                let sta = TopoSta::new(&flat).expect("valid");
                sta.circuit_delay(&arrivals)
            });
        }
    }
    harness.finish();
}
