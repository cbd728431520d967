//! Search fingerprint of demand-driven analysis: exact solver and
//! encoder counters for a fixed design under zero arrivals.
//!
//! The flat-analysis and characterization pins live beside the encoder
//! in `crates/fta/tests/search_fingerprint.rs`, which also explains
//! what the pins guard and how a deliberate search change updates them.
//!
//! Column order: `sat_queries`, `solver_conflicts`,
//! `solver_propagations`, `learnt_clauses`, `nodes_built`, `memo_hits`,
//! `domains_built`, `clauses_subsumed`.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
use hfta_netlist::Time;

#[test]
fn demand_driven_carry_skip_adder() {
    let design = carry_skip_adder(16, 4, CsaDelays::default());
    let mut an = DemandDrivenAnalyzer::with_config(&design, "csa16.4", &AnalysisConfig::default())
        .expect("acyclic");
    let result = an.analyze(&[Time::ZERO; 33]).expect("acyclic");
    assert_eq!(result.delay, Time::new(24));
    let s = result.stability;
    assert_eq!(
        [
            s.sat_queries,
            s.solver_conflicts,
            s.solver_propagations,
            s.learnt_clauses,
            s.nodes_built,
            s.memo_hits,
            s.domains_built,
            s.clauses_subsumed,
        ],
        [5, 12, 381, 11, 45, 0, 5, 0]
    );
}
