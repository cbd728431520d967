//! Search fingerprint of demand-driven analysis: exact solver and
//! encoder counters for fixed designs under zero arrivals — a
//! carry-skip cascade and two of the Table 2 partitions.
//!
//! The flat-analysis and characterization pins live beside the encoder
//! in `crates/fta/tests/search_fingerprint.rs`, which also explains
//! what the pins guard and how a deliberate search change updates them.
//!
//! Column order: `sat_queries`, `solver_conflicts`,
//! `solver_propagations`, `learnt_clauses`, `nodes_built`, `memo_hits`,
//! `domains_built`, `clauses_subsumed`.

use hfta_core::{AnalysisConfig, DemandAnalysis, DemandDrivenAnalyzer};
use hfta_fta::StabilityStats;
use hfta_netlist::gen::{carry_skip_adder, random_circuit, CsaDelays, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition_min_cut;
use hfta_netlist::Time;

fn counters(s: &StabilityStats) -> [u64; 8] {
    [
        s.sat_queries,
        s.solver_conflicts,
        s.solver_propagations,
        s.learnt_clauses,
        s.nodes_built,
        s.memo_hits,
        s.domains_built,
        s.clauses_subsumed,
    ]
}

#[test]
fn demand_driven_carry_skip_adder() {
    let design = carry_skip_adder(16, 4, CsaDelays::default());
    let mut an = DemandDrivenAnalyzer::with_config(&design, "csa16.4", &AnalysisConfig::default())
        .expect("acyclic");
    let result = an.analyze(&[Time::ZERO; 33]).expect("acyclic");
    assert_eq!(result.delay, Time::new(24));
    assert_eq!(counters(&result.stability), [5, 12, 381, 11, 45, 0, 5, 0]);
}

/// Demand-driven analysis of a Table 2 circuit: the ISCAS-like random
/// circuit cut at its narrowest crossing in the middle half, as the
/// `table2` bench does.
fn table2_demand(name: &str, gates: usize, seed: u64, config: &AnalysisConfig) -> DemandAnalysis {
    let flat = random_circuit(name, RandomCircuitSpec::iscas_like(gates, seed));
    let design = cascade_bipartition_min_cut(&flat, 0.25, 0.75).expect("partitionable");
    let top = format!("{name}_top");
    let n = design.composite(&top).expect("top").inputs().len();
    let mut an = DemandDrivenAnalyzer::with_config(&design, &top, config).expect("acyclic");
    an.analyze(&vec![Time::ZERO; n]).expect("acyclic")
}

/// Pins the delay, `rounds / checks / refinements` and the counters,
/// and checks a two-worker pool reproduces the serial analysis exactly.
fn pin_table2(name: &str, gates: usize, seed: u64, delay: i64, work: [u64; 3], want: [u64; 8]) {
    let serial = table2_demand(name, gates, seed, &AnalysisConfig::default());
    assert_eq!(serial.delay, Time::new(delay), "{name}: delay");
    assert_eq!(
        [serial.rounds, serial.checks, serial.refinements],
        work,
        "{name}: rounds / checks / refinements"
    );
    assert_eq!(counters(&serial.stability), want, "{name}");
    let parallel_config = AnalysisConfig::default()
        .with_threads(2)
        .with_thread_clamp(false);
    let parallel = table2_demand(name, gates, seed, &parallel_config);
    assert_eq!(parallel, serial, "{name}: serial vs two workers");
}

#[test]
fn demand_driven_table2_c432_like() {
    pin_table2(
        "c432_like",
        160,
        432,
        34,
        [3, 99, 81],
        [99, 886, 67_606, 823, 4_639, 597, 99, 0],
    );
}

#[test]
fn demand_driven_table2_c880_like() {
    pin_table2(
        "c880_like",
        383,
        880,
        42,
        [2, 34, 21],
        [34, 300, 25_313, 278, 959, 20, 34, 0],
    );
}
