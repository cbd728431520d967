//! Search fingerprints: exact solver and encoder counters for fixed
//! workloads, under zero arrivals.
//!
//! Answers are the contract (DESIGN.md); these counters are not. They
//! pin the *search*, so a refactor of the solver's or the encoder's
//! memory layout can show that it repeats every Tseitin clause,
//! decision, propagation, conflict and inprocessing step. A change that
//! alters the search on purpose updates the pins and says why in
//! CHANGES.md.
//!
//! Column order of each pin: `sat_queries`, `solver_conflicts`,
//! `solver_propagations`, `learnt_clauses`, `nodes_built`, `memo_hits`,
//! `domains_built`, `clauses_subsumed`.

use hfta_fta::{AnalysisConfig, Characterizer, DelayAnalyzer, StabilityStats};
use hfta_netlist::gen::{carry_skip_block, random_circuit, CsaDelays, RandomCircuitSpec};
use hfta_netlist::{Netlist, Time};

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

fn c432_like() -> Netlist {
    random_circuit("c432_like", RandomCircuitSpec::iscas_like(160, 432))
}

fn arrivals(an: &mut DelayAnalyzer<hfta_fta::SatAlg>) -> Vec<i64> {
    an.output_arrivals()
        .iter()
        .map(|t| t.finite().expect("finite arrival"))
        .collect()
}

const C432_ARRIVALS: [i64; 14] = [2, 5, 5, 19, 20, 21, 23, 31, 31, 32, 32, 33, 32, 32];

#[test]
fn shared_solver_flat_delay() {
    let nl = c432_like();
    let zeros = vec![Time::ZERO; nl.inputs().len()];
    let mut an = DelayAnalyzer::new_sat_shared(&nl, &zeros).expect("acyclic");
    assert_eq!(arrivals(&mut an), C432_ARRIVALS);
    assert_eq!(
        counters(&an.stats()),
        [19, 431, 71_321, 415, 302, 137, 19, 0]
    );
}

#[test]
fn per_cone_flat_delay() {
    let nl = c432_like();
    let zeros = vec![Time::ZERO; nl.inputs().len()];
    let mut an = DelayAnalyzer::new_sat(&nl, &zeros).expect("acyclic");
    assert_eq!(arrivals(&mut an), C432_ARRIVALS);
    assert_eq!(
        counters(&an.stats()),
        [19, 449, 77_558, 432, 302, 137, 0, 0]
    );
}

/// The 4-bit carry-skip block's models, over inputs `c_in a0 b0 … a3
/// b3`: one tuple per output, the paper's Section 4 shape. Pinned from
/// a revision that checked every candidate tuple, so they also show
/// that deciding implied candidates from earlier verdicts left every
/// model as it was.
const CSA4_MODELS: [&str; 5] = [
    "{(2, 4, 4, -inf, -inf, -inf, -inf, -inf, -inf)}",
    "{(4, 6, 6, 4, 4, -inf, -inf, -inf, -inf)}",
    "{(6, 8, 8, 6, 6, 4, 4, -inf, -inf)}",
    "{(8, 10, 10, 8, 8, 6, 6, 4, 4)}",
    "{(2, 12, 12, 10, 10, 8, 8, 6, 6)}",
];

#[test]
fn characterize_carry_skip_block() {
    let nl = carry_skip_block(4, CsaDelays::default());
    let mut ch = Characterizer::new(&nl, &AnalysisConfig::default());
    for (&o, want) in nl.outputs().iter().zip(CSA4_MODELS) {
        let model = ch.output_model(o).expect("acyclic");
        assert_eq!(model.to_string(), want, "{}", nl.net_name(o));
    }
    assert_eq!(
        counters(&ch.stability_stats()),
        [40, 9, 1_293, 8, 230, 0, 40, 0]
    );
}
