//! Empirical validation: event-driven timing simulation (one concrete
//! delay assignment — the nominal one) can never settle later than the
//! XBD0 functional arrival, which in turn never exceeds the
//! topological arrival. Monte-Carlo over random circuits and vector
//! pairs. The functional arrivals come from both the per-query and the
//! shared (domain-restricted) SAT solver, which must agree, and every
//! sensitizing vector the shared solver extracts is checked against
//! the BDD backend's characteristic functions.

use hfta::fta::BddAlg;
use hfta::netlist::event_sim::monte_carlo_settle;
use hfta::netlist::gen::{
    carry_skip_adder_flat, random_circuit, CsaDelays, GateMix, RandomCircuitSpec,
};
use hfta::{DelayAnalyzer, StabilityAnalyzer, Time, TopoSta};

fn t(v: i64) -> Time {
    Time::new(v)
}

fn check_sandwich(nl: &hfta::Netlist, samples: usize, seed: u64) {
    let arrivals = vec![t(0); nl.inputs().len()];
    let observed = monte_carlo_settle(nl, &arrivals, samples, seed).expect("simulates");
    let mut an = DelayAnalyzer::new_sat(nl, &arrivals).expect("valid");
    let mut shared = DelayAnalyzer::new_sat_shared(nl, &arrivals).expect("valid");
    let mut bdd = StabilityAnalyzer::new(nl, &arrivals, BddAlg::new()).expect("valid");
    let sta = TopoSta::new(nl).expect("valid");
    let topo = sta.arrival_times(&arrivals);
    for (k, &out) in nl.outputs().iter().enumerate() {
        let functional = an.output_arrival(out);
        assert_eq!(
            shared.output_arrival(out),
            functional,
            "{}: shared and per-query solvers disagree",
            nl.net_name(out)
        );
        // The witness must leave the output unsettled (neither S0 nor
        // S1 holds) one unit before its arrival.
        if let Some(w) = shared.sensitizing_vector(out) {
            let arrival = functional.finite().expect("witness arrival is finite");
            let before = t(arrival - 1);
            let (s0, s1) = bdd.characteristic(out, before);
            let mgr = bdd.alg_mut().manager();
            assert!(
                !mgr.eval(s0, &w) && !mgr.eval(s1, &w),
                "{}: vector {w:?} settles by {before}",
                nl.net_name(out)
            );
        }
        assert!(
            observed[k] <= functional,
            "{}: simulated settle {} exceeds functional arrival {}",
            nl.net_name(out),
            observed[k],
            functional
        );
        assert!(
            functional <= topo[out.index()],
            "{}: functional {} exceeds topological {}",
            nl.net_name(out),
            functional,
            topo[out.index()]
        );
    }
}

#[test]
fn random_circuits_nand_heavy() {
    for seed in 0..5 {
        let spec = RandomCircuitSpec {
            inputs: 8,
            gates: 60,
            seed,
            locality: 10,
            global_fanin_prob: 0.2,
            mix: GateMix::NandHeavy,
        };
        let nl = random_circuit("w", spec);
        check_sandwich(&nl, 40, seed * 13 + 1);
    }
}

#[test]
fn random_circuits_xor_heavy() {
    for seed in 10..14 {
        let spec = RandomCircuitSpec {
            inputs: 8,
            gates: 60,
            seed,
            locality: 10,
            global_fanin_prob: 0.05,
            mix: GateMix::XorHeavy,
        };
        let nl = random_circuit("w", spec);
        check_sandwich(&nl, 40, seed * 7 + 3);
    }
}

#[test]
fn carry_skip_adder_witness() {
    let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).expect("flattens");
    check_sandwich(&flat, 64, 99);
}

/// Tightness witness: on the 2-bit block some simulated transition
/// actually achieves the functional arrival of each sum output (the
/// analytical bound is not vacuous).
#[test]
fn simulation_achieves_functional_bound_on_block() {
    use hfta::netlist::gen::carry_skip_block;
    let nl = carry_skip_block(2, CsaDelays::default());
    let arrivals = vec![t(0); 5];
    let observed = monte_carlo_settle(&nl, &arrivals, 512, 5).expect("simulates");
    let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).expect("valid");
    // s0 (functional arrival 4) and s1 (6) are reached by simulation.
    let s0 = nl.outputs()[0];
    let s1 = nl.outputs()[1];
    assert_eq!(an.output_arrival(s0), t(4));
    assert_eq!(observed[0], t(4));
    assert_eq!(an.output_arrival(s1), t(6));
    assert_eq!(observed[1], t(6));
}
