//! Reference check for the characterizer's verdict store.
//!
//! The characterizer decides a candidate tuple from the verdicts it
//! already proved for the same cone whenever monotone speedup implies
//! the answer, and checks only the rest. The reference below runs the
//! same greedy relaxation the plain way: every candidate is asked of a
//! fresh BDD-backed [`StabilityOracle`], with no store, no shared
//! state and no SAT. Both must produce the same models — on random
//! circuits and on carry-skip blocks, for every pass count, through
//! both the unbudgeted and the budgeted (never binding) solver entry
//! points of the module's shared oracle.

use hfta_fta::{
    characterize_module, AnalysisConfig, BddAlg, SolveBudget, StabilityOracle, TimingModel,
    TimingTuple, TopoSta, LENGTHS_CAP,
};
use hfta_netlist::gen::{carry_skip_block, random_circuit, CsaDelays, GateMix, RandomCircuitSpec};
use hfta_netlist::{NetId, Netlist, Time};
use hfta_testkit::{any_bool, prop};

/// Is `cone`'s output stable at 0 with input `i` arriving at
/// `−delays[i]`? Asked of a fresh BDD oracle every time.
fn valid(cone: &Netlist, delays: &[Time]) -> bool {
    let arrivals: Vec<Time> = delays.iter().map(|&d| -d).collect();
    let mut an = StabilityOracle::new(cone.clone(), &arrivals, BddAlg::new()).expect("acyclic");
    an.is_stable_at(cone.outputs()[0], Time::ZERO)
}

/// The approximate required-time model of `output`: greedy passes
/// seeded from the inputs in descending topological delay, each input
/// walking down its distinct path lengths and then to `−∞` until a
/// step is invalid, plus the topological tuple as a floor.
fn reference_model(nl: &Netlist, output: NetId, max_tuples: usize) -> TimingModel {
    let (cone, sources) = nl.cone(output);
    let n = cone.inputs().len();
    let full_len = nl.inputs().len();
    if n == 0 {
        return TimingModel::from_tuples(vec![TimingTuple::new(vec![Time::NEG_INF; full_len])]);
    }
    let distinct = TopoSta::new(&cone)
        .expect("acyclic")
        .distinct_lengths_to(cone.outputs()[0], LENGTHS_CAP);
    let lists: Vec<Vec<Time>> = cone
        .inputs()
        .iter()
        .map(|pi| distinct[pi.index()].clone())
        .collect();
    let topo: Vec<Time> = lists.iter().map(|l| l[0]).collect();
    let mut by_criticality: Vec<usize> = (0..n).collect();
    by_criticality.sort_by(|&a, &b| topo[b].cmp(&topo[a]));

    let mut tuples = Vec::new();
    for seed in 0..max_tuples.min(n) {
        let mut order = by_criticality.clone();
        order.rotate_left(seed);
        let mut delays = topo.clone();
        for &i in &order {
            for &l in lists[i][1..].iter().chain([&Time::NEG_INF]) {
                let mut candidate = delays.clone();
                candidate[i] = l;
                if !valid(&cone, &candidate) {
                    break;
                }
                delays = candidate;
            }
        }
        tuples.push(delays);
    }
    tuples.push(topo);

    let positions: Vec<usize> = sources
        .iter()
        .map(|src| nl.inputs().iter().position(|pi| pi == src).expect("input"))
        .collect();
    TimingModel::from_tuples(
        tuples
            .into_iter()
            .map(|t| {
                let mut full = vec![Time::NEG_INF; full_len];
                for (i, &p) in positions.iter().enumerate() {
                    full[p] = t[i];
                }
                TimingTuple::new(full)
            })
            .collect(),
    )
}

/// Compares `characterize_module` with the reference on every output,
/// under the default and a never-binding budget.
fn assert_matches_reference(nl: &Netlist, max_tuples: usize) {
    let want: Vec<TimingModel> = nl
        .outputs()
        .iter()
        .map(|&o| reference_model(nl, o, max_tuples))
        .collect();
    let unbudgeted = AnalysisConfig::default().with_max_tuples(max_tuples);
    let never_binds = unbudgeted
        .clone()
        .with_budget(SolveBudget::default().with_conflicts(u64::MAX));
    for config in [unbudgeted, never_binds] {
        let got = characterize_module(nl, &config).expect("acyclic");
        assert_eq!(
            got,
            want,
            "{} with max_tuples {max_tuples}, budget {:?}",
            nl.name(),
            config.budget
        );
    }
}

prop!(cases = 32, fn store_matches_reference_on_random_circuits(
    seed in 0u64..1_000_000,
    gates in 20usize..61,
    inputs in 4usize..9,
    xor_heavy in any_bool(),
    max_tuples in 1usize..5,
) {
    let spec = RandomCircuitSpec {
        inputs,
        gates,
        seed,
        locality: 6,
        global_fanin_prob: 0.1,
        mix: if xor_heavy { GateMix::XorHeavy } else { GateMix::NandHeavy },
    };
    assert_matches_reference(&random_circuit("ref", spec), max_tuples);
});

#[test]
fn store_matches_reference_on_carry_skip_blocks() {
    let delay_sets = [
        CsaDelays::default(),
        CsaDelays {
            and_or: 1,
            xor: 1,
            mux: 1,
        },
        CsaDelays {
            and_or: 2,
            xor: 3,
            mux: 1,
        },
    ];
    for m in 1..=4 {
        for delays in delay_sets {
            let block = carry_skip_block(m, delays);
            for max_tuples in 1..=4 {
                assert_matches_reference(&block, max_tuples);
            }
        }
    }
}
