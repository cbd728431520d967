//! The concrete XBD0 evaluator against the symbolic stability
//! recursion, and the witness-guided arrival search against a plain
//! bisection.
//!
//! The arrival search raises its lower bounds from
//! [`sim::settle_all`]'s settle times, so its answers are exact only if
//! the evaluator agrees pointwise with the `S0`/`S1` recursion: under
//! every vector, a net is stable by `t` exactly when `t` reaches its
//! settle time. The first two properties pin that, on circuits built
//! from every gate kind with repeated fanins and zero delays, and under
//! finite, `−∞` and `+∞` arrivals. The third checks the search itself
//! on every backend shape, and across rebinds of one oracle, against a
//! bisection that knows nothing but `try_is_stable_at`.

use hfta_fta::{BddAlg, BoolAlg, DelayAnalyzer, SatAlg, StabilityOracle};
use hfta_netlist::gen::{carry_skip_block, random_circuit, CsaDelays, GateMix, RandomCircuitSpec};
use hfta_netlist::{sim, GateKind, NetId, Netlist, Time};
use hfta_testkit::{prop, Rng};

const KINDS: [GateKind; 12] = [
    GateKind::Const0,
    GateKind::Const1,
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Mux,
    GateKind::Mux,
];

/// A random circuit of `gates` gates whose first ones run through every
/// kind, fanins drawn with repetition (so `Mux(s, a, a)` and `And(a, a)`
/// occur) and delays 0–2. Every net without fanout is an output.
fn every_kind_circuit(rng: &mut Rng, inputs: usize, gates: std::ops::Range<usize>) -> Netlist {
    let gates = rng.gen_range(gates);
    let mut nl = Netlist::new("every_kind");
    let mut pool: Vec<NetId> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    for g in 0..gates {
        let kind = KINDS.get(g).copied().unwrap_or_else(|| *rng.choose(&KINDS));
        let (lo, hi) = kind.arity();
        let arity = if hi > lo {
            rng.gen_range(lo..lo + 3)
        } else {
            lo
        };
        let recent = pool.len().saturating_sub(6);
        let fanin: Vec<NetId> = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    pool[rng.gen_range(recent..pool.len())]
                } else {
                    *rng.choose(&pool)
                }
            })
            .collect();
        let out = nl.add_net(format!("g{g}"));
        nl.add_gate(kind, &fanin, out, rng.gen_range(0u32..3))
            .expect("fresh output net");
        pool.push(out);
    }
    let fanouts = nl.fanouts();
    for n in pool {
        if fanouts[n.index()].is_empty() && nl.driver(n).is_some() {
            nl.mark_output(n);
        }
    }
    nl
}

/// Arrivals drawn from a small finite window, `−∞` and `+∞`.
fn arrivals(rng: &mut Rng, n: usize) -> Vec<Time> {
    (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => Time::NEG_INF,
            1 => Time::POS_INF,
            _ => Time::new(rng.gen_range(-3i64..6)),
        })
        .collect()
}

/// A time window outside which no net's stability changes: one below
/// the earliest finite arrival, and the latest finite arrival plus
/// every gate delay (past the longest path).
fn window(nl: &Netlist, arrivals: &[Time]) -> (i64, i64) {
    let finite: Vec<i64> = arrivals.iter().filter_map(|t| t.finite()).collect();
    let lo = finite.iter().copied().min().unwrap_or(0) - 1;
    let delays: i64 = nl.gates().iter().map(|g| i64::from(g.delay)).sum();
    let hi = finite.iter().copied().max().unwrap_or(0) + delays;
    (lo, hi)
}

/// Per net: min-propagation of the finite arrivals (`+∞` where none
/// reaches).
fn first_events(nl: &Netlist, arrivals: &[Time]) -> Vec<Time> {
    let mut first = vec![Time::POS_INF; nl.net_count()];
    for (&pi, &a) in nl.inputs().iter().zip(arrivals) {
        if a.is_finite() {
            first[pi.index()] = a;
        }
    }
    for g in nl.topo_gates().expect("acyclic") {
        let gate = nl.gate(g);
        let earliest = gate
            .inputs
            .iter()
            .map(|n| first[n.index()])
            .fold(Time::POS_INF, Time::min);
        first[gate.output.index()] = earliest + Time::from(gate.delay);
    }
    first
}

fn vector(rng: &mut Rng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.next_bool()).collect()
}

prop!(cases = 48, fn settle_matches_the_stability_recursion(seed in 0u64..=u64::MAX) {
    let mut rng = Rng::seed_from_u64(seed);
    let inputs = rng.gen_range(1usize..5);
    let nl = every_kind_circuit(&mut rng, inputs, 12..24);
    let arr = arrivals(&mut rng, inputs);
    let topo = hfta_fta::TopoSta::new(&nl).expect("acyclic").arrival_times(&arr);
    let first = first_events(&nl, &arr);
    let (wlo, whi) = window(&nl, &arr);
    let mut an = StabilityOracle::new(nl.clone(), &arr, BddAlg::new()).expect("acyclic");
    for _ in 0..4 {
        let v = vector(&mut rng, inputs);
        let (values, settle) = sim::settle_all(&nl, &arr, &v).expect("acyclic");
        assert_eq!(values, sim::eval_all(&nl, &v).expect("acyclic"), "seed {seed}");
        for n in nl.net_ids() {
            let lo = first[n.index()].finite().unwrap_or(wlo) - 1;
            let hi = topo[n.index()].finite().unwrap_or(whi) + 1;
            for t in lo..=hi {
                let (s0, s1) = an.characteristic(n, Time::new(t));
                let mgr = an.alg_mut().manager();
                let (s0, s1) = (mgr.eval(s0, &v), mgr.eval(s1, &v));
                let what = format!("seed {seed}, net {}, t {t}, vector {v:?}", nl.net_name(n));
                assert_eq!(s0 || s1, Time::new(t) >= settle[n.index()], "{what}");
                if s0 || s1 {
                    assert_eq!(s1, values[n.index()], "settled value, {what}");
                }
            }
        }
    }
});

prop!(cases = 48, fn sensitizing_vectors_settle_at_the_arrival(seed in 0u64..=u64::MAX) {
    let mut rng = Rng::seed_from_u64(seed);
    let inputs = rng.gen_range(1usize..6);
    let nl = every_kind_circuit(&mut rng, inputs, 12..30);
    let arr = arrivals(&mut rng, inputs);
    let mut an = DelayAnalyzer::new_sat(&nl, &arr).expect("acyclic");
    for &o in nl.outputs() {
        let arrival = an.output_arrival(o);
        match an.sensitizing_vector(o) {
            Some(v) => {
                let (_, settle) = sim::settle_all(&nl, &arr, &v).expect("acyclic");
                assert_eq!(settle[o.index()], arrival, "seed {seed}, output {}", nl.net_name(o));
            }
            None => assert!(!arrival.is_finite(), "seed {seed}: finite arrival needs a witness"),
        }
    }
});

/// The reference: bisection over the whole [`window`], knowing nothing
/// but `try_is_stable_at` (no event bounds, no witnesses).
fn plain_arrival<A: BoolAlg>(
    an: &mut StabilityOracle<A>,
    net: NetId,
    (lo, hi): (i64, i64),
) -> Time {
    let mut stable = |t: i64| {
        an.try_is_stable_at(net, Time::new(t))
            .expect("unlimited budget")
    };
    if stable(lo) {
        return Time::NEG_INF;
    }
    if !stable(hi) {
        return Time::POS_INF;
    }
    let (mut lo, mut hi) = (lo, hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if stable(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Time::new(hi)
}

/// Every shape of the search — analyzer over the shared SAT solver,
/// the plain SAT solver and BDDs, and one oracle rebound across
/// conditions — against [`plain_arrival`].
fn check_search(nl: &Netlist, conditions: &[Vec<Time>], what: &str) {
    let mut oracle =
        StabilityOracle::new(nl.clone(), &conditions[0], SatAlg::new_shared()).expect("acyclic");
    for arr in conditions {
        let mut reference = StabilityOracle::new(nl.clone(), arr, BddAlg::new()).expect("acyclic");
        let want: Vec<Time> = nl
            .outputs()
            .iter()
            .map(|&o| plain_arrival(&mut reference, o, window(nl, arr)))
            .collect();
        let shared = DelayAnalyzer::new_sat_shared(nl, arr)
            .expect("acyclic")
            .output_arrivals();
        let plain = DelayAnalyzer::new_sat(nl, arr)
            .expect("acyclic")
            .output_arrivals();
        let bdd = DelayAnalyzer::new(nl, arr, BddAlg::new())
            .expect("acyclic")
            .output_arrivals();
        oracle.set_arrivals(arr);
        let rebound: Vec<Time> = nl
            .outputs()
            .iter()
            .map(|&o| oracle.output_arrival(o).0)
            .collect();
        for (name, got) in [
            ("shared", shared),
            ("plain", plain),
            ("bdd", bdd),
            ("oracle", rebound),
        ] {
            assert_eq!(got, want, "{name}, {what}, arrivals {arr:?}");
        }
    }
}

prop!(cases = 32, fn search_equals_plain_bisection_on_random_circuits(seed in 0u64..=u64::MAX) {
    let mut rng = Rng::seed_from_u64(seed);
    let inputs = rng.gen_range(2usize..6);
    let nl = if rng.next_bool() {
        every_kind_circuit(&mut rng, inputs, 12..30)
    } else {
        let spec = RandomCircuitSpec {
            inputs,
            gates: rng.gen_range(10usize..40),
            seed,
            locality: 5,
            global_fanin_prob: 0.25,
            mix: if rng.next_bool() { GateMix::XorHeavy } else { GateMix::NandHeavy },
        };
        random_circuit("search", spec)
    };
    let conditions: Vec<Vec<Time>> = (0..3).map(|_| arrivals(&mut rng, inputs)).collect();
    check_search(&nl, &conditions, &format!("seed {seed}"));
});

prop!(cases = 16, fn search_equals_plain_bisection_on_carry_skip_blocks(seed in 0u64..=u64::MAX) {
    let mut rng = Rng::seed_from_u64(seed);
    let width = rng.gen_range(2usize..5);
    let nl = carry_skip_block(width, CsaDelays::default());
    let inputs = nl.inputs().len();
    let conditions: Vec<Vec<Time>> = (0..3).map(|_| arrivals(&mut rng, inputs)).collect();
    check_search(&nl, &conditions, &format!("seed {seed}, width {width}"));
});
