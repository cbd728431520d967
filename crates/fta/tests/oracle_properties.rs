//! Property tests for the persistent stability oracle and the verdict
//! store: across random circuits, arrival conditions, and query times,
//! one long-lived [`StabilityOracle`] answers exactly like a fresh one
//! built per condition. This is the observable contract solver reuse
//! must not disturb — learnt clauses and memoized `(net, t)` nodes may
//! only change *how fast* an answer arrives, never *which* answer. A
//! [`VerdictStore`] may likewise only answer what a fresh check would.

use hfta_fta::{SatAlg, StabilityOracle, VerdictStore};
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta_netlist::{Netlist, Time};
use hfta_testkit::{from_fn_with_shrink, prop, vec_of, Rng, Strategy};

const INPUTS: usize = 4;

fn seed_strategy() -> impl Strategy<Value = u64> {
    from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(0u64..1_000_000),
        |s: &u64| if *s == 0 { vec![] } else { vec![0, *s / 2] },
    )
}

/// One arrival condition: finite arrivals in a small window, with an
/// occasional −∞ (unexercised pin).
fn condition_strategy() -> impl Strategy<Value = Vec<Time>> {
    from_fn_with_shrink(
        |rng: &mut Rng| {
            (0..INPUTS)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        Time::NEG_INF
                    } else {
                        Time::new(rng.gen_range(-5i64..10))
                    }
                })
                .collect()
        },
        |v: &Vec<Time>| {
            let mut out = Vec::new();
            for i in 0..v.len() {
                if v[i] != Time::ZERO {
                    let mut w = v.clone();
                    w[i] = Time::ZERO;
                    out.push(w);
                }
            }
            out
        },
    )
}

/// One arrival condition around the window where stability at 0
/// flips, with an occasional `−∞` (settled forever) or `+∞` (never
/// arrives).
fn infinite_condition_strategy() -> impl Strategy<Value = Vec<Time>> {
    from_fn_with_shrink(
        |rng: &mut Rng| {
            (0..INPUTS)
                .map(|_| match rng.gen_range(0..10) {
                    0 => Time::NEG_INF,
                    1 => Time::POS_INF,
                    _ => Time::new(rng.gen_range(-8i64..3)),
                })
                .collect()
        },
        |v: &Vec<Time>| {
            (0..v.len())
                .filter(|&i| v[i] != Time::ZERO)
                .map(|i| {
                    let mut w = v.clone();
                    w[i] = Time::ZERO;
                    w
                })
                .collect()
        },
    )
}

/// The random circuit both properties run on.
fn circuit(seed: u64) -> Netlist {
    let spec = RandomCircuitSpec {
        inputs: INPUTS,
        gates: 10,
        seed,
        locality: 5,
        global_fanin_prob: 0.25,
        mix: GateMix::NandHeavy,
    };
    random_circuit("oracle_prop", spec)
}

// SAT work per case is non-trivial; 48 cases still sweeps ~150
// (circuit, condition) pairs. HFTA_PROP_CASES overrides as usual.
prop!(cases = 48, fn oracle_equals_fresh_analyzer(
    seed in seed_strategy(),
    conditions in vec_of(condition_strategy(), 1..4),
) {
    let nl = circuit(seed);
    let mut oracle = StabilityOracle::new(nl.clone(), &conditions[0], SatAlg::new()).unwrap();
    // Visit every condition, then revisit the first — the oracle by
    // then carries memo entries and learnt clauses from *other*
    // conditions, the state a fresh analyzer never sees.
    let mut schedule: Vec<&Vec<Time>> = conditions.iter().collect();
    schedule.push(&conditions[0]);
    for cond in schedule {
        let mut fresh = StabilityOracle::new(nl.clone(), cond, SatAlg::new()).unwrap();
        oracle.set_arrivals(cond);
        for &out in nl.outputs() {
            for t in [-3i64, 0, 2, 5, 9, 14] {
                let t = Time::new(t);
                assert_eq!(
                    oracle.is_stable_at(out, t),
                    fresh.is_stable_at(out, t),
                    "seed {seed}, condition {cond:?}, net {out:?}, t {t}"
                );
            }
        }
        // Instability witnesses agree on existence (the witness vector
        // itself may differ between equally valid assignments, but
        // presence/absence is part of the contract).
        for &out in nl.outputs() {
            let t = Time::new(3);
            assert_eq!(
                oracle.instability_witness(out, t).is_some(),
                fresh.instability_witness(out, t).is_some(),
                "witness presence diverged: seed {seed}, condition {cond:?}"
            );
        }
    }
});

// Monotone speedup, checked: the t = 0 verdicts of earlier conditions,
// kept per output in a store keyed by the negated arrivals (delays),
// imply a verdict on a later condition only when a fresh oracle gives
// that same verdict. Demand refinement's per-class memo and the pruned
// verdict records rely on exactly this.
prop!(cases = 48, fn verdict_store_implies_only_fresh_verdicts(
    seed in seed_strategy(),
    conditions in vec_of(infinite_condition_strategy(), 2..12),
) {
    let nl = circuit(seed);
    let mut stores = vec![VerdictStore::default(); nl.outputs().len()];
    for cond in &conditions {
        let mut fresh = StabilityOracle::new(nl.clone(), cond, SatAlg::new()).unwrap();
        let delays: Vec<Time> = cond.iter().map(|&a| -a).collect();
        for (store, &out) in stores.iter_mut().zip(nl.outputs()) {
            let stable = fresh.is_stable_at(out, Time::ZERO);
            if let Some(implied) = store.implied(&delays) {
                assert_eq!(
                    implied, stable,
                    "seed {seed}, condition {cond:?}, net {out:?}"
                );
            }
            store.record(&delays, stable);
        }
    }
});
