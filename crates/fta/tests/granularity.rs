//! Gate granularity matters under XBD0: a complex-gate MUX carries the
//! consensus prime `a·b`, so equal data inputs stabilize the output
//! even while the select is unsettled. Decomposing the MUX into
//! AND–OR–NOT logic (functionally identical!) re-introduces the static
//! hazard, and the XBD0 analysis correctly reports a *later* stable
//! time — both answers being correct for their respective structures,
//! as the event-driven simulator confirms.

use hfta_fta::DelayAnalyzer;
use hfta_netlist::event_sim::simulate_transition;
use hfta_netlist::gen::{carry_skip_block, CsaDelays};
use hfta_netlist::transform::{decompose_mux, strip_buffers};
use hfta_netlist::{GateKind, Netlist, Time};

fn t(v: i64) -> Time {
    Time::new(v)
}

fn mux_only() -> Netlist {
    let mut nl = Netlist::new("m");
    let s = nl.add_input("s");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let z = nl.add_net("z");
    nl.add_gate(GateKind::Mux, &[s, a, b], z, 2).unwrap();
    nl.mark_output(z);
    nl
}

#[test]
fn primitive_mux_masks_late_select() {
    let nl = mux_only();
    let z = nl.outputs()[0];
    // Select arrives at 10, data at 0.
    let mut an = DelayAnalyzer::new_sat(&nl, &[t(10), t(0), t(0)]).unwrap();
    // The consensus prime a·b covers the a == b vectors; the a != b
    // vectors genuinely need the select: stable at 12.
    assert_eq!(an.output_arrival(z), t(12));

    // But the *characterization* sees that a != b needs s: the delay
    // from s is the full mux delay. With equal data the simulator
    // settles at 2 regardless of s:
    let out = simulate_transition(
        &nl,
        &[false, true, true],
        &[true, true, true], // only s changes; a == b
        &[t(0), t(0), t(0)],
    )
    .unwrap();
    assert_eq!(out.settle, Time::NEG_INF, "output never moves when a == b");
}

#[test]
fn decomposed_mux_exposes_static_hazard() {
    let nl = mux_only();
    let de = decompose_mux(&nl);
    let z_prim = nl.outputs()[0];
    let z_dec = de.outputs()[0];

    // Same Boolean function…
    assert!(hfta_netlist::sim::equivalent_exhaustive(&nl, &de, 8).unwrap());

    // …different stability: with a == b and s late, the primitive is
    // stable as soon as the data settles (consensus), the decomposed
    // form is not (static hazard through s / s̄).
    let arrivals = vec![t(10), t(0), t(0)];
    let mut prim = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
    let mut dec = DelayAnalyzer::new_sat(&de, &arrivals).unwrap();
    // Probe just the a == b situation by checking stability at 2 + ε:
    // the primitive's arrival is 12 driven by a != b vectors, but its
    // *witness* at time 11 must be an a != b vector; the decomposed
    // form is unstable at 11 even for a == b.
    assert_eq!(prim.output_arrival(z_prim), t(12));
    assert_eq!(dec.output_arrival(z_dec), t(12));
    let w = prim.sensitizing_vector(z_prim).unwrap();
    assert_ne!(
        w[1], w[2],
        "primitive's critical vectors have a != b: {w:?}"
    );

    // Per-vector comparison at t = 11 via BDD characteristic
    // functions: the a == b == 1 vector is settled for the primitive
    // (consensus prime) but NOT for the decomposed structure — XBD0's
    // per-gate rule cannot correlate s and s̄ across the two ANDs.
    use hfta_fta::{BddAlg, BoolAlg, StabilityOracle};
    let check_vector = |netlist: &Netlist, vector: [bool; 3]| -> bool {
        let mut an = StabilityOracle::new(netlist.clone(), &arrivals, BddAlg::new()).unwrap();
        let out = netlist.outputs()[0];
        let (s0, s1) = an.characteristic(out, t(11));
        let settled = an.alg_mut().or(s0, s1);
        an.alg_mut().manager_mut().eval(settled, &vector)
    };
    assert!(
        check_vector(&nl, [true, true, true]),
        "primitive settled for a == b"
    );
    assert!(
        !check_vector(&de, [true, true, true]),
        "decomposed form keeps the hazard vector unsettled"
    );
}

#[test]
fn decomposition_is_conservative_never_optimistic() {
    // On the carry-skip block, decomposing the skip mux can only make
    // the XBD0 estimate later (fewer primes), never earlier.
    let nl = carry_skip_block(2, CsaDelays::default());
    let de = strip_buffers(&decompose_mux(&nl));
    for arrivals in [
        vec![t(0); 5],
        vec![t(5), t(0), t(0), t(0), t(0)],
        vec![t(0), t(-10), t(-10), t(-10), t(-10)],
    ] {
        let mut prim = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let mut dec = DelayAnalyzer::new_sat(&de, &arrivals).unwrap();
        for (k, (&o1, &o2)) in nl.outputs().iter().zip(de.outputs()).enumerate() {
            let p = prim.output_arrival(o1);
            let d = dec.output_arrival(o2);
            assert!(d >= p, "output {k} under {arrivals:?}: {d} < {p}");
        }
    }
}

#[test]
fn skip_path_survives_decomposition() {
    // The carry-skip false path does not depend on the consensus term
    // (the skip cases have P at a known controlling value), so even the
    // decomposed block keeps c_in→c_out at 2 when a/b are settled.
    let nl = strip_buffers(&decompose_mux(&carry_skip_block(2, CsaDelays::default())));
    let c_out = nl.find_net("c_out").unwrap();
    let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
    let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
    assert_eq!(an.output_arrival(c_out), t(2));
}
