//! Exact XBD0 delay computation (flat functional timing analysis).
//!
//! This is the paper's comparator `[6]`: given a flat netlist and
//! primary-input arrival times, compute for each output the earliest
//! time it is guaranteed stable under the XBD0 model. Monotone speedup
//! makes stability monotone in `t`, so the stable time is found by
//! binary search over integer times between the earliest conceivable
//! event and the topological arrival, with each probe answered by a
//! [`StabilityOracle`]. Each refuted probe's countermodel is
//! simulated, and its settle times raise the lower end of every later
//! search (DESIGN.md, "Witness-guided arrival search").

use hfta_netlist::{NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::oracle::StabilityOracle;
use crate::stability::StabilityStats;

/// Functional (XBD0) delay analysis of one netlist under fixed arrival
/// times.
///
/// # Example
///
/// ```
/// use hfta_fta::DelayAnalyzer;
/// use hfta_netlist::gen::{carry_skip_block, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let block = carry_skip_block(2, CsaDelays::default());
/// let arrivals = vec![Time::ZERO; 5];
/// let mut an = DelayAnalyzer::new_sat(&block, &arrivals)?;
/// // With all inputs at 0 the skip mux hides the long ripple path:
/// // c_out settles at 8 topologically… and functionally too for this
/// // arrival pattern (a0/b0 are critical), matching the paper.
/// let c_out = block.find_net("c_out").expect("exists");
/// assert_eq!(an.output_arrival(c_out), Time::new(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DelayAnalyzer<A: BoolAlg> {
    stability: StabilityOracle<A>,
}

impl DelayAnalyzer<SatAlg> {
    /// Convenience constructor with the plain SAT backend, whose
    /// queries search the whole accumulated encoding.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new_sat(netlist: &Netlist, pi_arrivals: &[Time]) -> Result<Self, NetlistError> {
        DelayAnalyzer::new(netlist, pi_arrivals, SatAlg::new())
    }

    /// Like [`DelayAnalyzer::new_sat`], but the backend runs in
    /// shared-solver mode ([`SatAlg::new_shared`]): the whole netlist's
    /// stability probes go through one incremental SAT instance, each
    /// query domain-restricted to the probed output's transitive fanin,
    /// with subsumption inprocessing between queries. Every analysis
    /// runs on this backend. Wherever the budget does not bind,
    /// arrivals and verdicts are bit-identical to `new_sat`'s.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new_sat_shared(netlist: &Netlist, pi_arrivals: &[Time]) -> Result<Self, NetlistError> {
        DelayAnalyzer::new(netlist, pi_arrivals, SatAlg::new_shared())
    }
}

impl<A: BoolAlg> DelayAnalyzer<A> {
    /// Prepares a delay analysis of (an owned copy of) `netlist` over
    /// backend `alg`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn new(netlist: &Netlist, pi_arrivals: &[Time], alg: A) -> Result<Self, NetlistError> {
        Ok(DelayAnalyzer {
            stability: StabilityOracle::new(netlist.clone(), pi_arrivals, alg)?,
        })
    }

    /// Sets the per-query resource budget. When a stability probe runs
    /// out of budget, [`DelayAnalyzer::output_arrival`] reports that
    /// output at its topological arrival — always a sound upper bound
    /// under XBD0 — and counts it in [`StabilityStats::degraded`].
    /// Unlimited by default.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.stability.set_budget(budget);
    }

    /// Access to the Boolean backend (e.g. for episode recording).
    pub fn alg_mut(&mut self) -> &mut A {
        self.stability.alg_mut()
    }

    /// The earliest time `net` is guaranteed stable under XBD0.
    ///
    /// Returns [`Time::NEG_INF`] for nets stable from the beginning of
    /// time (constant cones, or cones fed only by `−∞` arrivals) and
    /// [`Time::POS_INF`] for nets that never stabilize (cones depending
    /// on inputs that never arrive). When the budget runs out mid-search
    /// the answer is the topological arrival (≥ the true one), counted
    /// in [`StabilityStats::degraded`].
    pub fn output_arrival(&mut self, net: NetId) -> Time {
        self.stability.output_arrival(net).0
    }

    /// Functional arrival time of every primary output, in output
    /// order.
    pub fn output_arrivals(&mut self) -> Vec<Time> {
        let outputs: Vec<NetId> = self.stability.netlist().outputs().to_vec();
        outputs
            .into_iter()
            .map(|o| self.output_arrival(o))
            .collect()
    }

    /// The circuit's functional delay: the latest output arrival.
    ///
    /// Outputs are visited in decreasing topological arrival order, and
    /// an output whose topological bound cannot exceed the current
    /// maximum is skipped (its functional arrival is at most
    /// topological) — a large saving on circuits with many outputs.
    pub fn circuit_delay(&mut self) -> Time {
        let mut outputs: Vec<NetId> = self.stability.netlist().outputs().to_vec();
        outputs.sort_by_key(|&o| std::cmp::Reverse(self.stability.topological_arrival(o)));
        let mut best = Time::NEG_INF;
        for o in outputs {
            if self.stability.topological_arrival(o) <= best {
                break; // sorted: nothing later can beat `best`
            }
            best = best.max(self.output_arrival(o));
        }
        best
    }

    /// Stability probe (exposed for the refinement algorithms).
    pub fn is_stable_at(&mut self, net: NetId, t: Time) -> bool {
        self.stability.is_stable_at(net, t)
    }

    /// An input vector sensitizing a *true* critical path of `net`: a
    /// vector under which the net is still unsettled one time unit
    /// before its functional arrival. Returns `None` for nets that are
    /// stable from the beginning of time.
    pub fn sensitizing_vector(&mut self, net: NetId) -> Option<Vec<bool>> {
        let arrival = self.output_arrival(net);
        let probe = arrival.finite()?;
        self.stability
            .instability_witness(net, Time::new(probe - 1))
    }

    /// Work counters of the underlying stability oracle, degraded
    /// outputs included.
    #[must_use]
    pub fn stats(&self) -> StabilityStats {
        self.stability.stats()
    }

    /// How many [`DelayAnalyzer::output_arrival`] calls so far were
    /// degraded to the topological arrival by the budget. Sample before
    /// and after a call to learn whether *that* output degraded.
    #[must_use]
    pub fn degraded_count(&self) -> u64 {
        self.stability.stats().degraded
    }
}

/// One-shot convenience: the functional circuit delay with all inputs
/// arriving at `t = 0`, using the SAT backend.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn functional_circuit_delay(netlist: &Netlist) -> Result<Time, NetlistError> {
    let arrivals = vec![Time::ZERO; netlist.inputs().len()];
    let mut an = DelayAnalyzer::new_sat(netlist, &arrivals)?;
    Ok(an.circuit_delay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolalg::BddAlg;
    use crate::sta::TopoSta;
    use hfta_netlist::gen::{
        carry_skip_adder_flat, carry_skip_block, ripple_carry_adder, CsaDelays,
    };
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn simple_gate_delay() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xor, &[a, b], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(1), t(5)]).unwrap();
        assert_eq!(an.output_arrival(z), t(7));
    }

    /// Paper Section 4: the 2-bit block with all inputs at 0 — outputs
    /// stabilize at their topological times (s0: 4, s1: 6, c_out: 8).
    #[test]
    fn block_delays_all_zero_arrivals() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0); 5]).unwrap();
        let arr = an.output_arrivals();
        assert_eq!(arr, vec![t(4), t(6), t(8)]);
    }

    /// Paper Figure 5: under arr(c_in)=5, others 0, the delay of c_out
    /// is 8 (the c_in→c_out path is false), not the topological 11.
    #[test]
    fn figure5_skewed_arrivals() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(5), t(0), t(0), t(0), t(0)]).unwrap();
        assert_eq!(an.output_arrival(c_out), t(8));
        // Topological says 11.
        let sta = TopoSta::new(&nl).unwrap();
        let arr = sta.arrival_times(&[t(5), t(0), t(0), t(0), t(0)]);
        assert_eq!(arr[c_out.index()], t(11));
    }

    /// Paper Section 4 / Table 1: with all inputs at 0 the last carry
    /// of a B-block cascade settles at 2B + 6. The circuit-wide delay
    /// is dominated by the last *sum* bit instead: its block's carry-in
    /// arrives at 2B + 4 and feeds a 4-deep sum path, giving 2B + 8
    /// for B ≥ 2 (8 for the single block).
    #[test]
    fn cascade_flat_delay_formula() {
        for n in [2usize, 4, 6, 8] {
            let flat = carry_skip_adder_flat(n, 2, CsaDelays::default()).unwrap();
            let blocks = (n / 2) as i64;

            let arrivals = vec![t(0); flat.inputs().len()];
            let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).unwrap();
            let carry = flat.find_net(&format!("c{n}")).unwrap();
            assert_eq!(an.output_arrival(carry), t(2 * blocks + 6), "carry, n={n}");

            let delay = functional_circuit_delay(&flat).unwrap();
            let expect = if blocks == 1 { 8 } else { 2 * blocks + 8 };
            assert_eq!(delay, t(expect), "circuit, n={n}");
        }
    }

    /// The last carry output alone also follows 2·blocks + 6, and is
    /// *below* its topological arrival for ≥ 2 blocks (false paths).
    #[test]
    fn cascade_carry_output_beats_topological() {
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let c8 = flat.find_net("c8").unwrap();
        let arrivals = vec![t(0); flat.inputs().len()];
        let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).unwrap();
        let functional = an.output_arrival(c8);
        assert_eq!(functional, t(14)); // 2·4 + 6
        let sta = TopoSta::new(&flat).unwrap();
        let topo = sta.arrival_times(&arrivals)[c8.index()];
        assert!(topo > functional, "topo {topo} vs functional {functional}");
        // Longest path: a0 → c2 (8), then three ripple-through-block
        // segments of 6 each.
        assert_eq!(topo, t(26));
    }

    /// Ripple-carry adder has no false paths: functional == topological.
    #[test]
    fn ripple_carry_has_no_false_paths() {
        let nl = ripple_carry_adder(3, CsaDelays::default());
        let arrivals = vec![t(0); nl.inputs().len()];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let sta = TopoSta::new(&nl).unwrap();
        let topo = sta.arrival_times(&arrivals);
        for &out in nl.outputs() {
            assert_eq!(an.output_arrival(out), topo[out.index()]);
        }
    }

    #[test]
    fn constant_cone_is_neg_inf() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const0, &[], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0)]).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
    }

    #[test]
    fn never_arriving_input_gives_pos_inf() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0), Time::POS_INF]).unwrap();
        assert_eq!(an.output_arrival(z), Time::POS_INF);
    }

    #[test]
    fn masked_never_arriving_input_is_finite() {
        // z = AND(a, ā): constant 0 regardless of b…
        // Use Mux(s, a, a) with s never arriving: consensus masks s.
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[Time::POS_INF, t(3)]).unwrap();
        assert_eq!(an.output_arrival(z), t(5));
    }

    /// A constant masks an input that never arrives: the output is
    /// stable from the beginning of time although its topological
    /// arrival is `+∞`.
    #[test]
    fn constant_masks_never_arriving_input() {
        let mut nl = Netlist::new("m");
        let b = nl.add_input("b");
        let k = nl.add_net("k");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const0, &[], k, 1).unwrap();
        nl.add_gate(GateKind::And, &[k, b], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[Time::POS_INF]).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
        let mut an = DelayAnalyzer::new(&nl, &[Time::POS_INF], BddAlg::new()).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
    }

    #[test]
    fn neg_inf_arrivals_can_make_output_always_stable() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Buf, &[a], z, 4).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[Time::NEG_INF]).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
    }

    /// A zero budget degrades every solver-dependent output to its
    /// topological arrival — never below the true functional time.
    #[test]
    fn zero_budget_degrades_to_topological_arrival() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let mut exact = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let mut capped = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        capped.set_budget(SolveBudget::default().with_conflicts(0));
        // Figure 5: functional 8 vs topological 11.
        assert_eq!(exact.output_arrival(c_out), t(8));
        assert_eq!(capped.output_arrival(c_out), t(11));
        let s = capped.stats();
        assert!(s.degraded > 0, "{s:?}");
        assert!(s.budget_hits > 0, "{s:?}");
        // Every output stays sandwiched: functional ≤ budgeted ≤ topo.
        let sta = TopoSta::new(&nl).unwrap();
        let topo = sta.arrival_times(&arrivals);
        for &out in nl.outputs() {
            let b = capped.output_arrival(out);
            assert!(b >= exact.output_arrival(out));
            assert!(b <= topo[out.index()]);
        }
        // And the exact analyzer saw no budget activity.
        assert_eq!(exact.stats().degraded, 0);
        assert_eq!(exact.stats().budget_hits, 0);
    }

    #[test]
    fn bdd_backend_matches_sat_backend() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = vec![t(7), t(0), t(2), t(1), t(0)];
        let mut sat = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let mut bdd = DelayAnalyzer::new(&nl, &arrivals, BddAlg::new()).unwrap();
        assert_eq!(sat.output_arrivals(), bdd.output_arrivals());
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::boolalg::BddAlg;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn and_gate_witness() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0), t(0)]).unwrap();
        // Arrival is 2; every vector is unsettled at 1.
        let w = an.sensitizing_vector(z).unwrap();
        assert_eq!(w.len(), 2);
        // Stable at the arrival itself: no witness.
        assert!(an
            .is_stable_at(z, t(2))
            .then(|| an.stability.instability_witness(z, t(2)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn carry_skip_witness_avoids_skip_condition() {
        // With only c_in late, the unsettled vectors just before the
        // functional arrival (2) must include the skip condition
        // p0 = p1 = 1 — the path c_in actually drives.
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        assert_eq!(an.output_arrival(c_out), t(2));
        let w = an.sensitizing_vector(c_out).unwrap();
        // Inputs: c_in a0 b0 a1 b1. p_i = a_i XOR b_i must be 1.
        assert_ne!(w[1], w[2], "p0 = 1 in witness {w:?}");
        assert_ne!(w[3], w[4], "p1 = 1 in witness {w:?}");
    }

    #[test]
    fn witness_none_for_constant_cone() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0)]).unwrap();
        assert!(an.sensitizing_vector(z).is_none());
    }

    #[test]
    fn bdd_backend_also_produces_witnesses() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut an = DelayAnalyzer::new(&nl, &arrivals, BddAlg::new()).unwrap();
        let w = an.sensitizing_vector(c_out).unwrap();
        assert_ne!(w[1], w[2]);
        assert_ne!(w[3], w[4]);
    }
}
