//! A persistent, owning stability oracle.
//!
//! [`StabilityOracle`] answers repeated `(arrivals, net, t)` stability
//! queries against one cone while keeping the Boolean backend alive for
//! its whole lifetime. With the default SAT backend that means:
//!
//! * the Tseitin encoding of every characteristic function ever built
//!   stays in the solver, so re-encountering the same subfunction under
//!   a later arrival condition re-emits **no** clauses (the operation
//!   cache and input-literal map persist);
//! * learnt clauses accumulate across queries — each probe starts from
//!   everything earlier probes taught the solver about the cone;
//! * tautology queries are assumption-based (`solve_with`), so the
//!   clause database is never polluted by per-query state.
//!
//! This is sound because every permanently asserted clause is a
//! *definition* (satisfiable by construction, consistent across arrival
//! conditions), and learnt clauses are implied by those definitions.
//! Changing arrivals only changes *which* literal a `(net, t)` query
//! resolves to, never the meaning of existing clauses; see DESIGN.md.
//!
//! Unlike [`StabilityAnalyzer`](crate::StabilityAnalyzer), the oracle
//! **owns** its netlist, so it can be stored in long-lived per-module
//! state (e.g. the demand-driven analyzer's per-output cones) without
//! borrow gymnastics.
//!
//! The oracle is also `Send` (asserted at compile time below): parallel
//! refinement checks whole cone states — oracle included — out to
//! persistent pool workers and back every round, which is exactly how
//! per-cone solver state gets *pooled* instead of rebuilt per round.
//! Each oracle is only ever used by one worker at a time (cones are
//! disjoint within a round), so no `Sync` is needed.

use hfta_netlist::{NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::stability::{Engine, StabilityStats};

/// A stability engine that owns its cone and keeps solver state,
/// operation caches, and memo tables alive across arbitrarily many
/// arrival conditions.
#[derive(Debug)]
pub struct StabilityOracle<A: BoolAlg = SatAlg> {
    netlist: Netlist,
    engine: Engine<A>,
}

impl StabilityOracle<SatAlg> {
    /// Creates a SAT-backed oracle for `netlist`, initially bound to
    /// `pi_arrivals`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn new_sat(netlist: Netlist, pi_arrivals: &[Time]) -> Result<Self, NetlistError> {
        StabilityOracle::new(netlist, pi_arrivals, SatAlg::new())
    }

    /// Like [`StabilityOracle::new_sat`], but the backend runs in
    /// shared-solver mode: the one growing encoding is kept and every
    /// query is restricted to the variable domain of its transitive
    /// support (see [`SatAlg::new_shared`]). Verdicts are
    /// bit-identical to `new_sat`'s; queries stop paying for logic
    /// accumulated by earlier, unrelated probes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn new_sat_shared(netlist: Netlist, pi_arrivals: &[Time]) -> Result<Self, NetlistError> {
        StabilityOracle::new(netlist, pi_arrivals, SatAlg::new_shared())
    }
}

impl<A: BoolAlg> StabilityOracle<A> {
    /// Creates an oracle over backend `alg`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn new(netlist: Netlist, pi_arrivals: &[Time], alg: A) -> Result<Self, NetlistError> {
        let engine = Engine::new(&netlist, pi_arrivals, alg)?;
        Ok(StabilityOracle { netlist, engine })
    }

    /// The owned cone.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The arrival condition currently bound.
    #[must_use]
    pub fn arrivals(&self) -> &[Time] {
        self.engine.arrivals()
    }

    /// Rebinds the oracle to a new arrival condition. The `(net, t)`
    /// memo is cleared (it is arrival-dependent); the backend and the
    /// settled-function memo survive. A no-op when the arrivals are
    /// unchanged, so consecutive same-condition probes share the memo.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn set_arrivals(&mut self, pi_arrivals: &[Time]) {
        self.engine.rebind(&self.netlist, pi_arrivals);
    }

    /// Sets the per-query resource budget applied by the `try_*` /
    /// `query_budgeted` paths. Unlimited by default.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.engine.set_budget(budget);
    }

    /// The current per-query resource budget.
    #[must_use]
    pub fn budget(&self) -> SolveBudget {
        self.engine.budget()
    }

    /// Is `net` guaranteed stable by `t` under the bound arrivals?
    pub fn is_stable_at(&mut self, net: NetId, t: Time) -> bool {
        self.engine.is_stable_at(&self.netlist, net, t)
    }

    /// Budgeted [`Self::is_stable_at`]: `None` when the budget ran out
    /// before the query was decided (treat as "not provably stable").
    pub fn try_is_stable_at(&mut self, net: NetId, t: Time) -> Option<bool> {
        self.engine.try_is_stable_at(&self.netlist, net, t)
    }

    /// Rebinds to `pi_arrivals` and answers [`Self::is_stable_at`] in
    /// one call — the oracle's native query shape.
    pub fn query(&mut self, pi_arrivals: &[Time], net: NetId, t: Time) -> bool {
        self.set_arrivals(pi_arrivals);
        self.is_stable_at(net, t)
    }

    /// Rebinds and answers [`Self::try_is_stable_at`] in one call.
    /// With an unlimited budget this performs exactly the work of
    /// [`Self::query`].
    pub fn query_budgeted(&mut self, pi_arrivals: &[Time], net: NetId, t: Time) -> Option<bool> {
        self.set_arrivals(pi_arrivals);
        self.try_is_stable_at(net, t)
    }

    /// The earliest time `net` is guaranteed stable under the bound
    /// arrivals, searched exactly as
    /// [`DelayAnalyzer::output_arrival`](crate::DelayAnalyzer::output_arrival)
    /// does, under the oracle's budget. Returns the arrival and whether
    /// the budget degraded it to the (sound) topological arrival.
    /// Bounds learnt from countermodels carry over between nets until
    /// the next rebind to different arrivals.
    pub fn output_arrival(&mut self, net: NetId) -> (Time, bool) {
        self.engine.output_arrival(&self.netlist, net)
    }

    /// The pair `(S0, S1)` of characteristic functions of `net` at `t`
    /// under the bound arrivals.
    pub fn characteristic(&mut self, net: NetId, t: Time) -> (A::Repr, A::Repr) {
        self.engine.characteristic(&self.netlist, net, t)
    }

    /// If `net` is not stable by `t`, an input vector under which it is
    /// still unsettled.
    pub fn instability_witness(&mut self, net: NetId, t: Time) -> Option<Vec<bool>> {
        self.engine.instability_witness(&self.netlist, net, t)
    }

    /// Cumulative work counters (across all arrival conditions).
    #[must_use]
    pub fn stats(&self) -> StabilityStats {
        self.engine.stats()
    }

    /// Turns per-call solve-episode recording on or off in the
    /// backend. Recording only fills a side buffer — answers and
    /// counters are unchanged.
    pub fn set_episode_recording(&mut self, on: bool) {
        self.engine.alg_mut().set_episode_recording(on);
    }

    /// Drains the solve episodes recorded since the last call.
    pub fn take_episodes(&mut self) -> Vec<hfta_sat::SolveEpisode> {
        self.engine.alg_mut().take_episodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::StabilityAnalyzer;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Compile-time guarantee: oracles can ride inside owned cone
    /// tasks on pool worker threads. If a non-`Send` cell ever sneaks
    /// into the solver stack, this stops the build rather than the
    /// scheduler.
    #[test]
    fn oracle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StabilityOracle<SatAlg>>();
    }

    /// The oracle answers exactly like a fresh analyzer per condition,
    /// across interleaved arrival conditions.
    #[test]
    fn oracle_matches_fresh_analyzers_across_conditions() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let conditions: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(0), t(-10), t(-10), t(-10), t(-10)],
            vec![t(3), t(0), t(1), t(-2), t(0)],
            vec![t(0); 5], // revisit the first condition
        ];
        let mut oracle = StabilityOracle::new_sat(nl.clone(), &conditions[0]).unwrap();
        for cond in &conditions {
            let mut fresh = StabilityAnalyzer::new(&nl, cond, SatAlg::new()).unwrap();
            for time in -3..13 {
                assert_eq!(
                    oracle.query(cond, c_out, t(time)),
                    fresh.is_stable_at(c_out, t(time)),
                    "cond {cond:?} t={time}"
                );
            }
        }
    }

    /// Persistence is visible in the counters: revisiting a condition
    /// serves settled functions and encodings from caches.
    #[test]
    fn oracle_amortizes_encoding_work() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let a = vec![t(0); 5];
        let b = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut oracle = StabilityOracle::new_sat(nl, &a).unwrap();
        let _ = oracle.query(&a, c_out, t(5));
        let clauses_first = oracle.stats().learnt_clauses;
        let _ = oracle.query(&b, c_out, t(5));
        let _ = oracle.query(&a, c_out, t(5)); // same condition as probe 1
        let s = oracle.stats();
        assert_eq!(s.queries, 3);
        assert!(s.nodes_built > 0);
        // Rebinding cleared the (net, t) memo, but the third probe's
        // encoding work was absorbed by the backend's persistent
        // operation cache: identical subfunctions resolve to the same
        // literals, so the settled-function/encoding caches register
        // avoided work, and learnt clauses from the first probe are
        // still in the solver.
        assert!(s.encodings_avoided > 0);
        assert!(s.learnt_clauses >= clauses_first);
    }

    /// `set_arrivals` with identical arrivals keeps the memo hot.
    #[test]
    fn same_condition_rebind_is_free() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let a = vec![t(0); 5];
        let mut oracle = StabilityOracle::new_sat(nl, &a).unwrap();
        let _ = oracle.query(&a, c_out, t(5));
        let built = oracle.stats().nodes_built;
        let _ = oracle.query(&a, c_out, t(5));
        let s = oracle.stats();
        assert_eq!(
            s.nodes_built, built,
            "second identical probe builds nothing"
        );
        assert!(s.memo_hits > 0);
    }
}
