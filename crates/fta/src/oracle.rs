//! The stability engine: one owning [`StabilityOracle`] answers every
//! stability query.
//!
//! [`StabilityOracle`] answers repeated `(arrivals, net, t)` stability
//! queries against one netlist while keeping the Boolean backend alive
//! for its whole lifetime. With the SAT backend that means:
//!
//! * the Tseitin encoding of every characteristic function ever built
//!   stays in the solver, so re-encountering the same subfunction under
//!   a later arrival condition re-emits **no** clauses (the operation
//!   cache and input-literal map persist);
//! * learnt clauses accumulate across queries — each probe starts from
//!   everything earlier probes taught the solver about the netlist;
//! * tautology queries are assumption-based (`solve_with`), so the
//!   clause database is never polluted by per-query state.
//!
//! This is sound because every permanently asserted clause is a
//! *definition* (satisfiable by construction, consistent across arrival
//! conditions), and learnt clauses are implied by those definitions.
//! Changing arrivals only changes *which* literal a `(net, t)` query
//! resolves to, never the meaning of existing clauses; see DESIGN.md.
//!
//! The backend is chosen once, at construction: [`SatAlg::new_shared`]
//! (what every analysis uses — one growing encoding, each query
//! restricted to the variable domain of its transitive support, with
//! subsumption inprocessing between queries), plain [`SatAlg::new`]
//! (the reference the shared mode is checked against), or
//! [`BddAlg`](crate::BddAlg). The oracle **owns** its netlist, so it
//! can live in long-lived state — a module's characterizer, a
//! signature class of the demand-driven analyzer, a serve daemon's
//! what-if cache — without borrow gymnastics.
//!
//! A resource budget ([`StabilityOracle::set_budget`]) caps each
//! budgeted query; it never changes which backend answers. The budgeted
//! paths ([`StabilityOracle::try_is_stable_at`],
//! [`StabilityOracle::output_arrival`]) answer "not provably stable"
//! when it runs out, which every caller degrades soundly to the
//! topological bound.
//!
//! The oracle is also `Send` (asserted at compile time below): parallel
//! refinement checks whole signature classes — oracle included — out to
//! persistent pool workers and back every round, which is exactly how
//! solver state gets *pooled* instead of rebuilt per round. Each oracle
//! is only ever used by one worker at a time, so no `Sync` is needed.

use hfta_netlist::{NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::stability::{Engine, StabilityStats};

/// A stability engine that owns its netlist and keeps solver state,
/// operation caches, and memo tables alive across arbitrarily many
/// arrival conditions.
///
/// # Example
///
/// ```
/// use hfta_fta::{SatAlg, StabilityOracle};
/// use hfta_netlist::gen::{carry_skip_block, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let block = carry_skip_block(2, CsaDelays::default());
/// let c_out = block.find_net("c_out").expect("exists");
/// // c_in at 0, the operand bits settled long ago: the skip mux hides
/// // the ripple path, so c_out is stable after 2, not 6.
/// let arrivals = [0, -10, -10, -10, -10].map(Time::new);
/// let mut oracle = StabilityOracle::new(block, &arrivals, SatAlg::new_shared())?;
/// assert!(oracle.is_stable_at(c_out, Time::new(2)));
/// assert!(!oracle.is_stable_at(c_out, Time::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StabilityOracle<A: BoolAlg = SatAlg> {
    netlist: Netlist,
    engine: Engine<A>,
}

impl<A: BoolAlg> StabilityOracle<A> {
    /// Creates an oracle for `netlist` over backend `alg`, initially
    /// bound to `pi_arrivals` (one per primary input, in input order).
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

    /// The owned netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Rebinds the oracle to a new arrival condition. The `(net, t)`
    /// memo is cleared (it is arrival-dependent); the backend and the
    /// settled-function memo survive. A no-op when the arrivals are
    /// unchanged, so consecutive same-condition probes share the memo.
    ///
    /// Soundness: every clause the SAT backend holds is a Tseitin
    /// definition of some characteristic function (satisfiable together
    /// by construction) or a learnt clause implied by those
    /// definitions, so answers under the new condition are unaffected
    /// by state built under old ones.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn set_arrivals(&mut self, pi_arrivals: &[Time]) {
        self.engine.rebind(&self.netlist, pi_arrivals);
    }

    /// Sets the per-query resource budget applied by
    /// [`Self::try_is_stable_at`] and [`Self::output_arrival`].
    /// Unlimited by default.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.engine.set_budget(budget);
    }

    /// Is `net` guaranteed stable (at either value, for every input
    /// vector) by `t` under the bound arrivals? Ignores the budget.
    pub fn is_stable_at(&mut self, net: NetId, t: Time) -> bool {
        self.engine.is_stable_at(&self.netlist, net, t)
    }

    /// Budgeted [`Self::is_stable_at`]: `None` when the budget ran out
    /// before the query was decided. Callers must treat `None` as "not
    /// provably stable" — under XBD0 the topological arrival is always
    /// a sound upper bound, so falling back to it is always safe. With
    /// an unlimited budget this never returns `None` and performs
    /// exactly the work of `is_stable_at`.
    pub fn try_is_stable_at(&mut self, net: NetId, t: Time) -> Option<bool> {
        self.engine.try_is_stable_at(&self.netlist, net, t)
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

    /// The topological arrival of `net` under the bound arrivals.
    pub(crate) fn topological_arrival(&self, net: NetId) -> Time {
        self.engine.topological_arrival(net)
    }

    /// The pair `(S0, S1)` of characteristic functions of `net` at `t`
    /// under the bound arrivals.
    pub fn characteristic(&mut self, net: NetId, t: Time) -> (A::Repr, A::Repr) {
        self.engine.characteristic(&self.netlist, net, t)
    }

    /// If `net` is *not* guaranteed stable by `t`, an input vector
    /// under which it is still unsettled — the sensitizing vector of a
    /// true critical path, extracted from the Boolean backend's
    /// countermodel. Returns `None` when the net is stable at `t`.
    pub fn instability_witness(&mut self, net: NetId, t: Time) -> Option<Vec<bool>> {
        self.engine.instability_witness(&self.netlist, net, t)
    }

    /// Cumulative work counters (across all arrival conditions).
    #[must_use]
    pub fn stats(&self) -> StabilityStats {
        self.engine.stats()
    }

    /// Access to the Boolean backend (e.g. for solve-episode recording,
    /// which only fills a side buffer: answers and counters are
    /// unchanged).
    pub fn alg_mut(&mut self) -> &mut A {
        self.engine.alg_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolalg::BddAlg;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Compile-time guarantee: oracles can ride inside owned tasks on
    /// pool worker threads. If a non-`Send` cell ever sneaks into the
    /// solver stack, this stops the build rather than the scheduler.
    #[test]
    fn oracle_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StabilityOracle<SatAlg>>();
    }

    /// One oracle answers exactly like a fresh one per condition,
    /// across interleaved arrival conditions, on every backend.
    #[test]
    fn oracle_matches_fresh_oracles_across_conditions() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let conditions: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(0), t(-10), t(-10), t(-10), t(-10)],
            vec![t(3), t(0), t(1), t(-2), t(0)],
            vec![t(0); 5], // revisit the first condition
        ];
        let mut plain = StabilityOracle::new(nl.clone(), &conditions[0], SatAlg::new()).unwrap();
        let mut shared =
            StabilityOracle::new(nl.clone(), &conditions[0], SatAlg::new_shared()).unwrap();
        for cond in &conditions {
            plain.set_arrivals(cond);
            shared.set_arrivals(cond);
            let mut fresh = StabilityOracle::new(nl.clone(), cond, BddAlg::new()).unwrap();
            for time in -3..13 {
                let want = fresh.is_stable_at(c_out, t(time));
                assert_eq!(
                    plain.is_stable_at(c_out, t(time)),
                    want,
                    "{cond:?} t={time}"
                );
                assert_eq!(
                    shared.is_stable_at(c_out, t(time)),
                    want,
                    "{cond:?} t={time}"
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
        let mut oracle = StabilityOracle::new(nl, &a, SatAlg::new()).unwrap();
        let _ = oracle.is_stable_at(c_out, t(5));
        let clauses_first = oracle.stats().learnt_clauses;
        oracle.set_arrivals(&b);
        let _ = oracle.is_stable_at(c_out, t(5));
        oracle.set_arrivals(&a); // same condition as probe 1
        let _ = oracle.is_stable_at(c_out, t(5));
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
        let mut oracle = StabilityOracle::new(nl, &a, SatAlg::new()).unwrap();
        let _ = oracle.is_stable_at(c_out, t(5));
        let built = oracle.stats().nodes_built;
        oracle.set_arrivals(&a);
        let _ = oracle.is_stable_at(c_out, t(5));
        let s = oracle.stats();
        assert_eq!(
            s.nodes_built, built,
            "second identical probe builds nothing"
        );
        assert!(s.memo_hits > 0);
    }

    /// The budget caps queries on the shared backend too: a zero budget
    /// leaves every solver-backed query undecided, lifting it decides
    /// the same query on the same solver, exactly.
    #[test]
    fn budget_caps_queries_on_the_shared_backend() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut oracle =
            StabilityOracle::new(nl.clone(), &[t(0); 5], SatAlg::new_shared()).unwrap();
        oracle.set_budget(SolveBudget::default().with_conflicts(0));
        assert_eq!(oracle.try_is_stable_at(c_out, t(5)), None);
        assert_eq!(oracle.stats().budget_hits, 1);
        oracle.set_budget(SolveBudget::UNLIMITED);
        let mut fresh = StabilityOracle::new(nl, &[t(0); 5], BddAlg::new()).unwrap();
        for time in 0..9 {
            assert_eq!(
                oracle.try_is_stable_at(c_out, t(time)),
                Some(fresh.is_stable_at(c_out, t(time))),
                "t={time}"
            );
        }
        assert!(oracle.stats().domains_built > 0);
    }
}
