//! One shared incremental SAT instance serving a whole signature
//! class of cones.
//!
//! Demand-driven refinement fires thousands of near-identical
//! stability queries against cones that are often *structurally
//! isomorphic* (equal [`ConeSig`]). Historically each cone owned its
//! own [`StabilityOracle`] — its own Tseitin encoding and its own
//! learnt-clause database, warmed from scratch. A
//! [`SharedStabilityEngine`] instead keeps **one** shared-solver
//! oracle over a *representative* cone of the class and routes every
//! member's queries through it:
//!
//! * **Encode once.** The representative cone's characteristic
//!   functions are Tseitin-encoded a single time; member queries
//!   re-use the encoding via the backend's persistent operation
//!   caches.
//! * **Slot-permuted routing.** A member's arrival condition (in its
//!   own cone-input order) is re-indexed through its [`ConeKey`] into
//!   canonical slot order, then back out into the representative's
//!   input order. Isomorphic cones compute the same function modulo
//!   that permutation, so the representative's verdict *is* the
//!   member's verdict — the same argument that makes the demand
//!   verdict memo sound (see DESIGN.md).
//! * **Cross-cone learnt sharing.** Every conflict clause learnt while
//!   answering one member's query is immediately available to every
//!   other member — this is the slot-permuted clause import, realized
//!   by construction rather than by copying clauses between solvers.
//!   [`SharedStabilityEngine::attach`] counts the clauses already warm
//!   when a new member joins (`learnts_imported`).
//! * **Domain-restricted queries + inprocessing.** The underlying
//!   backend runs in shared-solver mode ([`SatAlg::new_shared`]):
//!   each query is restricted to the variable domain of its transitive
//!   support, and subsumption inprocessing compacts the learnt
//!   database between queries.
//!
//! Engines exist only on the unlimited-budget path: the budget alone
//! picks the stability path (see `AnalysisConfig`), and a limited
//! budget gives every cone its own [`StabilityOracle`] instead, so a
//! degraded verdict never reaches a shared instance.

use hfta_netlist::strash::{ConeKey, ConeSig};
use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use crate::boolalg::SatAlg;
use crate::oracle::StabilityOracle;
use crate::stability::StabilityStats;

/// One shared-solver oracle serving every cone of a signature class
/// through slot-permuted query routing. See the [module
/// docs](self).
#[derive(Debug)]
pub struct SharedStabilityEngine {
    oracle: StabilityOracle<SatAlg>,
    /// The representative cone's input-to-slot correspondence.
    key: ConeKey,
    /// The representative cone's output net.
    cone_out: NetId,
    /// Cone identities routed through this engine so far.
    members: u64,
    /// Learnt clauses already warm at each non-first `attach` —
    /// clauses earlier members taught the shared solver, available to
    /// the newcomer from its first query.
    learnts_imported: u64,
    /// Scratch buffer for slot-permuted arrivals.
    slots: Vec<Time>,
}

impl SharedStabilityEngine {
    /// Builds the engine over a representative `cone` of the class,
    /// with `cone_out` its output net and `key` its canonical input
    /// correspondence (from
    /// [`cone_signature`](hfta_netlist::strash::cone_signature)).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic cones.
    pub fn new(cone: Netlist, cone_out: NetId, key: ConeKey) -> Result<Self, NetlistError> {
        let zeros = vec![Time::ZERO; cone.inputs().len()];
        let oracle = StabilityOracle::new_sat_shared(cone, &zeros)?;
        Ok(SharedStabilityEngine {
            oracle,
            key,
            cone_out,
            members: 0,
            learnts_imported: 0,
            slots: Vec::new(),
        })
    }

    /// The signature class this engine serves.
    #[must_use]
    pub fn sig(&self) -> ConeSig {
        self.key.sig
    }

    /// Registers a new cone identity routing through this engine.
    /// Every learnt clause already in the shared solver is warm for
    /// the newcomer; the count lands in
    /// [`StabilityStats::learnts_imported`].
    pub fn attach(&mut self) {
        if self.members > 0 {
            self.learnts_imported += self.oracle.stats().learnt_clauses;
        }
        self.members += 1;
    }

    /// Number of cone identities attached so far.
    #[must_use]
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Answers a member cone's budgeted stability query: is the member
    /// cone's output stable by `t` under `member_arrivals` (given in
    /// the *member's* cone-input order, with `member_key` its canonical
    /// correspondence)? `None` when the budget ran out.
    ///
    /// # Panics
    ///
    /// Panics if `member_key` belongs to a different signature class.
    pub fn query_budgeted(
        &mut self,
        member_key: &ConeKey,
        member_arrivals: &[Time],
        t: Time,
    ) -> Option<bool> {
        assert_eq!(
            member_key.sig, self.key.sig,
            "member cone routed to the wrong signature class"
        );
        // Member input order → canonical slots → representative input
        // order. Missing slots (floating-net cones) are "unreached".
        self.slots = member_key.to_slots(member_arrivals, Time::POS_INF);
        if self.slots.len() < self.key.slot_count() {
            self.slots.resize(self.key.slot_count(), Time::POS_INF);
        }
        let rep_arrivals = self.key.from_slots(&self.slots);
        self.oracle.query_budgeted(&rep_arrivals, self.cone_out, t)
    }

    /// Cumulative work counters across all members, with
    /// `learnts_imported` folded in.
    #[must_use]
    pub fn stats(&self) -> StabilityStats {
        let mut s = self.oracle.stats();
        s.learnts_imported = self.learnts_imported;
        s
    }

    /// Turns per-call solve-episode recording on or off in the shared
    /// backend.
    pub fn set_episode_recording(&mut self, on: bool) {
        self.oracle.set_episode_recording(on);
    }

    /// Drains the solve episodes recorded since the last call.
    pub fn take_episodes(&mut self) -> Vec<hfta_sat::SolveEpisode> {
        self.oracle.take_episodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::strash::cone_signature;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Engines ride inside pooled per-class tasks, like oracles.
    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SharedStabilityEngine>();
    }

    /// Two isomorphic cones routed through one engine answer exactly
    /// like each cone's own fresh per-cone oracle.
    #[test]
    fn shared_engine_matches_per_cone_oracles() {
        let block = carry_skip_block(2, CsaDelays::default());
        let c_out = block.find_net("c_out").unwrap();
        let cone = block.cone(c_out).0;
        let cone_out = cone.find_net("c_out").unwrap();
        let key = cone_signature(&cone).unwrap();

        let mut engine = SharedStabilityEngine::new(cone.clone(), cone_out, key.clone()).unwrap();
        engine.attach();
        engine.attach(); // a second identical member joins warm
        assert_eq!(engine.members(), 2);

        let conditions: Vec<Vec<Time>> = vec![
            vec![t(0); cone.inputs().len()],
            vec![t(3), t(0), t(1), t(-2), t(0)],
            vec![t(0), t(-10), t(-10), t(-10), t(-10)],
        ];
        let mut fresh = StabilityOracle::new_sat(cone.clone(), &conditions[0]).unwrap();
        for cond in &conditions {
            for time in -3..13 {
                assert_eq!(
                    engine.query_budgeted(&key, cond, t(time)),
                    fresh.query_budgeted(cond, cone_out, t(time)),
                    "cond {cond:?} t={time}"
                );
            }
        }
        // The second member joined after no queries, so nothing was
        // warm yet; stats still report the attach accounting.
        assert_eq!(engine.stats().learnts_imported, 0);
    }

    /// Attaching after queries counts the warm learnt clauses.
    #[test]
    fn late_attach_counts_warm_learnts() {
        let block = carry_skip_block(2, CsaDelays::default());
        let c_out = block.find_net("c_out").unwrap();
        let cone = block.cone(c_out).0;
        let cone_out = cone.find_net("c_out").unwrap();
        let key = cone_signature(&cone).unwrap();
        let mut engine = SharedStabilityEngine::new(cone.clone(), cone_out, key.clone()).unwrap();
        engine.attach();
        let cond = vec![t(0); cone.inputs().len()];
        for time in -3..13 {
            let _ = engine.query_budgeted(&key, &cond, t(time));
        }
        let warm = engine.stats().learnt_clauses;
        engine.attach();
        assert_eq!(engine.stats().learnts_imported, warm);
    }
}
