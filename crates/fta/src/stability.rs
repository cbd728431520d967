//! XBD0 stability characteristic functions.
//!
//! The fundamental query of functional timing analysis: *is net `n`
//! guaranteed stable by time `t`, for every input vector, given the
//! primary-input arrival times?* Following the XBD0 delay model (McGeer,
//! Saldanha, Brayton, Sangiovanni-Vincentelli), we compute two
//! characteristic functions per (net, time) pair:
//!
//! * `S1(n, t)` — the set of input vectors under which `n` is stable at
//!   value 1 by time `t`;
//! * `S0(n, t)` — likewise for value 0.
//!
//! For a primary input with arrival `a`: `S1 = x` if `t ≥ a` else `⊥`.
//! For a gate with delay `d` the functions follow the *all primes* rule
//! — e.g. for `z = Mux(s, a, b) = s·a + s̄·b` the primes of the function
//! are `{s·a, s̄·b, a·b}` (including the consensus term), giving
//!
//! ```text
//! S1(z,t) = S1(s,t−d)·S1(a,t−d) + S0(s,t−d)·S1(b,t−d) + S1(a,t−d)·S1(b,t−d)
//! ```
//!
//! The consensus term is what gives XBD0 the *monotone speedup*
//! property: earlier inputs can never destabilize an output, so
//! stability is monotone in `t` and delays can be binary searched.
//!
//! `n` is stable at `t` iff `S0(n,t) ∨ S1(n,t)` is a tautology, decided
//! by the pluggable [`BoolAlg`] backend.
//!
//! This module holds the recursion itself; every query reaches it
//! through the one owning front-end,
//! [`StabilityOracle`](crate::oracle::StabilityOracle), which keeps the
//! Boolean backend — the SAT solver with its learnt clauses, the
//! operation caches, the settled-function memo — alive across
//! arbitrarily many arrival conditions.
//!
//! The engine also runs the exact arrival search (flat delay via
//! [`DelayAnalyzer`](crate::DelayAnalyzer), the serve what-if via the
//! oracle): a bisection over stability probes that simulates every
//! refuting countermodel with [`sim::settle_into`] and starts every
//! later bisection from the best settle time seen so far.

use hfta_netlist::{sim, GateId, GateKind, NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use crate::boolalg::BoolAlg;

/// Work counters for a [`StabilityOracle`](crate::oracle::StabilityOracle),
/// and, merged, for the analyses built on them.
///
/// All counters are cumulative over the oracle's lifetime, across
/// arrival-condition rebinds. The `solver_*` fields are a snapshot of
/// the Boolean backend's own counters at the time
/// [`StabilityOracle::stats`](crate::oracle::StabilityOracle::stats)
/// was called (zero for backends without them, e.g. BDDs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StabilityStats {
    /// Number of stability queries answered (`is_stable_at`,
    /// `instability_witness`, and `characteristic` all count).
    pub queries: u64,
    /// Queries answered by the topological upper bound without touching
    /// the Boolean backend.
    pub topological_hits: u64,
    /// Queries answered by the earliest-event lower bound (`t` before
    /// any conceivable stabilization) without touching the backend.
    pub prune_hits: u64,
    /// Number of (net, time) pairs whose characteristic functions were
    /// built (memo misses).
    pub nodes_built: u64,
    /// Number of (net, time) pairs served from the characteristic
    /// -function memo.
    pub memo_hits: u64,
    /// Encodings avoided altogether: characteristic-function memo hits
    /// plus settled-function cache hits. With a persistent oracle this
    /// is the work amortized across probes.
    pub encodings_avoided: u64,
    /// SAT queries issued to the backend (tautology/countermodel).
    pub sat_queries: u64,
    /// Conflicts analyzed by the backend's solver.
    pub solver_conflicts: u64,
    /// Unit propagations performed by the backend's solver.
    pub solver_propagations: u64,
    /// Learnt clauses currently held by the backend's solver.
    pub learnt_clauses: u64,
    /// Queries the backend abandoned because a resource budget ran out
    /// (each such query was answered "not provably stable").
    pub budget_hits: u64,
    /// Results (output models, refinement edges, report rows) that were
    /// degraded to their topological value instead of being decided
    /// functionally — by a budget, a deadline, or a round cap. Always
    /// zero when no budget/cap is in effect.
    pub degraded: u64,
    /// Characterizations or refinement verdicts answered by a
    /// structural cone-signature cache instead of fresh analysis (see
    /// `hfta_netlist::strash`).
    pub cone_sig_hits: u64,
    /// Signature-cache probes that missed and ran fresh analysis
    /// (seeding the cache). Zero when no cache is consulted.
    pub cone_sig_misses: u64,
    /// Per-query variable domains built by a shared solver (see
    /// `hfta_sat::Domain`): each stability query restricted to its
    /// cone's transitive-fanin variables instead of a fresh encoding.
    /// Zero only on the plain and BDD backends.
    pub domains_built: u64,
    /// Learnt clauses removed or strengthened by the shared solver's
    /// between-query inprocessing (subsumption + self-subsuming
    /// resolution).
    pub clauses_subsumed: u64,
    /// Learnt clauses already warm in a signature class's oracle when
    /// a new cone of the class attached to it (cross-cone learnt
    /// sharing via slot-permuted routing).
    pub learnts_imported: u64,
    /// Module models served from a persistent on-disk model database
    /// instead of fresh characterization (see `hfta-modeldb`).
    pub model_db_hits: u64,
    /// Persistent-database probes that missed (or were invalidated)
    /// and fell through to fresh characterization. Zero when no
    /// database is attached.
    pub model_db_misses: u64,
    /// Wall-clock per analysis phase (see [`PhaseWall`]). Excluded from
    /// equality: two analyses that agree on every deterministic
    /// observable compare equal even though their timings differ.
    pub wall: PhaseWall,
}

/// Wall-clock spent per analysis phase, in microseconds. Filled in by
/// the layer that owns each phase (characterization by the two-step
/// analyzer, refinement by the demand-driven analyzer, propagation by
/// both); the oracles themselves leave it zero.
///
/// Wall-clock is inherently nondeterministic, so `PhaseWall` compares
/// equal to **any** other `PhaseWall`. This keeps bit-identity
/// assertions on whole analyses (`assert_eq!(serial, parallel)`)
/// meaningful while still surfacing timings in `--stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseWall {
    /// Module characterization (two-step step 1).
    pub characterize_micros: u64,
    /// Demand-driven refinement probes.
    pub refine_micros: u64,
    /// Timing-graph / instance propagation.
    pub propagate_micros: u64,
}

impl PartialEq for PhaseWall {
    fn eq(&self, _: &PhaseWall) -> bool {
        true
    }
}

impl Eq for PhaseWall {}

impl StabilityStats {
    /// Accumulates `other` into `self`, field by field. Used to
    /// aggregate counters across the many oracles of a hierarchical
    /// analysis.
    pub fn merge(&mut self, other: &StabilityStats) {
        self.queries += other.queries;
        self.topological_hits += other.topological_hits;
        self.prune_hits += other.prune_hits;
        self.nodes_built += other.nodes_built;
        self.memo_hits += other.memo_hits;
        self.encodings_avoided += other.encodings_avoided;
        self.sat_queries += other.sat_queries;
        self.solver_conflicts += other.solver_conflicts;
        self.solver_propagations += other.solver_propagations;
        self.learnt_clauses += other.learnt_clauses;
        self.budget_hits += other.budget_hits;
        self.degraded += other.degraded;
        self.cone_sig_hits += other.cone_sig_hits;
        self.cone_sig_misses += other.cone_sig_misses;
        self.domains_built += other.domains_built;
        self.clauses_subsumed += other.clauses_subsumed;
        self.learnts_imported += other.learnts_imported;
        self.model_db_hits += other.model_db_hits;
        self.model_db_misses += other.model_db_misses;
        self.wall.characterize_micros += other.wall.characterize_micros;
        self.wall.refine_micros += other.wall.refine_micros;
        self.wall.propagate_micros += other.wall.propagate_micros;
    }

    /// A one-line human-readable rendering (used by `hfta --stats`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "stability: {} queries ({} topological, {} pruned), \
             {} nodes built, {} memo hits, {} encodings avoided\n\
             solver: {} SAT queries, {} conflicts, {} propagations, \
             {} learnt clauses\n\
             budget: {} exhausted queries, {} degraded to topological\n\
             cone signatures: {} hits, {} misses\n\
             shared solver: {} domains built, {} clauses subsumed, \
             {} learnts imported\n\
             model db: {} hits, {} misses\n\
             wall: {}us characterize, {}us refine, {}us propagate",
            self.queries,
            self.topological_hits,
            self.prune_hits,
            self.nodes_built,
            self.memo_hits,
            self.encodings_avoided,
            self.sat_queries,
            self.solver_conflicts,
            self.solver_propagations,
            self.learnt_clauses,
            self.budget_hits,
            self.degraded,
            self.cone_sig_hits,
            self.cone_sig_misses,
            self.domains_built,
            self.clauses_subsumed,
            self.learnts_imported,
            self.model_db_hits,
            self.model_db_misses,
            self.wall.characterize_micros,
            self.wall.refine_micros,
            self.wall.propagate_micros,
        )
    }
}

/// One net's `(t, (S0, S1))` memo entries.
type TimedPairs<R> = Vec<(Time, (R, R))>;

/// The arrival search's per-net state under the bound arrival
/// condition, built by the first search after a (re)bind, so analyses
/// that never search pay nothing for it.
#[derive(Debug, Default)]
struct SearchState {
    /// Earliest finite event per net: the min-propagation of the finite
    /// arrivals alone (`+∞` where none reaches).
    first_event: Vec<Time>,
    /// Latest finite event per net: their max-propagation (`−∞` where
    /// none reaches).
    last_event: Vec<Time>,
    /// A lower bound on each net's arrival: the latest settle time of
    /// any vector simulated so far, never below `earliest`. The net is
    /// unstable one unit before it.
    lower: Vec<Time>,
    /// Scratch for simulating one countermodel.
    values: Vec<bool>,
    settle: Vec<Time>,
}

/// The netlist-agnostic stability recursion behind
/// [`StabilityOracle`](crate::oracle::StabilityOracle): Boolean
/// backend, memo tables, arrival-condition bounds, and counters. The
/// oracle passes its netlist into every call, so the recursion can
/// read gates while it mutates the memos and the backend.
///
/// Rebinding to a new arrival condition ([`Engine::rebind`]) clears
/// only the arrival-*dependent* state (the `(net, t)` memo and the
/// bound vectors); the backend — with its learnt clauses and operation
/// caches — and the settled-function memo survive, which is what makes
/// repeated probes cheap.
///
/// Both memos are indexed by net, not hashed: the `(net, t)` memo keeps
/// a short list of `(t, pair)` entries per net, and rebinding clears
/// only the nets listed in `memo_nets`.
#[derive(Debug)]
pub(crate) struct Engine<A: BoolAlg> {
    alg: A,
    /// Arrival time per primary input (by input position).
    arrivals: Vec<Time>,
    /// Maps nets to primary-input positions.
    pi_position: Vec<Option<usize>>,
    /// Cached topological gate order (arrival recomputation on rebind).
    topo_gates: Vec<GateId>,
    /// Topological arrival time per net (stability upper bound).
    topo_arrival: Vec<Time>,
    /// Earliest conceivable stabilization per net (lower-bound prune).
    earliest: Vec<Time>,
    /// `(S0, S1)` per net and query time, built under the current
    /// arrival condition.
    memo: Vec<TimedPairs<A::Repr>>,
    /// The nets with `memo` entries, in first-build order.
    memo_nets: Vec<NetId>,
    /// Time-independent settled function per net (used when
    /// `t ≥ topo_arrival`); valid under every arrival condition.
    func_memo: Vec<Option<A::Repr>>,
    /// The fanin `(S0, S1)` pairs of the AND/OR nodes on the recursion
    /// path, one frame per node: a node pushes its fanins' pairs,
    /// folds them, and truncates back to where its frame began.
    fanin_pairs: Vec<(A::Repr, A::Repr)>,
    /// Per-query resource budget handed to the backend (unlimited by
    /// default, in which case the budgeted paths are bit-identical to
    /// the plain ones).
    budget: SolveBudget,
    search: SearchState,
    stats: StabilityStats,
}

impl<A: BoolAlg> Engine<A> {
    pub(crate) fn new(
        netlist: &Netlist,
        pi_arrivals: &[Time],
        alg: A,
    ) -> Result<Engine<A>, NetlistError> {
        assert_eq!(
            pi_arrivals.len(),
            netlist.inputs().len(),
            "arrival vector length mismatch"
        );
        let topo_gates = netlist.topo_gates()?;
        let mut pi_position = vec![None; netlist.net_count()];
        for (k, &pi) in netlist.inputs().iter().enumerate() {
            pi_position[pi.index()] = Some(k);
        }
        let mut engine = Engine {
            alg,
            arrivals: Vec::new(),
            pi_position,
            topo_gates,
            topo_arrival: Vec::new(),
            earliest: Vec::new(),
            memo: vec![Vec::new(); netlist.net_count()],
            memo_nets: Vec::new(),
            func_memo: vec![None; netlist.net_count()],
            fanin_pairs: Vec::new(),
            budget: SolveBudget::UNLIMITED,
            search: SearchState::default(),
            stats: StabilityStats::default(),
        };
        engine.bind(netlist, pi_arrivals);
        Ok(engine)
    }

    /// Recomputes the arrival-dependent bounds and clears the
    /// `(net, t)` memo. The backend and the settled-function memo are
    /// untouched. No-op when the arrivals are unchanged, so repeated
    /// probes under one condition keep their memo.
    pub(crate) fn rebind(&mut self, netlist: &Netlist, pi_arrivals: &[Time]) {
        assert_eq!(
            pi_arrivals.len(),
            netlist.inputs().len(),
            "arrival vector length mismatch"
        );
        if self.arrivals == pi_arrivals {
            return;
        }
        for net in self.memo_nets.drain(..) {
            self.memo[net.index()].clear();
        }
        self.bind(netlist, pi_arrivals);
    }

    fn bind(&mut self, netlist: &Netlist, pi_arrivals: &[Time]) {
        self.arrivals.clear();
        self.arrivals.extend_from_slice(pi_arrivals);
        self.search.lower.clear();
        // Topological arrival: max-propagation (the stability upper
        // bound). Earliest conceivable stabilization: min-propagation,
        // with constants stable from the beginning of time.
        self.topo_arrival.clear();
        self.topo_arrival.resize(netlist.net_count(), Time::NEG_INF);
        self.earliest.clear();
        self.earliest.resize(netlist.net_count(), Time::POS_INF);
        for (k, &pi) in netlist.inputs().iter().enumerate() {
            self.topo_arrival[pi.index()] = pi_arrivals[k];
            self.earliest[pi.index()] = pi_arrivals[k];
        }
        for &g in &self.topo_gates {
            let gate = netlist.gate(g);
            let worst = gate
                .inputs
                .iter()
                .map(|n| self.topo_arrival[n.index()])
                .fold(Time::NEG_INF, Time::max);
            self.topo_arrival[gate.output.index()] = worst + Time::from(gate.delay);
            let best = gate
                .inputs
                .iter()
                .map(|n| self.earliest[n.index()])
                .fold(Time::POS_INF, Time::min);
            let best = if gate.inputs.is_empty() {
                Time::NEG_INF
            } else {
                best
            };
            self.earliest[gate.output.index()] = best + Time::from(gate.delay);
        }
    }

    /// The topological arrival of `net` under the bound condition.
    pub(crate) fn topological_arrival(&self, net: NetId) -> Time {
        self.topo_arrival[net.index()]
    }

    pub(crate) fn alg_mut(&mut self) -> &mut A {
        &mut self.alg
    }

    pub(crate) fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// Work counters, with the backend's solver counters folded in.
    pub(crate) fn stats(&self) -> StabilityStats {
        let backend = self.alg.backend_counters();
        StabilityStats {
            sat_queries: backend.sat_queries,
            solver_conflicts: backend.conflicts,
            solver_propagations: backend.propagations,
            learnt_clauses: backend.learnt_clauses,
            domains_built: backend.domains_built,
            clauses_subsumed: backend.clauses_subsumed,
            ..self.stats
        }
    }

    pub(crate) fn is_stable_at(&mut self, netlist: &Netlist, net: NetId, t: Time) -> bool {
        self.stats.queries += 1;
        if t >= self.topo_arrival[net.index()] {
            // Topological analysis already guarantees stability.
            self.stats.topological_hits += 1;
            return true;
        }
        if t < self.earliest[net.index()] {
            self.stats.prune_hits += 1;
            return false;
        }
        let (s0, s1) = self.s01(netlist, net, t);
        let settled = self.alg.or(s0, s1);
        self.alg.is_tautology(settled)
    }

    /// Three-valued stability query under this engine's budget:
    /// `None` means the backend's budget ran out before the tautology
    /// check was decided. The topological and prune fast paths never
    /// touch the backend and are always decisive — crucially, this
    /// makes `t ≥ topo_arrival` queries immune to any budget, so
    /// degrading a result to its topological value always terminates.
    pub(crate) fn try_is_stable_at(
        &mut self,
        netlist: &Netlist,
        net: NetId,
        t: Time,
    ) -> Option<bool> {
        self.stats.queries += 1;
        if t >= self.topo_arrival[net.index()] {
            self.stats.topological_hits += 1;
            return Some(true);
        }
        if t < self.earliest[net.index()] {
            self.stats.prune_hits += 1;
            return Some(false);
        }
        let (s0, s1) = self.s01(netlist, net, t);
        let settled = self.alg.or(s0, s1);
        let budget = self.budget;
        let verdict = self.alg.is_tautology_budgeted(settled, &budget);
        if verdict.is_none() {
            self.stats.budget_hits += 1;
        }
        verdict
    }

    /// The earliest time `net` is guaranteed stable under the bound
    /// arrivals, and whether the budget cut the search short, in which
    /// case the answer is the topological arrival (always a sound upper
    /// bound) and counts in [`StabilityStats::degraded`].
    ///
    /// Stability is monotone in `t`, so the answer is found by
    /// bisection. Every probe that refutes stability leaves a
    /// countermodel; simulating it gives every net a settle time it
    /// reaches under that vector, which no stability probe can beat, so
    /// later bisections (of this or any other net) start from the best
    /// such bound. Stable verdicts come only from the backend's proofs,
    /// so the answer stays exact.
    pub(crate) fn output_arrival(&mut self, netlist: &Netlist, net: NetId) -> (Time, bool) {
        match self.arrival_search(netlist, net) {
            Some(t) => (t, false),
            None => {
                self.stats.degraded += 1;
                (self.topo_arrival[net.index()], true)
            }
        }
    }

    /// [`Engine::output_arrival`]'s search; `None` when the budget ran
    /// out.
    fn arrival_search(&mut self, netlist: &Netlist, net: NetId) -> Option<Time> {
        self.prepare_search(netlist);
        let i = net.index();
        if self.search.lower[i] == Time::POS_INF {
            // A simulated vector never settles the net.
            return Some(Time::POS_INF);
        }
        let topo = self.topo_arrival[i];
        let Some(first) = self.search.first_event[i].finite() else {
            // No finite event reaches the net, so its stability does not
            // depend on time and one probe decides `−∞` or `+∞`. (The
            // topological arrival is `+∞` whenever a never-arriving
            // input reaches the net, even where a constant masks it.)
            let stable = self.probe(netlist, net, 0)?;
            return Some(if stable { Time::NEG_INF } else { Time::POS_INF });
        };
        // Below the first finite event the predicate is constant; a
        // bound at `first` or later already shows instability there.
        if self.search.lower[i] < Time::new(first) && self.probe(netlist, net, first - 1)? {
            return Some(Time::NEG_INF);
        }
        let mut hi = match topo.finite() {
            Some(h) => h,
            None => {
                // Some arrivals are +∞. Past the last finite event the
                // predicate is constant again: stable there, or never.
                // Every finite settle time is at most `last`, so a
                // bound past it is +∞.
                let last = self.search.last_event[i]
                    .finite()
                    .expect("a finite event reaches the net");
                if self.search.lower[i] > Time::new(last) || !self.probe(netlist, net, last)? {
                    return Some(Time::POS_INF);
                }
                last
            }
        };
        // Invariant: unstable at `lo`, stable at `hi`.
        loop {
            let lo = self.search.lower[i]
                .finite()
                .map_or(first - 1, |l| (l - 1).max(first - 1));
            if hi - lo <= 1 {
                return Some(Time::new(hi));
            }
            let mid = lo + (hi - lo) / 2;
            if self.probe(netlist, net, mid)? {
                hi = mid;
            }
        }
    }

    /// Builds the search state for the bound arrival condition, unless
    /// an earlier search under it already did.
    fn prepare_search(&mut self, netlist: &Netlist) {
        let s = &mut self.search;
        if s.lower.len() == netlist.net_count() {
            return;
        }
        s.lower.clone_from(&self.earliest);
        s.first_event.clear();
        s.first_event.resize(netlist.net_count(), Time::POS_INF);
        s.last_event.clear();
        s.last_event.resize(netlist.net_count(), Time::NEG_INF);
        for (&pi, &a) in netlist.inputs().iter().zip(&self.arrivals) {
            if a.is_finite() {
                s.first_event[pi.index()] = a;
                s.last_event[pi.index()] = a;
            }
        }
        for &g in &self.topo_gates {
            let gate = netlist.gate(g);
            let d = Time::from(gate.delay);
            let fanin = |v: &[Time], init: Time, pick: fn(Time, Time) -> Time| {
                gate.inputs.iter().map(|n| v[n.index()]).fold(init, pick)
            };
            s.first_event[gate.output.index()] =
                fanin(&s.first_event, Time::POS_INF, Time::min) + d;
            s.last_event[gate.output.index()] = fanin(&s.last_event, Time::NEG_INF, Time::max) + d;
        }
        // Any vector bounds every net; the all-0 one costs no search.
        self.learn_from(netlist, &vec![false; self.arrivals.len()]);
    }

    /// Simulates one input vector and raises every net's bound to the
    /// time it settles under it.
    fn learn_from(&mut self, netlist: &Netlist, vector: &[bool]) {
        let s = &mut self.search;
        sim::settle_into(
            netlist,
            &self.topo_gates,
            &self.arrivals,
            vector,
            &mut s.values,
            &mut s.settle,
        );
        for (bound, &at) in s.lower.iter_mut().zip(&s.settle) {
            *bound = (*bound).max(at);
        }
    }

    /// One probe of the arrival search: [`Engine::try_is_stable_at`],
    /// and on a refutation, the countermodel's settle times raise every
    /// net's bound.
    fn probe(&mut self, netlist: &Netlist, net: NetId, t: i64) -> Option<bool> {
        // The search never probes below the bound, so the backend, not
        // the earliest-event prune, decides every probe.
        debug_assert!(Time::new(t) >= self.earliest[net.index()]);
        let stable = self.try_is_stable_at(netlist, net, Time::new(t))?;
        if !stable {
            if let Some(vector) = self.alg.last_countermodel(self.arrivals.len()) {
                self.learn_from(netlist, &vector);
                debug_assert!(
                    self.search.settle[net.index()] > Time::new(t),
                    "a countermodel at {t} settles after it"
                );
            }
            // Progress must not rest on the simulation alone.
            let bound = &mut self.search.lower[net.index()];
            *bound = (*bound).max(Time::new(t + 1));
        }
        Some(stable)
    }

    pub(crate) fn characteristic(
        &mut self,
        netlist: &Netlist,
        net: NetId,
        t: Time,
    ) -> (A::Repr, A::Repr) {
        self.stats.queries += 1;
        if t >= self.topo_arrival[net.index()] {
            self.stats.topological_hits += 1;
        } else if t < self.earliest[net.index()] {
            self.stats.prune_hits += 1;
        }
        self.s01(netlist, net, t)
    }

    pub(crate) fn instability_witness(
        &mut self,
        netlist: &Netlist,
        net: NetId,
        t: Time,
    ) -> Option<Vec<bool>> {
        self.stats.queries += 1;
        if t >= self.topo_arrival[net.index()] {
            self.stats.topological_hits += 1;
            return None;
        }
        if t < self.earliest[net.index()] {
            // Unstable everywhere: still extract the vector from the
            // backend (any assignment witnesses), but record the prune.
            self.stats.prune_hits += 1;
        }
        let (s0, s1) = self.s01(netlist, net, t);
        let settled = self.alg.or(s0, s1);
        self.alg.countermodel(settled, self.arrivals.len())
    }

    fn s01(&mut self, netlist: &Netlist, net: NetId, t: Time) -> (A::Repr, A::Repr) {
        // Prunes first: settled region and impossible region.
        if t >= self.topo_arrival[net.index()] {
            let f = self.settled_function(netlist, net);
            let nf = self.alg.not(f);
            return (nf, f);
        }
        if t < self.earliest[net.index()] {
            let b = self.alg.bot();
            return (b, b);
        }
        if let Some(&(_, pair)) = self.memo[net.index()].iter().find(|&&(at, _)| at == t) {
            self.stats.memo_hits += 1;
            self.stats.encodings_avoided += 1;
            return pair;
        }
        self.stats.nodes_built += 1;
        let pair = if let Some(k) = self.pi_position[net.index()] {
            if t >= self.arrivals[k] {
                let x = self.alg.input(k);
                let nx = self.alg.not(x);
                (nx, x)
            } else {
                let b = self.alg.bot();
                (b, b)
            }
        } else if let Some(g) = netlist.driver(net) {
            let gate = netlist.gate(g);
            let td = t - Time::from(gate.delay);
            self.gate_s01(netlist, gate.kind, &gate.inputs, td)
        } else {
            // Floating net: never stable (conservative).
            let b = self.alg.bot();
            (b, b)
        };
        let entries = &mut self.memo[net.index()];
        if entries.is_empty() {
            self.memo_nets.push(net);
        }
        entries.push((t, pair));
        pair
    }

    /// All-primes stability rules per gate kind. `td` is the query time
    /// minus the gate delay.
    fn gate_s01(
        &mut self,
        netlist: &Netlist,
        kind: GateKind,
        inputs: &[NetId],
        td: Time,
    ) -> (A::Repr, A::Repr) {
        match kind {
            GateKind::Const0 => {
                let t0 = self.alg.top();
                let b = self.alg.bot();
                (t0, b)
            }
            GateKind::Const1 => {
                let t1 = self.alg.top();
                let b = self.alg.bot();
                (b, t1)
            }
            GateKind::Buf => self.s01(netlist, inputs[0], td),
            GateKind::Not => {
                let (s0, s1) = self.s01(netlist, inputs[0], td);
                (s1, s0)
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // AND is stable at 1 when every fanin is, at 0 when any
                // is; OR the other way round.
                let and_like = matches!(kind, GateKind::And | GateKind::Nand);
                let base = self.fanin_pairs.len();
                for &n in inputs {
                    let pair = self.s01(netlist, n, td);
                    self.fanin_pairs.push(pair);
                }
                let s1 = self.fold_fanins(base, true, and_like);
                let s0 = self.fold_fanins(base, false, !and_like);
                self.fanin_pairs.truncate(base);
                if matches!(kind, GateKind::Nand | GateKind::Nor) {
                    (s1, s0)
                } else {
                    (s0, s1)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let (a0, a1) = self.s01(netlist, inputs[0], td);
                let (b0, b1) = self.s01(netlist, inputs[1], td);
                // Parity has no consensus terms: both inputs are always
                // observable, so stability needs both stable.
                let p = self.alg.and(a1, b0);
                let q = self.alg.and(a0, b1);
                let s1 = self.alg.or(p, q);
                let p = self.alg.and(a1, b1);
                let q = self.alg.and(a0, b0);
                let s0 = self.alg.or(p, q);
                if kind == GateKind::Xnor {
                    (s1, s0)
                } else {
                    (s0, s1)
                }
            }
            GateKind::Mux => {
                let (s_0, s_1) = self.s01(netlist, inputs[0], td);
                let (a_0, a_1) = self.s01(netlist, inputs[1], td);
                let (b_0, b_1) = self.s01(netlist, inputs[2], td);
                // primes of s·a + s̄·b: {s·a, s̄·b, a·b}
                let p = self.alg.and(s_1, a_1);
                let q = self.alg.and(s_0, b_1);
                let r = self.alg.and(a_1, b_1);
                let pq = self.alg.or(p, q);
                let s1 = self.alg.or(pq, r);
                // primes of s·ā + s̄·b̄: {s·ā, s̄·b̄, ā·b̄}
                let p = self.alg.and(s_1, a_0);
                let q = self.alg.and(s_0, b_0);
                let r = self.alg.and(a_0, b_0);
                let pq = self.alg.or(p, q);
                let s0 = self.alg.or(pq, r);
                (s0, s1)
            }
        }
    }

    /// Folds the `S1` (`ones`) or `S0` halves of the fanin pairs pushed
    /// since `base` into one conjunction (`conj`) or disjunction, left
    /// to right exactly as [`BoolAlg::and_many`]/[`BoolAlg::or_many`]
    /// do, so the backend sees the same operations in the same order.
    fn fold_fanins(&mut self, base: usize, ones: bool, conj: bool) -> A::Repr {
        let half = |&(s0, s1): &(A::Repr, A::Repr)| if ones { s1 } else { s0 };
        let alg = &mut self.alg;
        let mut pairs = self.fanin_pairs[base..].iter().map(half);
        let Some(mut acc) = pairs.next() else {
            return if conj { alg.top() } else { alg.bot() };
        };
        for x in pairs {
            acc = if conj {
                alg.and(acc, x)
            } else {
                alg.or(acc, x)
            };
        }
        acc
    }

    /// The (time-independent) Boolean function of `net` in terms of the
    /// primary inputs — the value it settles to.
    fn settled_function(&mut self, netlist: &Netlist, net: NetId) -> A::Repr {
        if let Some(f) = self.func_memo[net.index()] {
            self.stats.encodings_avoided += 1;
            return f;
        }
        let f = if let Some(k) = self.pi_position[net.index()] {
            self.alg.input(k)
        } else if let Some(g) = netlist.driver(net) {
            let gate = netlist.gate(g);
            let ins: Vec<A::Repr> = gate
                .inputs
                .iter()
                .map(|&n| self.settled_function(netlist, n))
                .collect();
            match gate.kind {
                GateKind::Const0 => self.alg.bot(),
                GateKind::Const1 => self.alg.top(),
                GateKind::Buf => ins[0],
                GateKind::Not => self.alg.not(ins[0]),
                GateKind::And => self.alg.and_many(&ins),
                GateKind::Nand => {
                    let x = self.alg.and_many(&ins);
                    self.alg.not(x)
                }
                GateKind::Or => self.alg.or_many(&ins),
                GateKind::Nor => {
                    let x = self.alg.or_many(&ins);
                    self.alg.not(x)
                }
                GateKind::Xor => {
                    let nb = self.alg.not(ins[1]);
                    let na = self.alg.not(ins[0]);
                    let p = self.alg.and(ins[0], nb);
                    let q = self.alg.and(na, ins[1]);
                    self.alg.or(p, q)
                }
                GateKind::Xnor => {
                    let nb = self.alg.not(ins[1]);
                    let na = self.alg.not(ins[0]);
                    let p = self.alg.and(ins[0], ins[1]);
                    let q = self.alg.and(na, nb);
                    self.alg.or(p, q)
                }
                GateKind::Mux => {
                    let ns = self.alg.not(ins[0]);
                    let p = self.alg.and(ins[0], ins[1]);
                    let q = self.alg.and(ns, ins[2]);
                    self.alg.or(p, q)
                }
            }
        } else {
            // Floating nets settle to an arbitrary constant; pick 0.
            self.alg.bot()
        };
        self.func_memo[net.index()] = Some(f);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolalg::{BddAlg, SatAlg};
    use crate::oracle::StabilityOracle;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// z = AND(a, b), delay 1, both inputs at 0.
    #[test]
    fn and_gate_stabilizes_at_one() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let mut an =
            StabilityOracle::new(nl.clone(), &[Time::ZERO, Time::ZERO], SatAlg::new()).unwrap();
        assert!(!an.is_stable_at(z, t(0)));
        assert!(an.is_stable_at(z, t(1)));
        assert!(an.is_stable_at(z, t(100)));
    }

    /// Static-1 hazard: z = a + ā is a tautology but not stable before
    /// both paths settle.
    #[test]
    fn constant_function_still_waits_for_hazards() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let na = nl.add_net("na");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Not, &[a], na, 1).unwrap();
        nl.add_gate(GateKind::Or, &[a, na], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = StabilityOracle::new(nl.clone(), &[Time::ZERO], SatAlg::new()).unwrap();
        assert!(!an.is_stable_at(z, t(1))); // direct path settled, inverted not
        assert!(an.is_stable_at(z, t(2)));
    }

    /// A constant gate is stable at any time.
    #[test]
    fn constants_always_stable() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], z, 3).unwrap();
        nl.mark_output(z);
        let mut an = StabilityOracle::new(nl.clone(), &[Time::ZERO], SatAlg::new()).unwrap();
        assert!(an.is_stable_at(z, t(-1000)));
    }

    /// The paper's false path: in the 2-bit carry-skip block with all
    /// inputs at 0, c_out is functionally stable at 3 even though the
    /// topological delay is 6. (With inputs at 0 the skip mux's select
    /// P settles at 3, a/b paths at 6; delay from c_in alone is 2.)
    #[test]
    fn carry_skip_false_path_detected_sat() {
        carry_skip_false_path(SatAlg::new());
    }

    #[test]
    fn carry_skip_false_path_detected_bdd() {
        carry_skip_false_path(BddAlg::new());
    }

    fn carry_skip_false_path<A: BoolAlg>(alg: A) {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        // Only c_in arrives late (at 0); a/b pins effectively settled
        // long ago (−10). Topologically c_out would need 0+6; the XBD0
        // analysis sees the false path and needs only 0+2.
        let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut an = StabilityOracle::new(nl.clone(), &arrivals, alg).unwrap();
        assert!(an.is_stable_at(c_out, t(2)));
        assert!(!an.is_stable_at(c_out, t(1)));
    }

    /// Monotone speedup: stability is monotone in t.
    #[test]
    fn stability_is_monotone_in_time() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(3), t(0), t(1), t(-2), t(0)];
        let mut an = StabilityOracle::new(nl.clone(), &arrivals, SatAlg::new()).unwrap();
        let mut prev = false;
        for time in -5..15 {
            let now = an.is_stable_at(c_out, t(time));
            assert!(!prev || now, "stability regressed at t={time}");
            prev = now;
        }
        assert!(prev, "stable by the topological bound");
    }

    /// Inputs that never arrive (+∞) block stability unless masked.
    #[test]
    fn unavailable_input_blocks_unless_masked() {
        // z = AND(a, b): if b never arrives, z never stabilizes…
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let mut an =
            StabilityOracle::new(nl.clone(), &[Time::ZERO, Time::POS_INF], SatAlg::new()).unwrap();
        assert!(!an.is_stable_at(z, t(1_000_000)));

        // …but z = AND(a, a) stabilizes fine without b.
        let mut nl = Netlist::new("m2");
        let a = nl.add_input("a");
        let _b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, a], z, 1).unwrap();
        nl.mark_output(z);
        let mut an =
            StabilityOracle::new(nl.clone(), &[Time::ZERO, Time::POS_INF], SatAlg::new()).unwrap();
        assert!(an.is_stable_at(z, t(1)));
    }

    /// The MUX consensus term: with both data inputs equal and settled,
    /// the output is stable even while the select is still unknown.
    #[test]
    fn mux_consensus_term() {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        // z = Mux(s, a, a)
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 1).unwrap();
        nl.mark_output(z);
        // Select arrives very late; data at 0.
        let mut an =
            StabilityOracle::new(nl.clone(), &[t(1000), Time::ZERO], SatAlg::new()).unwrap();
        assert!(an.is_stable_at(z, t(1)));
    }

    /// SAT and BDD backends agree on a batch of queries.
    #[test]
    fn backends_agree() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let mut sat = StabilityOracle::new(nl.clone(), &arrivals, SatAlg::new()).unwrap();
        let mut bdd = StabilityOracle::new(nl.clone(), &arrivals, BddAlg::new()).unwrap();
        for &out in nl.outputs() {
            for time in -2..14 {
                assert_eq!(
                    sat.is_stable_at(out, t(time)),
                    bdd.is_stable_at(out, t(time)),
                    "net {} at t={time}",
                    nl.net_name(out)
                );
            }
        }
    }

    #[test]
    fn stats_count_work() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut an = StabilityOracle::new(nl.clone(), &[t(0); 5], SatAlg::new()).unwrap();
        let _ = an.is_stable_at(c_out, t(100)); // topological hit
        let _ = an.is_stable_at(c_out, t(5));
        let s = an.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.topological_hits, 1);
        assert!(s.nodes_built > 0);
    }

    /// The satellite-fix pin-down: every public query path counts, and
    /// the prune/topological classifications are visible, on the
    /// carry-skip block.
    #[test]
    fn stats_are_consistent_across_query_paths() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut an = StabilityOracle::new(nl.clone(), &[t(0); 5], SatAlg::new()).unwrap();

        // Earliest conceivable c_out stabilization is c_in + 2 = 2:
        // querying below it is answered by the prune, and counted.
        assert!(!an.is_stable_at(c_out, t(1)));
        let s = an.stats();
        assert_eq!(s.queries, 1);
        assert_eq!(s.prune_hits, 1);
        assert_eq!(s.nodes_built, 0, "prune path must not encode");

        // `characteristic` counts as a query too (it used to bypass
        // the counter entirely).
        let _ = an.characteristic(c_out, t(5));
        let s = an.stats();
        assert_eq!(s.queries, 2);
        assert!(s.nodes_built > 0);

        // And the topological fast path is classified.
        let _ = an.characteristic(c_out, t(100));
        assert!(an.is_stable_at(c_out, t(100)));
        let s = an.stats();
        assert_eq!(s.queries, 4);
        assert_eq!(s.topological_hits, 2);

        // An instability witness is a query as well.
        let w = an.instability_witness(c_out, t(1));
        assert!(w.is_some());
        let s = an.stats();
        assert_eq!(s.queries, 5);
        assert_eq!(s.prune_hits, 2);

        // SAT work shows up in the solver counters.
        assert!(s.sat_queries > 0);
        assert!(s.solver_propagations > 0);
    }

    /// A zero budget turns every solver-backed query into `None`, but
    /// the topological and prune fast paths stay decisive — the
    /// degradation target is always reachable.
    #[test]
    fn zero_budget_keeps_fast_paths_decisive() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut an = StabilityOracle::new(nl.clone(), &[t(0); 5], SatAlg::new()).unwrap();
        an.set_budget(SolveBudget::default().with_conflicts(0));
        assert_eq!(an.try_is_stable_at(c_out, t(100)), Some(true)); // topological
        assert_eq!(an.try_is_stable_at(c_out, t(1)), Some(false)); // prune
        assert_eq!(an.try_is_stable_at(c_out, t(5)), None); // needs the solver
        let s = an.stats();
        assert_eq!(s.budget_hits, 1);
        // An unlimited budget decides the same query and agrees with
        // the plain path.
        an.set_budget(SolveBudget::UNLIMITED);
        let budgeted = an.try_is_stable_at(c_out, t(5));
        assert_eq!(budgeted, Some(an.is_stable_at(c_out, t(5))));
        assert_eq!(an.stats().budget_hits, 1, "no new exhaustion");
    }

    /// Rebinding keeps the backend but changes the answers to match a
    /// fresh analyzer under the new condition.
    #[test]
    fn set_arrivals_matches_fresh_analyzer() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let first = vec![t(0); 5];
        let second = vec![t(0), t(-10), t(-10), t(-10), t(-10)];

        let mut reused = StabilityOracle::new(nl.clone(), &first, SatAlg::new()).unwrap();
        for time in -2..12 {
            let _ = reused.is_stable_at(c_out, t(time));
        }
        reused.set_arrivals(&second);
        let mut fresh = StabilityOracle::new(nl.clone(), &second, SatAlg::new()).unwrap();
        for time in -2..12 {
            assert_eq!(
                reused.is_stable_at(c_out, t(time)),
                fresh.is_stable_at(c_out, t(time)),
                "t={time}"
            );
        }
        // Same condition again: memo survives, answers still match.
        reused.set_arrivals(&second);
        assert!(reused.is_stable_at(c_out, t(2)));
        assert!(!reused.is_stable_at(c_out, t(1)));
    }
}
