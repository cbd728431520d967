use std::time::Instant;

use crate::domain::Domain;
use crate::types::{LitMap, VarMap};
use crate::{Lit, Var};

/// Result of a satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
}

/// Resource limits for one [`Solver::solve_budgeted`] call.
///
/// Each limit is relative to the call (not the solver's lifetime
/// counters); `None` means unlimited. The default budget is unlimited
/// on every axis, in which case `solve_budgeted` behaves exactly like
/// [`Solver::solve_with`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolveBudget {
    /// Maximum conflicts to analyze before giving up.
    pub conflicts: Option<u64>,
    /// Maximum unit propagations before giving up.
    pub propagations: Option<u64>,
    /// Maximum decisions before giving up.
    pub decisions: Option<u64>,
    /// Wall-clock instant past which the search gives up.
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// The unlimited budget: `solve_budgeted` never returns `Unknown`.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        conflicts: None,
        propagations: None,
        decisions: None,
        deadline: None,
    };

    /// `true` when no limit is set on any axis.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.conflicts.is_none()
            && self.propagations.is_none()
            && self.decisions.is_none()
            && self.deadline.is_none()
    }

    /// Returns this budget with a conflict limit.
    #[must_use]
    pub fn with_conflicts(mut self, n: u64) -> SolveBudget {
        self.conflicts = Some(n);
        self
    }

    /// Returns this budget with a propagation limit.
    #[must_use]
    pub fn with_propagations(mut self, n: u64) -> SolveBudget {
        self.propagations = Some(n);
        self
    }

    /// Returns this budget with a decision limit.
    #[must_use]
    pub fn with_decisions(mut self, n: u64) -> SolveBudget {
        self.decisions = Some(n);
        self
    }

    /// Returns this budget with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, at: Instant) -> SolveBudget {
        self.deadline = Some(at);
        self
    }

    /// Pointwise minimum of two budgets (tightest limit on each axis).
    #[must_use]
    pub fn tightened(self, other: &SolveBudget) -> SolveBudget {
        fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        SolveBudget {
            conflicts: min_opt(self.conflicts, other.conflicts),
            propagations: min_opt(self.propagations, other.propagations),
            decisions: min_opt(self.decisions, other.decisions),
            deadline: match (self.deadline, other.deadline) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            },
        }
    }
}

/// Which budget axis was exhausted by a [`Solver::solve_budgeted`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetExhausted {
    /// The conflict limit was hit.
    Conflicts,
    /// The propagation limit was hit.
    Propagations,
    /// The decision limit was hit.
    Decisions,
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            BudgetExhausted::Conflicts => "conflict budget",
            BudgetExhausted::Propagations => "propagation budget",
            BudgetExhausted::Decisions => "decision budget",
            BudgetExhausted::Deadline => "deadline",
        };
        f.write_str(label)
    }
}

/// Result of a budgeted satisfiability query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetedSatResult {
    /// A satisfying assignment was found.
    Sat,
    /// Definitively unsatisfiable (under the given assumptions). A
    /// refutation found within budget is a real refutation — budget
    /// exhaustion can only lose answers, never fabricate them.
    Unsat,
    /// The budget ran out before the search concluded. Callers must
    /// treat this conservatively (for timing analysis: "not provably
    /// stable").
    Unknown(BudgetExhausted),
}

impl BudgetedSatResult {
    /// `Some(Sat)`/`Some(Unsat)` for decided queries, `None` for
    /// `Unknown`.
    #[must_use]
    pub fn known(self) -> Option<SatResult> {
        match self {
            BudgetedSatResult::Sat => Some(SatResult::Sat),
            BudgetedSatResult::Unsat => Some(SatResult::Unsat),
            BudgetedSatResult::Unknown(_) => None,
        }
    }
}

impl From<SatResult> for BudgetedSatResult {
    fn from(r: SatResult) -> BudgetedSatResult {
        match r {
            SatResult::Sat => BudgetedSatResult::Sat,
            SatResult::Unsat => BudgetedSatResult::Unsat,
        }
    }
}

/// Absolute (lifetime-counter) thresholds derived from a
/// [`SolveBudget`] at `solve_budgeted` entry.
#[derive(Clone, Copy, Debug)]
struct Limits {
    conflicts: Option<u64>,
    propagations: Option<u64>,
    decisions: Option<u64>,
    deadline: Option<Instant>,
}

/// Outcome of one [`Solver::search`] episode.
enum SearchOutcome {
    Done(SatResult),
    Restart,
    Exhausted(BudgetExhausted),
}

/// Counters describing the work a [`Solver`] has performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Number of top-level `solve` calls.
    pub solves: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Current learnt-clause cap (`reduce_db` fires above it). Follows
    /// a Luby envelope of the base cap across restarts, so it returns
    /// to the base infinitely often and the database stays bounded over
    /// arbitrarily long runs.
    pub max_learnts: u64,
    /// Top-level solve calls searched within a variable [`Domain`]
    /// (see [`Solver::solve_domain`]).
    pub domain_solves: u64,
    /// Between-query inprocessing passes run (see
    /// [`Solver::inprocess`]).
    pub inprocessings: u64,
    /// Learnt clauses deleted by inprocessing because another (learnt)
    /// clause subsumes them or a level-0 unit satisfies them.
    pub clauses_subsumed: u64,
    /// Learnt clauses shortened by inprocessing (self-subsuming
    /// resolution or level-0 false-literal removal).
    pub clauses_strengthened: u64,
}

/// Work performed by a single top-level solve call, recorded when
/// episode recording is on (see [`Solver::set_episode_recording`]).
///
/// Counters are *deltas* over this one call, except `learnt_clauses`
/// and `max_learnts` which snapshot the database state at the end of
/// the call. Recording only appends to a side buffer — it never
/// changes the search itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SolveEpisode {
    /// `"sat"`, `"unsat"`, or `"unknown(<limit>)"` on budget exhaustion.
    pub outcome: &'static str,
    /// Decisions made during this call.
    pub decisions: u64,
    /// Unit propagations during this call.
    pub propagations: u64,
    /// Conflicts analyzed during this call.
    pub conflicts: u64,
    /// Restarts during this call.
    pub restarts: u64,
    /// Learnt clauses in the database after this call.
    pub learnt_clauses: u64,
    /// Learnt-clause cap in force at the end of this call.
    pub max_learnts: u64,
    /// Whether the call ran under a [`SolveBudget`].
    pub budgeted: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

/// Words of a clause's header in [`Solver::arena`]: the length and
/// flags word, then the `f64` activity as two words. The literals
/// follow inline.
const HEADER: usize = 3;
/// Header flag of a learnt clause.
const LEARNT: u32 = 1;
/// Header flag of a deleted clause.
const DELETED: u32 = 2;
/// The header's length field starts above the two flags.
const LEN_SHIFT: u32 = 2;
/// Offset of the permanently deleted sentinel clause, the arena's
/// first record. Compaction points the surviving watchers of deleted
/// clauses here, so `propagate` still drops them when it next visits
/// them.
const SENTINEL: u32 = 0;

/// Tag bit of [`Watcher::clause`] marking a binary clause.
const BINARY: u32 = 1 << 31;

/// One entry of a literal's watch list: the watched clause's arena
/// offset plus a blocker literal. A binary clause's watcher has
/// [`BINARY`] set in `clause` and holds the clause's other literal in
/// `blocker`, so propagating it never touches the clause itself.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

impl Watcher {
    fn is_binary(self) -> bool {
        self.clause & BINARY != 0
    }

    /// The watched clause's arena offset.
    fn offset(self) -> u32 {
        self.clause & !BINARY
    }
}

/// A conflict-driven clause-learning (CDCL) SAT solver.
///
/// See the [crate docs](crate) for an overview and example. Clauses may
/// be added incrementally between [`Solver::solve`] calls, and
/// [`Solver::solve_with`] solves under temporary assumptions — the
/// workhorse of repeated stability queries in the timing engine.
///
/// Every clause lives in one flat arena: a three-word header (length
/// and learnt/deleted flags, then the `f64` activity) followed by its
/// literals. A clause is referred to by its arena offset.
#[derive(Debug)]
pub struct Solver {
    /// Clause headers and literals, back to back; the record at
    /// [`SENTINEL`] is a deleted clause that is never compacted away.
    arena: Vec<u32>,
    /// Words held by deleted clauses not yet compacted away.
    wasted: usize,
    watches: LitMap<Vec<Watcher>>,
    /// Value of every literal: assigning a variable writes both of its
    /// literals, so reading one is a single load.
    values: LitMap<LBool>,
    phase: VarMap<bool>,
    reason: VarMap<Option<u32>>,
    level: VarMap<u32>,
    trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    qhead: usize,
    activity: VarMap<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: VarHeap,
    seen: VarMap<bool>,
    pub(crate) ok: bool,
    model: LitMap<LBool>,
    pub(crate) stats: SolverStats,
    max_learnts: usize,
    max_learnts_base: usize,
    record_episodes: bool,
    episodes: Vec<SolveEpisode>,
    /// Whether the decision heap holds only the variables of the last
    /// domain solve's [`Domain`] (see [`Solver::solve_domain`]). A
    /// plain solve refills it from every variable first.
    heap_scoped: bool,
    /// Scratch for `add_clause`'s sort and filter.
    add_buf: Vec<Lit>,
}

impl Solver {
    /// Creates an empty solver.
    #[must_use]
    pub fn new() -> Solver {
        Solver {
            arena: vec![DELETED, 0, 0],
            wasted: 0,
            watches: LitMap::default(),
            values: LitMap::default(),
            phase: VarMap::default(),
            reason: VarMap::default(),
            level: VarMap::default(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: VarMap::default(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: VarHeap::default(),
            seen: VarMap::default(),
            ok: true,
            model: LitMap::default(),
            stats: SolverStats::default(),
            max_learnts: 4000,
            max_learnts_base: 4000,
            record_episodes: false,
            episodes: Vec::new(),
            heap_scoped: false,
            add_buf: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics past 2^31 variables (see [`Var::from_index`]).
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.phase.len());
        self.values.push_var(LBool::Undef);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push_var(Vec::new());
        self.heap.push_var();
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.phase.len()
    }

    /// Number of clauses (problem + learnt, excluding deleted).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clause_offsets()
            .filter(|&c| !self.is_deleted(c))
            .count()
    }

    /// Work counters.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Turns per-call [`SolveEpisode`] recording on or off. Off by
    /// default; recording never changes the search, it only appends to
    /// a buffer drained by [`Solver::take_episodes`].
    pub fn set_episode_recording(&mut self, on: bool) {
        self.record_episodes = on;
    }

    /// Drains the episodes recorded since the last call.
    pub fn take_episodes(&mut self) -> Vec<SolveEpisode> {
        std::mem::take(&mut self.episodes)
    }

    fn record_episode(&mut self, before: SolverStats, outcome: &'static str, budgeted: bool) {
        self.episodes.push(SolveEpisode {
            outcome,
            decisions: self.stats.decisions - before.decisions,
            propagations: self.stats.propagations - before.propagations,
            conflicts: self.stats.conflicts - before.conflicts,
            restarts: self.stats.restarts - before.restarts,
            learnt_clauses: self.stats.learnt_clauses,
            max_learnts: self.stats.max_learnts,
            budgeted,
        });
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed; tautological clauses are
    /// dropped. Adding the empty clause (or a clause falsified at the
    /// top level) makes the solver permanently unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if called mid-solve (the solver is always at decision
    /// level 0 between `solve` calls) or if a literal references an
    /// unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at level 0"
        );
        if !self.ok {
            return;
        }
        for &l in lits {
            assert!(l.var().index() < self.num_vars(), "unallocated variable");
        }
        let mut ls = std::mem::take(&mut self.add_buf);
        ls.clear();
        ls.extend_from_slice(lits);
        ls.sort_unstable();
        ls.dedup();
        // A tautology holds some l and !l, adjacent once sorted; a
        // clause with a literal true at level 0 is already satisfied.
        let dropped = ls.windows(2).any(|w| w[0].var() == w[1].var())
            || ls.iter().any(|&l| self.lit_value(l) == LBool::True);
        if !dropped {
            // Literals false at level 0 can never satisfy the clause.
            ls.retain(|&l| self.lit_value(l) == LBool::Undef);
            match ls[..] {
                [] => self.ok = false,
                [unit] => {
                    self.unchecked_enqueue(unit, None);
                    if self.propagate(None).is_some() {
                        self.ok = false;
                    }
                }
                _ => {
                    self.attach_clause(&ls, false);
                }
            }
        }
        self.add_buf = ls;
    }

    /// Appends a clause of at least two literals to the arena, watches
    /// its first two literals and returns its offset.
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let offset = u32::try_from(self.arena.len())
            .ok()
            .filter(|&c| (c as usize) + HEADER + lits.len() <= BINARY as usize)
            .expect("clause arena overflow");
        let len = u32::try_from(lits.len()).expect("clause length overflow");
        let tag = if lits.len() == 2 {
            offset | BINARY
        } else {
            offset
        };
        self.watches[!lits[0]].push(Watcher {
            clause: tag,
            blocker: lits[1],
        });
        self.watches[!lits[1]].push(Watcher {
            clause: tag,
            blocker: lits[0],
        });
        self.arena
            .extend([len << LEN_SHIFT | if learnt { LEARNT } else { 0 }, 0, 0]);
        self.arena.extend(lits.iter().map(|l| l.0));
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        offset
    }

    /// Marks a clause deleted; its words are reclaimed by the next
    /// compaction (see [`Solver::collect_garbage`]). A binary clause's
    /// two watchers are unhooked at once, because propagation never
    /// reads a binary clause's header; longer clauses' watchers are
    /// purged lazily in `propagate`.
    pub(crate) fn delete_clause(&mut self, c: u32) {
        debug_assert!(!self.is_deleted(c), "clause deleted twice");
        let at = c as usize;
        self.arena[at] |= DELETED;
        if self.arena[at] & LEARNT != 0 {
            self.stats.learnt_clauses = self.stats.learnt_clauses.saturating_sub(1);
        }
        self.wasted += HEADER + self.clause_len(c);
        if self.clause_len(c) == 2 {
            for l in [self.lit(c, 0), self.lit(c, 1)] {
                let ws = &mut self.watches[!l];
                if let Some(at) = ws.iter().position(|w| w.clause == c | BINARY) {
                    ws.swap_remove(at);
                }
            }
        }
    }

    /// Compacts the arena once deleted clauses hold more than half of
    /// it: the live clauses are copied out in order, and every watcher
    /// and reason is relocated. A deleted clause's surviving watchers
    /// move to the sentinel, so each watch list keeps its length and
    /// order and the search is unchanged.
    pub(crate) fn collect_garbage(&mut self) {
        if 2 * self.wasted > self.arena.len() {
            self.compact();
        }
    }

    fn compact(&mut self) {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.wasted);
        fresh.extend_from_slice(&self.arena[..HEADER]);
        // Each old header's first activity word becomes its clause's
        // forwarding address: the new offset, or the sentinel.
        let mut c = HEADER;
        while c < self.arena.len() {
            let end = self.record_end(c);
            let forward = if self.arena[c] & DELETED != 0 {
                SENTINEL
            } else {
                let to = u32::try_from(fresh.len()).expect("offset fits");
                fresh.extend_from_slice(&self.arena[c..end]);
                to
            };
            self.arena[c + 1] = forward;
            c = end;
        }
        let old = std::mem::replace(&mut self.arena, fresh);
        let forward = |c: u32| old[c as usize + 1];
        for w in self.watches.iter_mut().flatten() {
            if w.offset() != SENTINEL {
                w.clause = forward(w.offset()) | (w.clause & BINARY);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = forward(*r);
            debug_assert_ne!(*r, SENTINEL, "a reason clause was deleted");
        }
        self.wasted = 0;
    }

    /// Offsets of every clause record in the arena, live or deleted,
    /// in arena order (which is creation order), sentinel first.
    pub(crate) fn clause_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        let mut c = 0usize;
        std::iter::from_fn(move || {
            let at = c;
            c = (at < self.arena.len()).then(|| self.record_end(at))?;
            Some(at as u32)
        })
    }

    /// The offset just past the clause record at offset `c`.
    fn record_end(&self, c: usize) -> usize {
        c + HEADER + (self.arena[c] >> LEN_SHIFT) as usize
    }

    pub(crate) fn clause_len(&self, c: u32) -> usize {
        (self.arena[c as usize] >> LEN_SHIFT) as usize
    }

    pub(crate) fn is_deleted(&self, c: u32) -> bool {
        self.arena[c as usize] & DELETED != 0
    }

    pub(crate) fn is_learnt(&self, c: u32) -> bool {
        self.arena[c as usize] & LEARNT != 0
    }

    /// The literals of the clause at offset `c`.
    pub(crate) fn lits(&self, c: u32) -> impl ExactSizeIterator<Item = Lit> + '_ {
        let start = c as usize + HEADER;
        self.arena[start..start + self.clause_len(c)]
            .iter()
            .map(|&code| Lit(code))
    }

    /// Literal `k` of the clause at offset `c`.
    pub(crate) fn lit(&self, c: u32, k: usize) -> Lit {
        Lit(self.arena[c as usize + HEADER + k])
    }

    fn clause_activity(&self, c: u32) -> f64 {
        let at = c as usize;
        f64::from_bits(u64::from(self.arena[at + 1]) | u64::from(self.arena[at + 2]) << 32)
    }

    fn set_clause_activity(&mut self, c: u32, a: f64) {
        let bits = a.to_bits();
        let at = c as usize;
        self.arena[at + 1] = bits as u32;
        self.arena[at + 2] = (bits >> 32) as u32;
    }

    /// Whether the clause at `c` is the reason of `l`'s variable while
    /// that variable is assigned, so conflict analysis may still read
    /// it and it must not be deleted.
    pub(crate) fn is_locked(&self, c: u32, l: Lit) -> bool {
        self.reason[l.var()] == Some(c) && self.var_value(l.var()) != LBool::Undef
    }

    pub(crate) fn lit_value(&self, l: Lit) -> LBool {
        self.values[l]
    }

    pub(crate) fn var_value(&self, v: Var) -> LBool {
        self.values[v.positive()]
    }

    fn decision_level(&self) -> u32 {
        u32::try_from(self.trail_lim.len()).expect("level overflow")
    }

    pub(crate) fn unchecked_enqueue(&mut self, l: Lit, from: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var();
        self.values[l] = LBool::True;
        self.values[!l] = LBool::False;
        self.phase[v] = l.is_positive();
        self.reason[v] = from;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation; returns the offset of a conflicting clause.
    ///
    /// Above decision level 0, an implication onto a variable outside
    /// `domain` is held back: the variable stays unassigned and the
    /// clause stays watched, so a domain solve never assigns anything
    /// outside its domain except at level 0 (see
    /// [`Solver::solve_domain`]).
    pub(crate) fn propagate(&mut self, domain: Option<&Domain>) -> Option<u32> {
        let scope = domain.filter(|_| !self.trail_lim.is_empty());
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[p]);
            let mut conflict = None;
            'watchers: while i < watch_list.len() {
                let w = watch_list[i];
                let other = self.values[w.blocker];
                if other == LBool::True {
                    i += 1;
                    continue;
                }
                if w.is_binary() {
                    // The blocker is the clause's other literal.
                    if other == LBool::False {
                        conflict = Some(w.offset());
                        self.qhead = self.trail.len();
                        break;
                    }
                    if scope.is_none_or(|d| d.contains(w.blocker.var())) {
                        self.unchecked_enqueue(w.blocker, Some(w.offset()));
                    }
                    i += 1;
                    continue;
                }
                let c = w.clause as usize;
                let hdr = self.arena[c];
                if hdr & DELETED != 0 {
                    watch_list.swap_remove(i);
                    continue;
                }
                // Normalize: the false literal !p goes to position 1.
                let at = c + HEADER;
                if self.arena[at] == false_lit.0 {
                    self.arena.swap(at, at + 1);
                }
                debug_assert_eq!(self.arena[at + 1], false_lit.0);
                let first = Lit(self.arena[at]);
                if first != w.blocker && self.values[first] == LBool::True {
                    watch_list[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in at + 2..at + (hdr >> LEN_SHIFT) as usize {
                    let lk = Lit(self.arena[k]);
                    if self.values[lk] != LBool::False {
                        self.arena.swap(at + 1, k);
                        self.watches[!lk].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        watch_list.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.values[first] == LBool::False {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    break;
                }
                if scope.is_none_or(|d| d.contains(first.var())) {
                    self.unchecked_enqueue(first, Some(w.clause));
                }
                i += 1;
            }
            // Put the (possibly shrunk) watch list back, preserving any
            // watchers added to it during this propagation step.
            let added = std::mem::replace(&mut self.watches[p], watch_list);
            self.watches[p].extend(added);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Backtracks to `level`, returning the unassigned variables to the
    /// decision heap in reverse trail order.
    fn cancel_until(&mut self, level: u32) {
        self.backtrack(level, true);
    }

    /// Backtracks to `level`. With `requeue` off the unassigned
    /// variables stay out of the decision heap, which is only sound
    /// when the next solve rebuilds the heap (see `fill_heap`).
    fn backtrack(&mut self, level: u32, requeue: bool) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            self.values[l] = LBool::Undef;
            self.values[!l] = LBool::Undef;
            self.reason[l.var()] = None;
            if requeue {
                self.heap.insert(l.var(), &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Fills the decision heap for the upcoming solve. A domain solve
    /// branches on its domain's unassigned variables only; a plain
    /// solve needs every unassigned variable, which the heap already
    /// holds unless the previous solve was scoped (backtracking
    /// reinserts exactly the variables it unassigns).
    fn fill_heap(&mut self, domain: Option<&Domain>) {
        let values = &self.values;
        let unassigned = |v: &Var| values[v.positive()] == LBool::Undef;
        match domain {
            Some(d) => {
                self.stats.domain_solves += 1;
                let vars = d.vars().iter().copied().filter(unassigned);
                self.heap.rebuild(vars, &self.activity);
                self.heap_scoped = true;
            }
            None if self.heap_scoped => {
                let vars = (0..self.num_vars()).map(Var::from_index).filter(unassigned);
                self.heap.rebuild(vars, &self.activity);
                self.heap_scoped = false;
            }
            None => {}
        }
    }

    fn var_bump(&mut self, v: Var) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn cla_bump(&mut self, c: u32) {
        let a = self.clause_activity(c) + self.cla_inc;
        self.set_clause_activity(c, a);
        if a > 1e20 {
            let scale = 1e-20;
            let mut at = 0;
            while at < self.arena.len() {
                let cl = at as u32;
                self.set_clause_activity(cl, self.clause_activity(cl) * scale);
                at = self.record_end(at);
            }
            self.cla_inc *= scale;
        }
    }

    /// First-UIP conflict analysis.
    ///
    /// Returns the learnt clause (asserting literal first) and the
    /// backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();
        loop {
            if self.is_learnt(confl) {
                self.cla_bump(confl);
            }
            // Every literal but the one this reason implied (a binary
            // reason may hold it in either position).
            let start = confl as usize + HEADER;
            for k in start..start + self.clause_len(confl) {
                let q = Lit(self.arena[k]);
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.var_bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var()].expect("non-decision has a reason");
        }
        learnt[0] = !p.expect("UIP found");

        // Conflict-clause minimization: drop literals implied by the
        // rest of the clause (single-step self-subsumption).
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.lit_redundant(l))
            .collect();
        for &l in &learnt {
            self.seen[l.var()] = false;
        }
        let mut keep = keep.into_iter();
        learnt.retain(|_| keep.next().expect("one flag per literal"));

        // Find the backjump level: second-highest level in the clause.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var()]
        };
        (learnt, bt_level)
    }

    /// A learnt literal is redundant if its reason's other literals are
    /// all already in the learnt clause (marked `seen`) or at level 0.
    fn lit_redundant(&self, l: Lit) -> bool {
        let v = l.var();
        let Some(r) = self.reason[v] else {
            return false;
        };
        self.lits(r)
            .all(|q| q.var() == v || self.seen[q.var()] || self.level[q.var()] == 0)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.var_value(v) == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut learnts: Vec<u32> = self
            .clause_offsets()
            .filter(|&c| self.is_learnt(c) && !self.is_deleted(c) && self.clause_len(c) > 2)
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clause_activity(a)
                .partial_cmp(&self.clause_activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_delete = learnts.len() / 2;
        for &c in &learnts[..to_delete] {
            if !self.is_locked(c, self.lit(c, 0)) {
                self.delete_clause(c);
            }
        }
        self.collect_garbage();
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under temporary assumptions.
    ///
    /// The assumptions hold only for this call; the clause database is
    /// untouched, so repeated queries with different assumptions are
    /// cheap. Returns [`SatResult::Unsat`] when the formula conjoined
    /// with the assumptions is unsatisfiable.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_inner(assumptions, None, None)
            .known()
            .expect("no limits were set")
    }

    /// Like [`Solver::solve_with`], but searches only `domain`: the
    /// solver branches on domain variables alone, and above decision
    /// level 0 an implication onto a variable outside the domain is
    /// left unassigned (its clause stays watched). The answer is `Sat`
    /// once every domain variable is assigned at a conflict-free
    /// propagation fixpoint with all assumptions enqueued; the model
    /// then assigns the domain and the level-0 units, nothing else.
    ///
    /// Exact (same verdict as an unrestricted solve) only under the
    /// definitional-extension contract documented on [`Domain`]; the
    /// caller is responsible for supplying a definition-closed domain
    /// containing every assumption variable
    /// ([`crate::CnfBuilder::domain_of`] does both).
    pub fn solve_domain(&mut self, assumptions: &[Lit], domain: &Domain) -> SatResult {
        self.solve_inner(assumptions, None, Some(domain))
            .known()
            .expect("no limits were set")
    }

    /// Like [`Solver::solve_with`], but interruptible: gives up with
    /// [`BudgetedSatResult::Unknown`] once any limit in `budget` is
    /// exceeded.
    ///
    /// With an unlimited budget this runs the exact same search as
    /// `solve_with` (identical decisions, restarts, and counters). On
    /// exhaustion the solver backtracks to level 0 and stays fully
    /// usable — learnt clauses from the partial search are kept, and a
    /// later call (budgeted or not) may finish the query. A `Sat` or
    /// `Unsat` answer is always definitive; only `Unknown` is
    /// inconclusive.
    pub fn solve_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
    ) -> BudgetedSatResult {
        self.solve_inner(assumptions, Some(budget), None)
    }

    /// Budgeted counterpart of [`Solver::solve_domain`]: the same
    /// domain search, interruptible by `budget`.
    pub fn solve_domain_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
        domain: &Domain,
    ) -> BudgetedSatResult {
        self.solve_inner(assumptions, Some(budget), Some(domain))
    }

    fn solve_inner(
        &mut self,
        assumptions: &[Lit],
        budget: Option<&SolveBudget>,
        domain: Option<&Domain>,
    ) -> BudgetedSatResult {
        let before = self.stats;
        self.stats.solves += 1;
        let result = if self.ok {
            // Permanently UNSAT at the top level is definitive no
            // matter the budget; otherwise search.
            self.search_restarts(assumptions, budget, domain)
        } else {
            BudgetedSatResult::Unsat
        };
        if self.record_episodes {
            let outcome = match result {
                BudgetedSatResult::Sat => "sat",
                BudgetedSatResult::Unsat => "unsat",
                BudgetedSatResult::Unknown(BudgetExhausted::Conflicts) => "unknown(conflicts)",
                BudgetedSatResult::Unknown(BudgetExhausted::Propagations) => {
                    "unknown(propagations)"
                }
                BudgetedSatResult::Unknown(BudgetExhausted::Decisions) => "unknown(decisions)",
                BudgetedSatResult::Unknown(BudgetExhausted::Deadline) => "unknown(deadline)",
            };
            self.record_episode(before, outcome, budget.is_some());
        }
        result
    }

    /// Runs search episodes under the Luby restart schedule until the
    /// query is decided or a limit of `budget` is hit, then returns to
    /// level 0 (keeping the model of a `Sat` answer).
    fn search_restarts(
        &mut self,
        assumptions: &[Lit],
        budget: Option<&SolveBudget>,
        domain: Option<&Domain>,
    ) -> BudgetedSatResult {
        debug_assert_eq!(self.decision_level(), 0);
        debug_assert!(domain.is_none_or(|d| assumptions.iter().all(|a| d.contains(a.var()))));
        self.fill_heap(domain);
        let limits = budget.map(|b| Limits {
            conflicts: b.conflicts.map(|n| self.stats.conflicts.saturating_add(n)),
            propagations: b
                .propagations
                .map(|n| self.stats.propagations.saturating_add(n)),
            decisions: b.decisions.map(|n| self.stats.decisions.saturating_add(n)),
            deadline: b.deadline,
        });
        let mut restarts = 0u64;
        let result = loop {
            let max_conflicts = luby(restarts) * 256;
            self.set_learnt_cap(restarts);
            match self.search(assumptions, max_conflicts, limits.as_ref(), domain) {
                SearchOutcome::Done(r) => break r.into(),
                SearchOutcome::Exhausted(why) => break BudgetedSatResult::Unknown(why),
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        };
        if result == BudgetedSatResult::Sat {
            self.model.clone_from(&self.values);
        }
        // A domain solve leaves the heap scoped, so the next solve
        // rebuilds it from scratch: requeueing the trail would be waste.
        self.backtrack(0, domain.is_none());
        result
    }

    /// Sets the learnt-clause cap for the upcoming search episode to
    /// `max_learnts_base × luby(restarts)`. Unlike a monotone geometric
    /// growth schedule, the Luby envelope returns to the base cap
    /// infinitely often, so the clause database stays bounded across
    /// arbitrarily many restarts — and across arbitrarily many
    /// (budgeted) `solve` calls, each of which restarts the envelope.
    fn set_learnt_cap(&mut self, restarts: u64) {
        let cap = (self.max_learnts_base as u64).saturating_mul(luby(restarts));
        self.max_learnts = usize::try_from(cap).unwrap_or(usize::MAX);
        self.stats.max_learnts = cap;
    }

    /// Checks the lifetime counters against absolute limits. The check
    /// order (conflicts, propagations, decisions, deadline) is fixed so
    /// the reported exhaustion reason is deterministic for
    /// deterministic budgets.
    fn budget_exceeded(&self, lim: &Limits) -> Option<BudgetExhausted> {
        if lim.conflicts.is_some_and(|n| self.stats.conflicts >= n) {
            return Some(BudgetExhausted::Conflicts);
        }
        if lim
            .propagations
            .is_some_and(|n| self.stats.propagations >= n)
        {
            return Some(BudgetExhausted::Propagations);
        }
        if lim.decisions.is_some_and(|n| self.stats.decisions >= n) {
            return Some(BudgetExhausted::Decisions);
        }
        if lim.deadline.is_some_and(|at| Instant::now() >= at) {
            return Some(BudgetExhausted::Deadline);
        }
        None
    }

    /// Runs CDCL search for at most `max_conflicts` conflicts.
    /// `Restart` means "restart requested"; `Exhausted` is only
    /// possible when `limits` is set.
    fn search(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
        limits: Option<&Limits>,
        domain: Option<&Domain>,
    ) -> SearchOutcome {
        let mut conflicts = 0u64;
        loop {
            if let Some(lim) = limits {
                if let Some(why) = self.budget_exceeded(lim) {
                    return SearchOutcome::Exhausted(why);
                }
            }
            if let Some(confl) = self.propagate(domain) {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Done(SatResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let c = self.attach_clause(&learnt, true);
                    self.cla_bump(c);
                    self.unchecked_enqueue(asserting, Some(c));
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                if self.stats.learnt_clauses as usize > self.max_learnts {
                    self.reduce_db();
                }
                if conflicts >= max_conflicts {
                    return SearchOutcome::Restart;
                }
            } else {
                // Assumptions first, then VSIDS decisions.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open an empty level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            return SearchOutcome::Done(SatResult::Unsat);
                        }
                        LBool::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                // An empty heap means every variable the solve may
                // branch on (its domain's, under a domain) is assigned.
                let Some(v) = self.pick_branch_var() else {
                    return SearchOutcome::Done(SatResult::Sat);
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(v.lit(self.phase[v]), None);
            }
        }
    }

    /// The value of `v` in the most recent satisfying assignment, or
    /// `None` if the last solve was unsatisfiable / the variable was
    /// created afterwards.
    #[must_use]
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.positive()) {
            Some(LBool::True) => Some(true),
            Some(LBool::False) => Some(false),
            _ => None,
        }
    }

    /// The value of a literal in the most recent model.
    #[must_use]
    pub fn lit_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b == l.is_positive())
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut k = 1u32;
    loop {
        let len = (1u64 << k) - 1;
        if i + 1 == len {
            return 1 << (k - 1);
        }
        if i + 1 < len {
            i -= (1u64 << (k - 1)) - 1;
            k = 1;
            continue;
        }
        k += 1;
    }
}

/// Indexed binary max-heap over variable activities.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`; `ABSENT` when not queued.
    pos: VarMap<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarHeap {
    /// Makes room for the next variable (not yet queued).
    fn push_var(&mut self) {
        self.pos.push(ABSENT);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v] != ABSENT
    }

    fn insert(&mut self, v: Var, act: &VarMap<f64>) {
        if self.contains(v) {
            return;
        }
        self.push_back(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn push_back(&mut self, v: Var) {
        self.pos[v] = u32::try_from(self.heap.len()).expect("heap size overflow");
        self.heap.push(v);
    }

    /// Replaces the contents with `vars` (each at most once), in
    /// O(current size + new size).
    fn rebuild(&mut self, vars: impl Iterator<Item = Var>, act: &VarMap<f64>) {
        for v in self.heap.drain(..) {
            self.pos[v] = ABSENT;
        }
        for v in vars {
            debug_assert!(!self.contains(v), "duplicate heap variable");
            self.push_back(v);
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    fn update(&mut self, v: Var, act: &VarMap<f64>) {
        if self.contains(v) {
            self.sift_up(self.pos[v] as usize, act);
        }
    }

    fn pop(&mut self, act: &VarMap<f64>) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &VarMap<f64>) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i]] <= act[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &VarMap<f64>) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l]] > act[self.heap[best]] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r]] > act[self.heap[best]] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a as u32;
        self.pos[self.heap[b]] = b as u32;
    }
}

impl Default for Solver {
    /// Equivalent to [`Solver::new`].
    fn default() -> Solver {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        let a = s.value(v[0]).unwrap();
        let b = s.value(v[1]).unwrap();
        assert!(a || b);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautology_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive(), v[0].negative()]);
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn chain_propagation() {
        // x1 & (x1->x2) & ... & (x9->x10) forces all true.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        s.add_clause(&[v[0].positive()]);
        for i in 0..9 {
            s.add_clause(&[v[i].negative(), v[i + 1].positive()]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no two
        // pigeons share a hole.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_toggle_result() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].negative(), v[1].positive()]); // a -> b
        assert_eq!(
            s.solve_with(&[v[0].positive(), v[1].negative()]),
            SatResult::Unsat
        );
        assert_eq!(s.solve_with(&[v[0].positive()]), SatResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // The clause database is unaffected by assumptions.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn contradictory_assumptions_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert_eq!(
            s.solve_with(&[v[0].positive(), v[0].negative()]),
            SatResult::Unsat
        );
        // Solver still usable.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[v[0].negative()]);
        s.add_clause(&[v[1].negative()]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        s.add_clause(&[v[2].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Once top-level UNSAT, stays UNSAT.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn at_most_one_encoding() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        // Exactly one of four.
        let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        s.add_clause(&all);
        for i in 0..4 {
            for j in (i + 1)..4 {
                s.add_clause(&[v[i].negative(), v[j].negative()]);
            }
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let count = v.iter().filter(|&&x| s.value(x) == Some(true)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_budget_returns_unknown() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_conflicts(0);
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Conflicts)
        );
        // Solver remains usable and still at level 0.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn zero_decision_budget_reports_decisions() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_decisions(0);
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Decisions)
        );
    }

    #[test]
    fn unlimited_budget_matches_solve() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        let va = lits(&mut a, 4);
        let vb = lits(&mut b, 4);
        for (s, v) in [(&mut a, &va), (&mut b, &vb)] {
            let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
            s.add_clause(&all);
            for i in 0..4 {
                for j in (i + 1)..4 {
                    s.add_clause(&[v[i].negative(), v[j].negative()]);
                }
            }
        }
        let plain = a.solve();
        let budgeted = b.solve_budgeted(&[], &SolveBudget::UNLIMITED);
        assert_eq!(BudgetedSatResult::from(plain), budgeted);
        // The searches are bit-identical: same work counters.
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn budgeted_finds_unsat_within_budget() {
        // A definitive answer within budget is a real answer.
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[0].negative()]);
        let budget = SolveBudget::default().with_conflicts(1_000);
        assert_eq!(s.solve_budgeted(&[], &budget), BudgetedSatResult::Unsat);
        // Top-level UNSAT is permanent regardless of future budgets.
        assert_eq!(
            s.solve_budgeted(&[], &SolveBudget::default().with_conflicts(0)),
            BudgetedSatResult::Unsat
        );
    }

    #[test]
    fn budget_exhaustion_keeps_solver_reusable() {
        // Pigeonhole 5→4 needs many conflicts; a 1-conflict budget
        // exhausts, then an unlimited call still proves UNSAT.
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let tight = SolveBudget::default().with_conflicts(1);
        assert_eq!(
            s.solve_budgeted(&[], &tight),
            BudgetedSatResult::Unknown(BudgetExhausted::Conflicts)
        );
        assert_eq!(
            s.solve_budgeted(&[], &SolveBudget::UNLIMITED),
            BudgetedSatResult::Unsat
        );
    }

    #[test]
    fn past_deadline_exhausts_immediately() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0].positive(), v[1].positive()]);
        let budget = SolveBudget::default().with_deadline(std::time::Instant::now());
        assert_eq!(
            s.solve_budgeted(&[], &budget),
            BudgetedSatResult::Unknown(BudgetExhausted::Deadline)
        );
    }

    #[test]
    fn budget_tightening_takes_pointwise_min() {
        let a = SolveBudget::default().with_conflicts(10).with_decisions(5);
        let b = SolveBudget::default()
            .with_conflicts(3)
            .with_propagations(7);
        let t = a.tightened(&b);
        assert_eq!(t.conflicts, Some(3));
        assert_eq!(t.propagations, Some(7));
        assert_eq!(t.decisions, Some(5));
        assert!(SolveBudget::UNLIMITED.is_unlimited());
        assert!(!t.is_unlimited());
    }

    /// Long budgeted runs must not grow the learnt-clause database
    /// without bound. The cap follows a Luby envelope of the base
    /// (4000 × 1, 1, 2, 1, 1, 2, 4, …), which returns to the base
    /// infinitely often — unlike the monotone geometric schedule it
    /// replaced, which drifted past any fixed bound after enough
    /// conflicts had accumulated across repeated budgeted calls.
    #[test]
    fn budgeted_runs_keep_learnt_database_bounded() {
        // Pigeonhole 10→9 needs far more conflicts (~100k+) than the
        // total budget below, so every call is interrupted and the
        // solver keeps accumulating (and shedding) learnt clauses.
        let (n, m) = (10usize, 9usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let budget = SolveBudget::default().with_conflicts(2_000);
        for _ in 0..15 {
            let r = s.solve_budgeted(&[], &budget);
            assert_eq!(r, BudgetedSatResult::Unknown(BudgetExhausted::Conflicts));
            // Bounded at every observation point: a small multiple of
            // the base cap (slack for binary and locked clauses, which
            // reduce_db never deletes).
            assert!(
                s.stats().learnt_clauses <= 20_000,
                "learnt database grew unboundedly: {:?}",
                s.stats()
            );
            // The exposed cap is always base × a Luby term — the old
            // geometric schedule (4000, 4400, 4840, …) fails this from
            // its first reduction on.
            let cap = s.stats().max_learnts;
            assert_eq!(cap % 4000, 0, "cap {cap} is not a Luby multiple");
            assert!(
                (cap / 4000).is_power_of_two(),
                "cap {cap} is not a Luby multiple"
            );
        }
        assert!(s.stats().conflicts >= 29_000, "{:?}", s.stats());
    }

    /// Deleted clauses' words are reclaimed: once they would hold more
    /// than half the arena it is compacted, so a long-lived solver does
    /// not keep every learnt clause it ever made.
    #[test]
    fn deleted_clauses_hold_at_most_half_the_arena() {
        let (n, m) = (10usize, 9usize);
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&c);
        }
        #[allow(clippy::needless_range_loop)] // j enumerates holes
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        let problem_clauses = s.num_clauses();
        // Two and a half times the base learnt cap: several reductions.
        let budget = SolveBudget::default().with_conflicts(10_000);
        assert!(s.solve_budgeted(&[], &budget).known().is_none());
        s.inprocess();
        let deleted_words: usize = s
            .clause_offsets()
            .filter(|&c| c != SENTINEL && s.is_deleted(c))
            .map(|c| HEADER + s.clause_len(c))
            .sum();
        assert_eq!(deleted_words, s.wasted);
        assert!(
            2 * deleted_words <= s.arena.len(),
            "{deleted_words} deleted words in an arena of {}",
            s.arena.len()
        );
        // Nearly every conflict learnt a clause; at least 4,000 of
        // them were deleted and their words reclaimed.
        let records = s.clause_offsets().count();
        assert!(
            records + 4_000 <= problem_clauses + s.stats().conflicts as usize,
            "only {} of {} learnt clauses reclaimed",
            (problem_clauses + s.stats().conflicts as usize).saturating_sub(records),
            s.stats().conflicts
        );
    }

    /// Binary clauses are propagated from their watchers alone, so
    /// deleting one must unhook both watchers at once.
    #[test]
    fn deleted_binary_clause_leaves_no_watchers() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let (a, b) = (v[0].positive(), v[1].positive());
        s.attach_clause(&[a, b], true);
        let dup = s.attach_clause(&[b, a], true);
        s.attach_clause(&[!a, v[2].positive()], true);
        assert_eq!(s.inprocess(), (1, 0));
        assert!(s.is_deleted(dup));
        let all_live = |s: &Solver| {
            s.watches
                .iter()
                .flatten()
                .all(|w| !s.is_deleted(w.offset()))
        };
        let count = |s: &Solver| s.watches.iter().map(Vec::len).sum::<usize>();
        assert!(all_live(&s));
        assert_eq!(count(&s), 4);
        // Compacting the arena moves the survivors without reviving
        // the deleted clause's watchers.
        s.compact();
        assert_eq!(s.num_clauses(), 2);
        assert!(all_live(&s));
        assert_eq!(count(&s), 4);
        // Both directions of the surviving binaries still propagate.
        assert_eq!(s.solve_with(&[!a, !b]), SatResult::Unsat);
        assert_eq!(s.solve_with(&[!b, !v[2].positive()]), SatResult::Unsat);
        assert_eq!(s.solve_with(&[!b]), SatResult::Sat);
        assert_eq!(s.lit_model(a), Some(true));
    }

    /// A domain solve branches only inside its domain; the plain solve
    /// after it must branch on everything again.
    #[test]
    fn plain_solve_after_domain_solve_assigns_every_variable() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for w in v.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].negative()]);
        }
        let dom = Domain::from_vars(v[..2].to_vec());
        assert_eq!(s.solve_domain(&[v[0].negative()], &dom), SatResult::Sat);
        assert!(v[2..].iter().all(|&x| s.value(x).is_none()));
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(v.iter().all(|&x| s.value(x).is_some()));
        assert_eq!(s.stats().domain_solves, 1);
    }

    #[test]
    fn model_survives_new_vars() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SatResult::Sat);
        let b = s.new_var();
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(b), None);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    /// Random 3-SAT near the phase transition: just a smoke test that
    /// search with restarts and DB reduction stays sound on larger
    /// instances (models are verified clause by clause).
    #[test]
    fn random_3sat_models_are_valid() {
        // Simple deterministic LCG so the test needs no rand dep here.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..10 {
            let nv = 60;
            let nc = 240; // ratio 4.0 — mixed sat/unsat region
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut clauses = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = (next() % nv as u64) as usize;
                    let pos = next() % 2 == 0;
                    let lit = vars[v].lit(pos);
                    if !c.contains(&lit) && !c.contains(&!lit) {
                        c.push(lit);
                    }
                }
                clauses.push(c);
            }
            for c in &clauses {
                s.add_clause(c);
            }
            match s.solve() {
                SatResult::Sat => {
                    for c in &clauses {
                        assert!(
                            c.iter().any(|&l| s.lit_model(l) == Some(true)),
                            "round {round}: model violates a clause"
                        );
                    }
                }
                SatResult::Unsat => {
                    // Nothing cheap to verify; at least the solver must
                    // remain usable afterwards.
                    assert_eq!(s.solve(), SatResult::Unsat);
                }
            }
        }
    }

    /// Whether `l` holds in the assignment whose bit `i` is variable
    /// `i`'s value.
    fn holds(bits: u32, l: Lit) -> bool {
        (bits >> l.var().index() & 1 == 1) == l.is_positive()
    }

    /// Checks the arena's structural invariants: every watcher names a
    /// clause record, a binary watcher a live binary clause, a long
    /// watcher of a live clause one of its two watched literals; the
    /// reason of every assigned variable is a live clause implying it.
    /// With no garbage pending (right after a compaction) every watcher
    /// names a live clause or the sentinel.
    fn check_arena(s: &Solver) {
        let records: std::collections::HashSet<u32> = s.clause_offsets().collect();
        for (code, ws) in s.watches.iter().enumerate() {
            let watched = !Lit::from_code(code);
            for w in ws {
                let c = w.offset();
                assert!(records.contains(&c), "watcher names no clause: {c}");
                if w.is_binary() {
                    assert!(!s.is_deleted(c), "binary watcher of a deleted clause");
                    let lits: Vec<Lit> = s.lits(c).collect();
                    assert_eq!(lits.len(), 2);
                    assert!(lits.contains(&watched) && lits.contains(&w.blocker));
                } else if s.is_deleted(c) {
                    assert!(
                        c == SENTINEL || s.wasted > 0,
                        "watcher of a compacted clause"
                    );
                } else {
                    assert!(s.clause_len(c) > 2);
                    assert!(s.lit(c, 0) == watched || s.lit(c, 1) == watched);
                }
            }
        }
        for v in (0..s.num_vars()).map(Var::from_index) {
            if let (Some(r), true) = (s.reason[v], s.var_value(v) != LBool::Undef) {
                assert!(records.contains(&r) && !s.is_deleted(r), "dead reason");
                let implied = v.lit(s.var_value(v) == LBool::True);
                assert!(s.lits(r).any(|l| l == implied));
            }
        }
    }

    /// With the learnt-clause base cap lowered to 2, `reduce_db`,
    /// `inprocess` and arena compaction run many times over a long mix
    /// of plain, domain and budgeted solves with clauses added in
    /// between, on random 12-variable formulas. Every verdict must
    /// match enumeration, every model must satisfy every clause, and
    /// the arena must stay well-formed. Besides the low cap the test
    /// scrambles saved phases, reduces between queries and forces extra
    /// compactions, all through private fields and methods.
    #[test]
    fn arena_survives_reduction_inprocessing_and_compaction() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut natural, mut forced, mut decided) = (0u32, 0u32, 0u32);
        for _round in 0..40 {
            // Variables 0..6 (under a random renaming) carry three
            // parity constraints that contradict each other, 6..12 are
            // selectors.
            let nv = 12;
            let mut s = Solver::new();
            s.max_learnts_base = 2;
            let mut vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            for i in (1..nv).rev() {
                vars.swap(i, next(i as u64 + 1) as usize);
            }
            let selectors = &vars[6..];
            let mut gate: Vec<Lit> = Vec::new();
            while gate.len() < 3 {
                let l = selectors[next(6) as usize].negative();
                if !gate.contains(&l) {
                    gate.push(l);
                }
            }
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            // Every model of `clauses`, by enumeration.
            let mut models: Vec<u32> = (0u32..1 << nv).collect();
            for step in 0..600u32 {
                // With x = vars[0..6]: x0⊕x1⊕x2⊕x3 = 0, x2⊕x3⊕x4⊕x5 = 0
                // and x0⊕x1⊕x4⊕x5 = 1 sum to 0 = 1, but only when the
                // three gate selectors hold:
                // assuming them costs conflicts, and the learnt clauses,
                // long because they name the selectors, are soon
                // reduced away and relearnt. Random 3-clauses join now
                // and then.
                let mut fresh: Vec<Vec<Lit>> = Vec::new();
                if step == 0 {
                    for (xs, parity) in [([0, 1, 2, 3], 0), ([2, 3, 4, 5], 0), ([0, 1, 4, 5], 1)] {
                        for signs in 0u32..16 {
                            if signs.count_ones() % 2 != parity {
                                let mut c: Vec<Lit> = (0..4)
                                    .map(|k| vars[xs[k]].lit(signs >> k & 1 == 0))
                                    .collect();
                                c.extend_from_slice(&gate);
                                fresh.push(c);
                            }
                        }
                    }
                } else if next(40) == 0 {
                    let mut c: Vec<Lit> = Vec::new();
                    while c.len() < 3 {
                        let l = vars[next(nv as u64) as usize].lit(next(2) == 0);
                        if !c.iter().any(|q| q.var() == l.var()) {
                            c.push(l);
                        }
                    }
                    fresh.push(c);
                }
                for c in fresh {
                    let kept: Vec<u32> = models
                        .iter()
                        .copied()
                        .filter(|&m| c.iter().any(|&l| holds(m, l)))
                        .collect();
                    if kept.is_empty() && next(16) != 0 {
                        continue;
                    }
                    s.add_clause(&c);
                    clauses.push(c);
                    models = kept;
                }
                let mut assumptions: Vec<Lit> = Vec::new();
                for _ in 0..next(7) {
                    let l = selectors[next(6) as usize].positive();
                    if !assumptions.contains(&l) {
                        assumptions.push(l);
                    }
                }
                for _ in 0..next(3) {
                    let l = vars[next(nv as u64) as usize].lit(next(2) == 0);
                    if !assumptions.iter().any(|q| q.var() == l.var()) {
                        assumptions.push(l);
                    }
                }
                // A domain holding every clause and assumption variable
                // is definition-closed, so its verdicts are exact; it
                // is shuffled to vary the decision heap's build order.
                let mut dom_vars: Vec<Var> = clauses
                    .iter()
                    .flatten()
                    .chain(&assumptions)
                    .map(|l| l.var())
                    .collect();
                for i in (1..dom_vars.len()).rev() {
                    dom_vars.swap(i, next(i as u64 + 1) as usize);
                }
                let dom = Domain::from_vars(dom_vars);
                let budget = SolveBudget::default().with_conflicts(next(6));
                // Scrambled saved phases send each search somewhere new,
                // so conflicts (and learnt clauses to reduce) keep coming.
                for v in &vars {
                    s.phase[*v] = next(2) == 0;
                }
                let wasted = s.wasted;
                let verdict = match step % 4 {
                    0 => Some(s.solve_with(&assumptions)),
                    1 => Some(s.solve_domain(&assumptions, &dom)),
                    2 => s.solve_budgeted(&assumptions, &budget).known(),
                    _ => s.solve_domain_budgeted(&assumptions, &budget, &dom).known(),
                };
                if let Some(verdict) = verdict {
                    decided += 1;
                    let expect = models
                        .iter()
                        .any(|&m| assumptions.iter().all(|&l| holds(m, l)));
                    assert_eq!(verdict == SatResult::Sat, expect, "step {step}");
                    if verdict == SatResult::Sat {
                        let holds = |l: &Lit| s.lit_model(*l) == Some(true);
                        assert!(assumptions.iter().all(holds));
                        assert!(clauses.iter().all(|c| c.iter().any(holds)));
                    }
                }
                if step % 5 == 4 {
                    s.inprocess();
                } else if next(2) == 0 {
                    // Between-query reductions too, so learnt clauses
                    // are forgotten and relearnt.
                    s.reduce_db();
                }
                if s.wasted < wasted {
                    natural += 1;
                }
                if s.wasted > 0 && next(40) == 0 {
                    s.compact();
                    forced += 1;
                }
                check_arena(&s);
            }
        }
        assert!(decided > 10_000, "only {decided} decided solves");
        assert!(
            natural >= 40,
            "only {natural} compactions by the half-garbage rule"
        );
        assert!(forced >= 100, "only {forced} forced compactions");
    }

    /// XOR chains force long implication sequences through learning.
    #[test]
    fn xor_chain_parity() {
        // x0 ⊕ x1, x1 ⊕ x2, …, with endpoints pinned inconsistently:
        // an even chain of "not equal" constraints forcing x0 != x0.
        let n = 24;
        let mut s = Solver::new();
        let v: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for i in 0..n - 1 {
            // v[i] != v[i+1]
            s.add_clause(&[v[i].positive(), v[i + 1].positive()]);
            s.add_clause(&[v[i].negative(), v[i + 1].negative()]);
        }
        // Even-length alternation: v[0] == v[n-1] iff n odd.
        // Pin both ends equal; with n even that is contradictory.
        s.add_clause(&[v[0].positive()]);
        s.add_clause(&[v[n - 1].positive()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
