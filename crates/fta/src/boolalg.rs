//! Pluggable Boolean function representations for stability analysis.
//!
//! The XBD0 stability recursion builds Boolean functions over the
//! primary-input variables and asks tautology questions about them.
//! [`BoolAlg`] abstracts the function representation so the same
//! recursion runs over a CNF/SAT encoding (scales to large cones; the
//! default) or over BDDs (canonical; used for cross-checking and for
//! the exact required-time engine).

use std::collections::HashMap;

use hfta_bdd::{Bdd, BddManager};
use hfta_sat::{CnfBuilder, Lit, SolveBudget};

/// Work counters exposed by a Boolean backend.
///
/// Backends without a notion of conflicts/propagations (e.g. BDDs)
/// report zeros for the solver fields; `sat_queries` counts tautology
/// and countermodel decisions for every backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BackendCounters {
    /// Tautology/countermodel decisions issued.
    pub sat_queries: u64,
    /// Conflicts analyzed by the underlying solver.
    pub conflicts: u64,
    /// Unit propagations performed by the underlying solver.
    pub propagations: u64,
    /// Learnt clauses currently retained by the underlying solver.
    pub learnt_clauses: u64,
    /// Per-query variable domains built in shared-solver mode (zero
    /// when the backend runs one fresh encoding per cone).
    pub domains_built: u64,
    /// Learnt clauses removed or strengthened by between-query
    /// inprocessing in shared-solver mode.
    pub clauses_subsumed: u64,
}

/// A Boolean function store supporting construction and tautology
/// checking.
///
/// Implementations must be *consistent*: handles returned by the
/// constructors denote the obvious functions over the input variables
/// created by [`BoolAlg::input`].
pub trait BoolAlg {
    /// Handle to a function in this representation.
    type Repr: Copy + Eq + std::fmt::Debug;

    /// The constant-true function.
    fn top(&mut self) -> Self::Repr;
    /// The constant-false function.
    fn bot(&mut self) -> Self::Repr;
    /// The projection of input variable `i`.
    fn input(&mut self, i: usize) -> Self::Repr;
    /// Negation.
    fn not(&mut self, a: Self::Repr) -> Self::Repr;
    /// Binary conjunction.
    fn and(&mut self, a: Self::Repr, b: Self::Repr) -> Self::Repr;
    /// Binary disjunction.
    fn or(&mut self, a: Self::Repr, b: Self::Repr) -> Self::Repr;
    /// Is `a` the constant-true function?
    fn is_tautology(&mut self, a: Self::Repr) -> bool;
    /// Budgeted tautology check: `None` when the backend gave up
    /// because `budget` ran out. The default ignores the budget — for
    /// backends (like BDDs) whose tautology check is O(1) on an
    /// already-built function, there is nothing to interrupt.
    fn is_tautology_budgeted(&mut self, a: Self::Repr, budget: &SolveBudget) -> Option<bool> {
        let _ = budget;
        Some(self.is_tautology(a))
    }
    /// Is `a` satisfiable? Default: `¬a` is not a tautology.
    fn is_satisfiable(&mut self, a: Self::Repr) -> bool {
        let na = self.not(a);
        !self.is_tautology(na)
    }
    /// If `a` is not a tautology, a countermodel: values for inputs
    /// `0..num_inputs` under which `a` evaluates false. Returns `None`
    /// when `a` is a tautology.
    fn countermodel(&mut self, a: Self::Repr, num_inputs: usize) -> Option<Vec<bool>>;

    /// Conjunction of a slice.
    fn and_many(&mut self, xs: &[Self::Repr]) -> Self::Repr {
        match xs.split_first() {
            None => self.top(),
            Some((&first, rest)) => rest.iter().fold(first, |acc, &x| self.and(acc, x)),
        }
    }

    /// Disjunction of a slice.
    fn or_many(&mut self, xs: &[Self::Repr]) -> Self::Repr {
        match xs.split_first() {
            None => self.bot(),
            Some((&first, rest)) => rest.iter().fold(first, |acc, &x| self.or(acc, x)),
        }
    }

    /// Cumulative work counters for this backend. The default reports
    /// zeros (for backends without instrumentation).
    fn backend_counters(&self) -> BackendCounters {
        BackendCounters::default()
    }

    /// Turns per-call solve-episode recording on or off in the
    /// underlying engine (if any). Recording only fills a side buffer;
    /// it must never change query answers. The default is a no-op for
    /// backends without episodes (e.g. BDDs).
    fn set_episode_recording(&mut self, on: bool) {
        let _ = on;
    }

    /// Drains the solve episodes recorded since the last call. The
    /// default returns nothing.
    fn take_episodes(&mut self) -> Vec<hfta_sat::SolveEpisode> {
        Vec::new()
    }
}

/// SAT-backed Boolean algebra: functions are Tseitin-encoded literals in
/// a growing [`CnfBuilder`]; tautology is decided by refutation.
///
/// Constant folding and an operation cache keep the encoding compact
/// when the stability recursion revisits shared subfunctions.
#[derive(Debug, Default)]
pub struct SatAlg {
    cnf: CnfBuilder,
    inputs: HashMap<usize, Lit>,
    and_cache: HashMap<(Lit, Lit), Lit>,
    tautology_queries: u64,
    /// Shared-solver mode: answer each query under the variable
    /// domain of its transitive support instead of letting the solver
    /// roam the whole accumulated encoding.
    shared: bool,
    domains_built: u64,
    /// Learnt-clause count right after the last inprocessing pass
    /// (the between-query trigger fires on growth past a threshold).
    last_inprocess_learnts: u64,
}

/// Learnt-clause growth (over the count at the last pass) that
/// triggers another between-query inprocessing pass in shared mode.
const INPROCESS_LEARNT_DELTA: u64 = 512;

impl SatAlg {
    /// Creates an empty SAT algebra.
    #[must_use]
    pub fn new() -> SatAlg {
        SatAlg::default()
    }

    /// Creates an empty SAT algebra in shared-solver mode: the one
    /// growing encoding is kept, but every tautology/countermodel
    /// query searches only the variable [`hfta_sat::Domain`] of its
    /// transitive support (decisions, and propagation above level 0,
    /// stay inside it; see [`hfta_sat::Solver::solve_domain`]), and
    /// subsumption inprocessing runs between queries. Verdicts are
    /// bit-identical to [`SatAlg::new`]'s — domains are
    /// definition-closed and the encoding is purely definitional — but
    /// a query no longer pays for unrelated logic accumulated by
    /// earlier queries.
    #[must_use]
    pub fn new_shared() -> SatAlg {
        let mut alg = SatAlg::default();
        alg.cnf.set_dep_tracking(true);
        alg.shared = true;
        alg
    }

    /// Whether shared-solver (domain-restricted) mode is on.
    #[must_use]
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Number of tautology (SAT) queries issued so far.
    #[must_use]
    pub fn tautology_queries(&self) -> u64 {
        self.tautology_queries
    }

    /// Access to the underlying CNF builder (e.g. for statistics).
    #[must_use]
    pub fn cnf(&self) -> &CnfBuilder {
        &self.cnf
    }

    /// Runs a between-query inprocessing pass when the learnt database
    /// has grown enough since the last one.
    fn maybe_inprocess(&mut self) {
        let learnts = self.cnf.solver().stats().learnt_clauses;
        if learnts
            >= self
                .last_inprocess_learnts
                .saturating_add(INPROCESS_LEARNT_DELTA)
        {
            self.cnf.solver_mut().inprocess();
            self.last_inprocess_learnts = self.cnf.solver().stats().learnt_clauses;
        }
    }
}

impl BoolAlg for SatAlg {
    type Repr = Lit;

    fn top(&mut self) -> Lit {
        self.cnf.lit_true()
    }

    fn bot(&mut self) -> Lit {
        self.cnf.lit_false()
    }

    fn input(&mut self, i: usize) -> Lit {
        if let Some(&l) = self.inputs.get(&i) {
            return l;
        }
        let l = self.cnf.new_lit();
        self.inputs.insert(i, l);
        l
    }

    fn not(&mut self, a: Lit) -> Lit {
        !a
    }

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let t = self.top();
        let f = self.bot();
        if a == f || b == f || a == !b {
            return f;
        }
        if a == t || a == b {
            return b;
        }
        if b == t {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if let Some(&z) = self.and_cache.get(&key) {
            return z;
        }
        let z = self.cnf.emit_and(&[a, b]);
        self.and_cache.insert(key, z);
        z
    }

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = self.not(a);
        let nb = self.not(b);
        let n = self.and(na, nb);
        self.not(n)
    }

    fn is_tautology(&mut self, a: Lit) -> bool {
        self.tautology_queries += 1;
        if self.shared {
            self.maybe_inprocess();
            let dom = self.cnf.domain_of(&[a]);
            self.domains_built += 1;
            return self.cnf.is_implied_domain(a, &dom);
        }
        self.cnf.is_implied(a)
    }

    fn is_tautology_budgeted(&mut self, a: Lit, budget: &SolveBudget) -> Option<bool> {
        if budget.is_unlimited() {
            // Take the exact unbudgeted path so default-budget runs are
            // bit-identical to `is_tautology`.
            return Some(self.is_tautology(a));
        }
        self.tautology_queries += 1;
        if self.shared {
            // Domain restriction stays sound under a budget: `Sat` and
            // `Unsat` answers remain exact, `Unknown` degrades as
            // usual. (Layers additionally prefer fresh per-cone
            // solvers for budgeted runs — see `AnalysisConfig` — so
            // budgeted results stay bit-identical to the baseline.)
            self.maybe_inprocess();
            let dom = self.cnf.domain_of(&[a]);
            self.domains_built += 1;
            return self.cnf.is_implied_domain_budgeted(a, budget, &dom);
        }
        self.cnf.is_implied_budgeted(a, budget)
    }

    fn backend_counters(&self) -> BackendCounters {
        let s = self.cnf.solver().stats();
        BackendCounters {
            sat_queries: self.tautology_queries,
            conflicts: s.conflicts,
            propagations: s.propagations,
            learnt_clauses: s.learnt_clauses,
            domains_built: self.domains_built,
            clauses_subsumed: s.clauses_subsumed + s.clauses_strengthened,
        }
    }

    fn set_episode_recording(&mut self, on: bool) {
        self.cnf.solver_mut().set_episode_recording(on);
    }

    fn take_episodes(&mut self) -> Vec<hfta_sat::SolveEpisode> {
        self.cnf.solver_mut().take_episodes()
    }

    fn countermodel(&mut self, a: Lit, num_inputs: usize) -> Option<Vec<bool>> {
        self.tautology_queries += 1;
        let result = if self.shared {
            self.maybe_inprocess();
            // The domain must cover the queried inputs so the model
            // assigns them (out-of-domain inputs default to `false`
            // below, exactly as a fresh per-cone solver leaves
            // never-encoded inputs unconstrained).
            let mut roots = vec![a];
            roots.extend((0..num_inputs).filter_map(|i| self.inputs.get(&i).copied()));
            let dom = self.cnf.domain_of(&roots);
            self.domains_built += 1;
            self.cnf.solve_domain(&[!a], &dom)
        } else {
            self.cnf.solve_with(&[!a])
        };
        match result {
            hfta_sat::SatResult::Unsat => None,
            hfta_sat::SatResult::Sat => Some(
                (0..num_inputs)
                    .map(|i| {
                        // Inputs never queried so far are unconstrained.
                        self.inputs
                            .get(&i)
                            .and_then(|&l| self.cnf.lit_model(l))
                            .unwrap_or(false)
                    })
                    .collect(),
            ),
        }
    }
}

/// BDD-backed Boolean algebra: canonical functions, O(1) tautology.
#[derive(Debug, Default)]
pub struct BddAlg {
    mgr: BddManager,
    tautology_queries: u64,
}

impl BddAlg {
    /// Creates an empty BDD algebra.
    #[must_use]
    pub fn new() -> BddAlg {
        BddAlg::default()
    }

    /// Number of tautology queries issued so far.
    #[must_use]
    pub fn tautology_queries(&self) -> u64 {
        self.tautology_queries
    }

    /// Access to the underlying manager.
    #[must_use]
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Mutable access to the underlying manager (e.g. to evaluate a
    /// function on a vector).
    pub fn manager_mut(&mut self) -> &mut BddManager {
        &mut self.mgr
    }
}

impl BoolAlg for BddAlg {
    type Repr = Bdd;

    fn top(&mut self) -> Bdd {
        Bdd::TRUE
    }

    fn bot(&mut self) -> Bdd {
        Bdd::FALSE
    }

    fn input(&mut self, i: usize) -> Bdd {
        self.mgr
            .var(u32::try_from(i).expect("input index overflow"))
    }

    fn not(&mut self, a: Bdd) -> Bdd {
        self.mgr.not(a)
    }

    fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.mgr.and(a, b)
    }

    fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.mgr.or(a, b)
    }

    fn is_tautology(&mut self, a: Bdd) -> bool {
        self.tautology_queries += 1;
        self.mgr.is_tautology(a)
    }

    fn is_satisfiable(&mut self, a: Bdd) -> bool {
        self.mgr.is_satisfiable(a)
    }

    fn backend_counters(&self) -> BackendCounters {
        BackendCounters {
            sat_queries: self.tautology_queries,
            ..BackendCounters::default()
        }
    }

    fn countermodel(&mut self, a: Bdd, num_inputs: usize) -> Option<Vec<bool>> {
        let na = self.mgr.not(a);
        self.mgr
            .pick_sat(na, u32::try_from(num_inputs).expect("input count fits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<A: BoolAlg>(mut alg: A) {
        let a = alg.input(0);
        let b = alg.input(1);
        let na = alg.not(a);
        let a_or_na = alg.or(a, na);
        assert!(alg.is_tautology(a_or_na));
        let a_and_na = alg.and(a, na);
        assert!(!alg.is_satisfiable(a_and_na));
        let ab = alg.and(a, b);
        let a_or_b = alg.or(a, b);
        let nab = alg.not(ab);
        let implies = alg.or(nab, a_or_b);
        assert!(alg.is_tautology(implies));
        assert!(!alg.is_tautology(ab));
        assert!(alg.is_satisfiable(ab));
        let t = alg.top();
        assert!(alg.is_tautology(t));
        let f = alg.bot();
        assert!(!alg.is_satisfiable(f));
        let many = alg.and_many(&[a, b, t]);
        assert!(alg.is_satisfiable(many));
        let none = alg.and_many(&[]);
        assert!(alg.is_tautology(none));
        let empty_or = alg.or_many(&[]);
        assert!(!alg.is_satisfiable(empty_or));
    }

    #[test]
    fn sat_alg_semantics() {
        exercise(SatAlg::new());
    }

    #[test]
    fn bdd_alg_semantics() {
        exercise(BddAlg::new());
    }

    #[test]
    fn sat_constant_folding() {
        let mut alg = SatAlg::new();
        let a = alg.input(0);
        let t = alg.top();
        let f = alg.bot();
        assert_eq!(alg.and(a, t), a);
        assert_eq!(alg.and(a, f), f);
        assert_eq!(alg.and(a, a), a);
        let na = alg.not(a);
        assert_eq!(alg.and(a, na), f);
        // Cache hit: same pair yields same literal.
        let b = alg.input(1);
        let x = alg.and(a, b);
        let y = alg.and(b, a);
        assert_eq!(x, y);
    }
}
