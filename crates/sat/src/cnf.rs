use crate::{BudgetedSatResult, Domain, Lit, SatResult, SolveBudget, Solver, Var};

/// Incremental Tseitin-style CNF construction over a [`Solver`].
///
/// `CnfBuilder` owns a solver and offers gate-level constraints: each
/// `emit_*` method allocates clauses asserting that an output literal
/// equals a Boolean function of input literals. The timing engine uses
/// it to encode stability characteristic functions.
///
/// # Example
///
/// ```
/// use hfta_sat::{CnfBuilder, SatResult};
///
/// let mut cnf = CnfBuilder::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// let z = cnf.emit_and(&[a, b]);
/// // z & !a is unsatisfiable.
/// assert_eq!(cnf.solve_with(&[z, !a]), SatResult::Unsat);
/// assert_eq!(cnf.solve_with(&[z]), SatResult::Sat);
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    solver: Solver,
    const_true: Option<Lit>,
    /// When on, every `emit_*` definition records which variables the
    /// defined output depends on, enabling [`CnfBuilder::domain_of`].
    track_deps: bool,
    /// Per-variable `(start, len)` slice of `dep_arena`: the operand
    /// variables of the gate defining this variable. `(0, 0)` for
    /// leaves (inputs, constants).
    dep_span: Vec<(u32, u32)>,
    dep_arena: Vec<Var>,
    /// Scratch for `emit_and`'s long clause.
    clause_buf: Vec<Lit>,
    /// Set when a non-definitional constraint (`add_clause`,
    /// `assert_lit`, `emit_equal`, `emit_implies`) was added while
    /// tracking — such constraints void the domain soundness contract.
    non_definitional: bool,
}

impl CnfBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> CnfBuilder {
        CnfBuilder::default()
    }

    /// Turns operand-dependency tracking on, enabling
    /// [`CnfBuilder::domain_of`]. Must be called before any variable
    /// is allocated so every definition is covered.
    ///
    /// # Panics
    ///
    /// Panics if the builder already holds variables.
    pub fn set_dep_tracking(&mut self, on: bool) {
        assert!(
            self.solver.num_vars() == 0,
            "dependency tracking must be enabled on an empty builder"
        );
        self.track_deps = on;
    }

    /// Whether operand-dependency tracking is on.
    #[must_use]
    pub fn dep_tracking(&self) -> bool {
        self.track_deps
    }

    /// Records that `z`'s variable is defined in terms of `ops`.
    fn record_def(&mut self, z: Lit, ops: &[Lit]) {
        if !self.track_deps {
            return;
        }
        let vi = z.var().index();
        if self.dep_span.len() <= vi {
            self.dep_span.resize(vi + 1, (0, 0));
        }
        let start = u32::try_from(self.dep_arena.len()).expect("dep arena overflow");
        self.dep_arena.extend(ops.iter().map(|l| l.var()));
        self.dep_span[vi] = (start, u32::try_from(ops.len()).expect("operand count"));
    }

    /// The definition-closed variable domain of `roots`: every root
    /// variable plus, transitively, the operand variables of each
    /// defined variable reached (and the shared constant-true
    /// variable, if allocated). Satisfies the [`Domain`] soundness
    /// contract, so [`CnfBuilder::solve_domain`] on the result is
    /// exact.
    ///
    /// # Panics
    ///
    /// Panics if dependency tracking is off, or if a non-definitional
    /// constraint (`add_clause`, `assert_lit`, `emit_equal`,
    /// `emit_implies`) was added while tracking — those void the
    /// contract.
    pub fn domain_of(&mut self, roots: &[Lit]) -> Domain {
        assert!(self.track_deps, "domain_of requires dependency tracking");
        assert!(
            !self.non_definitional,
            "non-definitional constraints void the domain soundness contract"
        );
        // The domain's own membership set marks the DFS's visits, so
        // the variables come out deduplicated in discovery order.
        let mut domain = Domain::with_capacity(self.solver.num_vars());
        let mut stack: Vec<Var> = roots.iter().map(|l| l.var()).collect();
        if let Some(t) = self.const_true {
            stack.push(t.var());
        }
        while let Some(v) = stack.pop() {
            if !domain.insert(v) {
                continue;
            }
            let (start, len) = self.dep_span.get(v.index()).copied().unwrap_or((0, 0));
            stack.extend_from_slice(&self.dep_arena[start as usize..(start + len) as usize]);
        }
        domain
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.solver.new_var().positive()
    }

    /// A literal constrained to be true (allocated lazily, shared).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.const_true {
            return t;
        }
        let t = self.new_lit();
        self.solver.add_clause(&[t]);
        self.const_true = Some(t);
        t
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Adds a raw clause. Voids the domain soundness contract when
    /// dependency tracking is on (see [`CnfBuilder::domain_of`]).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.non_definitional |= self.track_deps;
        self.solver.add_clause(lits);
    }

    /// Emits `z ⇔ AND(inputs)` and returns `z`.
    ///
    /// Degenerate cases are simplified: an empty conjunction is the
    /// constant true, a singleton is returned unchanged.
    pub fn emit_and(&mut self, inputs: &[Lit]) -> Lit {
        match inputs {
            [] => self.lit_true(),
            [single] => *single,
            _ => {
                let z = self.new_lit();
                // z -> each input
                for &i in inputs {
                    self.solver.add_clause(&[!z, i]);
                }
                // all inputs -> z
                self.clause_buf.clear();
                self.clause_buf.extend(inputs.iter().map(|&i| !i));
                self.clause_buf.push(z);
                self.solver.add_clause(&self.clause_buf);
                self.record_def(z, inputs);
                z
            }
        }
    }

    /// Emits `z ⇔ OR(inputs)` and returns `z`.
    pub fn emit_or(&mut self, inputs: &[Lit]) -> Lit {
        let negs: Vec<Lit> = inputs.iter().map(|&i| !i).collect();
        !self.emit_and(&negs)
    }

    /// Emits `z ⇔ a ⊕ b` and returns `z`.
    pub fn emit_xor(&mut self, a: Lit, b: Lit) -> Lit {
        let z = self.new_lit();
        self.solver.add_clause(&[!z, a, b]);
        self.solver.add_clause(&[!z, !a, !b]);
        self.solver.add_clause(&[z, !a, b]);
        self.solver.add_clause(&[z, a, !b]);
        self.record_def(z, &[a, b]);
        z
    }

    /// Emits `z ⇔ (s ? a : b)` and returns `z`.
    pub fn emit_mux(&mut self, s: Lit, a: Lit, b: Lit) -> Lit {
        let z = self.new_lit();
        self.solver.add_clause(&[!s, !a, z]);
        self.solver.add_clause(&[!s, a, !z]);
        self.solver.add_clause(&[s, !b, z]);
        self.solver.add_clause(&[s, b, !z]);
        // Redundant consensus clauses help propagation.
        self.solver.add_clause(&[!a, !b, z]);
        self.solver.add_clause(&[a, b, !z]);
        self.record_def(z, &[s, a, b]);
        z
    }

    /// Emits `a ⇔ b`. Voids the domain soundness contract when
    /// dependency tracking is on (constrains rather than defines).
    pub fn emit_equal(&mut self, a: Lit, b: Lit) {
        self.non_definitional |= self.track_deps;
        self.solver.add_clause(&[!a, b]);
        self.solver.add_clause(&[a, !b]);
    }

    /// Emits `a ⇒ b`. Voids the domain soundness contract when
    /// dependency tracking is on (constrains rather than defines).
    pub fn emit_implies(&mut self, a: Lit, b: Lit) {
        self.non_definitional |= self.track_deps;
        self.solver.add_clause(&[!a, b]);
    }

    /// Asserts that `l` holds. Voids the domain soundness contract
    /// when dependency tracking is on (constrains rather than
    /// defines).
    pub fn assert_lit(&mut self, l: Lit) {
        self.non_definitional |= self.track_deps;
        self.solver.add_clause(&[l]);
    }

    /// Solves the accumulated formula.
    pub fn solve(&mut self) -> SatResult {
        self.solver.solve()
    }

    /// Solves under assumptions.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solver.solve_with(assumptions)
    }

    /// Solves under assumptions within a resource budget.
    pub fn solve_with_budget(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
    ) -> BudgetedSatResult {
        self.solver.solve_budgeted(assumptions, budget)
    }

    /// Domain-restricted [`CnfBuilder::solve_with`] (see
    /// [`Solver::solve_domain`]).
    pub fn solve_domain(&mut self, assumptions: &[Lit], domain: &Domain) -> SatResult {
        self.solver.solve_domain(assumptions, domain)
    }

    /// Domain-restricted [`CnfBuilder::solve_with_budget`].
    pub fn solve_domain_budgeted(
        &mut self,
        assumptions: &[Lit],
        budget: &SolveBudget,
        domain: &Domain,
    ) -> BudgetedSatResult {
        self.solver
            .solve_domain_budgeted(assumptions, budget, domain)
    }

    /// Returns `true` if `l` holds in every satisfying assignment
    /// (decided by refuting `¬l`).
    pub fn is_implied(&mut self, l: Lit) -> bool {
        self.solver.solve_with(&[!l]) == SatResult::Unsat
    }

    /// [`CnfBuilder::is_implied`], restricted to `domain` (which must
    /// contain `l`'s variable and satisfy the [`Domain`] contract —
    /// `self.domain_of(&[l])` does).
    pub fn is_implied_domain(&mut self, l: Lit, domain: &Domain) -> bool {
        self.solver.solve_domain(&[!l], domain) == SatResult::Unsat
    }

    /// Budgeted [`CnfBuilder::is_implied_domain`]: `None` when the
    /// budget ran out before the implication query was decided.
    pub fn is_implied_domain_budgeted(
        &mut self,
        l: Lit,
        budget: &SolveBudget,
        domain: &Domain,
    ) -> Option<bool> {
        match self.solver.solve_domain_budgeted(&[!l], budget, domain) {
            BudgetedSatResult::Unsat => Some(true),
            BudgetedSatResult::Sat => Some(false),
            BudgetedSatResult::Unknown(_) => None,
        }
    }

    /// Budgeted [`CnfBuilder::is_implied`]: `None` when the budget ran
    /// out before the implication query was decided.
    pub fn is_implied_budgeted(&mut self, l: Lit, budget: &SolveBudget) -> Option<bool> {
        match self.solver.solve_budgeted(&[!l], budget) {
            BudgetedSatResult::Unsat => Some(true),
            BudgetedSatResult::Sat => Some(false),
            BudgetedSatResult::Unknown(_) => None,
        }
    }

    /// The value of a literal in the most recent model.
    #[must_use]
    pub fn lit_model(&self, l: Lit) -> Option<bool> {
        self.solver.lit_model(l)
    }

    /// Access to the underlying solver.
    #[must_use]
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Consumes the builder, returning the solver.
    #[must_use]
    pub fn into_solver(self) -> Solver {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::LBool;

    /// Checks `f(inputs) == expected_gate_output` over all input
    /// assignments by SAT-querying each row.
    fn check_truth_table<F>(n: usize, build: F, spec: fn(&[bool]) -> bool)
    where
        F: Fn(&mut CnfBuilder, &[Lit]) -> Lit,
    {
        let mut cnf = CnfBuilder::new();
        let ins: Vec<Lit> = (0..n).map(|_| cnf.new_lit()).collect();
        let z = build(&mut cnf, &ins);
        for row in 0u32..(1 << n) {
            let vals: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
            let mut assumptions: Vec<Lit> = ins
                .iter()
                .zip(&vals)
                .map(|(&l, &v)| if v { l } else { !l })
                .collect();
            let expect = spec(&vals);
            assumptions.push(if expect { z } else { !z });
            assert_eq!(
                cnf.solve_with(&assumptions),
                SatResult::Sat,
                "row {row:b} should force z={expect}"
            );
            let mut bad = assumptions;
            let last = bad.len() - 1;
            bad[last] = !bad[last];
            assert_eq!(cnf.solve_with(&bad), SatResult::Unsat);
        }
    }

    #[test]
    fn and_gate() {
        check_truth_table(3, |c, i| c.emit_and(i), |v| v.iter().all(|&x| x));
    }

    #[test]
    fn or_gate() {
        check_truth_table(3, |c, i| c.emit_or(i), |v| v.iter().any(|&x| x));
    }

    #[test]
    fn xor_gate() {
        check_truth_table(2, |c, i| c.emit_xor(i[0], i[1]), |v| v[0] ^ v[1]);
    }

    #[test]
    fn mux_gate() {
        check_truth_table(
            3,
            |c, i| c.emit_mux(i[0], i[1], i[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
    }

    #[test]
    fn constants() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.lit_true();
        let f = cnf.lit_false();
        assert_eq!(cnf.solve_with(&[t]), SatResult::Sat);
        assert_eq!(cnf.solve_with(&[f]), SatResult::Unsat);
        // Shared representation.
        assert_eq!(cnf.lit_true(), t);
    }

    #[test]
    fn empty_and_is_true() {
        let mut cnf = CnfBuilder::new();
        let z = cnf.emit_and(&[]);
        assert!(cnf.is_implied(z));
    }

    #[test]
    fn singleton_and_passthrough() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        assert_eq!(cnf.emit_and(&[a]), a);
    }

    #[test]
    fn is_implied_detects_tautology() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let na = !a;
        let z = cnf.emit_or(&[a, na]);
        assert!(cnf.is_implied(z));
        let w = cnf.emit_and(&[a, na]);
        assert!(cnf.is_implied(!w));
        assert!(!cnf.is_implied(a));
    }

    /// Builds a deterministic pseudo-random gate network and checks
    /// that every domain-restricted verdict equals the plain verdict,
    /// with inprocessing passes between queries, and that a `Sat`
    /// domain solve never assigns an out-of-domain variable that is
    /// not fixed at level 0.
    #[test]
    fn domain_restricted_matches_plain() {
        let mut seed = 0x2545F491_4F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..8 {
            let mut tracked = CnfBuilder::new();
            tracked.set_dep_tracking(true);
            let mut plain = CnfBuilder::new();
            let n_inputs = 3 + (round % 3);
            let mut t_pool: Vec<Lit> = (0..n_inputs).map(|_| tracked.new_lit()).collect();
            let mut p_pool: Vec<Lit> = (0..n_inputs).map(|_| plain.new_lit()).collect();
            for _ in 0..16 {
                let r = rng();
                let pick = |shift: u32, neg_bit: u32| {
                    let k = ((r >> shift) as usize & 0xffff) % t_pool.len();
                    let neg = r & (1 << neg_bit) != 0;
                    let flip = |l: Lit| if neg { !l } else { l };
                    (flip(t_pool[k]), flip(p_pool[k]))
                };
                let (ta, pa) = pick(0, 48);
                let (tb, pb) = pick(16, 49);
                let (tc, pc) = pick(32, 50);
                let (tz, pz) = match (r >> 51) % 4 {
                    0 => (tracked.emit_and(&[ta, tb]), plain.emit_and(&[pa, pb])),
                    1 => (tracked.emit_or(&[ta, tb]), plain.emit_or(&[pa, pb])),
                    2 => (tracked.emit_xor(ta, tb), plain.emit_xor(pa, pb)),
                    _ => (tracked.emit_mux(ta, tb, tc), plain.emit_mux(pa, pb, pc)),
                };
                t_pool.push(tz);
                p_pool.push(pz);
            }
            // Query every pool literal, positively and negatively, in
            // the same order on both builders — the shared tracked
            // solver accumulates learnt clauses across queries and
            // must still agree everywhere.
            for k in 0..t_pool.len() {
                for sign in [false, true] {
                    let tl = if sign { !t_pool[k] } else { t_pool[k] };
                    let pl = if sign { !p_pool[k] } else { p_pool[k] };
                    let dom = tracked.domain_of(&[tl]);
                    let implied = tracked.is_implied_domain(tl, &dom);
                    assert_eq!(
                        implied,
                        plain.is_implied(pl),
                        "round {round}, literal {k}, sign {sign}"
                    );
                    if !implied {
                        // Between solves the solver sits at level 0, so
                        // an assigned variable is a level-0 unit.
                        let solver = tracked.solver();
                        for v in (0..solver.num_vars()).map(Var::from_index) {
                            if !dom.contains(v) && solver.var_value(v) == LBool::Undef {
                                assert_eq!(
                                    solver.value(v),
                                    None,
                                    "round {round}, literal {k}: {v} assigned outside the domain"
                                );
                            }
                        }
                    }
                    if (k + usize::from(sign)) % 3 == 0 {
                        tracked.solver_mut().inprocess();
                    }
                }
            }
        }
    }

    #[test]
    fn domain_of_is_definition_closed() {
        let mut cnf = CnfBuilder::new();
        cnf.set_dep_tracking(true);
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        let c = cnf.new_lit();
        let ab = cnf.emit_and(&[a, b]);
        let abc = cnf.emit_and(&[ab, c]);
        let other = cnf.emit_xor(a, c);
        let dom = cnf.domain_of(&[abc]);
        for l in [abc, ab, a, b, c] {
            assert!(dom.contains(l.var()), "missing {l:?}");
        }
        assert!(!dom.contains(other.var()), "unrelated gate included");
    }

    #[test]
    #[should_panic(expected = "domain soundness")]
    fn non_definitional_constraints_void_domains() {
        let mut cnf = CnfBuilder::new();
        cnf.set_dep_tracking(true);
        let a = cnf.new_lit();
        cnf.assert_lit(a);
        let _ = cnf.domain_of(&[a]);
    }

    #[test]
    fn equal_and_implies() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.emit_equal(a, b);
        assert_eq!(cnf.solve_with(&[a, !b]), SatResult::Unsat);
        assert_eq!(cnf.solve_with(&[!a, !b]), SatResult::Sat);
        let c = cnf.new_lit();
        cnf.emit_implies(b, c);
        assert_eq!(cnf.solve_with(&[a, !c]), SatResult::Unsat);
    }
}
