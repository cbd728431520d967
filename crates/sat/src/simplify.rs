//! Between-query inprocessing: subsumption and self-subsuming
//! resolution over the learnt-clause database.
//!
//! A long-lived shared solver (see [`crate::Domain`]) accumulates
//! learnt clauses across thousands of stability queries. Many become
//! redundant: satisfied outright by level-0 units, duplicated or
//! subsumed by stronger later learnings, or carrying literals that a
//! sibling clause can resolve away. [`Solver::inprocess`] runs one
//! bounded pass between queries:
//!
//! * learnt clauses satisfied by a level-0 assignment are deleted;
//! * level-0-false literals are stripped (strengthening by units);
//! * a learnt clause subsumed by another learnt clause is deleted;
//! * self-subsuming resolution removes one literal per clause per
//!   pass (`C = A ∨ l`, `D ⊇ A ∨ ¬l` → drop `¬l` from `D`; at most
//!   one removal per clause per pass, because two removals justified
//!   against the *original* clause need not be jointly sound).
//!
//! The pass works over a flat literal arena with per-literal
//! occurrence lists and 64-bit variable signatures (a subset test
//! prefilter that is sign-insensitive, so it also covers the flipped
//! literal of self-subsuming resolution). Original (problem) clauses
//! are never touched, reason clauses of current level-0 assignments
//! are skipped, and every derived clause is implied by the formula —
//! so inprocessing never changes any future verdict, only the work to
//! reach it. Counters land in
//! [`SolverStats::clauses_subsumed`](crate::SolverStats) and
//! [`SolverStats::clauses_strengthened`](crate::SolverStats).

use crate::solver::{LBool, Solver};
use crate::{Lit, Var};

/// One learnt clause's slice of the flat arena.
struct Entry {
    start: usize,
    len: usize,
    /// Index into `Solver::clauses`.
    cidx: u32,
    /// OR of `1 << (var % 64)` over the literals: `C ⊆ D` implies
    /// `sig(C) & !sig(D) == 0`. Variable-based, so the test also
    /// prefilters the one-flipped-literal case.
    sig: u64,
    dead: bool,
    /// Literal to remove (self-subsuming resolution), at most one per
    /// pass.
    remove: Option<Lit>,
    /// Whether level-0-false literals were stripped on arena entry.
    unit_stripped: bool,
}

fn var_sig(v: Var) -> u64 {
    1u64 << (v.index() % 64)
}

impl Solver {
    /// Runs one inprocessing pass over the learnt-clause database:
    /// deletes learnt clauses satisfied at level 0 or subsumed by
    /// another learnt clause, strips level-0-false literals, and
    /// applies self-subsuming resolution (one literal removal per
    /// clause per pass). Returns
    /// `(clauses deleted, clauses strengthened)`.
    ///
    /// Every transformation replaces a clause with one implied by the
    /// formula, so no future verdict changes — only the work to reach
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if called mid-solve (the solver must be at decision
    /// level 0, as it always is between `solve` calls).
    pub fn inprocess(&mut self) -> (u64, u64) {
        assert!(
            self.trail_lim.is_empty(),
            "inprocessing runs at level 0, between queries"
        );
        if !self.ok {
            return (0, 0);
        }
        self.stats.inprocessings += 1;
        let mut subsumed = 0u64;
        let mut strengthened = 0u64;

        // Phase 1: collect candidates into the flat arena. Skip
        // non-learnt, deleted, and locked clauses (a clause that is the
        // reason of an assigned watch variable may be dereferenced by a
        // later conflict analysis). Clauses satisfied at level 0 are
        // deleted outright; level-0-false literals are stripped.
        let mut arena: Vec<Lit> = Vec::new();
        let mut entries: Vec<Entry> = Vec::new();
        for cidx in 0..self.clauses.len() {
            let c = &self.clauses[cidx];
            let idx = u32::try_from(cidx).expect("clause count overflow");
            if !c.learnt || c.deleted || c.lits.len() < 2 {
                continue;
            }
            let locked = c.lits.iter().take(2).any(|l| {
                let v = l.var().index();
                self.reason[v] == Some(idx) && self.assign[v] != LBool::Undef
            });
            if locked {
                continue;
            }
            if c.lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
                self.delete_clause(idx);
                subsumed += 1;
                continue;
            }
            let start = arena.len();
            let mut sig = 0u64;
            let mut stripped = false;
            for &l in &c.lits {
                if self.lit_value(l) == LBool::False {
                    stripped = true;
                } else {
                    arena.push(l);
                    sig |= var_sig(l.var());
                }
            }
            entries.push(Entry {
                start,
                len: arena.len() - start,
                cidx: idx,
                sig,
                dead: false,
                remove: None,
                unit_stripped: stripped,
            });
        }

        // Occurrence lists over the arena, indexed by literal code.
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for (ei, e) in entries.iter().enumerate() {
            for &l in &arena[e.start..e.start + e.len] {
                occ[l.code()].push(u32::try_from(ei).expect("entry count overflow"));
            }
        }

        // Phase 2: scan in ascending-length order (short clauses
        // subsume long ones; ties broken by arena order for
        // determinism). All checks run against the original arena
        // content — mutations are applied in phase 3.
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_by_key(|&i| (entries[i as usize].len, i));
        let clause_of = |e: &Entry| e.start..e.start + e.len;
        for &ci in &order {
            let ci = ci as usize;
            if entries[ci].dead {
                continue;
            }
            let (c_start, c_len, c_sig) = (entries[ci].start, entries[ci].len, entries[ci].sig);
            let c_lits = c_start..c_start + c_len;
            // Pick the literal with the fewest occurrences to scan.
            let pivot = arena[c_lits.clone()]
                .iter()
                .copied()
                .min_by_key(|l| occ[l.code()].len())
                .expect("non-empty clause");
            // Forward subsumption: C ⊆ D deletes D.
            for &di in &occ[pivot.code()] {
                let di = di as usize;
                if di == ci || entries[di].dead {
                    continue;
                }
                let d = &entries[di];
                if d.len < c_len || c_sig & !d.sig != 0 {
                    continue;
                }
                let d_slice = &arena[clause_of(d)];
                if arena[c_lits.clone()].iter().all(|l| d_slice.contains(l)) {
                    entries[di].dead = true;
                }
            }
            // Self-subsuming resolution: C = A ∨ l, D ⊇ A ∨ ¬l → D
            // loses ¬l. One removal per D per pass.
            for li in c_lits.clone() {
                let l = arena[li];
                for &di in &occ[(!l).code()] {
                    let di = di as usize;
                    if di == ci || entries[di].dead || entries[di].remove.is_some() {
                        continue;
                    }
                    let d = &entries[di];
                    if d.len < c_len || c_sig & !d.sig != 0 {
                        continue;
                    }
                    let d_slice = &arena[clause_of(d)];
                    let rest_subset = arena[c_lits.clone()]
                        .iter()
                        .all(|&q| q == l || d_slice.contains(&q));
                    if rest_subset {
                        entries[di].remove = Some(!l);
                    }
                }
            }
        }

        // Phase 3: apply. Deletions first, then strengthened
        // replacements (delete old + attach new), then unit
        // propagation for any strengthened-to-unit clause.
        let mut units: Vec<Lit> = Vec::new();
        for e in &entries {
            if e.dead {
                self.delete_clause(e.cidx);
                subsumed += 1;
                continue;
            }
            if e.remove.is_none() && !e.unit_stripped {
                continue;
            }
            let new_lits: Vec<Lit> = arena[e.start..e.start + e.len]
                .iter()
                .copied()
                .filter(|&l| Some(l) != e.remove)
                .collect();
            self.delete_clause(e.cidx);
            strengthened += 1;
            match new_lits.len() {
                0 => self.ok = false,
                1 => units.push(new_lits[0]),
                _ => {
                    self.attach_clause(new_lits, true);
                }
            }
        }
        for l in units {
            match self.lit_value(l) {
                LBool::True => {}
                LBool::False => self.ok = false,
                LBool::Undef => {
                    self.unchecked_enqueue(l, None);
                }
            }
        }
        if self.ok && self.propagate(None).is_some() {
            self.ok = false;
        }
        self.stats.clauses_subsumed += subsumed;
        self.stats.clauses_strengthened += strengthened;
        (subsumed, strengthened)
    }
}

#[cfg(test)]
mod tests {
    use crate::{SatResult, Solver};

    fn lits(codes: &[i32]) -> Vec<crate::Lit> {
        codes
            .iter()
            .map(|&c| {
                let v = crate::Var::from_index((c.unsigned_abs() - 1) as usize);
                v.lit(c > 0)
            })
            .collect()
    }

    /// Force-learn a clause by attaching it as learnt directly
    /// (`attach_clause` maintains the learnt counter).
    fn learn(solver: &mut Solver, codes: &[i32]) {
        solver.attach_clause(lits(codes), true);
    }

    #[test]
    fn subsumption_deletes_weaker_learnt() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        learn(&mut s, &[1, 2]);
        learn(&mut s, &[1, 2, 3]);
        learn(&mut s, &[1, 2, 4]);
        let (subsumed, strengthened) = s.inprocess();
        assert_eq!(subsumed, 2);
        assert_eq!(strengthened, 0);
        assert_eq!(s.stats().learnt_clauses, 1);
        assert_eq!(s.stats().inprocessings, 1);
    }

    #[test]
    fn self_subsuming_resolution_strengthens() {
        let mut s = Solver::new();
        for _ in 0..3 {
            s.new_var();
        }
        // C = (1 ∨ 2), D = (¬1 ∨ 2 ∨ 3): resolving on 1 shows
        // D can lose ¬1, leaving (2 ∨ 3).
        learn(&mut s, &[1, 2]);
        learn(&mut s, &[-1, 2, 3]);
        let (subsumed, strengthened) = s.inprocess();
        assert_eq!(subsumed, 0);
        assert_eq!(strengthened, 1);
        assert_eq!(s.stats().learnt_clauses, 2);
        // Behaviour is unchanged: ¬2 ∧ ¬3 conflicts with the database
        // both before and after strengthening, and a free assignment
        // still exists.
        assert_eq!(s.solve_with(&lits(&[-2, -3])), SatResult::Unsat);
        assert_eq!(s.solve_with(&lits(&[2])), SatResult::Sat);
    }

    #[test]
    fn satisfied_learnts_are_dropped_and_false_lits_stripped() {
        let mut s = Solver::new();
        for _ in 0..4 {
            s.new_var();
        }
        s.add_clause(&lits(&[1])); // level-0 unit: 1 = true
        learn(&mut s, &[1, 2]); // satisfied → deleted
        learn(&mut s, &[-1, 3, 4]); // ¬1 false → stripped to (3 ∨ 4)
        let (subsumed, strengthened) = s.inprocess();
        assert_eq!(subsumed, 1);
        assert_eq!(strengthened, 1);
        assert_eq!(s.stats().learnt_clauses, 1);
    }

    #[test]
    fn inprocessing_preserves_verdicts() {
        // A small pigeonhole-ish formula: run queries, inprocess,
        // re-run the same queries — verdicts must match.
        let mut s = Solver::new();
        let vars: Vec<_> = (0..6).map(|_| s.new_var()).collect();
        // pigeons 0..2 into holes 0..1: p_i_h = vars[i*2+h]
        for i in 0..3 {
            let c: Vec<_> = (0..2).map(|h| vars[i * 2 + h].positive()).collect();
            s.add_clause(&c);
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[vars[i * 2 + h].negative(), vars[j * 2 + h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        // Solver is permanently unsat; inprocess must be a no-op.
        let before = *s.stats();
        assert_eq!(s.inprocess(), (0, 0));
        assert_eq!(s.stats().inprocessings, before.inprocessings);
    }

    #[test]
    fn verdicts_match_with_and_without_inprocessing() {
        // Same formula solved twice: one solver inprocesses between
        // queries, the other doesn't. Every verdict must agree.
        let build = || {
            let mut s = Solver::new();
            let v: Vec<_> = (0..8).map(|_| s.new_var()).collect();
            // A chain of implications plus some xor-ish constraints.
            for w in v.windows(2) {
                s.add_clause(&[w[0].negative(), w[1].positive()]);
            }
            s.add_clause(&[v[0].positive(), v[7].positive()]);
            s.add_clause(&[v[3].negative(), v[5].negative(), v[6].positive()]);
            (s, v)
        };
        let (mut plain, pv) = build();
        let (mut inp, iv) = build();
        for i in 0..8 {
            let a = [pv[i].lit(i % 2 == 0)];
            let b = [iv[i].lit(i % 2 == 0)];
            let r1 = plain.solve_with(&a);
            inp.inprocess();
            let r2 = inp.solve_with(&b);
            assert_eq!(r1, r2, "query {i} diverged");
        }
    }
}
