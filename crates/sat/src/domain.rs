//! Per-query variable domains for a shared incremental solver.
//!
//! HFTA's shared-solver mode encodes an entire module into one
//! incremental SAT instance and answers each per-cone stability query
//! on the variable domain of that cone's transitive fanin: the search
//! branches only on domain variables, and above decision level 0 an
//! implication onto a variable outside the domain is left unassigned
//! (its clause stays watched), so no out-of-domain variable is ever
//! assigned above level 0. The moment every domain variable is
//! assigned at a conflict-free propagation fixpoint (with every
//! assumption enqueued), the query is `Sat`, without extending the
//! assignment over the rest of the module. A [`Domain`] is that
//! active-variable set: a flat, deduplicated list of variables
//! (cache-friendly to walk, and what the decision heap is refilled
//! from) plus a bitset for O(1) membership tests.
//!
//! # Soundness contract
//!
//! The scoped search is sound *and* complete for formulas that are
//! **definitional extensions** over a domain `D`:
//!
//! * `D` is *definition-closed*: for every non-input variable in `D`,
//!   the variables of its defining (Tseitin) clauses are also in `D`.
//! * Every clause not fully contained in `D` is either part of the
//!   gate definition of a variable outside `D`, or implied by the
//!   formula (e.g. a learnt clause).
//!
//! Under that contract, a conflict-free fixpoint that assigns all of
//! `D` extends to a total model: keep the trail's values on `D`'s
//! inputs, assign the remaining free inputs arbitrarily, and evaluate
//! every defined variable from its definition in topological order.
//! The rebuilt model agrees with the trail on `D` by induction over
//! `D`'s definitions (each is a clause set over `D` alone, so the
//! held-back implications never touch it and the fixpoint leaves none
//! of it falsified), satisfies every gate-definition clause by
//! construction, and satisfies every learnt clause and level-0 unit
//! because those are implied. An `Unsat` answer is exact without any
//! argument: every clause the search used is in, or implied by, the
//! formula, so a refutation from a subset of them is a refutation. See
//! `DESIGN.md` ("Why domain-restricted sharing is sound").
//!
//! [`crate::CnfBuilder::domain_of`] constructs domains satisfying the
//! contract for formulas built purely from its gate primitives.

use crate::types::Var;

/// A growable bitset over solver variables.
#[derive(Debug, Clone, Default)]
pub struct VarSet {
    words: Vec<u64>,
}

impl VarSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> VarSet {
        VarSet::default()
    }

    /// Inserts `v`, growing the backing store as needed. Returns
    /// `true` when `v` was not already present.
    pub fn insert(&mut self, v: Var) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Membership test; variables beyond the backing store are absent.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// An empty set with room for variables `0..n` without regrowing.
    #[must_use]
    pub(crate) fn with_capacity(n: usize) -> VarSet {
        VarSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Removes every element but keeps the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }
}

/// The active-variable set of one domain-restricted query: a flat,
/// deduplicated variable list (the order the builder discovered them
/// in) plus a bitset for membership tests.
#[derive(Debug, Clone)]
pub struct Domain {
    vars: Vec<Var>,
    set: VarSet,
}

impl Domain {
    /// Builds a domain from a variable list, dropping duplicates while
    /// preserving first-occurrence order.
    #[must_use]
    pub fn from_vars(vars: Vec<Var>) -> Domain {
        let mut domain = Domain::with_capacity(0);
        for v in vars {
            domain.insert(v);
        }
        domain
    }

    /// An empty domain with room for variables `0..n`.
    pub(crate) fn with_capacity(n: usize) -> Domain {
        Domain {
            vars: Vec::new(),
            set: VarSet::with_capacity(n),
        }
    }

    /// Appends `v` unless already present; returns whether it was new.
    pub(crate) fn insert(&mut self, v: Var) -> bool {
        let fresh = self.set.insert(v);
        if fresh {
            self.vars.push(v);
        }
        fresh
    }

    /// The domain's variables, deduplicated, in insertion order.
    #[must_use]
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of variables in the domain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the domain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, v: Var) -> bool {
        self.set.contains(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varset_insert_contains_clear() {
        let mut s = VarSet::new();
        assert!(!s.contains(Var::from_index(130)));
        assert!(s.insert(Var::from_index(130)));
        assert!(!s.insert(Var::from_index(130)));
        assert!(s.contains(Var::from_index(130)));
        assert!(!s.contains(Var::from_index(129)));
        s.clear();
        assert!(!s.contains(Var::from_index(130)));
    }

    #[test]
    fn domain_dedups_preserving_order() {
        let d = Domain::from_vars(vec![
            Var::from_index(5),
            Var::from_index(2),
            Var::from_index(5),
            Var::from_index(9),
            Var::from_index(2),
        ]);
        assert_eq!(
            d.vars(),
            &[Var::from_index(5), Var::from_index(2), Var::from_index(9)]
        );
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert!(d.contains(Var::from_index(9)));
        assert!(!d.contains(Var::from_index(3)));
    }
}
