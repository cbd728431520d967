use std::fmt;
use std::ops::{Deref, DerefMut, Index, IndexMut, Not};

/// A propositional variable.
///
/// Variables are dense indices created by
/// [`Solver::new_var`](crate::Solver::new_var) or
/// [`CnfBuilder::new_var`](crate::CnfBuilder::new_var).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Returns the dense index of this variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One past the largest variable index: a [`Lit`] packs its
    /// variable and sign into one `u32`, so indices stop at 2^31 − 1.
    pub(crate) const LIMIT: usize = 1 << 31;

    /// Creates a variable from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 2^31 or more: a literal encodes its
    /// variable as `var << 1 | sign` in a `u32`, which cannot hold a
    /// larger variable.
    #[must_use]
    pub fn from_index(index: usize) -> Var {
        assert!(index < Var::LIMIT, "variable index overflow");
        Var(index as u32)
    }

    /// The positive literal of this variable.
    #[must_use]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[must_use]
    pub fn negative(self) -> Lit {
        Lit((self.0 << 1) | 1)
    }

    /// The literal of this variable with the given polarity
    /// (`true` ⇒ positive).
    #[must_use]
    pub fn lit(self, positive: bool) -> Lit {
        if positive {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | sign` (sign bit set ⇒ negated), the classic
/// MiniSat layout, so a literal indexes watch lists directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The variable underlying this literal.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is a positive (unnegated) literal.
    #[must_use]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code of the literal (`var << 1 | sign`), usable as an
    /// array index.
    #[must_use]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`Lit::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in `u32`.
    #[must_use]
    pub fn from_code(code: usize) -> Lit {
        Lit(u32::try_from(code).expect("literal code overflow"))
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A dense table with one entry per variable, indexed by [`Var`].
#[derive(Clone, Debug)]
pub(crate) struct VarMap<T>(Vec<T>);

impl<T> Default for VarMap<T> {
    fn default() -> VarMap<T> {
        VarMap(Vec::new())
    }
}

impl<T> VarMap<T> {
    /// Appends the entry of the next variable.
    pub(crate) fn push(&mut self, x: T) {
        self.0.push(x);
    }
}

impl<T> Deref for VarMap<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> DerefMut for VarMap<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> Index<Var> for VarMap<T> {
    type Output = T;

    fn index(&self, v: Var) -> &T {
        &self.0[v.index()]
    }
}

impl<T> IndexMut<Var> for VarMap<T> {
    fn index_mut(&mut self, v: Var) -> &mut T {
        &mut self.0[v.index()]
    }
}

/// A dense table with one entry per literal (two per variable), indexed
/// by [`Lit`].
#[derive(Clone, Debug)]
pub(crate) struct LitMap<T>(Vec<T>);

impl<T> Default for LitMap<T> {
    fn default() -> LitMap<T> {
        LitMap(Vec::new())
    }
}

impl<T: Clone> LitMap<T> {
    /// Appends the entries of the next variable's two literals.
    pub(crate) fn push_var(&mut self, x: T) {
        self.0.push(x.clone());
        self.0.push(x);
    }
}

impl<T> LitMap<T> {
    /// The entry of `l`, or `None` for a variable created after this
    /// table was last grown (or copied).
    pub(crate) fn get(&self, l: Lit) -> Option<&T> {
        self.0.get(l.code())
    }
}

impl<T> Deref for LitMap<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> DerefMut for LitMap<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> Index<Lit> for LitMap<T> {
    type Output = T;

    fn index(&self, l: Lit) -> &T {
        &self.0[l.code()]
    }
}

impl<T> IndexMut<Lit> for LitMap<T> {
    fn index_mut(&mut self, l: Lit) -> &mut T {
        &mut self.0[l.code()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(3);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(!v.positive(), v.negative());
        assert_eq!(!!v.positive(), v.positive());
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn codes_round_trip() {
        let l = Var::from_index(5).negative();
        assert_eq!(Lit::from_code(l.code()), l);
        assert_eq!(l.code(), 11);
    }

    /// The largest index keeps its literals apart from variable 0's;
    /// the next one, whose positive literal would shift its top bit out
    /// and alias variable 0, is refused.
    #[test]
    fn largest_variable_keeps_distinct_literals() {
        let top = Var::from_index(Var::LIMIT - 1);
        assert_ne!(top.positive(), Var::from_index(0).positive());
        assert_eq!(top.negative().var(), top);
        assert_eq!(Lit::from_code(top.negative().code()), top.negative());
    }

    #[test]
    #[should_panic(expected = "variable index overflow")]
    fn variable_index_past_the_literal_encoding_panics() {
        let _ = Var::from_index(1 << 31);
    }

    #[test]
    fn display() {
        let v = Var::from_index(0);
        assert_eq!(v.positive().to_string(), "x1");
        assert_eq!(v.negative().to_string(), "!x1");
    }
}
