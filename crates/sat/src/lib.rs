//! A CDCL SAT solver built for HFTA's functional timing analysis.
//!
//! Functional (false-path-aware) timing analysis reduces "is this output
//! stable by time *t*?" to a Boolean tautology check, which this crate
//! decides by refutation: the stability condition's complement is
//! encoded to CNF and handed to [`Solver`]. The solver is a
//! self-contained conflict-driven clause-learning implementation:
//!
//! * one flat clause arena (literals inline, arena offsets as clause
//!   references, compacted once deleted clauses hold half of it) and
//!   literal-indexed values, so a literal's value is a single load,
//! * two-literal watching for unit propagation, with binary clauses
//!   propagated from their watchers alone,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * exponential VSIDS decision heuristic with phase saving,
//! * Luby restarts and learnt-clause database reduction,
//! * incremental solving under assumptions ([`Solver::solve_with`]),
//!   optionally confined to a query's variable [`Domain`]
//!   ([`Solver::solve_domain`]).
//!
//! [`CnfBuilder`] provides Tseitin-style encodings of the gate
//! primitives used by the timing engine, and [`dimacs`] reads/writes the
//! standard DIMACS CNF exchange format.
//!
//! # Example
//!
//! ```
//! use hfta_sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[a.positive(), b.positive()]);
//! solver.add_clause(&[a.negative()]);
//! match solver.solve() {
//!     SatResult::Sat => assert_eq!(solver.value(b), Some(true)),
//!     SatResult::Unsat => unreachable!("formula is satisfiable"),
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
pub mod dimacs;
mod domain;
mod simplify;
mod solver;
mod types;

pub use cnf::CnfBuilder;
pub use domain::{Domain, VarSet};
pub use solver::{
    BudgetExhausted, BudgetedSatResult, SatResult, SolveBudget, SolveEpisode, Solver, SolverStats,
};
pub use types::{Lit, Var};
