//! DIMACS CNF reading and writing.
//!
//! The standard exchange format for SAT instances:
//!
//! ```text
//! c a comment
//! p cnf 3 2
//! 1 -2 0
//! 2 3 0
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::{Lit, Solver, Var};

/// Errors from [`parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseDimacsError {
    /// The `p cnf` header line is missing, malformed, repeated, or
    /// declares more variables than a literal can encode (2^31).
    BadHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A token could not be read as a literal.
    BadLiteral {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A literal references a variable beyond the header's count.
    VariableOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The out-of-range variable (1-based, as written).
        var: i64,
    },
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseDimacsError::BadHeader { line } => {
                write!(f, "missing or malformed `p cnf` header at line {line}")
            }
            ParseDimacsError::BadLiteral { line, token } => {
                write!(f, "bad literal `{token}` at line {line}")
            }
            ParseDimacsError::VariableOutOfRange { line, var } => {
                write!(f, "variable {var} out of declared range at line {line}")
            }
        }
    }
}

impl Error for ParseDimacsError {}

/// Parses DIMACS CNF text into a fresh [`Solver`].
///
/// Variables are created as clauses reference them, so memory follows
/// the highest variable the clauses name rather than the header's
/// declared count: afterwards [`Solver::num_vars`] is one past the
/// highest variable any clause names (variable `k` of the text is
/// `Var::from_index(k - 1)`), which may be below the declared count.
///
/// # Errors
///
/// Returns a [`ParseDimacsError`] on malformed input: a missing,
/// malformed or second header, a header declaring more than 2^31
/// variables, a bad literal, or a variable beyond the declared count.
pub fn parse(text: &str) -> Result<Solver, ParseDimacsError> {
    let mut solver = Solver::new();
    let mut declared_vars: Option<usize> = None;
    let mut clause: Vec<Lit> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('p') {
            let mut it = line.split_whitespace();
            let _p = it.next();
            let nv = match (declared_vars, it.next(), it.next()) {
                (None, Some("cnf"), Some(count)) => count.parse::<usize>().ok(),
                _ => None,
            }
            .filter(|&nv| nv <= Var::LIMIT)
            .ok_or(ParseDimacsError::BadHeader { line: lineno })?;
            let _nc = it.next();
            declared_vars = Some(nv);
            continue;
        }
        let nv = declared_vars.ok_or(ParseDimacsError::BadHeader { line: lineno })?;
        for tok in line.split_whitespace() {
            let v: i64 = tok.parse().map_err(|_| ParseDimacsError::BadLiteral {
                line: lineno,
                token: tok.to_string(),
            })?;
            if v == 0 {
                solver.add_clause(&clause);
                clause.clear();
            } else {
                let var_index = v.unsigned_abs() as usize - 1;
                if var_index >= nv {
                    return Err(ParseDimacsError::VariableOutOfRange {
                        line: lineno,
                        var: v,
                    });
                }
                while solver.num_vars() <= var_index {
                    solver.new_var();
                }
                clause.push(Var::from_index(var_index).lit(v > 0));
            }
        }
    }
    if !clause.is_empty() {
        solver.add_clause(&clause);
    }
    Ok(solver)
}

/// Serializes a clause set to DIMACS CNF text.
///
/// `num_vars` is the declared variable count; clauses are slices of
/// literals.
#[must_use]
pub fn write(num_vars: usize, clauses: &[Vec<Lit>]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "p cnf {} {}", num_vars, clauses.len());
    for c in clauses {
        for &l in c {
            let v = l.var().index() + 1;
            if l.is_positive() {
                let _ = write!(s, "{v} ");
            } else {
                let _ = write!(s, "-{v} ");
            }
        }
        let _ = writeln!(s, "0");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    #[test]
    fn parse_and_solve() {
        let text = "c demo\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n";
        let mut s = parse(text).unwrap();
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.solve(), SatResult::Sat);
        // -1 forces x1 false; 1 -2 forces x2 false; 2 3 forces x3 true.
        assert_eq!(s.value(Var::from_index(0)), Some(false));
        assert_eq!(s.value(Var::from_index(1)), Some(false));
        assert_eq!(s.value(Var::from_index(2)), Some(true));
    }

    #[test]
    fn parse_unsat() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let mut s = parse(text).unwrap();
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn clause_spanning_lines() {
        let text = "p cnf 2 1\n1\n2 0\n";
        let mut s = parse(text).unwrap();
        assert_eq!(s.num_clauses(), 1);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(
            parse("1 2 0\n"),
            Err(ParseDimacsError::BadHeader { line: 1 })
        ));
    }

    #[test]
    fn bad_literal_rejected() {
        assert!(matches!(
            parse("p cnf 2 1\n1 x 0\n"),
            Err(ParseDimacsError::BadLiteral { line: 2, .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            parse("p cnf 1 1\n2 0\n"),
            Err(ParseDimacsError::VariableOutOfRange { line: 2, var: 2 })
        ));
    }

    #[test]
    fn second_header_rejected() {
        assert!(matches!(
            parse("p cnf 2 0\np cnf 3 0\n"),
            Err(ParseDimacsError::BadHeader { line: 2 })
        ));
    }

    #[test]
    fn header_beyond_the_literal_encoding_rejected() {
        assert!(matches!(
            parse("p cnf 2147483649 0\n"),
            Err(ParseDimacsError::BadHeader { line: 1 })
        ));
        // The largest count a literal can encode is accepted.
        assert!(parse("p cnf 2147483648 0\n").is_ok());
    }

    /// A header's count alone allocates nothing: variables appear as
    /// clauses name them.
    #[test]
    fn variables_follow_the_clauses_not_the_header() {
        assert_eq!(parse("p cnf 3000000 0\n").unwrap().num_vars(), 0);
        let mut s = parse("p cnf 3000000 1\n-7 2 0\n").unwrap();
        assert_eq!(s.num_vars(), 7);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(matches!(
            parse("p cnf 5 1\n6 0\n"),
            Err(ParseDimacsError::VariableOutOfRange { line: 2, var: 6 })
        ));
    }

    #[test]
    fn write_round_trip() {
        let v: Vec<Var> = (0..3).map(Var::from_index).collect();
        let clauses = vec![
            vec![v[0].positive(), v[1].negative()],
            vec![v[1].positive(), v[2].positive()],
        ];
        let text = write(3, &clauses);
        let mut s = parse(&text).unwrap();
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.solve(), SatResult::Sat);
    }
}
