//! The ISCAS `.bench` netlist format.
//!
//! The `.bench` format is the lingua franca of the ISCAS-85/89 benchmark
//! suites used in the paper's Table 2 experiment:
//!
//! ```text
//! # comment
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(z)
//! t = AND(a, b)
//! z = NOT(t)
//! ```
//!
//! Flip-flop primitives (`DFF`) are not supported — the paper analyzes
//! combinational circuits. An optional HFTA extension annotates gate
//! delays: `z = AND(a, b) # delay=2`. Unannotated gates default to the
//! unit delay model used throughout the paper's evaluation.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{GateKind, Netlist, NetlistError};

/// Parses a `.bench` description into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input, and the usual
/// structural errors (multiple drivers, bad arity) when the description
/// is inconsistent.
///
/// # Example
///
/// ```
/// use hfta_netlist::bench_format;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n";
/// let nl = bench_format::parse(text, "nand2")?;
/// assert_eq!(nl.gate_count(), 1);
/// assert_eq!(nl.inputs().len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str, name: &str) -> Result<Netlist, NetlistError> {
    let mut nl = Netlist::new(name);
    let mut pending_outputs: Vec<(usize, String)> = Vec::new();
    let mut gates: Vec<(usize, String, GateKind, Vec<String>, u32)> = Vec::new();
    let mut declared_inputs: HashMap<String, ()> = HashMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        let delay = parse_delay_annotation(raw, lineno)?;
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = strip_directive(line, "INPUT") {
            if declared_inputs.insert(inner.to_string(), ()).is_some() {
                return Err(NetlistError::Duplicate {
                    what: "input",
                    name: inner.to_string(),
                });
            }
            nl.add_input(inner);
        } else if let Some(inner) = strip_directive(line, "OUTPUT") {
            pending_outputs.push((lineno, inner.to_string()));
        } else if let Some(eq) = line.find('=') {
            let lhs = line[..eq].trim().to_string();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("expected `gate(args)` after `=`, got `{rhs}`"),
            })?;
            if !rhs.ends_with(')') {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: "missing closing parenthesis".to_string(),
                });
            }
            let kind_name = rhs[..open].trim();
            let kind = GateKind::from_name(kind_name).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("unknown gate kind `{kind_name}`"),
            })?;
            let args: Vec<String> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            gates.push((lineno, lhs, kind, args, delay.unwrap_or(1)));
        } else {
            return Err(NetlistError::Parse {
                line: lineno,
                message: format!("unrecognized line `{line}`"),
            });
        }
    }

    // Create all driven nets first so gates can reference forward.
    for (_, lhs, _, _, _) in &gates {
        if nl.find_net(lhs).is_none() {
            nl.add_net(lhs.clone());
        }
    }
    for (lineno, lhs, kind, args, delay) in &gates {
        let output = nl.find_net(lhs).expect("created above");
        let mut inputs = Vec::with_capacity(args.len());
        for a in args {
            let id = nl.find_net(a).ok_or_else(|| NetlistError::Parse {
                line: *lineno,
                message: format!("gate input `{a}` is neither an INPUT nor a defined signal"),
            })?;
            inputs.push(id);
        }
        nl.add_gate(*kind, &inputs, output, *delay)?;
    }
    for (lineno, out) in pending_outputs {
        let id = nl.find_net(&out).ok_or_else(|| NetlistError::Parse {
            line: lineno,
            message: format!("OUTPUT references undefined signal `{out}`"),
        })?;
        if nl.is_output(id) {
            return Err(NetlistError::Duplicate {
                what: "output",
                name: out,
            });
        }
        nl.mark_output(id);
    }
    nl.validate()?;
    Ok(nl)
}

fn strip_directive<'a>(line: &'a str, directive: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(directive)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

fn parse_delay_annotation(raw: &str, lineno: usize) -> Result<Option<u32>, NetlistError> {
    let Some(comment) = raw.split_once('#').map(|(_, c)| c) else {
        return Ok(None);
    };
    let Some(rest) = comment.trim().strip_prefix("delay=") else {
        return Ok(None);
    };
    rest.trim()
        .parse::<u32>()
        .map(Some)
        .map_err(|_| NetlistError::Parse {
            line: lineno,
            message: format!("bad delay annotation `{}`", rest.trim()),
        })
}

/// Serializes a [`Netlist`] to `.bench` text, with `# delay=` extensions
/// for non-unit delays. [`parse`] round-trips the output.
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# module {}", netlist.name());
    for &pi in netlist.inputs() {
        let _ = writeln!(s, "INPUT({})", netlist.net_name(pi));
    }
    for &po in netlist.outputs() {
        let _ = writeln!(s, "OUTPUT({})", netlist.net_name(po));
    }
    for g in netlist.gates() {
        let args: Vec<&str> = g.inputs.iter().map(|&n| netlist.net_name(n)).collect();
        let _ = write!(
            s,
            "{} = {}({})",
            netlist.net_name(g.output),
            g.kind.name().to_ascii_uppercase(),
            args.join(", ")
        );
        if g.delay != 1 {
            let _ = write!(s, " # delay={}", g.delay);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn parse_simple() {
        let text = "\
# c17-ish
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
t1 = NAND(a, b)
t2 = NAND(b, c)
z = NAND(t1, t2)
";
        let nl = parse(text, "c17ish").unwrap();
        assert_eq!(nl.gate_count(), 3);
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        // NAND(NAND(a,b), NAND(b,c)) = ab + bc
        assert_eq!(sim::eval(&nl, &[true, true, false]).unwrap(), vec![true]);
        assert_eq!(sim::eval(&nl, &[true, false, true]).unwrap(), vec![false]);
    }

    #[test]
    fn forward_references_allowed() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(t)\nt = BUF(a)\n";
        let nl = parse(text, "fwd").unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(sim::eval(&nl, &[true]).unwrap(), vec![false]);
    }

    #[test]
    fn delay_annotation_parsed() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(a) # delay=7\n";
        let nl = parse(text, "d").unwrap();
        assert_eq!(nl.gates()[0].delay, 7);
    }

    #[test]
    fn default_delay_is_unit() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
        let nl = parse(text, "d").unwrap();
        assert_eq!(nl.gates()[0].delay, 1);
    }

    #[test]
    fn round_trip() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nt = XOR(a, b) # delay=2\nz = NOT(t)\n";
        let nl = parse(text, "rt").unwrap();
        let emitted = write(&nl);
        let nl2 = parse(&emitted, "rt").unwrap();
        assert!(sim::equivalent_exhaustive(&nl, &nl2, 8).unwrap());
        assert_eq!(nl2.gates()[0].delay, 2);
    }

    #[test]
    fn errors_reported_with_line_numbers() {
        let err = parse("INPUT(a)\nz = FROB(a)\n", "e").unwrap_err();
        match err {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("FROB"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let err = parse("INPUT(a)\nOUTPUT(ghost)\n", "e").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }));
        let err = parse("wat\n", "e").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
        let err = parse("INPUT(a)\nz = NOT(a # delay=x\n", "e").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn duplicate_input_rejected() {
        let err = parse("INPUT(a)\nINPUT(a)\n", "e").unwrap_err();
        assert!(matches!(err, NetlistError::Duplicate { .. }));
    }

    #[test]
    fn duplicate_output_rejected() {
        let err = parse("INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n", "e").unwrap_err();
        assert_eq!(
            err,
            NetlistError::Duplicate {
                what: "output",
                name: "z".into()
            }
        );
    }

    #[test]
    fn undefined_gate_input_rejected() {
        let err = parse("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n", "e").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }));
    }
}
