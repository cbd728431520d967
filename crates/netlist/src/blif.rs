//! A Berkeley Logic Interchange Format (BLIF) subset.
//!
//! BLIF is SIS's native format — the system the paper's implementation
//! was built on. Supported constructs:
//!
//! ```text
//! .model adder
//! .inputs a b cin
//! .outputs sum cout
//! .names a b cin sum     # PLA cover: one row per product term
//! 100 1
//! 010 1
//! 001 1
//! 111 1
//! .latch d q             # optional: edge-triggered register
//! .end
//! ```
//!
//! Each `.names` cover is expanded structurally into two-level
//! AND–OR–NOT logic (inverters delay 0, product/sum gates delay 1), so
//! a cover behaves like one unit-delay complex gate for the timing
//! engines. `.latch` lines produce a [`SeqCircuit`] register with unit
//! clock-to-q and setup.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{GateKind, NetId, Netlist, NetlistError, SeqCircuit};

/// Parses a BLIF model into a sequential circuit (with an empty
/// register list when the model is purely combinational).
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input and structural
/// errors on inconsistent models.
pub fn parse(text: &str) -> Result<SeqCircuit, NetlistError> {
    let mut name = String::from("blif");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut covers: Vec<(usize, Vec<String>, Vec<String>)> = Vec::new(); // line, signals, rows
    let mut latches: Vec<(usize, String, String)> = Vec::new(); // line, d, q

    // Join continuation lines (trailing backslash).
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim_end();
        let (joined_line, mut content) = match pending.take() {
            Some((l, mut s)) => {
                s.push(' ');
                s.push_str(line.trim_start());
                (l, s)
            }
            None => (lineno, line.to_string()),
        };
        if content.ends_with('\\') {
            content.pop();
            pending = Some((joined_line, content));
        } else {
            logical.push((joined_line, content));
        }
    }
    if let Some((l, _)) = pending {
        return Err(NetlistError::Parse {
            line: l,
            message: "dangling line continuation".to_string(),
        });
    }

    let mut current_cover: Option<(usize, Vec<String>, Vec<String>)> = None;
    for (lineno, line) in logical {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with('.') {
            if let Some(c) = current_cover.take() {
                covers.push(c);
            }
            let mut toks = trimmed.split_whitespace();
            let directive = toks.next().expect("non-empty");
            let rest: Vec<String> = toks.map(str::to_string).collect();
            match directive {
                ".model" => {
                    if let Some(n) = rest.first() {
                        name = n.clone();
                    }
                }
                ".inputs" => inputs.extend(rest),
                ".outputs" => outputs.extend(rest),
                ".names" => {
                    if rest.is_empty() {
                        return Err(NetlistError::Parse {
                            line: lineno,
                            message: ".names needs at least an output signal".to_string(),
                        });
                    }
                    current_cover = Some((lineno, rest, Vec::new()));
                }
                ".latch" => {
                    if rest.len() < 2 {
                        return Err(NetlistError::Parse {
                            line: lineno,
                            message: "usage: .latch INPUT OUTPUT [type control [init]]".to_string(),
                        });
                    }
                    latches.push((lineno, rest[0].clone(), rest[1].clone()));
                }
                ".end" => break,
                // Ignore common benign directives.
                ".default_input_arrival" | ".clock" | ".wire_load_slope" => {}
                other => {
                    return Err(NetlistError::Parse {
                        line: lineno,
                        message: format!("unsupported directive `{other}`"),
                    })
                }
            }
        } else if let Some((_, _, rows)) = current_cover.as_mut() {
            rows.push(trimmed.to_string());
        } else {
            return Err(NetlistError::Parse {
                line: lineno,
                message: format!("unexpected line `{trimmed}`"),
            });
        }
    }
    if let Some(c) = current_cover.take() {
        covers.push(c);
    }

    // Build the netlist.
    let mut nl = Netlist::new(&name);
    let mut by_name: HashMap<String, NetId> = HashMap::new();
    for pi in &inputs {
        by_name.insert(pi.clone(), nl.add_input(pi.clone()));
    }
    // Latch outputs are additional "inputs" of the combinational core.
    for (_, _, q) in &latches {
        if !by_name.contains_key(q) {
            by_name.insert(q.clone(), nl.add_input(q.clone()));
        }
    }
    // Declare all cover signals.
    for (_, signals, _) in &covers {
        for s in signals {
            if !by_name.contains_key(s) {
                by_name.insert(s.clone(), nl.add_net(s.clone()));
            }
        }
    }
    for (_, d, _) in &latches {
        if !by_name.contains_key(d) {
            by_name.insert(d.clone(), nl.add_net(d.clone()));
        }
    }

    for (lineno, signals, rows) in &covers {
        let (out_name, in_names) = signals.split_last().expect("non-empty");
        let out = by_name[out_name];
        let ins: Vec<NetId> = in_names.iter().map(|n| by_name[n]).collect();
        build_cover(&mut nl, &ins, out, rows, *lineno)?;
    }

    for po in &outputs {
        let id = *by_name.get(po).ok_or_else(|| NetlistError::Parse {
            line: 0,
            message: format!(".outputs references undefined signal `{po}`"),
        })?;
        if nl.is_output(id) {
            return Err(NetlistError::Duplicate {
                what: "output",
                name: po.clone(),
            });
        }
        nl.mark_output(id);
    }
    // Latch data inputs must be observable as core outputs.
    let mut registers = Vec::with_capacity(latches.len());
    for (lineno, d, q) in &latches {
        let d_id = *by_name.get(d).ok_or_else(|| NetlistError::Parse {
            line: *lineno,
            message: format!(".latch input `{d}` undefined"),
        })?;
        if !nl.is_output(d_id) {
            nl.mark_output(d_id);
        }
        registers.push((d_id, by_name[q], 1, 1));
    }
    nl.validate()?;
    SeqCircuit::new(nl, registers)
}

/// Expands one PLA cover into AND–OR–NOT logic driving `out`.
fn build_cover(
    nl: &mut Netlist,
    ins: &[NetId],
    out: NetId,
    rows: &[String],
    lineno: usize,
) -> Result<(), NetlistError> {
    // Constant covers.
    if ins.is_empty() {
        let kind = if rows.iter().any(|r| r.trim() == "1") {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        nl.add_gate(kind, &[], out, 0)?;
        return Ok(());
    }
    let mut inverted: HashMap<NetId, NetId> = HashMap::new();
    let mut products: Vec<NetId> = Vec::new();
    for row in rows {
        let mut parts = row.split_whitespace();
        let cube = parts.next().unwrap_or("");
        let value = parts.next().unwrap_or("1");
        if value != "1" {
            return Err(NetlistError::Parse {
                line: lineno,
                message: "only on-set (`1`) covers are supported".to_string(),
            });
        }
        if cube.len() != ins.len() {
            return Err(NetlistError::Parse {
                line: lineno,
                message: format!(
                    "cube `{cube}` has {} columns, cover has {} inputs",
                    cube.len(),
                    ins.len()
                ),
            });
        }
        let mut literals: Vec<NetId> = Vec::new();
        for (k, c) in cube.chars().enumerate() {
            match c {
                '1' => literals.push(ins[k]),
                '0' => {
                    let inv = match inverted.get(&ins[k]) {
                        Some(&n) => n,
                        None => {
                            let n = nl.add_net(format!("{}_bar", nl.net_name(ins[k])));
                            nl.add_gate(GateKind::Not, &[ins[k]], n, 0)?;
                            inverted.insert(ins[k], n);
                            n
                        }
                    };
                    literals.push(inv);
                }
                '-' => {}
                other => {
                    return Err(NetlistError::Parse {
                        line: lineno,
                        message: format!("bad cube character `{other}`"),
                    })
                }
            }
        }
        let product = match literals.len() {
            0 => {
                // Full don't-care row: the function is constant 1.
                let n = nl.add_net("const_row");
                nl.add_gate(GateKind::Const1, &[], n, 0)?;
                n
            }
            1 => literals[0],
            _ => {
                let n = nl.add_net("prod");
                nl.add_gate(GateKind::And, &literals, n, 1)?;
                n
            }
        };
        products.push(product);
    }
    match products.len() {
        0 => {
            nl.add_gate(GateKind::Const0, &[], out, 0)?;
        }
        1 => {
            nl.add_gate(GateKind::Buf, &[products[0]], out, 1)?;
        }
        _ => {
            nl.add_gate(GateKind::Or, &products, out, 1)?;
        }
    }
    Ok(())
}

/// Serializes a combinational netlist to BLIF (one `.names` per gate).
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut s = String::new();
    let _ = writeln!(s, ".model {}", netlist.name());
    let ins: Vec<&str> = netlist
        .inputs()
        .iter()
        .map(|&n| netlist.net_name(n))
        .collect();
    let outs: Vec<&str> = netlist
        .outputs()
        .iter()
        .map(|&n| netlist.net_name(n))
        .collect();
    let _ = writeln!(s, ".inputs {}", ins.join(" "));
    let _ = writeln!(s, ".outputs {}", outs.join(" "));
    for g in netlist.gates() {
        let names: Vec<&str> = g
            .inputs
            .iter()
            .map(|&n| netlist.net_name(n))
            .chain(std::iter::once(netlist.net_name(g.output)))
            .collect();
        let _ = writeln!(s, ".names {}", names.join(" "));
        let n = g.inputs.len();
        match g.kind {
            GateKind::Const0 => {}
            GateKind::Const1 => {
                let _ = writeln!(s, "1");
            }
            GateKind::Buf => {
                let _ = writeln!(s, "1 1");
            }
            GateKind::Not => {
                let _ = writeln!(s, "0 1");
            }
            GateKind::And => {
                let _ = writeln!(s, "{} 1", "1".repeat(n));
            }
            GateKind::Or => {
                for k in 0..n {
                    let mut row = vec!['-'; n];
                    row[k] = '1';
                    let _ = writeln!(s, "{} 1", row.iter().collect::<String>());
                }
            }
            GateKind::Nand => {
                for k in 0..n {
                    let mut row = vec!['-'; n];
                    row[k] = '0';
                    let _ = writeln!(s, "{} 1", row.iter().collect::<String>());
                }
            }
            GateKind::Nor => {
                let _ = writeln!(s, "{} 1", "0".repeat(n));
            }
            GateKind::Xor => {
                let _ = writeln!(s, "10 1");
                let _ = writeln!(s, "01 1");
            }
            GateKind::Xnor => {
                let _ = writeln!(s, "11 1");
                let _ = writeln!(s, "00 1");
            }
            GateKind::Mux => {
                let _ = writeln!(s, "11- 1");
                let _ = writeln!(s, "0-1 1");
            }
        }
    }
    let _ = writeln!(s, ".end");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, sim};

    #[test]
    fn parse_simple_cover() {
        let text = "\
.model maj
.inputs a b c
.outputs z
.names a b c z
11- 1
1-1 1
-11 1
.end
";
        let seq = parse(text).unwrap();
        assert!(seq.registers().is_empty());
        let nl = seq.core();
        assert_eq!(nl.inputs().len(), 3);
        // Majority function.
        for v in 0u32..8 {
            let bits: Vec<bool> = (0..3).map(|i| (v >> i) & 1 == 1).collect();
            let expect = bits.iter().filter(|&&b| b).count() >= 2;
            assert_eq!(sim::eval(nl, &bits).unwrap(), vec![expect], "v={v}");
        }
    }

    #[test]
    fn duplicate_output_rejected() {
        let text = ".model inv\n.inputs a\n.outputs z z\n.names a z\n0 1\n.end\n";
        assert_eq!(
            parse(text).unwrap_err(),
            NetlistError::Duplicate {
                what: "output",
                name: "z".into()
            }
        );
    }

    #[test]
    fn inverting_cover() {
        let text = ".model inv\n.inputs a\n.outputs z\n.names a z\n0 1\n.end\n";
        let seq = parse(text).unwrap();
        assert_eq!(sim::eval(seq.core(), &[false]).unwrap(), vec![true]);
        assert_eq!(sim::eval(seq.core(), &[true]).unwrap(), vec![false]);
    }

    #[test]
    fn constant_covers() {
        let text = "\
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
";
        let seq = parse(text).unwrap();
        assert_eq!(sim::eval(seq.core(), &[true]).unwrap(), vec![true, false]);
    }

    #[test]
    fn latch_becomes_register() {
        let text = "\
.model toggle
.inputs
.outputs out
.names q d
0 1
.names q out
1 1
.latch d q
.end
";
        let seq = parse(text).unwrap();
        assert_eq!(seq.registers().len(), 1);
        let trace = seq.simulate(&vec![vec![]; 3]).unwrap();
        assert_eq!(trace, vec![vec![false], vec![true], vec![false]]);
    }

    #[test]
    fn continuation_lines_joined() {
        let text = ".model m\n.inputs a \\\nb\n.outputs z\n.names a b z\n11 1\n.end\n";
        let seq = parse(text).unwrap();
        assert_eq!(seq.core().inputs().len(), 2);
    }

    #[test]
    fn write_round_trips_functionally() {
        let nl = gen::carry_skip_block(2, gen::CsaDelays::default());
        let text = write(&nl);
        let parsed = parse(&text).unwrap();
        assert!(sim::equivalent_exhaustive(nl_ref(&nl), parsed.core(), 8).unwrap());
    }

    fn nl_ref(nl: &Netlist) -> &Netlist {
        nl
    }

    #[test]
    fn bad_cube_rejected() {
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\n2 1\n.end\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\n11 1\n.end\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn off_set_cover_rejected() {
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\n1 0\n.end\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn unknown_directive_rejected() {
        let text = ".model m\n.bogus x\n.end\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn undefined_output_rejected() {
        let text = ".model m\n.inputs a\n.outputs ghost\n.end\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }
}
