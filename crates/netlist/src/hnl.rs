//! The HNL (hierarchical netlist) text format.
//!
//! `.bench` cannot express hierarchy, so HFTA defines a small line-based
//! format for hierarchical designs — the paper's input is exactly such a
//! depth-1 description (leaf modules + a top-level composite with no
//! glue logic):
//!
//! ```text
//! module inv
//!   input a
//!   output z
//!   gate not z a delay=1
//! endmodule
//!
//! module top
//!   input x
//!   output y
//!   net m
//!   inst u0 inv x -> m
//!   inst u1 inv m -> y
//! endmodule
//!
//! top top
//! ```
//!
//! * `gate KIND OUT IN... [delay=N]` — a gate in a leaf module (default
//!   delay 1).
//! * `inst NAME MODULE IN... -> OUT...` — an instance in a composite.
//! * A module may contain gates or instances, not both (the paper's "no
//!   glue logic" assumption).
//! * `top NAME` names the root module.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::{Composite, Design, GateKind, ModuleBody, Netlist, NetlistError};

/// Parses an HNL description.
///
/// Returns the design and the name of the module declared by the `top`
/// directive, if any.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed text and structural
/// errors if the described design is inconsistent.
pub fn parse(text: &str) -> Result<(Design, Option<String>), NetlistError> {
    let mut design = Design::new();
    let mut top = None;
    let mut current: Option<Builder> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty");
        let rest: Vec<&str> = tokens.collect();
        match keyword {
            "module" => {
                if current.is_some() {
                    return Err(err(lineno, "nested `module` (missing endmodule?)"));
                }
                let name = one_arg(&rest, lineno, "module NAME")?;
                current = Some(Builder::new(name));
            }
            "endmodule" => {
                let b = current
                    .take()
                    .ok_or_else(|| err(lineno, "stray endmodule"))?;
                b.finish(&mut design, lineno)?;
            }
            "top" => {
                top = Some(one_arg(&rest, lineno, "top NAME")?.to_string());
            }
            "input" | "output" | "net" | "gate" | "inst" => {
                let b = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "statement outside a module"))?;
                b.statement(keyword, &rest, lineno)?;
            }
            other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(err(
            text.lines().count(),
            "missing endmodule at end of file",
        ));
    }
    design.validate()?;
    Ok((design, top))
}

fn err(line: usize, message: &str) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.to_string(),
    }
}

fn one_arg<'a>(rest: &[&'a str], lineno: usize, usage: &str) -> Result<&'a str, NetlistError> {
    if rest.len() != 1 {
        return Err(err(lineno, &format!("usage: {usage}")));
    }
    Ok(rest[0])
}

enum Kind {
    Undecided,
    Leaf,
    Composite,
}

struct Builder {
    name: String,
    kind: Kind,
    inputs: Vec<String>,
    outputs: Vec<String>,
    nets: Vec<String>,
    gates: Vec<(GateKind, String, Vec<String>, u32)>,
    insts: Vec<(String, String, Vec<String>, Vec<String>)>,
}

impl Builder {
    fn new(name: &str) -> Builder {
        Builder {
            name: name.to_string(),
            kind: Kind::Undecided,
            inputs: Vec::new(),
            outputs: Vec::new(),
            nets: Vec::new(),
            gates: Vec::new(),
            insts: Vec::new(),
        }
    }

    fn statement(
        &mut self,
        keyword: &str,
        rest: &[&str],
        lineno: usize,
    ) -> Result<(), NetlistError> {
        match keyword {
            "input" => self.inputs.extend(rest.iter().map(|s| s.to_string())),
            "output" => self.outputs.extend(rest.iter().map(|s| s.to_string())),
            "net" => self.nets.extend(rest.iter().map(|s| s.to_string())),
            "gate" => {
                if matches!(self.kind, Kind::Composite) {
                    return Err(err(lineno, "gates and instances cannot mix in one module"));
                }
                self.kind = Kind::Leaf;
                if rest.len() < 2 {
                    return Err(err(lineno, "usage: gate KIND OUT IN... [delay=N]"));
                }
                let kind = GateKind::from_name(rest[0])
                    .ok_or_else(|| err(lineno, &format!("unknown gate kind `{}`", rest[0])))?;
                let out = rest[1].to_string();
                let mut delay = 1u32;
                let mut ins = Vec::new();
                for tok in &rest[2..] {
                    if let Some(d) = tok.strip_prefix("delay=") {
                        delay = d
                            .parse()
                            .map_err(|_| err(lineno, &format!("bad delay `{d}`")))?;
                    } else {
                        ins.push(tok.to_string());
                    }
                }
                self.gates.push((kind, out, ins, delay));
            }
            "inst" => {
                if matches!(self.kind, Kind::Leaf) {
                    return Err(err(lineno, "gates and instances cannot mix in one module"));
                }
                self.kind = Kind::Composite;
                if rest.len() < 3 {
                    return Err(err(lineno, "usage: inst NAME MODULE IN... -> OUT..."));
                }
                let inst_name = rest[0].to_string();
                let module = rest[1].to_string();
                let arrow = rest
                    .iter()
                    .position(|&t| t == "->")
                    .ok_or_else(|| err(lineno, "instance needs `->` between inputs and outputs"))?;
                let ins = rest[2..arrow].iter().map(|s| s.to_string()).collect();
                let outs = rest[arrow + 1..].iter().map(|s| s.to_string()).collect();
                self.insts.push((inst_name, module, ins, outs));
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    fn finish(self, design: &mut Design, lineno: usize) -> Result<(), NetlistError> {
        let mut outputs = HashSet::with_capacity(self.outputs.len());
        if let Some(n) = self.outputs.iter().find(|n| !outputs.insert(n.as_str())) {
            return Err(NetlistError::Duplicate {
                what: "output",
                name: n.clone(),
            });
        }
        match self.kind {
            Kind::Composite => {
                let mut c = Composite::new(&self.name);
                for n in &self.inputs {
                    c.add_input(n);
                }
                for n in &self.nets {
                    if c.find_net(n).is_none() {
                        c.add_net(n);
                    }
                }
                for n in &self.outputs {
                    if c.find_net(n).is_none() {
                        c.add_net(n);
                    }
                }
                for (name, module, ins, outs) in &self.insts {
                    let mut in_ids = Vec::new();
                    for n in ins {
                        let id = match c.find_net(n) {
                            Some(id) => id,
                            None => c.add_net(n),
                        };
                        in_ids.push(id);
                    }
                    let mut out_ids = Vec::new();
                    for n in outs {
                        let id = match c.find_net(n) {
                            Some(id) => id,
                            None => c.add_net(n),
                        };
                        out_ids.push(id);
                    }
                    c.add_instance(name, module, &in_ids, &out_ids);
                }
                for n in &self.outputs {
                    let id = c
                        .find_net(n)
                        .ok_or_else(|| err(lineno, &format!("undefined output `{n}`")))?;
                    c.mark_output(id);
                }
                design.add_composite(c)
            }
            Kind::Leaf | Kind::Undecided => {
                let mut nl = Netlist::new(&self.name);
                for n in &self.inputs {
                    nl.add_input(n);
                }
                for n in &self.nets {
                    if nl.find_net(n).is_none() {
                        nl.add_net(n);
                    }
                }
                for (_, out, ins, _) in &self.gates {
                    for n in std::iter::once(out).chain(ins) {
                        if nl.find_net(n).is_none() {
                            nl.add_net(n.clone());
                        }
                    }
                }
                for (kind, out, ins, delay) in &self.gates {
                    let out_id = nl.find_net(out).expect("created above");
                    let in_ids: Vec<_> = ins
                        .iter()
                        .map(|n| nl.find_net(n).expect("created above"))
                        .collect();
                    nl.add_gate(*kind, &in_ids, out_id, *delay)?;
                }
                for n in &self.outputs {
                    let id = nl
                        .find_net(n)
                        .ok_or_else(|| err(lineno, &format!("undefined output `{n}`")))?;
                    nl.mark_output(id);
                }
                nl.validate()?;
                design.add_leaf(nl)
            }
        }
    }
}

/// Serializes a design (and optional top name) to HNL text.
///
/// [`parse`] round-trips the output.
#[must_use]
pub fn write(design: &Design, top: Option<&str>) -> String {
    let mut s = String::new();
    for def in design.modules() {
        let _ = writeln!(s, "module {}", def.name);
        match &def.body {
            ModuleBody::Leaf(nl) => {
                for &pi in nl.inputs() {
                    let _ = writeln!(s, "  input {}", nl.net_name(pi));
                }
                for &po in nl.outputs() {
                    let _ = writeln!(s, "  output {}", nl.net_name(po));
                }
                for g in nl.gates() {
                    let ins: Vec<&str> = g.inputs.iter().map(|&n| nl.net_name(n)).collect();
                    let _ = write!(
                        s,
                        "  gate {} {} {}",
                        g.kind.name(),
                        nl.net_name(g.output),
                        ins.join(" ")
                    );
                    if g.delay != 1 {
                        let _ = write!(s, " delay={}", g.delay);
                    }
                    s.push('\n');
                }
            }
            ModuleBody::Composite(c) => {
                for &pi in c.inputs() {
                    let _ = writeln!(s, "  input {}", c.net_name(pi));
                }
                for &po in c.outputs() {
                    let _ = writeln!(s, "  output {}", c.net_name(po));
                }
                for inst in c.instances() {
                    let ins: Vec<&str> = inst.inputs.iter().map(|&n| c.net_name(n)).collect();
                    let outs: Vec<&str> = inst.outputs.iter().map(|&n| c.net_name(n)).collect();
                    let _ = writeln!(
                        s,
                        "  inst {} {} {} -> {}",
                        inst.name,
                        inst.module,
                        ins.join(" "),
                        outs.join(" ")
                    );
                }
            }
        }
        let _ = writeln!(s, "endmodule");
        s.push('\n');
    }
    if let Some(top) = top {
        let _ = writeln!(s, "top {top}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    const CHAIN: &str = "\
module inv
  input a
  output z
  gate not z a delay=1
endmodule

module top
  input x
  output y
  net m
  inst u0 inv x -> m
  inst u1 inv m -> y
endmodule

top top
";

    #[test]
    fn parse_chain() {
        let (design, top) = parse(CHAIN).unwrap();
        assert_eq!(top.as_deref(), Some("top"));
        let flat = design.flatten("top").unwrap();
        assert_eq!(flat.gate_count(), 2);
        assert_eq!(sim::eval(&flat, &[false]).unwrap(), vec![false]);
    }

    #[test]
    fn round_trip() {
        let (design, top) = parse(CHAIN).unwrap();
        let text = write(&design, top.as_deref());
        let (design2, top2) = parse(&text).unwrap();
        assert_eq!(top, top2);
        let f1 = design.flatten("top").unwrap();
        let f2 = design2.flatten("top").unwrap();
        assert!(sim::equivalent_exhaustive(&f1, &f2, 8).unwrap());
    }

    #[test]
    fn mixed_module_rejected() {
        let text = "\
module bad
  input a
  output z
  gate not z a
  inst u0 inv a -> z
endmodule
";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    /// An output listed twice is an error naming the net, in a leaf and
    /// in a composite alike.
    #[test]
    fn duplicate_output_rejected() {
        let dup = NetlistError::Duplicate {
            what: "output",
            name: "z".into(),
        };
        let leaf = "module m\n  input a\n  output z z\n  gate not z a\nendmodule\n";
        assert_eq!(parse(leaf).unwrap_err(), dup);
        let composite = CHAIN.replace("  output y\n", "  output y\n  output y\n");
        assert_eq!(
            parse(&composite).unwrap_err(),
            NetlistError::Duplicate {
                what: "output",
                name: "y".into()
            }
        );
    }

    #[test]
    fn missing_endmodule_rejected() {
        assert!(matches!(
            parse("module m\n  input a\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn stray_statement_rejected() {
        assert!(matches!(
            parse("input a\n"),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn leaf_only_design() {
        let text = "\
module and2
  input a b
  output z
  gate and z a b delay=3
endmodule
";
        let (design, top) = parse(text).unwrap();
        assert!(top.is_none());
        let nl = design.leaf("and2").unwrap();
        assert_eq!(nl.gates()[0].delay, 3);
        assert_eq!(nl.inputs().len(), 2);
    }

    #[test]
    fn instance_missing_arrow_rejected() {
        let text = "\
module top
  input a
  output z
  inst u0 inv a z
endmodule
";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }
}
