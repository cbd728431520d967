//! Two- and three-valued logic simulation.
//!
//! Simulation is used throughout the test suite to establish functional
//! equivalence (e.g. that [`Design::flatten`](crate::Design::flatten)
//! preserves behaviour) and by the exact timing engines on small cones.

use crate::{GateId, GateKind, NetId, Netlist, NetlistError, Time};

/// A three-valued logic value: `0`, `1` or unknown (`X`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Tri {
    /// Logic 0.
    F,
    /// Logic 1.
    T,
    /// Unknown.
    X,
}

impl Tri {
    /// Converts from `bool`.
    #[must_use]
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::T
        } else {
            Tri::F
        }
    }

    /// Returns the known Boolean value, or `None` for `X`.
    #[must_use]
    pub fn known(self) -> Option<bool> {
        match self {
            Tri::F => Some(false),
            Tri::T => Some(true),
            Tri::X => None,
        }
    }
}

/// Evaluates the netlist on a full input vector, returning the values of
/// the primary outputs in declaration order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
///
/// # Example
///
/// ```
/// use hfta_netlist::{Netlist, GateKind, sim};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let mut nl = Netlist::new("and2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::And, &[a, b], z, 1)?;
/// nl.mark_output(z);
/// assert_eq!(sim::eval(&nl, &[true, true])?, vec![true]);
/// assert_eq!(sim::eval(&nl, &[true, false])?, vec![false]);
/// # Ok(())
/// # }
/// ```
pub fn eval(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    let values = eval_all(netlist, inputs)?;
    Ok(netlist
        .outputs()
        .iter()
        .map(|&o| values[o.index()])
        .collect())
}

/// Evaluates the netlist on a full input vector, returning the value of
/// every net (undriven non-input nets read as `false`).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn eval_all(netlist: &Netlist, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
    assert_eq!(
        inputs.len(),
        netlist.inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![false; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[k];
    }
    let order = netlist.topo_gates()?;
    let mut buf = Vec::new();
    for g in order {
        let gate = netlist.gate(g);
        buf.clear();
        buf.extend(gate.inputs.iter().map(|n| values[n.index()]));
        values[gate.output.index()] = gate.kind.eval(&buf);
    }
    Ok(values)
}

/// Evaluates the netlist on one input vector under the XBD0 delay
/// model: the value of every net (as [`eval_all`]) and the exact time
/// it settles, given the primary-input arrivals.
///
/// The settle times follow the all-primes rules of the symbolic
/// stability recursion, evaluated on values instead of functions. A
/// gate with delay `d` settles at `d +`:
///
/// * AND/NAND/OR/NOR: the earliest settle among fanins at the
///   controlling value (0 for AND/NAND, 1 for OR/NOR) if there is one,
///   else the latest settle over all fanins;
/// * BUF/NOT/XOR/XNOR: the latest settle over all fanins;
/// * MUX `s ? a : b`: the earliest, over its primes `s·a`, `s̄·b` and
///   the consensus `a·b` that hold at the vector, of the latest settle
///   of the prime's literals.
///
/// Inputs settle at their arrival (`±∞` included), constants and
/// undriven nets at `−∞`. So a net is stable by `t` under the vector
/// exactly when `t ≥ settle`, and the latest settle over all vectors is
/// the net's exact XBD0 arrival.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `arrivals.len()` or `inputs.len()` differs from the number
/// of primary inputs.
///
/// # Example
///
/// ```
/// use hfta_netlist::{Netlist, GateKind, Time, sim};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let mut nl = Netlist::new("and2");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::And, &[a, b], z, 1)?;
/// nl.mark_output(z);
/// let arrivals = [Time::new(0), Time::new(5)];
/// // `a = 0` controls the gate: it settles without waiting for `b`.
/// let (values, settle) = sim::settle_all(&nl, &arrivals, &[false, true])?;
/// assert_eq!((values[z.index()], settle[z.index()]), (false, Time::new(1)));
/// let (_, settle) = sim::settle_all(&nl, &arrivals, &[true, true])?;
/// assert_eq!(settle[z.index()], Time::new(6));
/// # Ok(())
/// # }
/// ```
pub fn settle_all(
    netlist: &Netlist,
    arrivals: &[Time],
    inputs: &[bool],
) -> Result<(Vec<bool>, Vec<Time>), NetlistError> {
    let order = netlist.topo_gates()?;
    let (mut values, mut settle) = (Vec::new(), Vec::new());
    settle_into(netlist, &order, arrivals, inputs, &mut values, &mut settle);
    Ok((values, settle))
}

/// [`settle_all`] over a topological gate `order` the caller already
/// holds, into caller-owned buffers (resized to the net count), so a
/// caller simulating many vectors neither re-sorts nor reallocates.
///
/// # Panics
///
/// Panics if `arrivals.len()` or `inputs.len()` differs from the number
/// of primary inputs.
pub fn settle_into(
    netlist: &Netlist,
    order: &[GateId],
    arrivals: &[Time],
    inputs: &[bool],
    values: &mut Vec<bool>,
    settle: &mut Vec<Time>,
) {
    let pis = netlist.inputs();
    assert_eq!(inputs.len(), pis.len(), "input vector length mismatch");
    assert_eq!(arrivals.len(), pis.len(), "arrival vector length mismatch");
    values.clear();
    values.resize(netlist.net_count(), false);
    settle.clear();
    settle.resize(netlist.net_count(), Time::NEG_INF);
    for (k, &pi) in pis.iter().enumerate() {
        values[pi.index()] = inputs[k];
        settle[pi.index()] = arrivals[k];
    }
    let mut buf = Vec::new();
    for &g in order {
        let gate = netlist.gate(g);
        buf.clear();
        buf.extend(gate.inputs.iter().map(|n| values[n.index()]));
        let at = |n: &NetId| settle[n.index()];
        let latest = gate.inputs.iter().map(at).fold(Time::NEG_INF, Time::max);
        let decided = match gate.kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let controlling = matches!(gate.kind, GateKind::Or | GateKind::Nor);
                gate.inputs
                    .iter()
                    .filter(|n| values[n.index()] == controlling)
                    .map(at)
                    .min()
                    .unwrap_or(latest)
            }
            GateKind::Mux => {
                let [s, a, b] = [0, 1, 2].map(|k| gate.inputs[k].index());
                let data = if values[s] { a } else { b };
                let selected = settle[s].max(settle[data]);
                if values[a] == values[b] {
                    selected.min(settle[a].max(settle[b]))
                } else {
                    selected
                }
            }
            _ => latest,
        };
        values[gate.output.index()] = gate.kind.eval(&buf);
        settle[gate.output.index()] = decided + Time::from(gate.delay);
    }
}

/// Three-valued evaluation: unknown inputs propagate as `X` unless the
/// gate output is determined by controlling values.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the number of primary inputs.
pub fn eval_tri(netlist: &Netlist, inputs: &[Tri]) -> Result<Vec<Tri>, NetlistError> {
    assert_eq!(
        inputs.len(),
        netlist.inputs().len(),
        "input vector length mismatch"
    );
    let mut values = vec![Tri::X; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[k];
    }
    let order = netlist.topo_gates()?;
    for g in order {
        let gate = netlist.gate(g);
        let vals: Vec<Tri> = gate.inputs.iter().map(|n| values[n.index()]).collect();
        values[gate.output.index()] = eval_gate_tri(gate.kind, &vals);
    }
    Ok(netlist
        .outputs()
        .iter()
        .map(|&o| values[o.index()])
        .collect())
}

fn eval_gate_tri(kind: GateKind, inputs: &[Tri]) -> Tri {
    match kind {
        GateKind::Const0 => Tri::F,
        GateKind::Const1 => Tri::T,
        GateKind::Buf => inputs[0],
        GateKind::Not => match inputs[0] {
            Tri::F => Tri::T,
            Tri::T => Tri::F,
            Tri::X => Tri::X,
        },
        GateKind::And | GateKind::Nand => {
            let mut out = if inputs.contains(&Tri::F) {
                Tri::F
            } else if inputs.contains(&Tri::X) {
                Tri::X
            } else {
                Tri::T
            };
            if kind == GateKind::Nand {
                out = eval_gate_tri(GateKind::Not, &[out]);
            }
            out
        }
        GateKind::Or | GateKind::Nor => {
            let mut out = if inputs.contains(&Tri::T) {
                Tri::T
            } else if inputs.contains(&Tri::X) {
                Tri::X
            } else {
                Tri::F
            };
            if kind == GateKind::Nor {
                out = eval_gate_tri(GateKind::Not, &[out]);
            }
            out
        }
        GateKind::Xor | GateKind::Xnor => {
            let out = match (inputs[0].known(), inputs[1].known()) {
                (Some(a), Some(b)) => Tri::from_bool(a ^ b),
                _ => Tri::X,
            };
            if kind == GateKind::Xnor {
                eval_gate_tri(GateKind::Not, &[out])
            } else {
                out
            }
        }
        GateKind::Mux => match inputs[0] {
            Tri::T => inputs[1],
            Tri::F => inputs[2],
            Tri::X => {
                if inputs[1] == inputs[2] && inputs[1] != Tri::X {
                    inputs[1]
                } else {
                    Tri::X
                }
            }
        },
    }
}

/// Exhaustively checks that two netlists with identically ordered ports
/// compute the same Boolean functions (inputs ≤ `max_inputs`).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if the port counts differ or exceed `max_inputs`.
pub fn equivalent_exhaustive(
    a: &Netlist,
    b: &Netlist,
    max_inputs: usize,
) -> Result<bool, NetlistError> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input count mismatch");
    assert_eq!(
        a.outputs().len(),
        b.outputs().len(),
        "output count mismatch"
    );
    let n = a.inputs().len();
    assert!(n <= max_inputs, "too many inputs for exhaustive check");
    for v in 0u64..(1u64 << n) {
        let vector: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
        if eval(a, &vector)? != eval(b, &vector)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Returns the primary inputs in the transitive fanin of `net`.
#[must_use]
pub fn support(netlist: &Netlist, net: NetId) -> Vec<NetId> {
    let (_, sources) = netlist.cone(net);
    sources
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux_netlist() -> Netlist {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, b], z, 2).unwrap();
        nl.mark_output(z);
        nl
    }

    #[test]
    fn eval_mux() {
        let nl = mux_netlist();
        assert_eq!(eval(&nl, &[true, true, false]).unwrap(), vec![true]);
        assert_eq!(eval(&nl, &[false, true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn tri_unknown_select_with_agreeing_data() {
        let nl = mux_netlist();
        let out = eval_tri(&nl, &[Tri::X, Tri::T, Tri::T]).unwrap();
        assert_eq!(out, vec![Tri::T]);
        let out = eval_tri(&nl, &[Tri::X, Tri::T, Tri::F]).unwrap();
        assert_eq!(out, vec![Tri::X]);
    }

    #[test]
    fn tri_controlling_values_dominate() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::F, Tri::X]).unwrap(), vec![Tri::F]);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::X]);

        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Nor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::F]);
    }

    #[test]
    fn tri_xor_needs_both_known() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xnor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::X]).unwrap(), vec![Tri::X]);
        assert_eq!(eval_tri(&nl, &[Tri::T, Tri::T]).unwrap(), vec![Tri::T]);
    }

    #[test]
    fn equivalence_check() {
        // NAND(a,b) == NOT(AND(a,b))
        let mut x = Netlist::new("x");
        let a = x.add_input("a");
        let b = x.add_input("b");
        let z = x.add_net("z");
        x.add_gate(GateKind::Nand, &[a, b], z, 1).unwrap();
        x.mark_output(z);

        let mut y = Netlist::new("y");
        let a = y.add_input("a");
        let b = y.add_input("b");
        let t = y.add_net("t");
        let z = y.add_net("z");
        y.add_gate(GateKind::And, &[a, b], t, 1).unwrap();
        y.add_gate(GateKind::Not, &[t], z, 1).unwrap();
        y.mark_output(z);

        assert!(equivalent_exhaustive(&x, &y, 8).unwrap());
    }

    #[test]
    fn support_lists_reaching_inputs() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let _c = nl.add_input("c");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Or, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        assert_eq!(support(&nl, z), vec![a, b]);
    }
}
