use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::{Gate, GateId, GateKind, NetId, NetlistError};

/// A flat, gate-level combinational module (a *leaf module* in the
/// paper's terminology).
///
/// A netlist owns a set of named nets, lists of primary inputs and
/// outputs, and single-output [`Gate`]s. Each net has at most one
/// driver; the netlist must be acyclic (checked by [`Netlist::validate`]
/// and by every analysis that needs a topological order).
///
/// # Example
///
/// ```
/// use hfta_netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// // z = (a · b) ⊕ c
/// let mut nl = Netlist::new("example");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let c = nl.add_input("c");
/// let t = nl.add_net("t");
/// let z = nl.add_net("z");
/// nl.add_gate(GateKind::And, &[a, b], t, 1)?;
/// nl.add_gate(GateKind::Xor, &[t, c], z, 2)?;
/// nl.mark_output(z);
/// assert_eq!(nl.topo_gates()?.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    net_by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
    driver: Vec<Option<GateId>>,
    // O(1) port membership (is_input/is_output sit on hot paths: gate
    // insertion, event simulation).
    input_flag: Vec<bool>,
    output_flag: Vec<bool>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            net_names: Vec::new(),
            net_by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::new(),
            driver: Vec::new(),
            input_flag: Vec::new(),
            output_flag: Vec::new(),
        }
    }

    /// The module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the module.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a new internal net. If the name is taken, a unique suffix is
    /// appended.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let mut name = name.into();
        if self.net_by_name.contains_key(&name) {
            let mut i = 1usize;
            loop {
                let candidate = format!("{name}#{i}");
                if !self.net_by_name.contains_key(&candidate) {
                    name = candidate;
                    break;
                }
                i += 1;
            }
        }
        let id = NetId::from_index(self.net_names.len());
        self.net_by_name.insert(name.clone(), id);
        self.net_names.push(name);
        self.driver.push(None);
        self.input_flag.push(false);
        self.output_flag.push(false);
        id
    }

    /// Adds a new net and marks it as a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        self.input_flag[id.index()] = true;
        id
    }

    /// Marks an existing net as a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the net is already marked as an output.
    pub fn mark_output(&mut self, net: NetId) {
        assert!(
            !self.output_flag[net.index()],
            "net {} marked as output twice",
            self.net_name(net)
        );
        self.output_flag[net.index()] = true;
        self.outputs.push(net);
    }

    /// Adds a gate driving `output`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the input count is illegal
    /// for `kind`, or [`NetlistError::MultipleDrivers`] if `output` is
    /// already driven (primary inputs count as driven).
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
        delay: u32,
    ) -> Result<GateId, NetlistError> {
        if !kind.accepts_arity(inputs.len()) {
            return Err(NetlistError::BadArity {
                kind: kind.name(),
                got: inputs.len(),
            });
        }
        if self.driver[output.index()].is_some() || self.input_flag[output.index()] {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_name(output).to_string(),
            });
        }
        let id = GateId::from_index(self.gates.len());
        self.driver[output.index()] = Some(id);
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
        });
        Ok(id)
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Primary inputs in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates in creation order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate with the given id.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Changes the propagation delay of one gate — the smallest
    /// possible ECO (engineering change order) edit. Structure is
    /// untouched, but the [`Netlist::content_hash`] (and the exact
    /// structural fingerprint) change, so incremental sessions
    /// re-characterize exactly this module.
    pub fn set_gate_delay(&mut self, id: GateId, delay: u32) {
        self.gates[id.index()].delay = delay;
    }

    /// The name of a net.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Looks a net up by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    /// The gate driving `net`, or `None` for primary inputs and floating
    /// nets.
    #[must_use]
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.driver[net.index()]
    }

    /// Returns `true` if `net` is a primary input (O(1)).
    #[must_use]
    pub fn is_input(&self, net: NetId) -> bool {
        self.input_flag[net.index()]
    }

    /// Returns `true` if `net` is a primary output (O(1)).
    #[must_use]
    pub fn is_output(&self, net: NetId) -> bool {
        self.output_flag[net.index()]
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.net_count()).map(NetId::from_index)
    }

    /// Builds the fanout lists: for every net, the gates reading it.
    #[must_use]
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut fan = vec![Vec::new(); self.net_count()];
        for (i, g) in self.gates.iter().enumerate() {
            for &inp in &g.inputs {
                fan[inp.index()].push(GateId::from_index(i));
            }
        }
        fan
    }

    /// Returns the gates in a topological order (inputs before outputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist is
    /// cyclic.
    pub fn topo_gates(&self) -> Result<Vec<GateId>, NetlistError> {
        // Kahn's algorithm over gates: a gate is ready when all of its
        // input nets are either primary inputs, floating, or already
        // produced.
        let mut remaining = vec![0usize; self.gates.len()];
        let mut ready = Vec::new();
        let fanouts = self.fanouts();
        for (i, g) in self.gates.iter().enumerate() {
            let deps = g
                .inputs
                .iter()
                .filter(|n| self.driver[n.index()].is_some())
                .count();
            remaining[i] = deps;
            if deps == 0 {
                ready.push(GateId::from_index(i));
            }
        }
        let mut order = Vec::with_capacity(self.gates.len());
        while let Some(g) = ready.pop() {
            order.push(g);
            let out = self.gates[g.index()].output;
            for &succ in &fanouts[out.index()] {
                remaining[succ.index()] -= 1;
                if remaining[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }
        if order.len() != self.gates.len() {
            let stuck = remaining
                .iter()
                .position(|&r| r > 0)
                .map(|i| self.net_name(self.gates[i].output).to_string())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { net: stuck });
        }
        Ok(order)
    }

    /// Checks structural invariants: acyclic, every output net exists,
    /// no gate reads an undefined net (guaranteed by construction), and
    /// every primary output is driven or is a primary input.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        self.topo_gates()?;
        for &out in &self.outputs {
            if self.driver(out).is_none() && !self.is_input(out) {
                return Err(NetlistError::Unknown {
                    what: "driver for output net",
                    name: self.net_name(out).to_string(),
                });
            }
        }
        Ok(())
    }

    /// Extracts the transitive-fanin cone of `root` as a fresh netlist.
    ///
    /// The cone's primary inputs are exactly the primary inputs of
    /// `self` that reach `root`; its single primary output is `root`.
    /// Returns the cone and the mapping from cone input position to the
    /// original net.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range for this netlist.
    #[must_use]
    pub fn cone(&self, root: NetId) -> (Netlist, Vec<NetId>) {
        let mut in_cone = vec![false; self.net_count()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if in_cone[n.index()] {
                continue;
            }
            in_cone[n.index()] = true;
            if let Some(g) = self.driver(n) {
                for &inp in &self.gates[g.index()].inputs {
                    stack.push(inp);
                }
            }
        }
        let mut cone = Netlist::new(format!("{}::cone({})", self.name, self.net_name(root)));
        // Parent net → cone net, indexed by the parent's net id.
        let mut map: Vec<Option<NetId>> = vec![None; self.net_count()];
        let mapped = |map: &[Option<NetId>], n: NetId| map[n.index()].expect("cone net mapped");
        let mut sources = Vec::new();
        // Primary inputs first, preserving the parent's input order.
        for &pi in &self.inputs {
            if in_cone[pi.index()] {
                map[pi.index()] = Some(cone.add_input(self.net_name(pi)));
                sources.push(pi);
            }
        }
        // Then every other cone net.
        for n in self.net_ids() {
            if in_cone[n.index()] && map[n.index()].is_none() {
                map[n.index()] = Some(cone.add_net(self.net_name(n)));
            }
        }
        let mut inputs = Vec::new();
        for g in &self.gates {
            if in_cone[g.output.index()] {
                inputs.clear();
                inputs.extend(g.inputs.iter().map(|&n| mapped(&map, n)));
                cone.add_gate(g.kind, &inputs, mapped(&map, g.output), g.delay)
                    .expect("cone gate insertion cannot fail");
            }
        }
        cone.mark_output(mapped(&map, root));
        (cone, sources)
    }

    /// A content hash of the netlist structure (names excluded from
    /// semantics but included to keep hashes stable across sessions).
    ///
    /// Used by the incremental analyzer to detect module changes.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.net_names.hash(&mut h);
        self.inputs.hash(&mut h);
        self.outputs.hash(&mut h);
        for g in &self.gates {
            g.kind.hash(&mut h);
            g.inputs.hash(&mut h);
            g.output.hash(&mut h);
            g.delay.hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and_xor() -> Netlist {
        let mut nl = Netlist::new("ax");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_net("t");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], t, 1).unwrap();
        nl.add_gate(GateKind::Xor, &[t, c], z, 2).unwrap();
        nl.mark_output(z);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = and_xor();
        assert_eq!(nl.net_count(), 5);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        let z = nl.find_net("z").unwrap();
        assert!(nl.is_output(z));
        assert!(!nl.is_input(z));
        let d = nl.driver(z).unwrap();
        assert_eq!(nl.gate(d).kind, GateKind::Xor);
        nl.validate().unwrap();
    }

    #[test]
    fn duplicate_net_names_get_suffixed() {
        let mut nl = Netlist::new("m");
        let a = nl.add_net("x");
        let b = nl.add_net("x");
        assert_ne!(a, b);
        assert_eq!(nl.net_name(a), "x");
        assert_eq!(nl.net_name(b), "x#1");
        assert_eq!(nl.find_net("x"), Some(a));
        assert_eq!(nl.find_net("x#1"), Some(b));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Or, &[a, b], z, 1).unwrap();
        let err = nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
        // Driving a primary input is also a double-drive.
        let err = nl.add_gate(GateKind::Not, &[z], a, 1).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        let err = nl.add_gate(GateKind::And, &[a], z, 1).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 1, .. }));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = and_xor();
        let order = nl.topo_gates().unwrap();
        assert_eq!(order.len(), 2);
        let pos: Vec<usize> = order.iter().map(|g| g.index()).collect();
        // AND (gate 0) must precede XOR (gate 1).
        assert!(pos.iter().position(|&g| g == 0) < pos.iter().position(|&g| g == 1));
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::And, &[a, y], x, 1).unwrap();
        nl.add_gate(GateKind::Or, &[a, x], y, 1).unwrap();
        assert!(matches!(
            nl.topo_gates(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn cone_extraction() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_net("t");
        let u = nl.add_net("u");
        nl.add_gate(GateKind::And, &[a, b], t, 1).unwrap();
        nl.add_gate(GateKind::Or, &[b, c], u, 1).unwrap();
        nl.mark_output(t);
        nl.mark_output(u);
        let (cone, sources) = nl.cone(t);
        assert_eq!(cone.inputs().len(), 2); // a and b only
        assert_eq!(cone.gate_count(), 1);
        assert_eq!(sources, vec![a, b]);
        assert_eq!(cone.outputs().len(), 1);
        cone.validate().unwrap();
    }

    #[test]
    fn content_hash_changes_with_structure() {
        let nl = and_xor();
        let mut other = and_xor();
        assert_eq!(nl.content_hash(), other.content_hash());
        let z2 = other.add_net("z2");
        let a = other.find_net("a").unwrap();
        other.add_gate(GateKind::Buf, &[a], z2, 3).unwrap();
        assert_ne!(nl.content_hash(), other.content_hash());
    }

    #[test]
    fn fanouts_list_readers() {
        let nl = and_xor();
        let fan = nl.fanouts();
        let b = nl.find_net("b").unwrap();
        let t = nl.find_net("t").unwrap();
        assert_eq!(fan[b.index()].len(), 1);
        assert_eq!(fan[t.index()].len(), 1);
    }

    #[test]
    fn validate_rejects_undriven_output() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.mark_output(z);
        assert!(nl.validate().is_err());
    }
}
