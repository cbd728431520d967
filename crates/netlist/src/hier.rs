use std::collections::HashMap;

use crate::{GateKind, NetId, Netlist, NetlistError};

/// An instance of a module inside a [`Composite`].
///
/// Connections are positional: `inputs[i]` is the composite net bound to
/// the referenced module's `i`-th primary input, and likewise for
/// `outputs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instance {
    /// Instance name, unique within the composite.
    pub name: String,
    /// Name of the instantiated module.
    pub module: String,
    /// Composite nets bound to the module's primary inputs.
    pub inputs: Vec<NetId>,
    /// Composite nets bound to the module's primary outputs.
    pub outputs: Vec<NetId>,
}

/// A hierarchical module: a set of nets connecting module instances.
///
/// The paper's experiments use hierarchy depth 1 (a composite of leaf
/// modules, no glue logic), which is what the analyses consume;
/// [`Design::flatten`] supports arbitrary depth.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Composite {
    name: String,
    net_names: Vec<String>,
    net_by_name: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    instances: Vec<Instance>,
}

impl Composite {
    /// Creates an empty composite module.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Composite {
        Composite {
            name: name.into(),
            net_names: Vec::new(),
            net_by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            instances: Vec::new(),
        }
    }

    /// The module name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net; duplicate names get a unique suffix.
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
        id
    }

    /// Adds a net and marks it as a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds an instance of `module` with positional connections.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        module: impl Into<String>,
        inputs: &[NetId],
        outputs: &[NetId],
    ) {
        self.instances.push(Instance {
            name: name.into(),
            module: module.into(),
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
        });
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

    /// The instances in declaration order.
    #[must_use]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
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

    /// Returns instance indices in a topological order (producers before
    /// consumers), as the paper's hierarchical propagation requires.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if instances form a
    /// combinational cycle, or [`NetlistError::MultipleDrivers`] if two
    /// instances drive the same net.
    pub fn instance_topo_order(&self) -> Result<Vec<usize>, NetlistError> {
        let mut producer: Vec<Option<usize>> = vec![None; self.net_count()];
        for (i, inst) in self.instances.iter().enumerate() {
            for &out in &inst.outputs {
                if producer[out.index()].is_some() || self.inputs.contains(&out) {
                    return Err(NetlistError::MultipleDrivers {
                        net: self.net_name(out).to_string(),
                    });
                }
                producer[out.index()] = Some(i);
            }
        }
        let mut remaining: Vec<usize> = self
            .instances
            .iter()
            .map(|inst| {
                inst.inputs
                    .iter()
                    .filter(|n| producer[n.index()].is_some())
                    .count()
            })
            .collect();
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.net_count()];
        for (i, inst) in self.instances.iter().enumerate() {
            for &inp in &inst.inputs {
                consumers[inp.index()].push(i);
            }
        }
        let mut ready: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.instances.len());
        while let Some(i) = ready.pop() {
            order.push(i);
            for &out in &self.instances[i].outputs {
                for &c in &consumers[out.index()] {
                    remaining[c] -= 1;
                    if remaining[c] == 0 {
                        ready.push(c);
                    }
                }
            }
        }
        if order.len() != self.instances.len() {
            let stuck = remaining
                .iter()
                .position(|&r| r > 0)
                .map(|i| self.instances[i].name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { net: stuck });
        }
        Ok(order)
    }
}

/// The body of a [`ModuleDef`]: a flat leaf or a composite of instances.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ModuleBody {
    /// A flat gate-level module.
    Leaf(Netlist),
    /// A hierarchical module.
    Composite(Composite),
}

/// A named module definition within a [`Design`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModuleDef {
    /// Module name, unique within the design.
    pub name: String,
    /// The module body.
    pub body: ModuleBody,
}

/// A hierarchical design: a library of module definitions.
///
/// # Example
///
/// ```
/// use hfta_netlist::{Composite, Design, GateKind, Netlist};
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let mut inv = Netlist::new("inv");
/// let a = inv.add_input("a");
/// let z = inv.add_net("z");
/// inv.add_gate(GateKind::Not, &[a], z, 1)?;
/// inv.mark_output(z);
///
/// let mut top = Composite::new("top");
/// let x = top.add_input("x");
/// let m = top.add_net("m");
/// let y = top.add_net("y");
/// top.add_instance("u0", "inv", &[x], &[m]);
/// top.add_instance("u1", "inv", &[m], &[y]);
/// top.mark_output(y);
///
/// let mut design = Design::new();
/// design.add_leaf(inv)?;
/// design.add_composite(top)?;
/// let flat = design.flatten("top")?;
/// assert_eq!(flat.gate_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Design {
    modules: Vec<ModuleDef>,
    by_name: HashMap<String, usize>,
}

impl Design {
    /// Creates an empty design.
    #[must_use]
    pub fn new() -> Design {
        Design::default()
    }

    /// Adds a leaf module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Duplicate`] if the name is taken.
    pub fn add_leaf(&mut self, netlist: Netlist) -> Result<(), NetlistError> {
        self.add_module(ModuleDef {
            name: netlist.name().to_string(),
            body: ModuleBody::Leaf(netlist),
        })
    }

    /// Adds a composite module.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Duplicate`] if the name is taken.
    pub fn add_composite(&mut self, composite: Composite) -> Result<(), NetlistError> {
        self.add_module(ModuleDef {
            name: composite.name().to_string(),
            body: ModuleBody::Composite(composite),
        })
    }

    fn add_module(&mut self, def: ModuleDef) -> Result<(), NetlistError> {
        if self.by_name.contains_key(&def.name) {
            return Err(NetlistError::Duplicate {
                what: "module",
                name: def.name,
            });
        }
        self.by_name.insert(def.name.clone(), self.modules.len());
        self.modules.push(def);
        Ok(())
    }

    /// All module definitions in insertion order.
    #[must_use]
    pub fn modules(&self) -> &[ModuleDef] {
        &self.modules
    }

    /// Looks a module up by name.
    #[must_use]
    pub fn module(&self, name: &str) -> Option<&ModuleDef> {
        self.by_name.get(name).map(|&i| &self.modules[i])
    }

    /// Looks a leaf module up by name.
    #[must_use]
    pub fn leaf(&self, name: &str) -> Option<&Netlist> {
        match self.module(name) {
            Some(ModuleDef {
                body: ModuleBody::Leaf(nl),
                ..
            }) => Some(nl),
            _ => None,
        }
    }

    /// Looks a composite module up by name.
    #[must_use]
    pub fn composite(&self, name: &str) -> Option<&Composite> {
        match self.module(name) {
            Some(ModuleDef {
                body: ModuleBody::Composite(c),
                ..
            }) => Some(c),
            _ => None,
        }
    }

    /// Replaces an existing leaf module body, keeping the name.
    ///
    /// This is the entry point for *incremental* analysis: after a
    /// module edit, only the replaced module needs re-characterization.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] if no leaf of that name exists.
    pub fn replace_leaf(&mut self, netlist: Netlist) -> Result<(), NetlistError> {
        let idx = *self
            .by_name
            .get(netlist.name())
            .ok_or_else(|| NetlistError::Unknown {
                what: "leaf module",
                name: netlist.name().to_string(),
            })?;
        match &mut self.modules[idx].body {
            ModuleBody::Leaf(slot) => {
                *slot = netlist;
                Ok(())
            }
            ModuleBody::Composite(_) => Err(NetlistError::Unknown {
                what: "leaf module",
                name: netlist.name().to_string(),
            }),
        }
    }

    /// Checks that every instance references an existing module with
    /// matching port counts, that no composite lists an output twice,
    /// and that the hierarchy is non-recursive.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for def in &self.modules {
            if let ModuleBody::Composite(c) = &def.body {
                for inst in c.instances() {
                    let target =
                        self.module(&inst.module)
                            .ok_or_else(|| NetlistError::Unknown {
                                what: "module",
                                name: inst.module.clone(),
                            })?;
                    let (ni, no) = match &target.body {
                        ModuleBody::Leaf(nl) => (nl.inputs().len(), nl.outputs().len()),
                        ModuleBody::Composite(cc) => (cc.inputs().len(), cc.outputs().len()),
                    };
                    if inst.inputs.len() != ni || inst.outputs.len() != no {
                        return Err(NetlistError::PortMismatch {
                            instance: inst.name.clone(),
                            module: inst.module.clone(),
                            expected: ni + no,
                            got: inst.inputs.len() + inst.outputs.len(),
                        });
                    }
                }
                c.instance_topo_order()?;
                let mut is_output = vec![false; c.net_count()];
                for &po in c.outputs() {
                    if std::mem::replace(&mut is_output[po.index()], true) {
                        return Err(NetlistError::Duplicate {
                            what: "output",
                            name: c.net_name(po).to_string(),
                        });
                    }
                }
            }
        }
        // Hierarchy recursion check: DFS over the instantiation graph.
        for def in &self.modules {
            self.check_recursion(&def.name, &mut Vec::new())?;
        }
        Ok(())
    }

    fn check_recursion(&self, name: &str, stack: &mut Vec<String>) -> Result<(), NetlistError> {
        if stack.iter().any(|s| s == name) {
            return Err(NetlistError::RecursiveHierarchy {
                module: name.to_string(),
            });
        }
        if let Some(ModuleDef {
            body: ModuleBody::Composite(c),
            ..
        }) = self.module(name)
        {
            stack.push(name.to_string());
            for inst in c.instances() {
                self.check_recursion(&inst.module, stack)?;
            }
            stack.pop();
        }
        Ok(())
    }

    /// Flattens the module `top` into an equivalent flat [`Netlist`].
    ///
    /// Internal nets of instantiated modules are renamed
    /// `instance/net`. Multi-level hierarchies are expanded recursively.
    ///
    /// # Errors
    ///
    /// Returns an error if `top` or any referenced module is missing,
    /// port counts mismatch, or the hierarchy is recursive.
    pub fn flatten(&self, top: &str) -> Result<Netlist, NetlistError> {
        self.validate()?;
        let def = self.module(top).ok_or_else(|| NetlistError::Unknown {
            what: "module",
            name: top.to_string(),
        })?;
        match &def.body {
            ModuleBody::Leaf(nl) => Ok(nl.clone()),
            ModuleBody::Composite(c) => self.flatten_composite(c),
        }
    }

    fn flatten_composite(&self, c: &Composite) -> Result<Netlist, NetlistError> {
        let mut flat = Netlist::new(c.name());
        let mut net_map: Vec<Option<NetId>> = vec![None; c.net_count()];
        for &pi in c.inputs() {
            net_map[pi.index()] = Some(flat.add_input(c.net_name(pi)));
        }
        #[allow(clippy::needless_range_loop)] // n is also used to build NetIds
        for n in 0..c.net_count() {
            if net_map[n].is_none() {
                net_map[n] = Some(flat.add_net(c.net_name(NetId::from_index(n))));
            }
        }
        let order = c.instance_topo_order()?;
        for idx in order {
            let inst = &c.instances()[idx];
            let sub = self.flatten(&inst.module)?;
            self.inline(&mut flat, &sub, inst, &net_map)?;
        }
        for &po in c.outputs() {
            flat.mark_output(net_map[po.index()].expect("mapped"));
        }
        Ok(flat)
    }

    /// Copies `sub`'s gates into `flat`, binding ports per `inst`.
    fn inline(
        &self,
        flat: &mut Netlist,
        sub: &Netlist,
        inst: &Instance,
        parent_map: &[Option<NetId>],
    ) -> Result<(), NetlistError> {
        let mut map: Vec<Option<NetId>> = vec![None; sub.net_count()];
        for (k, &pi) in sub.inputs().iter().enumerate() {
            map[pi.index()] = Some(parent_map[inst.inputs[k].index()].expect("mapped"));
        }
        // Passthrough outputs (output net == input net) need a buffer so
        // the parent net is actually driven.
        for (k, &po) in sub.outputs().iter().enumerate() {
            let parent = parent_map[inst.outputs[k].index()].expect("mapped");
            if sub.is_input(po) {
                let src = map[po.index()].expect("input mapped");
                flat.add_gate(GateKind::Buf, &[src], parent, 0)?;
            } else {
                map[po.index()] = Some(parent);
            }
        }
        #[allow(clippy::needless_range_loop)] // n is also used to build NetIds
        for n in 0..sub.net_count() {
            if map[n].is_none() {
                let name = format!("{}/{}", inst.name, sub.net_name(NetId::from_index(n)));
                map[n] = Some(flat.add_net(name));
            }
        }
        for g in sub.gates() {
            // Skip gates feeding passthrough-buffered outputs? No such
            // gates exist: a passthrough output has no driver in `sub`.
            let inputs: Vec<NetId> = g.inputs.iter().map(|n| map[n.index()].unwrap()).collect();
            flat.add_gate(g.kind, &inputs, map[g.output.index()].unwrap(), g.delay)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn inv() -> Netlist {
        let mut nl = Netlist::new("inv");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Not, &[a], z, 1).unwrap();
        nl.mark_output(z);
        nl
    }

    fn two_inv_chain() -> Design {
        let mut top = Composite::new("top");
        let x = top.add_input("x");
        let m = top.add_net("m");
        let y = top.add_net("y");
        top.add_instance("u0", "inv", &[x], &[m]);
        top.add_instance("u1", "inv", &[m], &[y]);
        top.mark_output(y);
        let mut design = Design::new();
        design.add_leaf(inv()).unwrap();
        design.add_composite(top).unwrap();
        design
    }

    #[test]
    fn flatten_chain() {
        let design = two_inv_chain();
        let flat = design.flatten("top").unwrap();
        assert_eq!(flat.gate_count(), 2);
        assert_eq!(flat.inputs().len(), 1);
        assert_eq!(flat.outputs().len(), 1);
        // Double inversion is identity.
        let out = sim::eval(&flat, &[true]).unwrap();
        assert_eq!(out, vec![true]);
        let out = sim::eval(&flat, &[false]).unwrap();
        assert_eq!(out, vec![false]);
    }

    #[test]
    fn instance_topo_order_orders_producers_first() {
        let design = two_inv_chain();
        let c = design.composite("top").unwrap();
        let order = c.instance_topo_order().unwrap();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut design = Design::new();
        design.add_leaf(inv()).unwrap();
        let err = design.add_leaf(inv()).unwrap_err();
        assert!(matches!(err, NetlistError::Duplicate { .. }));
    }

    #[test]
    fn port_mismatch_rejected() {
        let mut top = Composite::new("top");
        let x = top.add_input("x");
        let y = top.add_net("y");
        let z = top.add_net("z");
        top.add_instance("u0", "inv", &[x, y], &[z]);
        top.mark_output(z);
        let mut design = Design::new();
        design.add_leaf(inv()).unwrap();
        design.add_composite(top).unwrap();
        assert!(matches!(
            design.validate(),
            Err(NetlistError::PortMismatch { .. })
        ));
    }

    /// A composite output marked twice is rejected before flattening
    /// could mark the flat net twice.
    #[test]
    fn duplicate_composite_output_rejected() {
        let mut top = Composite::new("top");
        let x = top.add_input("x");
        let z = top.add_net("z");
        top.add_instance("u0", "inv", &[x], &[z]);
        top.mark_output(z);
        top.mark_output(z);
        let mut design = Design::new();
        design.add_leaf(inv()).unwrap();
        design.add_composite(top).unwrap();
        let dup = NetlistError::Duplicate {
            what: "output",
            name: "z".into(),
        };
        assert_eq!(design.validate(), Err(dup.clone()));
        assert_eq!(design.flatten("top").unwrap_err(), dup);
    }

    #[test]
    fn unknown_module_rejected() {
        let mut top = Composite::new("top");
        let x = top.add_input("x");
        let z = top.add_net("z");
        top.add_instance("u0", "ghost", &[x], &[z]);
        top.mark_output(z);
        let mut design = Design::new();
        design.add_composite(top).unwrap();
        assert!(matches!(
            design.validate(),
            Err(NetlistError::Unknown { .. })
        ));
    }

    #[test]
    fn recursive_hierarchy_rejected() {
        let mut a = Composite::new("a");
        let x = a.add_input("x");
        let z = a.add_net("z");
        a.add_instance("u", "a", &[x], &[z]);
        a.mark_output(z);
        let mut design = Design::new();
        design.add_composite(a).unwrap();
        assert!(matches!(
            design.validate(),
            Err(NetlistError::RecursiveHierarchy { .. })
        ));
    }

    #[test]
    fn replace_leaf_swaps_body() {
        let mut design = two_inv_chain();
        let mut buf = Netlist::new("inv"); // same name, different body
        let a = buf.add_input("a");
        let z = buf.add_net("z");
        buf.add_gate(GateKind::Buf, &[a], z, 5).unwrap();
        buf.mark_output(z);
        design.replace_leaf(buf).unwrap();
        let flat = design.flatten("top").unwrap();
        let out = sim::eval(&flat, &[true]).unwrap();
        assert_eq!(out, vec![true]);
        assert_eq!(flat.gates()[0].delay, 5);
    }

    #[test]
    fn passthrough_output_gets_buffer() {
        let mut wire = Netlist::new("wire");
        let a = wire.add_input("a");
        wire.mark_output(a);
        let mut top = Composite::new("top");
        let x = top.add_input("x");
        let y = top.add_net("y");
        top.add_instance("w", "wire", &[x], &[y]);
        top.mark_output(y);
        let mut design = Design::new();
        design.add_leaf(wire).unwrap();
        design.add_composite(top).unwrap();
        let flat = design.flatten("top").unwrap();
        assert_eq!(flat.gate_count(), 1);
        assert_eq!(flat.gates()[0].kind, GateKind::Buf);
        let out = sim::eval(&flat, &[true]).unwrap();
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn nested_hierarchy_flattens() {
        // mid = two inv in series; top = two mids in series -> identity
        let mut mid = Composite::new("mid");
        let x = mid.add_input("x");
        let m = mid.add_net("m");
        let y = mid.add_net("y");
        mid.add_instance("i0", "inv", &[x], &[m]);
        mid.add_instance("i1", "inv", &[m], &[y]);
        mid.mark_output(y);
        let mut top = Composite::new("top");
        let p = top.add_input("p");
        let q = top.add_net("q");
        let r = top.add_net("r");
        top.add_instance("m0", "mid", &[p], &[q]);
        top.add_instance("m1", "mid", &[q], &[r]);
        top.mark_output(r);
        let mut design = Design::new();
        design.add_leaf(inv()).unwrap();
        design.add_composite(mid).unwrap();
        design.add_composite(top).unwrap();
        let flat = design.flatten("top").unwrap();
        assert_eq!(flat.gate_count(), 4);
        assert_eq!(sim::eval(&flat, &[true]).unwrap(), vec![true]);
    }
}
