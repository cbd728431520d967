//! The question both hierarchical algorithms ask of a leaf output —
//! with cone input `i` arriving at `−lᵢ`, is the output stable at 0? —
//! and the answers already decided. The two-step characterizer asks it
//! to validate a timing tuple, demand-driven refinement (Section 5) to
//! probe a critical edge.

use hfta_netlist::{cone_signature, ConeKey, NetId, Netlist, NetlistError, Time};

use crate::sta::TopoSta;

/// The fanin cone of one module output, extracted, mapped onto the
/// module's inputs (in their order) and signed by one constructor. The
/// signature is what the signature cache, the demand-driven signature
/// classes and the model database key on.
#[derive(Clone, Debug)]
pub struct OutputCone {
    output: NetId,
    cone: Netlist,
    positions: Vec<usize>,
    module_inputs: usize,
    key: ConeKey,
}

impl OutputCone {
    /// Extracts the cone of `netlist`'s net `output` and signs it.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the cone is
    /// cyclic (the only reason signing fails).
    pub fn new(netlist: &Netlist, output: NetId) -> Result<OutputCone, NetlistError> {
        let (cone, sources) = netlist.cone(output);
        // Cone inputs keep the module's input order, so one merge pass
        // places every source.
        let mut sources = sources.iter().peekable();
        let positions: Vec<usize> = netlist
            .inputs()
            .iter()
            .enumerate()
            .filter_map(|(p, pi)| sources.next_if(|&src| src == pi).map(|_| p))
            .collect();
        debug_assert!(sources.next().is_none(), "cone sources are primary inputs");
        let key = cone_signature(&cone)?;
        Ok(OutputCone {
            output,
            cone,
            positions,
            module_inputs: netlist.inputs().len(),
            key,
        })
    }

    /// The cones of every output of `netlist`, in output order.
    ///
    /// # Errors
    ///
    /// As [`OutputCone::new`].
    pub fn all(netlist: &Netlist) -> Result<Vec<OutputCone>, NetlistError> {
        netlist
            .outputs()
            .iter()
            .map(|&out| OutputCone::new(netlist, out))
            .collect()
    }

    /// The output net, in the module netlist.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }

    /// The single-output cone netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.cone
    }

    /// The module input position of each cone input.
    #[must_use]
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// The cone's structural signature and canonical input slots.
    #[must_use]
    pub fn key(&self) -> &ConeKey {
        &self.key
    }

    /// The distinct path lengths from each cone input to the output,
    /// descending and capped at the `cap` longest; each list heads with
    /// the input's topological delay.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for a cyclic cone.
    pub fn lengths(&self, cap: usize) -> Result<Vec<Vec<Time>>, NetlistError> {
        let sta = TopoSta::new(&self.cone)?;
        let mut distinct = sta.distinct_lengths_to(self.cone.outputs()[0], cap);
        Ok(self
            .cone
            .inputs()
            .iter()
            .map(|pi| std::mem::take(&mut distinct[pi.index()]))
            .collect())
    }

    /// Spreads per-cone-input delays over the module's inputs; an input
    /// outside the cone has no path, so its delay is `−∞`.
    #[must_use]
    pub fn expand(&self, delays: &[Time]) -> Vec<Time> {
        let mut full = vec![Time::NEG_INF; self.module_inputs];
        for (&p, &d) in self.positions.iter().zip(delays) {
            full[p] = d;
        }
        full
    }
}

/// The decided verdicts on one cone's delay tuples: is the output
/// stable at 0 with input `i` arriving at `−delays[i]`?
///
/// Validity is monotone in every input's delay: each all-primes rule
/// is a positive combination of fanin `S0`/`S1`, so an input arriving
/// earlier can only grow them (monotone speedup). A tuple at or above a
/// valid tuple componentwise is therefore valid, and one at or below a
/// refuted tuple refuted — exactly the answer a check would give. A
/// store is scoped to one cone function (other outputs are other
/// predicates; isomorphic cones share one in canonical slot order) and
/// never holds a budget-exhausted outcome, which is not a verdict. Only
/// the minimal valid and the maximal refuted tuples are kept; the
/// others are implied by them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictStore {
    valid: Vec<Vec<Time>>,
    refuted: Vec<Vec<Time>>,
}

impl VerdictStore {
    /// The verdict on `delays` that the stored ones imply, if any.
    #[must_use]
    pub fn implied(&self, delays: &[Time]) -> Option<bool> {
        if self.valid.iter().any(|v| at_least(delays, v)) {
            Some(true)
        } else if self.refuted.iter().any(|r| at_least(r, delays)) {
            Some(false)
        } else {
            None
        }
    }

    /// Stores a decided verdict on `delays` unless the store already
    /// implies it, dropping the tuples it makes redundant. Returns
    /// whether the store changed.
    pub fn record(&mut self, delays: &[Time], valid: bool) -> bool {
        if valid {
            if self.valid.iter().any(|v| at_least(delays, v)) {
                return false;
            }
            self.valid.retain(|v| !at_least(v, delays));
            self.valid.push(delays.to_vec());
        } else {
            if self.refuted.iter().any(|r| at_least(r, delays)) {
                return false;
            }
            self.refuted.retain(|r| !at_least(delays, r));
            self.refuted.push(delays.to_vec());
        }
        true
    }

    /// Number of verdicts kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.valid.len() + self.refuted.len()
    }

    /// Whether no verdict is kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every kept verdict: the minimal valid tuples, then the maximal
    /// refuted ones.
    pub fn verdicts(&self) -> impl Iterator<Item = (&[Time], bool)> {
        let valid = self.valid.iter().map(|v| (v.as_slice(), true));
        valid.chain(self.refuted.iter().map(|r| (r.as_slice(), false)))
    }
}

/// `a ≥ b` componentwise.
fn at_least(a: &[Time], b: &[Time]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn ts(v: &[i64]) -> Vec<Time> {
        v.iter().map(|&x| Time::new(x)).collect()
    }

    /// The store answers exactly what monotone speedup implies: at or
    /// above a valid tuple is valid, at or below a refuted one refuted,
    /// anything else open; a new verdict drops the ones it subsumes,
    /// and an implied one changes nothing.
    #[test]
    fn verdict_store_implies_by_dominance() {
        let mut store = VerdictStore::default();
        assert!(store.record(&ts(&[4, 2]), true));
        assert!(store.record(&ts(&[1, 1]), false));
        assert_eq!(store.implied(&ts(&[5, 2])), Some(true));
        assert_eq!(store.implied(&ts(&[4, 2])), Some(true));
        assert_eq!(store.implied(&ts(&[0, 1])), Some(false));
        assert_eq!(store.implied(&ts(&[3, 3])), None);
        assert_eq!(store.implied(&[Time::new(4), Time::NEG_INF]), None);
        assert!(!store.record(&ts(&[5, 3]), true));
        assert!(!store.record(&ts(&[0, 1]), false));
        assert!(store.record(&ts(&[3, 2]), true));
        assert!(store.record(&ts(&[2, 1]), false));
        assert_eq!(store.valid, vec![ts(&[3, 2])]);
        assert_eq!(store.refuted, vec![ts(&[2, 1])]);
        assert_eq!(store.len(), 2);
        let kept: Vec<(&[Time], bool)> = store.verdicts().collect();
        assert_eq!(
            kept,
            vec![(&ts(&[3, 2])[..], true), (&ts(&[2, 1])[..], false)]
        );
    }

    /// A cone maps its inputs onto the module's, in module order, and
    /// spreads per-cone-input delays back over them.
    #[test]
    fn cone_positions_follow_module_inputs() {
        let block = carry_skip_block(2, CsaDelays::default());
        // s0 = a0 ⊕ b0 ⊕ c_in: the cone of inputs c_in, a0, b0 only.
        let s0 = OutputCone::new(&block, block.outputs()[0]).unwrap();
        assert_eq!(s0.positions(), &[0, 1, 2]);
        assert_eq!(s0.netlist().inputs().len(), 3);
        assert_eq!(s0.lengths(32).unwrap(), vec![ts(&[2]), ts(&[4]), ts(&[4])]);
        assert_eq!(
            s0.expand(&ts(&[2, 4, 4])),
            [ts(&[2, 4, 4]), vec![Time::NEG_INF; 2]].concat()
        );
        let all = OutputCone::all(&block).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].output(), block.outputs()[2]);
        assert_eq!(all[2].positions(), &[0, 1, 2, 3, 4]);
    }
}
