//! Worst-path enumeration and path sensitization — the *path-based*
//! view of timing analysis (Chen & Du, reference \[2\] of the paper).
//!
//! [`worst_paths`] enumerates the `k` longest paths into an output in
//! strictly non-increasing delay order by best-first search (partial
//! paths ranked by `length so far + longest suffix`, an exact
//! admissible bound). [`paths_of_arrival_are_false`] then asks the XBD0 engine
//! whether a specific path can actually determine the output's arrival:
//! a path of length `L` is false when the output is already stable at
//! `arrival(start) + L − 1`... more precisely, when the circuit's
//! functional arrival beats the path's topological arrival, no path of
//! that length is responsible. Combining the two gives the classic
//! false-path workflow: walk paths longest-first until one survives.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use crate::boolalg::BoolAlg;
use crate::delay::DelayAnalyzer;
use crate::sta::TopoSta;

/// A path through the circuit with its end-to-end arrival time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimedPath {
    /// Arrival time at the path's end (start arrival + path delay).
    pub arrival: Time,
    /// Nets from a primary input to the target, in order.
    pub nets: Vec<NetId>,
}

#[derive(PartialEq, Eq)]
struct Partial {
    bound: Time,
    /// Delay of the fixed suffix (frontier → target); kept explicitly
    /// so infinite arrival times never need to be subtracted out.
    tail: Time,
    /// Reversed: target first, current frontier last.
    nets: Vec<NetId>,
}

impl Ord for Partial {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.nets.len().cmp(&self.nets.len()))
    }
}

impl PartialOrd for Partial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Enumerates the `k` worst paths into `target` under the given
/// arrivals, in non-increasing arrival order.
///
/// Paths start at primary inputs (or constant gates, in which case the
/// path starts at the constant's output net). Ties are broken
/// deterministically.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the input count.
pub fn worst_paths(
    netlist: &Netlist,
    pi_arrivals: &[Time],
    target: NetId,
    k: usize,
) -> Result<Vec<TimedPath>, NetlistError> {
    let sta = TopoSta::new(netlist)?;
    let arrivals = sta.arrival_times(pi_arrivals);
    // Backward best-first search from the target: extend the frontier
    // net by its driver's inputs; the admissible bound is the frontier
    // net's arrival (exact, since arrival == longest remaining prefix).
    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    if arrivals[target.index()] != Time::NEG_INF {
        heap.push(Partial {
            bound: arrivals[target.index()],
            tail: Time::ZERO,
            nets: vec![target],
        });
    }
    let mut out = Vec::with_capacity(k);
    while let Some(p) = heap.pop() {
        if out.len() >= k {
            break;
        }
        let frontier = *p.nets.last().expect("non-empty");
        match netlist.driver(frontier) {
            None => {
                // Primary input (or floating net): complete path.
                let mut nets = p.nets.clone();
                nets.reverse();
                out.push(TimedPath {
                    arrival: p.bound,
                    nets,
                });
            }
            Some(g) => {
                let gate = netlist.gate(g);
                if gate.inputs.is_empty() {
                    // Constant gate: the path terminates here.
                    let mut nets = p.nets.clone();
                    nets.reverse();
                    out.push(TimedPath {
                        arrival: p.bound,
                        nets,
                    });
                    continue;
                }
                for &inp in &gate.inputs {
                    if arrivals[inp.index()] == Time::NEG_INF
                        && netlist.driver(inp).is_none()
                        && !netlist.is_input(inp)
                    {
                        continue; // floating
                    }
                    let mut nets = p.nets.clone();
                    nets.push(inp);
                    // New bound: suffix grows by the gate delay, prefix
                    // becomes the arrival at `inp`.
                    let tail = p.tail + Time::from(gate.delay);
                    let bound = if arrivals[inp.index()] == Time::POS_INF {
                        Time::POS_INF
                    } else {
                        arrivals[inp.index()] + tail
                    };
                    if bound == Time::NEG_INF {
                        continue;
                    }
                    heap.push(Partial { bound, tail, nets });
                }
            }
        }
    }
    Ok(out)
}

/// Decides whether the *longest paths of length `L`* into `target` are
/// all false: true iff the output is functionally stable strictly
/// before `L` would deliver.
///
/// This is the path-length-granular falsity question the demand-driven
/// refinement asks; exposed here for the path-based workflow.
pub fn paths_of_arrival_are_false<A: BoolAlg>(
    analyzer: &mut DelayAnalyzer<A>,
    target: NetId,
    arrival: Time,
) -> bool {
    match arrival.finite() {
        Some(v) => analyzer.is_stable_at(target, Time::new(v - 1)),
        None => false,
    }
}

/// The classic longest-*true*-path workflow: walk the worst paths in
/// decreasing order until one's arrival equals the functional arrival,
/// and report `(true path, skipped false-path arrivals)`.
///
/// Returns `None` if no enumerated path reaches the functional arrival
/// within the first `max_paths` paths.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn longest_true_path<A: BoolAlg>(
    netlist: &Netlist,
    pi_arrivals: &[Time],
    target: NetId,
    analyzer: &mut DelayAnalyzer<A>,
    max_paths: usize,
) -> Result<Option<(TimedPath, Vec<Time>)>, NetlistError> {
    let functional = analyzer.output_arrival(target);
    let paths = worst_paths(netlist, pi_arrivals, target, max_paths)?;
    let mut skipped = Vec::new();
    for p in paths {
        match p.arrival.cmp(&functional) {
            Ordering::Greater => {
                if skipped.last() != Some(&p.arrival) {
                    skipped.push(p.arrival);
                }
            }
            Ordering::Equal => return Ok(Some((p, skipped))),
            Ordering::Less => break,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn diamond_paths_in_order() {
        // z = XOR(AND(a,b), a): paths a→and→xor (3), b→and→xor (3),
        // a→xor (2).
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_net("c");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], c, 1).unwrap();
        nl.add_gate(GateKind::Xor, &[c, a], z, 2).unwrap();
        nl.mark_output(z);
        let paths = worst_paths(&nl, &[t(0), t(0)], z, 10).unwrap();
        assert_eq!(paths.len(), 3);
        let arrivals: Vec<Time> = paths.iter().map(|p| p.arrival).collect();
        assert_eq!(arrivals, vec![t(3), t(3), t(2)]);
        // Each path starts at a PI and ends at z.
        for p in &paths {
            assert!(nl.is_input(p.nets[0]));
            assert_eq!(*p.nets.last().unwrap(), z);
        }
        // k truncation.
        let top2 = worst_paths(&nl, &[t(0), t(0)], z, 2).unwrap();
        assert_eq!(top2.len(), 2);
    }

    #[test]
    fn skewed_arrivals_change_order() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Or, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let paths = worst_paths(&nl, &[t(10), t(0)], z, 2).unwrap();
        assert_eq!(paths[0].arrival, t(11));
        assert_eq!(paths[0].nets[0], a);
        assert_eq!(paths[1].arrival, t(1));
    }

    #[test]
    fn carry_skip_longest_true_path() {
        // Figure 5 arrivals: the 11-long c_in ripple path is false; the
        // longest true path delivers at 8 from a0/b0.
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let (true_path, skipped) = longest_true_path(&nl, &arrivals, c_out, &mut an, 64)
            .unwrap()
            .expect("found");
        assert_eq!(true_path.arrival, t(8));
        // The skipped (false) arrivals include the 11-long c_in path.
        assert!(skipped.contains(&t(11)), "skipped {skipped:?}");
        // The true path must not start at c_in.
        let c_in = nl.find_net("c_in").unwrap();
        assert_ne!(true_path.nets[0], c_in);
    }

    #[test]
    fn falsity_by_arrival_band() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        assert!(paths_of_arrival_are_false(&mut an, c_out, t(11)));
        assert!(paths_of_arrival_are_false(&mut an, c_out, t(9)));
        assert!(!paths_of_arrival_are_false(&mut an, c_out, t(8)));
    }

    #[test]
    fn constant_cone_has_no_timed_paths() {
        // A target that is stable from forever has no event-carrying
        // paths to enumerate.
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let c = nl.add_net("c");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], c, 0).unwrap();
        nl.add_gate(GateKind::Buf, &[c], z, 3).unwrap();
        nl.mark_output(z);
        let paths = worst_paths(&nl, &[t(0)], z, 4).unwrap();
        assert!(paths.is_empty());
    }

    #[test]
    fn mixed_constant_and_input_paths() {
        // z = AND(const1-buffered, a): only the a path is timed.
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let c = nl.add_net("c");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], c, 0).unwrap();
        nl.add_gate(GateKind::And, &[c, a], z, 1).unwrap();
        nl.mark_output(z);
        let paths = worst_paths(&nl, &[t(2)], z, 4).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].arrival, t(3));
        assert_eq!(paths[0].nets[0], a);
    }
}

#[cfg(test)]
mod infinite_arrival_tests {
    use super::*;
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Regression: worst_paths must not panic when an input never
    /// arrives — the path through it simply carries a +inf bound and
    /// sorts first.
    #[test]
    fn never_arriving_input_paths_enumerate() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Or, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let paths = worst_paths(&nl, &[Time::POS_INF, t(0)], z, 4).unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].arrival, Time::POS_INF);
        assert_eq!(paths[0].nets[0], a);
        assert_eq!(paths[1].arrival, t(1));
    }
}
