//! The pitfall the paper's Section 1 warns about, made executable.
//!
//! Yalcin & Hayes' hierarchical models are built under one arrival-time
//! scenario and reused under others; the paper points out that under
//! tight, arrival-time-*dependent* criteria (XBD0/floating mode) this
//! "may underapproximate true delays". The general trap is assembling a
//! per-pin delay tuple from analyses that each vary one pin while
//! holding the rest in a fixed reference scenario, *without validating
//! the assembled tuple jointly* — pin relaxations that are individually
//! safe can be jointly unsafe.
//!
//! [`independent_relaxation_model`] builds exactly that (deliberately
//! unsound) model, and [`find_underapproximation`] searches for an
//! arrival condition where it claims stability the circuit does not
//! have. The HFTA characterizer never has this problem: every accepted
//! relaxation step is validated by a full stability check of the whole
//! tuple (see [`hfta_fta::Characterizer`]).

use hfta_fta::{DelayAnalyzer, OutputCone, SatAlg, StabilityOracle};
use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use crate::{TimingModel, TimingTuple};

/// Builds the naive model of `cone`'s output: each pin's delay is
/// relaxed down its distinct-path-length list with *all other pins held
/// at their topological delays*, and the per-pin results are assembled
/// into one tuple without a joint validity check.
///
/// This is **intentionally unsound** — it exists to demonstrate the
/// paper's critique. Use [`ModuleTiming::characterize`]
/// (`ModelSource::Functional`) for sound models.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// [`ModuleTiming::characterize`]: crate::ModuleTiming::characterize
pub fn independent_relaxation_model(
    cone: &OutputCone,
    lengths_cap: usize,
) -> Result<TimingModel, NetlistError> {
    let lists = cone.lengths(lengths_cap)?;
    let topo: Vec<Time> = lists
        .iter()
        .map(|l| l.first().copied().unwrap_or(Time::NEG_INF))
        .collect();
    let mut assembled = topo.clone();
    // One persistent oracle serves every per-pin probe of this cone;
    // each probe rebinds the arrivals, keeping the solver state warm.
    let cone_out = cone.netlist().outputs()[0];
    let topo_arrivals: Vec<Time> = topo.iter().map(|&d| -d).collect();
    let mut an = StabilityOracle::new(cone.netlist().clone(), &topo_arrivals, SatAlg::new())?;
    for (i, list) in lists.iter().enumerate() {
        // Relax pin i alone, others pinned at TOPOLOGICAL (the fixed
        // reference scenario — each step here is individually valid).
        for &l in &list[1..] {
            let mut candidate = topo.clone();
            candidate[i] = l;
            let arrivals: Vec<Time> = candidate.iter().map(|&d| -d).collect();
            an.set_arrivals(&arrivals);
            if !an.is_stable_at(cone_out, Time::ZERO) {
                break;
            }
            assembled[i] = l;
        }
    }
    // NO joint validation — that is the bug being demonstrated.
    Ok(TimingModel::from_tuples(vec![TimingTuple::new(
        cone.expand(&assembled),
    )]))
}

/// Evidence that a model underapproximates: an arrival condition where
/// the model claims the output stable strictly before the flat XBD0
/// arrival.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Underapproximation {
    /// The arrival condition (per primary input of the module).
    pub arrivals: Vec<Time>,
    /// What the model claims.
    pub claimed: Time,
    /// The true functional arrival.
    pub actual: Time,
}

/// Checks whether `model` underapproximates `output`'s delay at the
/// arrival condition the model itself implies (inputs at the negated
/// tuple entries), and returns the witness if so.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn find_underapproximation(
    netlist: &Netlist,
    output: NetId,
    model: &TimingModel,
) -> Result<Option<Underapproximation>, NetlistError> {
    for tuple in model.tuples() {
        let arrivals: Vec<Time> = tuple.delays().iter().map(|&d| -d).collect();
        let claimed = model.stable_time(&arrivals); // ≤ 0 by construction
        let mut an = DelayAnalyzer::new_sat(netlist, &arrivals)?;
        let actual = an.output_arrival(output);
        if actual > claimed {
            return Ok(Some(Underapproximation {
                arrivals,
                claimed,
                actual,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::{characterize_module, AnalysisConfig};
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};

    /// On the carry-skip block the naive model happens to coincide with
    /// the sound one (only one pin is relaxable), so no witness exists
    /// there — the pitfall needs pin interaction.
    #[test]
    fn carry_skip_block_is_benign() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let naive =
            independent_relaxation_model(&OutputCone::new(&nl, c_out).unwrap(), 32).unwrap();
        assert!(find_underapproximation(&nl, c_out, &naive)
            .unwrap()
            .is_none());
    }

    /// The demonstration the paper alludes to: searching small random
    /// circuits finds one where the independently-assembled model
    /// claims stability the circuit does not have — while the sound
    /// characterizer's model never does.
    #[test]
    fn search_finds_unsound_instance() {
        let mut found = false;
        for seed in 0..200u64 {
            let spec = RandomCircuitSpec {
                inputs: 5,
                gates: 14,
                seed,
                locality: 6,
                global_fanin_prob: 0.3,
                mix: GateMix::NandHeavy,
            };
            let nl = random_circuit("pitfall", spec);
            let sound_models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
            for (k, &out) in nl.outputs().iter().enumerate() {
                let cone = OutputCone::new(&nl, out).unwrap();
                let naive = independent_relaxation_model(&cone, 16).unwrap();
                // The sound model never underapproximates…
                assert!(
                    find_underapproximation(&nl, out, &sound_models[k])
                        .unwrap()
                        .is_none(),
                    "sound model unsound on seed {seed} output {k}!"
                );
                // …the naive one eventually does.
                if let Some(w) = find_underapproximation(&nl, out, &naive).unwrap() {
                    assert!(w.actual > w.claimed);
                    found = true;
                }
            }
            if found {
                break;
            }
        }
        assert!(
            found,
            "no underapproximation found in 200 seeds — pitfall demo broken"
        );
    }
}
