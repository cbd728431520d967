//! Incremental re-analysis (Section 3.3).
//!
//! Once a leaf module's timing model is computed it stays valid no
//! matter what changes elsewhere, so a module edit only requires (1)
//! re-characterizing the edited module and (2) re-running the cheap
//! top-level propagation. [`IncrementalAnalyzer`] owns the design and a
//! leaf-model table to deliver exactly that contract — compare with
//! flat analysis, where any edit invalidates everything.
//!
//! The table is the one [`crate::HierAnalyzer`] uses, with the same
//! schedule: the leaves a call lacks are characterized in signature
//! groups, inline or on the pool per [`AnalysisConfig::threads`], and
//! the thread count changes nothing but the wall time. Three rules keep
//! it exact:
//!
//! * **An edit evicts exactly the edited module.** A replacement whose
//!   content hash differs drops that module's model; every other model,
//!   and the structural signature cache, stay valid.
//! * **A degraded model lives until the budget changes.** A model a
//!   finite [`SolveBudget`] degraded is an artifact of that budget: it
//!   answers later calls under the same budget (each result counts it
//!   in [`HierStats::modules_degraded`]),
//!   [`IncrementalAnalyzer::set_budget`] evicts it, it never enters the
//!   signature cache or the persistent database, and
//!   [`IncrementalAnalyzer::warm_snapshot`] refuses a session holding
//!   one.
//! * **Per-run vs. session counters are distinct.** The
//!   [`HierStats`] on each [`HierAnalysis`] report what *that call*
//!   did; [`IncrementalAnalyzer::characterizations`] is the session
//!   total the incremental contract keeps small.

use std::collections::HashMap;

use hfta_fta::{AnalysisConfig, SolveBudget, StabilityStats};
use hfta_modeldb::ModelDbStats;
use hfta_netlist::{Composite, Design, Netlist, NetlistError, Time};

use crate::hier::{propagate, HierAnalysis, HierStats};
use crate::models::{depth1_top, ModelTable};
use crate::module_timing::ModuleTiming;

/// An immutable snapshot of a fully-warm analysis session: the top
/// composite plus every instantiated leaf's (undegraded, cached)
/// timing model, detached from the analyzer that built it.
///
/// Once characterization has happened, a hierarchical query is nothing
/// but the cheap top-level propagation — a pure function of the models
/// and the arrival vector. A snapshot captures exactly that function,
/// so any number of threads can answer queries concurrently while the
/// owning [`IncrementalAnalyzer`] stays free for mutations (edits,
/// re-characterization). [`WarmSnapshot::analyze`] is bit-identical to
/// [`IncrementalAnalyzer::analyze`] on the warm session it was taken
/// from: both run the same [`propagate`] over the same models.
#[derive(Clone, PartialEq, Debug)]
pub struct WarmSnapshot {
    composite: Composite,
    models: HashMap<String, ModuleTiming>,
}

impl WarmSnapshot {
    /// Propagates `pi_arrivals` through the snapshotted models. The
    /// returned stats report zero characterizations — by construction
    /// nothing is characterized here.
    ///
    /// # Errors
    ///
    /// Returns propagation errors (e.g. arity mismatches), which a
    /// snapshot of a validated session cannot produce in practice.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&self, pi_arrivals: &[Time]) -> Result<HierAnalysis, NetlistError> {
        propagate(&self.composite, &self.models, pi_arrivals)
    }

    /// The snapshotted top-level composite.
    #[must_use]
    pub fn composite(&self) -> &Composite {
        &self.composite
    }
}

/// A session of repeated analyses over an evolving design.
///
/// # Example
///
/// ```
/// use hfta_core::{AnalysisConfig, IncrementalAnalyzer};
/// use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = carry_skip_adder(8, 2, CsaDelays::default());
/// let mut session = IncrementalAnalyzer::with_config(design, "csa8.2", &AnalysisConfig::default())?;
/// let first = session.analyze(&vec![Time::ZERO; 17])?;
/// let again = session.analyze(&vec![Time::ZERO; 17])?;
/// assert_eq!(first.delay, again.delay);
/// assert_eq!(session.characterizations(), 1); // cache hit on re-run
/// assert_eq!(again.stats.modules_characterized, 0); // per-run stats
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrementalAnalyzer {
    design: Design,
    top: String,
    /// Every leaf model of the session, with the configuration it is
    /// characterized under (the budget changes via
    /// [`Self::set_budget`]).
    table: ModelTable,
}

impl IncrementalAnalyzer {
    /// Creates a session for module `top` of `design` (depth-1
    /// hierarchy) under `config`, opening any model databases named in
    /// [`AnalysisConfig::model_db`](hfta_fta::ModelDbSpec).
    ///
    /// # Errors
    ///
    /// Returns validation errors, [`NetlistError::Unknown`] if `top` is
    /// missing, not a composite, or instantiates non-leaf modules, and
    /// [`NetlistError::Io`] when the emit directory cannot be created.
    pub fn with_config(
        design: Design,
        top: impl Into<String>,
        config: &AnalysisConfig,
    ) -> Result<IncrementalAnalyzer, NetlistError> {
        let top = top.into();
        depth1_top(&design, &top)?;
        Ok(IncrementalAnalyzer {
            design,
            top,
            table: ModelTable::new(config)?,
        })
    }

    /// The current design.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Total characterizations performed across the session — the
    /// number the incremental contract keeps small. Per-run counts are
    /// in each result's [`HierStats::modules_characterized`].
    #[must_use]
    pub fn characterizations(&self) -> u64 {
        self.table.total().characterized
    }

    /// Cumulative stability/solver work across the session (per-run
    /// figures are in each result's [`HierStats::stability`]).
    #[must_use]
    pub fn session_stability(&self) -> &StabilityStats {
        &self.table.total().stability
    }

    /// Counters of the attached model-database handles, merged across
    /// the read and emit sides (all zero when no database is attached).
    #[must_use]
    pub fn model_db_stats(&self) -> ModelDbStats {
        self.table.db_stats()
    }

    /// Changes the per-query solve budget for subsequent analyses and
    /// evicts every degraded model. The undegraded models, the
    /// structural signature cache and the persistent database only ever
    /// hold budget-independent results, so they survive.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.table.set_budget(budget);
    }

    /// Takes a read-only [`WarmSnapshot`] of the session, or `None`
    /// unless **every** instantiated module has an undegraded model
    /// (i.e. the session is fully warm — a cold session would have to
    /// characterize, which a snapshot cannot, and a degraded model
    /// answers only for the budget that made it).
    ///
    /// The snapshot is detached: later edits to this analyzer do not
    /// invalidate it (it keeps answering for the design it captured),
    /// so callers that must track edits should re-snapshot after every
    /// [`Self::replace_module`].
    #[must_use]
    pub fn warm_snapshot(&self) -> Option<WarmSnapshot> {
        if !self.table.degraded().is_empty() {
            return None;
        }
        let composite = self
            .design
            .composite(&self.top)
            .expect("validated in constructor");
        let mut models: HashMap<String, ModuleTiming> = HashMap::new();
        for inst in composite.instances() {
            if !models.contains_key(&inst.module) {
                let m = self.table.model(&inst.module)?;
                models.insert(inst.module.clone(), m.clone());
            }
        }
        Some(WarmSnapshot {
            composite: composite.clone(),
            models,
        })
    }

    /// Replaces the body of a leaf module (same name, same ports). Its
    /// stale model is re-characterized on the next [`Self::analyze`]
    /// (unless the new body hashes like the old one); all other
    /// modules' models stay valid.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] if no leaf of that name
    /// exists.
    pub fn replace_module(&mut self, netlist: Netlist) -> Result<(), NetlistError> {
        let name = netlist.name().to_string();
        let old = self.design.leaf(&name).map(Netlist::content_hash);
        let edited = old != Some(netlist.content_hash());
        self.design.replace_leaf(netlist)?;
        if edited {
            self.table.evict(&name);
        }
        Ok(())
    }

    /// Analyzes the design under the given top-level arrivals, reusing
    /// every model the table holds.
    ///
    /// The returned [`HierStats`] describe **this call only**; use
    /// [`Self::characterizations`] for the session total.
    ///
    /// # Errors
    ///
    /// Returns characterization or propagation errors.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&mut self, pi_arrivals: &[Time]) -> Result<HierAnalysis, NetlistError> {
        let composite = self
            .design
            .composite(&self.top)
            .expect("validated in constructor");
        let modules = composite.instances().iter().map(|i| i.module.as_str());
        let work = self.table.ensure(&self.design, modules)?;
        let result = self.table.propagate(composite, pi_arrivals)?;
        Ok(HierAnalysis {
            stats: HierStats {
                modules_characterized: work.characterized,
                modules_aliased: work.aliased,
                stability: work.stability,
                ..result.stats
            },
            ..result
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn repeated_analysis_hits_cache() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa8.2", &AnalysisConfig::default()).unwrap();
        let a = session.analyze(&[t(0); 17]).unwrap();
        let b = session.analyze(&[t(0); 17]).unwrap();
        assert_eq!(a.delay, b.delay);
        assert_eq!(session.characterizations(), 1);
        // A different arrival condition also reuses the models.
        let mut skewed = vec![t(0); 17];
        skewed[0] = t(9);
        let _ = session.analyze(&skewed).unwrap();
        assert_eq!(session.characterizations(), 1);
    }

    #[test]
    fn stats_are_per_run_not_cumulative() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa8.2", &AnalysisConfig::default()).unwrap();
        let a = session.analyze(&[t(0); 17]).unwrap();
        assert_eq!(a.stats.modules_characterized, 1);
        let b = session.analyze(&[t(0); 17]).unwrap();
        // Second run does no characterization work — its stats say so,
        // while the session accessor keeps the cumulative count.
        assert_eq!(b.stats.modules_characterized, 0);
        assert_eq!(b.stats.stability, StabilityStats::default());
        assert_eq!(session.characterizations(), 1);
        assert_eq!(*session.session_stability(), a.stats.stability);
    }

    #[test]
    fn module_edit_recharacterizes_only_that_module() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa4.2", &AnalysisConfig::default()).unwrap();
        let before = session.analyze(&[t(0); 9]).unwrap();
        assert_eq!(session.characterizations(), 1);

        // Edit: a slower block (XOR/MUX delay 3 instead of 2).
        let slower = CsaDelays {
            and_or: 1,
            xor: 3,
            mux: 3,
        };
        let mut block = carry_skip_block(2, slower);
        block.set_name("csa_block2");
        session.replace_module(block).unwrap();
        let after = session.analyze(&[t(0); 9]).unwrap();
        assert_eq!(
            session.characterizations(),
            2,
            "exactly one re-characterization"
        );
        assert_eq!(after.stats.modules_characterized, 1, "per-run count");
        assert!(after.delay > before.delay);
    }

    #[test]
    fn unchanged_edit_is_free() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa4.2", &AnalysisConfig::default()).unwrap();
        let _ = session.analyze(&[t(0); 9]).unwrap();
        // "Replace" with an identical body: the content hash matches,
        // so no recharacterization happens.
        let mut block = carry_skip_block(2, CsaDelays::default());
        block.set_name("csa_block2");
        session.replace_module(block).unwrap();
        let _ = session.analyze(&[t(0); 9]).unwrap();
        assert_eq!(session.characterizations(), 1);
    }

    /// A depth-1 chain of 2-bit blocks. With one flavour the blocks
    /// are structurally identical (shareable only through cone
    /// signatures); with several, each has genuinely distinct delays.
    fn block_chain(flavours: &[CsaDelays], top_name: &str) -> Design {
        use hfta_netlist::Composite;
        let mut design = Design::new();
        let mut top = Composite::new(top_name);
        let mut carry = top.add_input("c_in");
        for (k, &d) in flavours.iter().enumerate() {
            let mut block = carry_skip_block(2, d);
            block.set_name(format!("blk{k}"));
            design.add_leaf(block).unwrap();
            let mut ins = vec![carry];
            for i in 0..2 {
                ins.push(top.add_input(format!("a{k}_{i}")));
                ins.push(top.add_input(format!("b{k}_{i}")));
            }
            let s0 = top.add_net(format!("s{k}_0"));
            let s1 = top.add_net(format!("s{k}_1"));
            let c = top.add_net(format!("c{k}"));
            top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &[s0, s1, c]);
            top.mark_output(s0);
            top.mark_output(s1);
            carry = c;
        }
        top.mark_output(carry);
        design.add_composite(top).unwrap();
        design
    }

    fn mixed_flavours() -> Vec<CsaDelays> {
        vec![
            CsaDelays {
                and_or: 1,
                xor: 2,
                mux: 2,
            },
            CsaDelays {
                and_or: 1,
                xor: 3,
                mux: 2,
            },
            CsaDelays {
                and_or: 2,
                xor: 2,
                mux: 3,
            },
            CsaDelays {
                and_or: 1,
                xor: 2,
                mux: 4,
            },
        ]
    }

    /// Regression: a budget-degraded model must not be cached. Before
    /// the fix, a budgeted first run poisoned the cache keyed only by
    /// content hash, and an unlimited second run silently replayed the
    /// degraded model instead of re-characterizing.
    #[test]
    fn budgeted_run_does_not_poison_unlimited_run() {
        let mkdesign = || block_chain(&mixed_flavours(), "mixed");
        let arrivals = vec![t(0); 17];

        let capped_config =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let mut session =
            IncrementalAnalyzer::with_config(mkdesign(), "mixed", &capped_config).unwrap();
        let capped = session.analyze(&arrivals).unwrap();
        assert!(
            capped.stats.modules_degraded > 0,
            "zero-conflict budget must degrade something for this test to bite"
        );

        // Lift the budget: every degraded module re-characterizes and
        // the result is bit-identical to a fresh unlimited session.
        session.set_budget(SolveBudget::default());
        let lifted = session.analyze(&arrivals).unwrap();
        assert_eq!(
            lifted.stats.modules_characterized, capped.stats.modules_degraded,
            "exactly the degraded modules re-characterize"
        );
        assert_eq!(lifted.stats.modules_degraded, 0);

        let mut fresh =
            IncrementalAnalyzer::with_config(mkdesign(), "mixed", &AnalysisConfig::default())
                .unwrap();
        let reference = fresh.analyze(&arrivals).unwrap();
        assert_eq!(lifted.delay, reference.delay);
        assert_eq!(lifted.output_arrivals, reference.output_arrivals);
        assert_eq!(lifted.net_arrivals, reference.net_arrivals);

        // And the exact models now in the cache are stable: a third
        // run is free.
        let third = session.analyze(&arrivals).unwrap();
        assert_eq!(third.stats.modules_characterized, 0);
    }

    /// Regression: the incremental path shares characterizations
    /// across isomorphic modules through the same structural signature
    /// cache as `HierAnalyzer` (it previously ignored it).
    #[test]
    fn sig_cache_is_shared_across_isomorphic_modules() {
        let copies = 4usize;
        let replicated = || block_chain(&vec![CsaDelays::default(); copies], "rep");
        let design = replicated();
        let arrivals = vec![t(0); 4 * copies + 1];
        let mut session =
            IncrementalAnalyzer::with_config(design, "rep", &AnalysisConfig::default()).unwrap();
        let a = session.analyze(&arrivals).unwrap();
        // Every copy counts as a characterization, but all after the
        // first replay from the signature cache: per-output hits for
        // the 3 outputs of each of the other copies.
        assert_eq!(a.stats.modules_characterized, copies as u64);
        assert_eq!(a.stats.modules_aliased, copies as u64 - 1);
        assert_eq!(a.stats.stability.cone_sig_hits, 3 * (copies as u64 - 1));

        // The result matches the one-copy-at-a-time reference analyzer.
        let design = replicated();
        let mut hier =
            crate::HierAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let h = hier.analyze(&arrivals).unwrap();
        assert_eq!(a.delay, h.delay);
        assert_eq!(a.output_arrivals, h.output_arrivals);
        assert_eq!(
            h.stats.stability.cone_sig_hits,
            a.stats.stability.cone_sig_hits
        );
    }

    /// A cold session over several leaves runs its characterization on
    /// a seated pool, and the pool changes nothing: the first run, an
    /// edit and the run after it all equal the serial session's.
    #[test]
    fn pooled_session_equals_serial_session() {
        let mkdesign = || block_chain(&mixed_flavours(), "mixed");
        let arrivals = vec![t(0); 17];
        let pool = crate::Scheduler::new(2);
        let pooled = AnalysisConfig::default()
            .with_threads(2)
            .with_scheduler(pool.clone());
        let run = |config: &AnalysisConfig| {
            let mut session =
                IncrementalAnalyzer::with_config(mkdesign(), "mixed", config).unwrap();
            let cold = session.analyze(&arrivals).unwrap();
            let mut block = carry_skip_block(2, mixed_flavours()[3]);
            block.set_name("blk1");
            session.replace_module(block).unwrap();
            let edited = session.analyze(&arrivals).unwrap();
            (cold, edited, *session.session_stability())
        };
        let serial = run(&AnalysisConfig::default());
        let got = run(&pooled);
        assert!(pool.stats().batches > 0, "{:?}", pool.stats());
        assert_eq!(got, serial);
        assert_eq!(got.1.stats.modules_characterized, 1);
    }

    /// A warm snapshot answers bit-identically to the session it came
    /// from, only exists once the session is fully warm, and keeps
    /// answering for the captured design after an edit.
    #[test]
    fn warm_snapshot_matches_session_and_tracks_warmth() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa4.2", &AnalysisConfig::default()).unwrap();
        assert!(
            session.warm_snapshot().is_none(),
            "cold session has no snapshot"
        );
        let warm = session.analyze(&[t(0); 9]).unwrap();
        let snap = session.warm_snapshot().expect("warm session snapshots");
        let mut arrivals = vec![t(0); 9];
        arrivals[0] = t(7);
        let via_session = session.analyze(&arrivals).unwrap();
        let via_snapshot = snap.analyze(&arrivals).unwrap();
        assert_eq!(via_session, via_snapshot, "snapshot == session, bitwise");
        assert_eq!(via_snapshot.stats.modules_characterized, 0);

        // Edit the design: the old snapshot still answers for the old
        // body; the analyzer only re-snapshots once warm again.
        let slower = CsaDelays {
            and_or: 1,
            xor: 3,
            mux: 3,
        };
        let mut block = carry_skip_block(2, slower);
        block.set_name("csa_block2");
        session.replace_module(block).unwrap();
        assert!(
            session.warm_snapshot().is_none(),
            "stale model: no snapshot until re-characterized"
        );
        assert_eq!(snap.analyze(&[t(0); 9]).unwrap().delay, warm.delay);
        let edited = session.analyze(&[t(0); 9]).unwrap();
        let resnap = session.warm_snapshot().expect("warm again");
        let via_resnap = resnap.analyze(&[t(0); 9]).unwrap();
        assert_eq!(via_resnap.net_arrivals, edited.net_arrivals);
        assert_eq!(via_resnap.output_arrivals, edited.output_arrivals);
        assert_eq!(via_resnap.delay, edited.delay);
    }

    #[test]
    fn replacing_unknown_module_fails() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut session =
            IncrementalAnalyzer::with_config(design, "csa4.2", &AnalysisConfig::default()).unwrap();
        let ghost = Netlist::new("ghost");
        assert!(session.replace_module(ghost).is_err());
    }
}
