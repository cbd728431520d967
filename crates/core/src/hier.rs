//! The two-step hierarchical analysis (Section 3 of the paper).
//!
//! Step 1 characterizes every *distinct* leaf module once into a
//! [`ModuleTiming`] (shared by all its instances — the source of the
//! large CPU savings on regular circuits like the carry-skip adders of
//! Table 1). Step 2 visits the instances of the top-level composite in
//! topological order, propagating arrival times through each instance
//! with the min–max evaluation of its output models.
//!
//! Theorem 1: the result is a conservative approximation of the flat
//! XBD0 delay — never optimistic — and at least as accurate as
//! hierarchical topological analysis. The integration test-suite checks
//! both bounds on every workload.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;
use std::time::Instant;

use hfta_fta::{AnalysisConfig, StabilityStats};
use hfta_modeldb::ModelDbStats;
use hfta_netlist::{Composite, Design, NetlistError, Time};
use hfta_sched::Scheduler;
use hfta_trace::Value;

use crate::models::{depth1_top, micros_since, ModelTable};
use crate::module_timing::ModuleTiming;

/// Work counters for the two-step analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HierStats {
    /// Distinct leaf modules characterized (cache misses).
    pub modules_characterized: u64,
    /// Degraded models the analysis propagated through — wholly
    /// topological ones (the analysis deadline passed before the module
    /// was characterized) or partly topological ones (the per-query
    /// budget interrupted some outputs). A degraded model is kept until
    /// the budget changes. See [`HierAnalyzer::degraded_modules`] for
    /// the names.
    pub modules_degraded: u64,
    /// Instances propagated through.
    pub instances_propagated: u64,
    /// Modules whose every output was served by the structural
    /// signature cache from another module's characterization — the
    /// module name is effectively an alias (see
    /// [`HierAnalyzer::sig_aliases`]).
    pub modules_aliased: u64,
    /// Stability/solver work of all characterizations (zero for
    /// topological models and installed black-box abstractions).
    /// Includes the `cone_sig_hits`/`cone_sig_misses` counters of the
    /// structural signature cache.
    pub stability: StabilityStats,
}

/// Result of a hierarchical timing analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct HierAnalysis {
    /// Arrival time of every top-level net (indexed like the
    /// composite's nets).
    pub net_arrivals: Vec<Time>,
    /// Arrival times of the primary outputs, in output order.
    pub output_arrivals: Vec<Time>,
    /// The estimated circuit delay: the latest output arrival.
    pub delay: Time,
    /// Work counters.
    pub stats: HierStats,
}

/// The two-step hierarchical analyzer.
///
/// # Example
///
/// ```
/// use hfta_core::{AnalysisConfig, HierAnalyzer};
/// use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = carry_skip_adder(4, 2, CsaDelays::default());
/// let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
/// let analysis = hier.analyze(&vec![Time::ZERO; 9])?;
/// // The paper's Section 4 example: c4 arrives at 10.
/// assert_eq!(*analysis.output_arrivals.last().expect("c4"), Time::new(10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HierAnalyzer<'a> {
    design: &'a Design,
    top: &'a Composite,
    /// Step 1: every leaf model, filled by the table's one schedule.
    table: ModelTable,
    /// Wall-clock of step 2.
    propagate_micros: u64,
}

impl<'a> HierAnalyzer<'a> {
    /// Creates an analyzer for module `top` of `design` under
    /// `config`: model source, characterization options and budget,
    /// thread count and pool, trace sink and model databases all come
    /// from it.
    ///
    /// The analysis requires the paper's depth-1 setting: `top` must be
    /// a composite whose instances all reference leaf modules.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] if `top` is missing, is not a
    /// composite, or instantiates non-leaf modules; plus any design
    /// validation error and [`NetlistError::Io`] when the emit model
    /// database cannot be created.
    pub fn with_config(
        design: &'a Design,
        top: &str,
        config: &AnalysisConfig,
    ) -> Result<HierAnalyzer<'a>, NetlistError> {
        Ok(HierAnalyzer {
            design,
            top: depth1_top(design, top)?,
            table: ModelTable::new(config)?,
            propagate_micros: 0,
        })
    }

    /// Counters of the attached model-database handles, merged across
    /// the read and emit sides (all zero when no database is
    /// attached). Hit/miss totals also flow into
    /// [`StabilityStats::model_db_hits`]/[`StabilityStats::model_db_misses`].
    #[must_use]
    pub fn model_db_stats(&self) -> ModelDbStats {
        self.table.db_stats()
    }

    /// The worker pool characterization runs on, if one exists yet
    /// (seated in the config or created by the first characterization
    /// with more than one task).
    #[must_use]
    pub fn scheduler_handle(&self) -> Option<&Scheduler> {
        self.table.pool()
    }

    /// Stability/solver work accumulated by all characterizations so
    /// far.
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut s = self.table.total().stability;
        s.wall.propagate_micros = self.propagate_micros;
        s
    }

    /// Modules whose characterization was degraded, with the reason:
    /// `"deadline"` (the analysis deadline expired before the module
    /// was characterized — its model is wholly topological) or
    /// `"budget"` (the per-query budget interrupted some outputs —
    /// those outputs fell back to their topological tuples).
    #[must_use]
    pub fn degraded_modules(&self) -> &[(Arc<str>, &'static str)] {
        self.table.degraded()
    }

    /// `(alias, owner)` pairs recorded by the structural signature
    /// cache: every output model of `alias` was replayed from `owner`'s
    /// characterization, so the alias name cost no solver work of its
    /// own.
    #[must_use]
    pub fn sig_aliases(&self) -> &[(Arc<str>, Arc<str>)] {
        self.table.aliases()
    }

    /// Step 1 for all distinct leaf modules referenced by the top
    /// composite. [`HierAnalyzer::analyze`] calls this lazily; calling
    /// it eagerly separates characterization cost from propagation cost
    /// (useful for the paper's "analyze the same circuit under many
    /// arrival-time conditions" scenario, Section 3.3).
    ///
    /// Modules missing from the table are characterized in signature
    /// groups (leaves sharing a cone signature run together, in name
    /// order), inline or on the pool per [`AnalysisConfig::threads`];
    /// the thread count changes nothing but the wall time.
    ///
    /// # Errors
    ///
    /// Returns the first characterization error.
    pub fn characterize_all(&mut self) -> Result<(), NetlistError> {
        let modules = self.top.instances().iter().map(|i| i.module.as_str());
        self.table.ensure(self.design, modules).map(|_| ())
    }

    /// The (cached) timing abstraction of a leaf module.
    ///
    /// # Errors
    ///
    /// Returns characterization errors, and [`NetlistError::Unknown`]
    /// if `name` is not a leaf of the design.
    pub fn module_timing(&mut self, name: &str) -> Result<&ModuleTiming, NetlistError> {
        self.table.ensure(self.design, [name])?;
        Ok(self.table.model(name).expect("ensured above"))
    }

    /// Injects a pre-built abstraction (e.g. a black-box IP model
    /// loaded from text), bypassing characterization for that module.
    pub fn install_model(&mut self, timing: ModuleTiming) {
        self.table.install(timing);
    }

    /// Step 2: propagates the given primary-input arrivals through the
    /// instance DAG.
    ///
    /// # Errors
    ///
    /// Returns characterization or composite-ordering errors.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&mut self, pi_arrivals: &[Time]) -> Result<HierAnalysis, NetlistError> {
        self.characterize_all()?;
        let trace = &self.table.config().trace;
        if trace.is_enabled() {
            let s = self.stability_stats();
            let mut tracer = trace.tracer();
            tracer.event(
                "shared_solver_stats",
                vec![
                    ("domains_built", Value::from(s.domains_built)),
                    ("clauses_subsumed", Value::from(s.clauses_subsumed)),
                    ("learnts_imported", Value::from(s.learnts_imported)),
                ],
            );
            trace.absorb(tracer);
        }
        let t0 = Instant::now();
        let result = self.table.propagate(self.top, pi_arrivals)?;
        self.propagate_micros += micros_since(t0);
        Ok(HierAnalysis {
            stats: HierStats {
                modules_characterized: self.table.total().characterized,
                modules_aliased: self.table.aliases().len() as u64,
                stability: self.stability_stats(),
                ..result.stats
            },
            ..result
        })
    }
}

/// Pure step-2 propagation given a complete model table.
///
/// # Errors
///
/// Returns [`NetlistError::Unknown`] if a module's model is missing and
/// composite-ordering errors.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the composite's input
/// count.
pub fn propagate<K, S>(
    top: &Composite,
    models: &HashMap<K, ModuleTiming, S>,
    pi_arrivals: &[Time],
) -> Result<HierAnalysis, NetlistError>
where
    K: Borrow<str> + Eq + Hash,
    S: BuildHasher,
{
    assert_eq!(
        pi_arrivals.len(),
        top.inputs().len(),
        "arrival vector length mismatch"
    );
    let mut arrivals = vec![Time::NEG_INF; top.net_count()];
    for (k, &pi) in top.inputs().iter().enumerate() {
        arrivals[pi.index()] = pi_arrivals[k];
    }
    let order = top.instance_topo_order()?;
    let mut propagated = 0u64;
    for idx in order {
        let inst = &top.instances()[idx];
        let timing = models
            .get(inst.module.as_str())
            .ok_or_else(|| NetlistError::Unknown {
                what: "timing model",
                name: inst.module.clone(),
            })?;
        let in_arr: Vec<Time> = inst.inputs.iter().map(|n| arrivals[n.index()]).collect();
        let out_times = timing.output_stable_times(&in_arr);
        for (&net, time) in inst.outputs.iter().zip(out_times) {
            arrivals[net.index()] = time;
        }
        propagated += 1;
    }
    let output_arrivals: Vec<Time> = top.outputs().iter().map(|&n| arrivals[n.index()]).collect();
    let delay = output_arrivals
        .iter()
        .copied()
        .fold(Time::NEG_INF, Time::max);
    Ok(HierAnalysis {
        net_arrivals: arrivals,
        output_arrivals,
        delay,
        stats: HierStats {
            modules_characterized: 0,
            modules_degraded: 0,
            instances_propagated: propagated,
            modules_aliased: 0,
            stability: StabilityStats::default(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelSource;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// The full Section 4 walkthrough: the 4-bit cascade of two 2-bit
    /// blocks, all inputs at 0.
    #[test]
    fn section4_example() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut hier =
            HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default()).unwrap();
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        let top = design.composite("csa4.2").unwrap();
        // Intermediate carry (the paper's tmp) arrives at 8.
        let tmp = top.find_net("c2").unwrap();
        assert_eq!(analysis.net_arrivals[tmp.index()], t(8));
        // c4 arrives at 10, matching flat analysis.
        let c4 = top.find_net("c4").unwrap();
        assert_eq!(analysis.net_arrivals[c4.index()], t(10));
        // One distinct module characterized, two instances propagated.
        assert_eq!(analysis.stats.modules_characterized, 1);
        assert_eq!(analysis.stats.instances_propagated, 2);
    }

    /// Parametric claim: the last carry of an n-block cascade arrives
    /// at 8 + 2(n−1) — "parametric analysis like this is not possible
    /// with flat analysis".
    #[test]
    fn parametric_carry_formula() {
        for blocks in 1usize..=8 {
            let n = blocks * 2;
            let name = format!("csa{n}.2");
            let design = carry_skip_adder(n, 2, CsaDelays::default());
            let mut hier =
                HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default()).unwrap();
            let analysis = hier.analyze(&vec![t(0); 2 * n + 1]).unwrap();
            let top = design.composite(&name).unwrap();
            let carry = top.find_net(&format!("c{n}")).unwrap();
            assert_eq!(
                analysis.net_arrivals[carry.index()],
                t(8 + 2 * (blocks as i64 - 1)),
                "blocks={blocks}"
            );
        }
    }

    /// Topological models give the classic (pessimistic) hierarchical
    /// result.
    #[test]
    fn topological_models_are_pessimistic() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let config = AnalysisConfig::default().with_source(ModelSource::Topological);
        let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &config).unwrap();
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        let top = design.composite("csa4.2").unwrap();
        let c4 = top.find_net("c4").unwrap();
        // Topological: c2 at 8, then 6 more through the second block.
        assert_eq!(analysis.net_arrivals[c4.index()], t(14));
    }

    /// Installing a black-box model skips characterization entirely.
    #[test]
    fn installed_model_bypasses_characterization() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let block = design.leaf("csa_block2").unwrap();
        let timing = ModuleTiming::characterize(block, &AnalysisConfig::default()).unwrap();
        let mut hier =
            HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default()).unwrap();
        hier.install_model(timing);
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        assert_eq!(analysis.stats.modules_characterized, 0);
        assert_eq!(analysis.delay, t(12));
    }

    #[test]
    fn non_composite_top_rejected() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let err = HierAnalyzer::with_config(&design, "csa_block2", &AnalysisConfig::default())
            .unwrap_err();
        assert!(matches!(err, NetlistError::Unknown { .. }));
        let err =
            HierAnalyzer::with_config(&design, "ghost", &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, NetlistError::Unknown { .. }));
    }

    /// Different arrival-time conditions reuse the characterization
    /// (Section 3.3, second scenario).
    #[test]
    fn characterization_shared_across_arrival_conditions() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut hier =
            HierAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default()).unwrap();
        let a1 = hier.analyze(&[t(0); 17]).unwrap();
        let mut skewed = vec![t(0); 17];
        skewed[0] = t(5);
        let a2 = hier.analyze(&skewed).unwrap();
        assert_eq!(a1.stats.modules_characterized, 1);
        assert_eq!(a2.stats.modules_characterized, 1, "no re-characterization");
        assert!(a2.delay >= a1.delay - t(100)); // both computed fine
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::ModelSource;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::{Composite, Design};

    /// A design with several distinct block flavours, to give the
    /// parallel characterizer real fan-out.
    fn multi_flavour_design() -> Design {
        let mut design = Design::new();
        let flavours = [
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
        ];
        let mut top = Composite::new("mixed");
        let mut carry = top.add_input("c_in");
        let mut outputs_so_far = 0usize;
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
            outputs_so_far += 2;
            carry = c;
        }
        top.mark_output(carry);
        let _ = outputs_so_far;
        design.add_composite(top).unwrap();
        design
    }

    #[test]
    fn parallel_equals_serial() {
        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];

        let mut serial =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let s = serial.analyze(&arrivals).unwrap();

        // clamp off: the pool must really run multi-worker even on
        // machines with fewer cores than requested threads.
        let config = AnalysisConfig::default()
            .with_threads(4)
            .with_thread_clamp(false);
        let mut parallel = HierAnalyzer::with_config(&design, "mixed", &config).unwrap();
        parallel.characterize_all().unwrap();
        let p = parallel.analyze(&arrivals).unwrap();

        assert_eq!(s, p, "the whole analysis, counters included");
        assert_eq!(serial.sig_aliases(), parallel.sig_aliases());
        assert_eq!(p.stats.modules_characterized, 4);
        let pool = parallel
            .scheduler_handle()
            .expect("several groups ran on a pool");
        assert_eq!(pool.stats().batches, 1);
    }

    /// An already-expired analysis deadline degrades every module to
    /// its topological model — same answer as asking for topological
    /// models outright, with the degradation recorded.
    #[test]
    fn expired_deadline_degrades_all_modules() {
        use hfta_fta::SolveBudget;

        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];
        let config = AnalysisConfig::default()
            .with_threads(4)
            .with_budget(SolveBudget::default().with_deadline(std::time::Instant::now()));
        let mut capped = HierAnalyzer::with_config(&design, "mixed", &config).unwrap();
        capped.characterize_all().unwrap();
        let c = capped.analyze(&arrivals).unwrap();
        assert_eq!(c.stats.modules_degraded, 4);
        assert!(c.stats.stability.degraded > 0);
        assert!(capped
            .degraded_modules()
            .iter()
            .all(|(_, why)| *why == "deadline"));

        let topo_config = AnalysisConfig::default().with_source(ModelSource::Topological);
        let mut topo = HierAnalyzer::with_config(&design, "mixed", &topo_config).unwrap();
        let t = topo.analyze(&arrivals).unwrap();
        assert_eq!(c.delay, t.delay);
        assert_eq!(c.output_arrivals, t.output_arrivals);
        // Topological models themselves are never "degraded".
        assert_eq!(t.stats.modules_degraded, 0);

        // And the functional result is at least as sharp.
        let mut full =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let f = full.analyze(&arrivals).unwrap();
        assert!(f.delay <= c.delay);
        assert_eq!(f.stats.modules_degraded, 0);
    }

    /// A zero-conflict per-query budget degrades outputs (not whole
    /// modules) but keeps the result sandwiched.
    #[test]
    fn zero_conflict_budget_degrades_outputs() {
        use hfta_fta::SolveBudget;

        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];
        let config =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let mut capped = HierAnalyzer::with_config(&design, "mixed", &config).unwrap();
        let c = capped.analyze(&arrivals).unwrap();
        assert!(c.stats.stability.degraded > 0);
        assert!(c.stats.modules_degraded > 0);
        assert!(capped
            .degraded_modules()
            .iter()
            .all(|(_, why)| *why == "budget"));

        let mut full =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let f = full.analyze(&arrivals).unwrap();
        let topo_config = AnalysisConfig::default().with_source(ModelSource::Topological);
        let mut topo = HierAnalyzer::with_config(&design, "mixed", &topo_config).unwrap();
        let t = topo.analyze(&arrivals).unwrap();
        assert!(c.delay >= f.delay);
        assert!(c.delay <= t.delay);
    }

    /// A cascade of structurally identical blocks under distinct
    /// module names — shareable only through cone signatures.
    fn replicated_design(copies: usize) -> Design {
        let mut design = Design::new();
        let mut top = Composite::new("rep");
        let mut carry = top.add_input("c_in");
        for k in 0..copies {
            let mut block = carry_skip_block(2, CsaDelays::default());
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

    /// Signature sharing must not perturb results whichever schedule
    /// produces the models: characterization of a replicated design on
    /// four workers is bit-identical to the serial run, per module and
    /// for the whole analysis, counters, aliases and degradation
    /// records included.
    #[test]
    fn parallel_signature_sharing_equals_serial() {
        let copies = 4usize;
        let design = replicated_design(copies);
        let arrivals = vec![Time::ZERO; 4 * copies + 1];

        let mut serial =
            HierAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let s = serial.analyze(&arrivals).unwrap();

        let config = AnalysisConfig::default()
            .with_threads(4)
            .with_thread_clamp(false);
        let mut parallel = HierAnalyzer::with_config(&design, "rep", &config).unwrap();
        parallel.characterize_all().unwrap();
        let p = parallel.analyze(&arrivals).unwrap();

        assert_eq!(s, p, "the whole analysis, counters included");
        assert_eq!(serial.sig_aliases(), parallel.sig_aliases());
        assert_eq!(serial.degraded_modules(), parallel.degraded_modules());
        for k in 0..copies {
            let name = format!("blk{k}");
            let sm = serial.module_timing(&name).unwrap().clone();
            let pm = parallel.module_timing(&name).unwrap().clone();
            assert_eq!(sm, pm, "models diverged for {name}");
        }
        // Both share one characterization across all copies.
        assert_eq!(s.stats.modules_aliased, copies as u64 - 1);
    }

    #[test]
    fn parallel_skips_cached_modules() {
        let design = multi_flavour_design();
        let config = AnalysisConfig::default().with_threads(2);
        let mut an = HierAnalyzer::with_config(&design, "mixed", &config).unwrap();
        an.characterize_all().unwrap();
        // Second call is a no-op.
        an.characterize_all().unwrap();
        let analysis = an.analyze(&[Time::ZERO; 17]).unwrap();
        assert_eq!(analysis.stats.modules_characterized, 4);
    }

    /// Tracing is an observer: with a sink installed the analysis stays
    /// bit-identical (serial and parallel), and the trace carries the
    /// promised `characterize_module` spans and `module_alias` events,
    /// in the same record sequence at every thread count.
    #[test]
    fn traced_hier_is_bit_identical_and_records() {
        use hfta_trace::TraceSink;

        let copies = 4usize;
        let design = replicated_design(copies);
        let arrivals = vec![Time::ZERO; 4 * copies + 1];

        let mut plain =
            HierAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let want = plain.analyze(&arrivals).unwrap();

        let mut sequences = Vec::new();
        for threads in [1usize, 4] {
            let sink = TraceSink::enabled();
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_thread_clamp(false)
                .with_trace(sink.clone());
            let mut traced = HierAnalyzer::with_config(&design, "rep", &config).unwrap();
            let got = traced.analyze(&arrivals).unwrap();
            assert_eq!(got.delay, want.delay, "threads={threads}");
            assert_eq!(got.output_arrivals, want.output_arrivals);
            let trace = sink.drain();
            let names: Vec<&str> = trace.records().iter().map(|r| r.name).collect();
            assert!(
                names
                    .iter()
                    .filter(|n| **n == "characterize_module")
                    .count()
                    >= 1,
                "threads={threads}: {names:?}"
            );
            // Sharing replays copies−1 modules from the first
            // characterization — each records an alias event.
            assert_eq!(
                names.iter().filter(|n| **n == "module_alias").count(),
                copies - 1,
                "threads={threads}"
            );
            sequences.push(names);
        }
        assert_eq!(
            sequences[0], sequences[1],
            "record names at 1 and 4 threads"
        );
    }
}
