//! Human-readable timing reports.
//!
//! [`TimingReport::generate`] runs topological and functional analysis
//! side by side and packages per-output arrivals, false-path flags,
//! slacks against a required time, and the topologically critical path
//! — the report a designer actually reads.

use std::fmt;

use hfta_netlist::{Netlist, NetlistError, Time};

use crate::boolalg::BoolAlg;
use crate::config::{solve_episode_fields, AnalysisConfig};
use crate::delay::DelayAnalyzer;
use crate::sta::TopoSta;
use crate::stability::StabilityStats;

/// Per-output entry of a [`TimingReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutputReport {
    /// Output net name.
    pub name: String,
    /// Topological arrival.
    pub topological: Time,
    /// Functional (XBD0) arrival.
    pub functional: Time,
    /// `true` when the functional arrival beats the topological one —
    /// the longest path to this output is false.
    pub has_false_path: bool,
    /// `true` when the analysis budget ran out on this output and its
    /// `functional` field is really the topological arrival (a sound
    /// upper bound). Always `false` without a budget.
    pub degraded: bool,
    /// Slack against the report's required time (functional arrival).
    pub slack: Time,
    /// The topologically critical path, as net names from a primary
    /// input to this output.
    pub critical_path: Vec<String>,
}

/// A complete timing report for one netlist under fixed arrivals.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimingReport {
    /// Module name.
    pub module: String,
    /// Required time used for slacks.
    pub required: Time,
    /// Per-output entries, in output order.
    pub outputs: Vec<OutputReport>,
    /// Topological circuit delay.
    pub circuit_topological: Time,
    /// Functional circuit delay.
    pub circuit_functional: Time,
}

impl TimingReport {
    /// Generates the report under one unified [`AnalysisConfig`]
    /// (budget and trace sink are honored; the other settings apply to
    /// the hierarchical engines). Slacks are computed against `required`
    /// (pass the clock constraint, or the functional circuit delay for
    /// a zero-worst-slack report). Also returns the stability/solver
    /// work the functional analysis cost.
    ///
    /// Outputs whose binary search exhausts the budget degrade to their
    /// topological arrival (sound upper bound) and are counted in
    /// [`StabilityStats::degraded`]. `AnalysisConfig::default()` (an
    /// unlimited budget, tracing off) reproduces the historical exact
    /// path bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn generate(
        netlist: &Netlist,
        pi_arrivals: &[Time],
        required: Time,
        config: &AnalysisConfig,
    ) -> Result<(TimingReport, StabilityStats), NetlistError> {
        let mut tracer = config.trace.tracer();
        let span = tracer.is_enabled().then(|| tracer.begin("timing_report"));
        let sta = TopoSta::new(netlist)?;
        let topo = sta.arrival_times(pi_arrivals);
        // One domain-restricted incremental instance answers every
        // output's probes; the budget only caps each probe.
        let mut an = DelayAnalyzer::new_sat_shared(netlist, pi_arrivals)?;
        an.set_budget(config.budget);
        if tracer.is_enabled() {
            an.alg_mut().set_episode_recording(true);
        }
        let mut outputs = Vec::with_capacity(netlist.outputs().len());
        let mut worst_topo = Time::NEG_INF;
        let mut worst_func = Time::NEG_INF;
        for &o in netlist.outputs() {
            let topological = topo[o.index()];
            let degraded_before = an.degraded_count();
            let functional = an.output_arrival(o);
            let degraded = an.degraded_count() > degraded_before;
            if tracer.is_enabled() {
                let episodes = an.alg_mut().take_episodes();
                let out_span = tracer.begin("output_arrival");
                for ep in &episodes {
                    tracer.event("sat_episode", solve_episode_fields(ep));
                }
                tracer.end_with(
                    out_span,
                    vec![
                        ("output", netlist.net_name(o).into()),
                        ("topological", topological.to_string().into()),
                        ("functional", functional.to_string().into()),
                        ("degraded", degraded.into()),
                    ],
                );
            }
            worst_topo = worst_topo.max(topological);
            worst_func = worst_func.max(functional);
            let critical_path = if topological.is_finite() {
                sta.critical_path(&topo, o)
                    .into_iter()
                    .map(|n| netlist.net_name(n).to_string())
                    .collect()
            } else {
                Vec::new()
            };
            outputs.push(OutputReport {
                name: netlist.net_name(o).to_string(),
                topological,
                functional,
                has_false_path: functional < topological,
                degraded,
                slack: if functional == Time::NEG_INF {
                    Time::POS_INF
                } else {
                    required - functional
                },
                critical_path,
            });
        }
        let report = TimingReport {
            module: netlist.name().to_string(),
            required,
            outputs,
            circuit_topological: worst_topo,
            circuit_functional: worst_func,
        };
        if let Some(span) = span {
            tracer.end_with(
                span,
                vec![
                    ("module", netlist.name().into()),
                    ("outputs", report.outputs.len().into()),
                ],
            );
        }
        config.trace.absorb(tracer);
        Ok((report, an.stats()))
    }

    /// Outputs sorted by ascending slack (most critical first).
    #[must_use]
    pub fn by_criticality(&self) -> Vec<&OutputReport> {
        let mut rows: Vec<&OutputReport> = self.outputs.iter().collect();
        rows.sort_by_key(|r| r.slack);
        rows
    }

    /// Number of outputs whose longest path is false.
    #[must_use]
    pub fn false_path_count(&self) -> usize {
        self.outputs.iter().filter(|r| r.has_false_path).count()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timing report for `{}` (required {})",
            self.module, self.required
        )?;
        writeln!(
            f,
            "{:<20} {:>8} {:>8} {:>8}  critical path (topological)",
            "output", "topo", "func", "slack"
        )?;
        for r in self.by_criticality() {
            writeln!(
                f,
                "{:<20} {:>8} {:>8} {:>8}  {}{}",
                r.name,
                r.topological,
                r.functional,
                r.slack,
                r.critical_path.join(" -> "),
                if r.degraded {
                    "   [degraded]"
                } else if r.has_false_path {
                    "   [false]"
                } else {
                    ""
                },
            )?;
        }
        writeln!(
            f,
            "circuit: topological {}, functional {} ({} outputs with false long paths)",
            self.circuit_topological,
            self.circuit_functional,
            self.false_path_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_sat::SolveBudget;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn block_report() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let (report, _) = TimingReport::generate(
            &nl,
            &[t(5), t(0), t(0), t(0), t(0)],
            t(8),
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert_eq!(report.outputs.len(), 3);
        let c_out = &report.outputs[2];
        assert_eq!(c_out.topological, t(11));
        assert_eq!(c_out.functional, t(8));
        assert!(c_out.has_false_path);
        assert_eq!(c_out.slack, t(0));
        assert_eq!(report.false_path_count(), 1);
        assert_eq!(report.circuit_functional, t(9)); // s1 with c_in at 5
                                                     // Critical path starts at c_in (the late input) and ends at c_out.
        assert_eq!(
            c_out.critical_path.first().map(String::as_str),
            Some("c_in")
        );
        assert_eq!(
            c_out.critical_path.last().map(String::as_str),
            Some("c_out")
        );
    }

    /// A zero budget degrades every solver-bound output to its
    /// topological arrival; the report still comes out whole.
    #[test]
    fn zero_budget_report_degrades_to_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = [t(5), t(0), t(0), t(0), t(0)];
        let budget = SolveBudget::default().with_conflicts(0);
        let (report, stats) = TimingReport::generate(
            &nl,
            &arrivals,
            t(8),
            &AnalysisConfig::default().with_budget(budget),
        )
        .unwrap();
        let (exact, exact_stats) =
            TimingReport::generate(&nl, &arrivals, t(8), &AnalysisConfig::default()).unwrap();
        assert!(stats.degraded > 0, "{stats:?}");
        assert!(stats.budget_hits > 0, "{stats:?}");
        assert_eq!(exact_stats.degraded, 0);
        for (b, e) in report.outputs.iter().zip(&exact.outputs) {
            assert_eq!(b.topological, e.topological);
            assert!(
                b.functional >= e.functional,
                "budgeted below functional: {}",
                b.name
            );
            assert!(
                b.functional <= b.topological,
                "budgeted above topological: {}",
                b.name
            );
        }
        // c_out's false path is no longer provable under a zero budget.
        let c_out = &report.outputs[2];
        assert_eq!(c_out.functional, t(11));
        assert!(!c_out.has_false_path);
        assert!(c_out.degraded);
        assert!(report.to_string().contains("[degraded]"));
        // An unlimited "budget" reproduces the exact report bit for bit.
        let (same, same_stats) = TimingReport::generate(
            &nl,
            &arrivals,
            t(8),
            &AnalysisConfig::default().with_budget(SolveBudget::UNLIMITED),
        )
        .unwrap();
        assert_eq!(same, exact);
        assert_eq!(same_stats, exact_stats);
    }

    /// A traced report returns bit-identical results to an untraced
    /// one, and actually collects the expected spans and events.
    #[test]
    fn traced_report_is_bit_identical_and_records() {
        use hfta_trace::TraceSink;
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = [t(5), t(0), t(0), t(0), t(0)];
        let (plain, plain_stats) =
            TimingReport::generate(&nl, &arrivals, t(8), &AnalysisConfig::default()).unwrap();
        let sink = TraceSink::enabled();
        let (traced, traced_stats) = TimingReport::generate(
            &nl,
            &arrivals,
            t(8),
            &AnalysisConfig::default().with_trace(sink.clone()),
        )
        .unwrap();
        assert_eq!(traced, plain);
        assert_eq!(traced_stats, plain_stats);
        let trace = sink.drain();
        let names: Vec<&str> = trace.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"timing_report"));
        assert!(names.contains(&"output_arrival"));
        assert!(names.contains(&"sat_episode"));
    }

    #[test]
    fn criticality_sorting() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let (report, _) =
            TimingReport::generate(&nl, &[t(0); 5], t(10), &AnalysisConfig::default()).unwrap();
        let sorted = report.by_criticality();
        // c_out (functional 8) is the most critical.
        assert_eq!(sorted[0].name, "c_out");
        assert!(sorted.windows(2).all(|w| w[0].slack <= w[1].slack));
    }

    #[test]
    fn display_renders() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let (report, _) =
            TimingReport::generate(&nl, &[t(0); 5], t(8), &AnalysisConfig::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("timing report"));
        assert!(text.contains("c_out"));
        assert!(text.contains("->"));
    }
}
