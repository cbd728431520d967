//! Per-module timing abstractions and their text serialization.
//!
//! A [`ModuleTiming`] packages one [`TimingModel`] per module output —
//! the paper's abstraction of a leaf module, valid under *any*
//! surrounding arrival-time environment. Because the model exposes only
//! pin-to-pin delay tuples, it doubles as the paper's Section 7 use
//! case: timing abstraction of black-box IP blocks, accurate without
//! revealing module internals. [`ModuleTiming::to_text`] /
//! [`ModuleTiming::from_text`] serialize the abstraction to a small
//! self-describing format, and `hfta-modeldb` persists it (with
//! fingerprints and checksums) as the on-disk model database record.
//!
//! This module lives here rather than in `hfta-core` so that the model
//! database can depend on the abstraction without pulling in the
//! hierarchical analyzers; `hfta-core` re-exports everything at its
//! historical paths.

use std::error::Error;
use std::fmt;

use hfta_netlist::{NetId, Netlist, NetlistError, Time};
use hfta_trace::Tracer;

use crate::cone::OutputCone;
use crate::config::{AnalysisConfig, ModelSource};
use crate::model::{TimingModel, TimingTuple};
use crate::required::{topological_delays, Characterizer, ConeSigCache};
use crate::stability::StabilityStats;

/// The timing abstraction of one module: a timing model per output.
#[derive(Clone, PartialEq, Debug)]
pub struct ModuleTiming {
    module: String,
    input_names: Vec<String>,
    output_names: Vec<String>,
    models: Vec<TimingModel>,
}

impl ModuleTiming {
    /// Characterizes `netlist` into a timing abstraction, with the
    /// model source, characterization options and budget of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn characterize(
        netlist: &Netlist,
        config: &AnalysisConfig,
    ) -> Result<ModuleTiming, NetlistError> {
        let cones = match config.source {
            ModelSource::Functional => OutputCone::all(netlist)?,
            ModelSource::Topological => Vec::new(),
        };
        ModuleTiming::characterize_traced(netlist, config, &cones, None, &mut Tracer::disabled())
            .map(|(timing, _, _)| timing)
    }

    /// The one characterization entry point: [`ModuleTiming::characterize`]
    /// over `cones` (one per output, in output order; topological models
    /// read none), sharing work through `cache` when one is given, and
    /// also returning the stability and solver work spent and, per
    /// output, the module that originally characterized a cone replayed
    /// from the cache (`None` for fresh outputs). Spans and events
    /// (`characterize_output`, `relax_step`, `cone_sig_hit`/`cone_sig_miss`,
    /// `sat_episode`) go to `tracer`; a disabled one does exactly the
    /// work of an untraced run.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if a functional characterization gets a cone count other
    /// than the output count.
    pub fn characterize_traced(
        netlist: &Netlist,
        config: &AnalysisConfig,
        cones: &[OutputCone],
        mut cache: Option<&mut ConeSigCache>,
        tracer: &mut Tracer,
    ) -> Result<(ModuleTiming, StabilityStats, Vec<Option<String>>), NetlistError> {
        let (models, stats, owners) = match config.source {
            ModelSource::Functional => {
                assert_eq!(cones.len(), netlist.outputs().len(), "one cone per output");
                let mut ch = Characterizer::new(netlist, config);
                ch.set_tracer(std::mem::take(tracer));
                let outputs: Result<Vec<_>, _> = cones
                    .iter()
                    .map(|cone| ch.cone_model(cone, cache.as_deref_mut()))
                    .collect();
                *tracer = ch.take_tracer();
                let (models, owners) = outputs?.into_iter().unzip();
                (models, ch.stability_stats(), owners)
            }
            ModelSource::Topological => (
                netlist
                    .outputs()
                    .iter()
                    .map(|&o| Ok(TimingModel::topological(topological_delays(netlist, o)?)))
                    .collect::<Result<Vec<_>, NetlistError>>()?,
                StabilityStats::default(),
                vec![None; netlist.outputs().len()],
            ),
        };
        let names = |nets: &[NetId]| {
            nets.iter()
                .map(|&n| netlist.net_name(n).to_string())
                .collect()
        };
        let timing = ModuleTiming {
            module: netlist.name().to_string(),
            input_names: names(netlist.inputs()),
            output_names: names(netlist.outputs()),
            models,
        };
        Ok((timing, stats, owners))
    }

    /// Builds an abstraction from parts (e.g. for a black box whose
    /// models come from a datasheet).
    ///
    /// # Panics
    ///
    /// Panics if `models.len() != output_names.len()` or any model's
    /// input count differs from `input_names.len()`.
    #[must_use]
    pub fn from_parts(
        module: impl Into<String>,
        input_names: Vec<String>,
        output_names: Vec<String>,
        models: Vec<TimingModel>,
    ) -> ModuleTiming {
        assert_eq!(models.len(), output_names.len(), "one model per output");
        for m in &models {
            assert_eq!(
                m.num_inputs(),
                input_names.len(),
                "model arity must match input count"
            );
        }
        ModuleTiming {
            module: module.into(),
            input_names,
            output_names,
            models,
        }
    }

    /// The module name.
    #[must_use]
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Input pin names, in port order.
    #[must_use]
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output pin names, in port order.
    #[must_use]
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The timing models, one per output in port order.
    #[must_use]
    pub fn models(&self) -> &[TimingModel] {
        &self.models
    }

    /// The model of output `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn model(&self, k: usize) -> &TimingModel {
        &self.models[k]
    }

    /// Stable times of all outputs under the given input arrivals (the
    /// paper's min–max propagation through one module).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len()` differs from the input count.
    #[must_use]
    pub fn output_stable_times(&self, arrivals: &[Time]) -> Vec<Time> {
        self.models
            .iter()
            .map(|m| m.stable_time(arrivals))
            .collect()
    }

    /// Verifies this abstraction against a golden netlist: every tuple
    /// of every output model must pass a full XBD0 stability check
    /// (inputs at the negated delays, output required at 0), and the
    /// port lists must match by name.
    ///
    /// This is the IP-consumer side of Section 7: a vendor model can be
    /// audited without trusting the vendor's characterization.
    /// Returns the list of violations (empty = verified).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    pub fn verify(&self, netlist: &Netlist) -> Result<Vec<String>, NetlistError> {
        use crate::{SatAlg, StabilityOracle};
        let mut violations = Vec::new();
        let actual_inputs: Vec<&str> = netlist
            .inputs()
            .iter()
            .map(|&n| netlist.net_name(n))
            .collect();
        if actual_inputs
            != self
                .input_names
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            violations.push(format!(
                "input ports differ: model {:?}, netlist {:?}",
                self.input_names, actual_inputs
            ));
            return Ok(violations);
        }
        let actual_outputs: Vec<&str> = netlist
            .outputs()
            .iter()
            .map(|&n| netlist.net_name(n))
            .collect();
        if actual_outputs
            != self
                .output_names
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            violations.push(format!(
                "output ports differ: model {:?}, netlist {:?}",
                self.output_names, actual_outputs
            ));
            return Ok(violations);
        }
        // One oracle audits every tuple of every output: each check
        // rebinds the arrivals while the SAT solver state persists. The
        // plain backend keeps the audit independent of the shared-solver
        // mode every characterization runs on.
        let far = vec![Time::POS_INF; netlist.inputs().len()];
        let mut an = StabilityOracle::new(netlist.clone(), &far, SatAlg::new())?;
        for (k, (&out, model)) in netlist.outputs().iter().zip(&self.models).enumerate() {
            for tuple in model.tuples() {
                let arrivals: Vec<Time> = tuple.delays().iter().map(|&d| -d).collect();
                an.set_arrivals(&arrivals);
                if !an.is_stable_at(out, Time::ZERO) {
                    violations.push(format!(
                        "output `{}` tuple {tuple} is optimistic",
                        self.output_names[k]
                    ));
                }
            }
        }
        Ok(violations)
    }

    /// Serializes to the `hfta-timing-model v1` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "hfta-timing-model v1");
        let _ = writeln!(s, "module {}", self.module);
        let _ = writeln!(s, "inputs {}", self.input_names.join(" "));
        for (name, model) in self.output_names.iter().zip(&self.models) {
            let _ = writeln!(s, "output {name}");
            for t in model.tuples() {
                let entries: Vec<String> = t.delays().iter().map(Time::to_string).collect();
                let _ = writeln!(s, "  tuple {}", entries.join(" "));
            }
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parses the `hfta-timing-model v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed input.
    pub fn from_text(text: &str) -> Result<ModuleTiming, ParseModelError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let err = |line: usize, message: &str| ParseModelError {
            line,
            message: message.to_string(),
        };
        let (line, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
        if header != "hfta-timing-model v1" {
            return Err(err(line, "missing `hfta-timing-model v1` header"));
        }
        let mut module = None;
        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut models: Vec<Vec<TimingTuple>> = Vec::new();
        let mut ended = false;
        for (lineno, raw) in lines {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(err(lineno, "content after `end`"));
            }
            let mut toks = line.split_whitespace();
            match toks.next().expect("non-empty") {
                "module" => {
                    module = Some(
                        toks.next()
                            .ok_or_else(|| err(lineno, "usage: module NAME"))?
                            .to_string(),
                    );
                }
                "inputs" => inputs.extend(toks.map(str::to_string)),
                "output" => {
                    outputs.push(
                        toks.next()
                            .ok_or_else(|| err(lineno, "usage: output NAME"))?
                            .to_string(),
                    );
                    models.push(Vec::new());
                }
                "tuple" => {
                    let cur = models
                        .last_mut()
                        .ok_or_else(|| err(lineno, "tuple before any output"))?;
                    let mut delays = Vec::new();
                    for tok in toks {
                        let t = parse_time(tok)
                            .ok_or_else(|| err(lineno, &format!("bad time value `{tok}`")))?;
                        delays.push(t);
                    }
                    if delays.len() != inputs.len() {
                        return Err(err(
                            lineno,
                            &format!(
                                "tuple has {} entries, module has {} inputs",
                                delays.len(),
                                inputs.len()
                            ),
                        ));
                    }
                    cur.push(TimingTuple::new(delays));
                }
                "end" => ended = true,
                other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
            }
        }
        if !ended {
            return Err(err(text.lines().count(), "missing `end`"));
        }
        let module = module.ok_or_else(|| err(0, "missing `module` line"))?;
        let mut built = Vec::with_capacity(models.len());
        for (k, tuples) in models.into_iter().enumerate() {
            if tuples.is_empty() {
                return Err(err(0, &format!("output `{}` has no tuples", outputs[k])));
            }
            built.push(TimingModel::from_tuples(tuples));
        }
        Ok(ModuleTiming {
            module,
            input_names: inputs,
            output_names: outputs,
            models: built,
        })
    }
}

fn parse_time(tok: &str) -> Option<Time> {
    match tok {
        "-inf" => Some(Time::NEG_INF),
        "+inf" | "inf" => Some(Time::POS_INF),
        _ => tok.parse().ok().and_then(|t| Time::checked(t).ok()),
    }
}

/// Error from [`ModuleTiming::from_text`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseModelError {
    /// 1-based line number (0 when the input ended prematurely).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timing model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn characterize_functional_vs_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        let topo = ModuleTiming::characterize(
            &nl,
            &AnalysisConfig::default().with_source(ModelSource::Topological),
        )
        .unwrap();
        // c_out: functional sees the false path (2), topological 6.
        assert_eq!(f.model(2).tuples()[0].delay(0), t(2));
        assert_eq!(topo.model(2).tuples()[0].delay(0), t(6));
        assert_eq!(f.input_names()[0], "c_in");
        assert_eq!(f.output_names(), &["s0", "s1", "c_out"]);
    }

    #[test]
    fn output_stable_times_min_max() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        // The paper's second-block scenario: c_in at 8, others at 0.
        let times = f.output_stable_times(&[t(8), t(0), t(0), t(0), t(0)]);
        assert_eq!(times[2], t(10)); // c4 = 10
    }

    #[test]
    fn text_round_trip() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        let text = f.to_text();
        let parsed = ModuleTiming::from_text(&text).unwrap();
        assert_eq!(parsed, f);
        assert!(text.contains("tuple 2 8 8 6 6"));
    }

    #[test]
    fn text_with_infinities_round_trips() {
        let m = ModuleTiming::from_parts(
            "blk",
            vec!["a".into(), "b".into()],
            vec!["z".into()],
            vec![TimingModel::from_tuples(vec![
                TimingTuple::new(vec![t(3), Time::NEG_INF]),
                TimingTuple::new(vec![Time::NEG_INF, t(5)]),
            ])],
        );
        let parsed = ModuleTiming::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.model(0).tuples().len(), 2);
    }

    #[test]
    fn parse_errors_are_located() {
        let e = ModuleTiming::from_text("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        let text = "hfta-timing-model v1\nmodule m\ninputs a b\noutput z\n  tuple 1\nend\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("entries"));
        let text = "hfta-timing-model v1\nmodule m\ninputs a\ntuple 1\nend\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert!(e.message.contains("before any output"));
        let text = "hfta-timing-model v1\nmodule m\ninputs a\noutput z\n  tuple 1\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert!(e.message.contains("missing `end`"));
        let text = "hfta-timing-model v1\nmodule m\ninputs a\noutput z\n  tuple 9223372036854775807\nend\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert!(e.message.contains("bad time value"), "{}", e.message);
    }

    #[test]
    #[should_panic(expected = "one model per output")]
    fn from_parts_validates_counts() {
        let _ = ModuleTiming::from_parts(
            "m",
            vec!["a".into()],
            vec!["x".into(), "y".into()],
            vec![TimingModel::topological(vec![t(1)])],
        );
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn honest_model_verifies() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let timing = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        assert!(timing.verify(&nl).unwrap().is_empty());
        // Topological models verify trivially too.
        let topo = ModuleTiming::characterize(
            &nl,
            &AnalysisConfig::default().with_source(ModelSource::Topological),
        )
        .unwrap();
        assert!(topo.verify(&nl).unwrap().is_empty());
    }

    #[test]
    fn optimistic_model_is_caught() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let honest = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        // Forge a vendor model claiming a0 → c_out is only 5 (true: 8).
        let forged = ModuleTiming::from_parts(
            honest.module().to_string(),
            honest.input_names().to_vec(),
            honest.output_names().to_vec(),
            vec![
                honest.model(0).clone(),
                honest.model(1).clone(),
                TimingModel::from_tuples(vec![TimingTuple::new(vec![
                    t(2),
                    t(5),
                    t(8),
                    t(6),
                    t(6),
                ])]),
            ],
        );
        let violations = forged.verify(&nl).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("c_out"), "{violations:?}");
        assert!(violations[0].contains("optimistic"));
    }

    #[test]
    fn port_mismatch_is_caught() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let other = carry_skip_block(4, CsaDelays::default());
        let timing = ModuleTiming::characterize(
            &other,
            &AnalysisConfig::default().with_source(ModelSource::Topological),
        )
        .unwrap();
        let violations = timing.verify(&nl).unwrap();
        assert!(!violations.is_empty());
        assert!(violations[0].contains("ports differ"));
    }
}
