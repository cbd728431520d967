//! The per-layer metrics of a traced run, one layer per crate, and the
//! traced steps both batch workloads share.
//!
//! Every workload reports every metric; a layer the workload does not
//! exercise reads 0.

use std::collections::BTreeMap;
use std::path::Path;

use hfta_core::{AnalysisConfig, HierAnalyzer, ModelDb, ModelSource, SchedStats};
use hfta_fta::StabilityStats;
use hfta_netlist::{cone_signature, Design};

use crate::util::Spans;

/// `(name, unit)` of every per-layer metric, in report order.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.strash_ms", "ms"),
    ("sat.queries", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.domains_built", "count"),
    ("sat.learnts_imported", "count"),
    ("fta.stability_queries", "count"),
    ("fta.nodes_built", "count"),
    ("fta.memo_hits", "count"),
    ("fta.sat_share", "ratio"),
    ("fta.output_ms", "ms"),
    ("core.characterize_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.propagate_ms", "ms"),
    ("core.characterize_span_ms", "ms"),
    ("core.analyze_span_ms", "ms"),
    ("core.modules_characterized", "count"),
    ("core.instances_propagated", "count"),
    ("core.refine_rounds", "count"),
    ("core.refine_checks", "count"),
    ("core.cone_sig_hit_ratio", "ratio"),
    ("modeldb.probe_ms", "ms"),
    ("modeldb.store_ms", "ms"),
    ("modeldb.hits", "count"),
    ("modeldb.misses", "count"),
    ("modeldb.stores", "count"),
    ("modeldb.store_errors", "count"),
    ("sched.tasks_executed", "count"),
    ("sched.steals", "count"),
    ("sched.batches", "count"),
    ("serve.decode_us", "us"),
    ("serve.dispatch_us.report", "us"),
    ("serve.dispatch_us.delay", "us"),
    ("serve.dispatch_us.slack", "us"),
    ("serve.dispatch_us.whatif", "us"),
    ("serve.dispatch_us.eco", "us"),
    ("serve.encode_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.barrier_waits", "count"),
    ("serve.response_bytes", "bytes"),
    ("trace.characterize_module_ms", "ms"),
    ("trace.refine_round_ms", "ms"),
    ("trace.serve_request_us", "us"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer values of one run, every catalogue entry present.
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Cone-signature cache `(hits, misses)`, for the hit ratio.
    sig: (u64, u64),
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: CATALOGUE.iter().map(|&(n, _)| (n, 0.0)).collect(),
            sig: (0, 0),
        }
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            self.values.contains_key(name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.get_mut(name).expect("catalogued layer metric") += v;
    }

    /// Books a span name's self time, divided by `per` (passes or
    /// requests), under `metric` (`scale` converts ms to the unit).
    pub fn book_spans(
        &mut self,
        spans: &Spans,
        span: &str,
        metric: &'static str,
        per: f64,
        scale: f64,
    ) {
        let own = spans.self_ms();
        if let Some(&ms) = own.get(span) {
            self.add(metric, ms * scale / per.max(1.0));
        }
    }

    /// Books the SAT and stability counters of `s`.
    pub fn stability(&mut self, s: &StabilityStats) {
        self.add("sat.queries", s.sat_queries as f64);
        self.add("sat.conflicts", s.solver_conflicts as f64);
        self.add("sat.propagations", s.solver_propagations as f64);
        self.add("sat.domains_built", s.domains_built as f64);
        self.add("sat.learnts_imported", s.learnts_imported as f64);
        self.add("fta.stability_queries", s.queries as f64);
        self.add("fta.nodes_built", s.nodes_built as f64);
        self.add("fta.memo_hits", s.memo_hits as f64);
        self.add(
            "core.characterize_ms",
            s.wall.characterize_micros as f64 / 1e3,
        );
        self.add("core.refine_ms", s.wall.refine_micros as f64 / 1e3);
        self.add("core.propagate_ms", s.wall.propagate_micros as f64 / 1e3);
        self.add("modeldb.hits", s.model_db_hits as f64);
        self.add("modeldb.misses", s.model_db_misses as f64);
        self.sig.0 += s.cone_sig_hits;
        self.sig.1 += s.cone_sig_misses;
    }

    pub fn sched(&mut self, s: &SchedStats) {
        self.add("sched.tasks_executed", s.tasks_executed as f64);
        self.add("sched.steals", s.steals as f64);
        self.add("sched.batches", s.batches as f64);
    }

    /// Folds the program's own trace (`Trace::folded_stacks`) into the
    /// `trace.*` metrics: self time per leaf span name.
    pub fn folded(&mut self, folded: &str, per: f64) {
        for line in folded.lines() {
            let Some((path, micros)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(micros) = micros.parse::<f64>() else {
                continue;
            };
            let leaf = path.rsplit(';').next().unwrap_or(path);
            let (metric, scale) = match leaf {
                "characterize_module" => ("trace.characterize_module_ms", 1e-3),
                "refine_round" => ("trace.refine_round_ms", 1e-3),
                "serve_request" => ("trace.serve_request_us", 1.0),
                _ => continue,
            };
            self.add(metric, micros * scale / per.max(1.0));
        }
    }

    /// The finished list, in catalogue order, with units.
    pub fn finish(mut self) -> Vec<(String, f64, &'static str)> {
        let q = self.values["fta.stability_queries"];
        if q > 0.0 {
            self.set("fta.sat_share", self.values["sat.queries"] / q);
        }
        let (h, m) = (self.sig.0 as f64, self.sig.1 as f64);
        if h + m > 0.0 {
            self.set("core.cone_sig_hit_ratio", h / (h + m));
        }
        CATALOGUE
            .iter()
            .map(|&(n, u)| (n.to_string(), self.values[n], u))
            .collect()
    }
}

/// Traced step: `cone_signature` over every output cone of every leaf
/// of `designs` (the structural hashing the signature caches run).
pub fn strash_step(spans: &mut Spans, designs: &[&Design]) -> Result<(), String> {
    for design in designs {
        for leaf in design.modules().iter().filter_map(|m| design.leaf(&m.name)) {
            for &out in leaf.outputs() {
                let (cone, _) = leaf.cone(out);
                spans
                    .span("netlist.strash", |_| cone_signature(&cone))
                    .map_err(|e| format!("cone_signature: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Traced step: store every leaf model `hier` holds into a fresh model
/// db under `dir`, then probe each back, with spans around
/// `ModelDb::store` / `ModelDb::probe`.
pub fn modeldb_step(
    spans: &mut Spans,
    hier: &mut HierAnalyzer,
    design: &Design,
    dir: &Path,
) -> Result<(), String> {
    let opts = AnalysisConfig::default().characterize_options();
    let _ = std::fs::remove_dir_all(dir);
    let mut db = ModelDb::open(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let leaves: Vec<&str> = design
        .modules()
        .iter()
        .filter(|m| design.leaf(&m.name).is_some())
        .map(|m| m.name.as_str())
        .collect();
    for &name in &leaves {
        let leaf = design.leaf(name).expect("leaf");
        let timing = hier.module_timing(name).map_err(|e| e.to_string())?.clone();
        spans.span("modeldb.store", |_| {
            db.store(leaf, ModelSource::Functional, &opts, &timing, false)
        });
    }
    for &name in &leaves {
        let leaf = design.leaf(name).expect("leaf");
        spans.span("modeldb.probe", |_| {
            db.probe(leaf, ModelSource::Functional, &opts)
        });
    }
    Ok(())
}
