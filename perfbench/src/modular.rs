//! `modular_100k`: hierarchy at the roadmap's scale.
//!
//! The `modular_design(ModularDesignSpec::sized(100_000, 2))` design —
//! 1,666 instances of 12 flavors of 60-gate leaves — read from `.hnl`,
//! analysed three ways on two threads: two-step cold into an empty model
//! db (many small SAT queries), two-step warm from that db in a fresh
//! analyzer (db reads plus min–max propagation, no SAT at all) and
//! demand-driven cold. Each round runs the two-step cold analysis first;
//! the seed orders the demand-driven and warm analyses after it. Rounds
//! repeat until the next one would not fit in `--seconds`.

use std::fs;
use std::path::Path;
use std::time::Instant;

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, ModelSource, TraceSink};
use hfta_fta::StabilityStats;
use hfta_netlist::gen::{modular_design, ModularDesignSpec};
use hfta_netlist::{hnl, Design, Time};

use crate::layers::{self, Layers};
use crate::util::{median, ms_since, proc_status_mb, reset_peak_rss, Rng, J};
use crate::{Ctx, Outcome};

const GATES: usize = 100_000;
const THREADS: usize = 2;
/// Parse repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 40;
/// Minimum rounds of (cold, then demand × `DEMAND_REPS` and
/// warm × `WARM_REPS` in a seeded order).
const MIN_ROUNDS: usize = 8;
const DEMAND_REPS: usize = 2;
const WARM_REPS: usize = 5;

/// Generator seed of the design. Characterization cost differs by a
/// factor of two or more between designs drawn from different seeds, so
/// the design is fixed and the benchmark seed only orders the analyses.
const DESIGN_SEED: u64 = 2;

/// Writes `modular_design(ModularDesignSpec::sized(gates, DESIGN_SEED))`
/// to `dir/file` as `.hnl` text.
pub fn write_design(gates: usize, dir: &Path, file: &str) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    let spec = ModularDesignSpec::sized(gates, DESIGN_SEED);
    let text = hnl::write(&modular_design(spec), Some(&spec.top_name()));
    let p = dir.join(file);
    fs::write(&p, text).map_err(|e| format!("{p:?}: {e}"))
}

pub fn generate(_seed: u64, dir: &Path) -> Result<(), String> {
    write_design(GATES, dir, "modular.hnl")
}

fn load(ctx: &mut Ctx) -> Result<(Design, String), String> {
    let p = ctx.work.join("modular.hnl");
    let text = fs::read_to_string(&p).map_err(|e| format!("{p:?}: {e}"))?;
    let (design, top) = ctx
        .spans
        .span("netlist.parse", |_| hnl::parse(&text))
        .map_err(|e| format!("modular.hnl: {e}"))?;
    Ok((design, top.ok_or("modular.hnl names no top")?))
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(load(ctx)?);
        ctx.calib.mark("setup_s", t.elapsed().as_secs_f64());
        ctx.calib.sample();
    }
    let (design, top) = loaded.expect("at least one setup");
    let inputs = design
        .composite(&top)
        .ok_or("top is not a composite")?
        .inputs()
        .len();
    let zeros = vec![Time::ZERO; inputs];
    let flavors = design
        .modules()
        .iter()
        .filter(|m| design.leaf(&m.name).is_some())
        .count() as u64;

    let topo = HierAnalyzer::with_config(
        &design,
        &top,
        &AnalysisConfig::default().with_source(ModelSource::Topological),
    )
    .and_then(|mut h| h.analyze(&zeros))
    .map_err(|e| e.to_string())?
    .delay;
    ctx.calib.sample();

    let mut answers: Option<(Time, Time)> = None;
    let mut layers = Layers::new();
    let mut stats = StabilityStats::default();
    let (mut traced_round_ms, mut plain_round_ms) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    let mut demand_work = (0, 0);
    let mut rss = Vec::new();
    let mut rng = Rng::new(ctx.seed);
    loop {
        let round_wall = Instant::now();
        let traced = ctx.trace && round % 2 == 1;
        let first_traced = traced && round == 1;
        let sink = if traced {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        };
        let base = AnalysisConfig::default()
            .with_threads(THREADS)
            .with_trace(sink.clone());
        ctx.spans.set_tag(round as u64);
        let mut round_ms = 0.0;

        // Two-step cold into an empty model db.
        let db = ctx.work.join(format!("models-{round}"));
        let _ = fs::remove_dir_all(&db);
        reset_peak_rss()?;
        let t = Instant::now();
        let mut hier =
            HierAnalyzer::with_config(&design, &top, &base.clone().with_emit_models(&db))
                .map_err(|e| e.to_string())?;
        let a = if traced {
            let chars = ctx
                .spans
                .span("core.characterize_all", |_| hier.characterize_all());
            chars.map_err(|e| e.to_string())?;
            ctx.spans.span("core.analyze", |_| hier.analyze(&zeros))
        } else {
            hier.analyze(&zeros)
        }
        .map_err(|e| e.to_string())?;
        let ms = ms_since(t);
        ctx.calib.mark("sat_ms", ms);
        round_ms += ms;
        let cold_delay = a.delay;
        if first_traced {
            stats.merge(&hier.stability_stats());
            layers.add(
                "core.modules_characterized",
                a.stats.modules_characterized as f64,
            );
            layers.add(
                "core.instances_propagated",
                a.stats.instances_propagated as f64,
            );
            if let Some(pool) = hier.scheduler_handle() {
                layers.sched(&pool.stats());
            }
            let db_stats = hier.model_db_stats();
            layers.add("modeldb.stores", db_stats.stores as f64);
            layers.add("modeldb.store_errors", db_stats.store_errors as f64);
            layers.add("modeldb.misses", db_stats.misses as f64);
            let step_dir = ctx.work.join("modeldb-step");
            layers::modeldb_step(&mut ctx.spans, &mut hier, &design, &step_dir)?;
            layers::strash_step(&mut ctx.spans, &[&design])?;
        }
        ctx.check(
            a.stats.modules_characterized == flavors && a.stats.modules_degraded == 0,
            || {
                format!(
                    "cold: {} characterized of {flavors} flavors",
                    a.stats.modules_characterized
                )
            },
        );
        drop(hier);
        ctx.calib.sample();

        // Demand-driven cold and two-step warm from the db, each in a
        // fresh analyzer, in an order the seed shuffles.
        let mut tasks: Vec<bool> = (0..DEMAND_REPS + WARM_REPS)
            .map(|i| i < DEMAND_REPS)
            .collect();
        rng.shuffle(&mut tasks);
        let (mut demand_rep, mut demand_ms, mut demand_delay) = (0, 0.0, Time::NEG_INF);
        for demand in tasks {
            let t = Instant::now();
            if demand {
                let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &base)
                    .map_err(|e| e.to_string())?;
                let d = an.analyze(&zeros).map_err(|e| e.to_string())?;
                let ms = ms_since(t);
                demand_work = (d.rounds, d.checks);
                ctx.calib.mark("hier_ms", ms);
                demand_ms += ms / DEMAND_REPS as f64;
                ctx.check(demand_rep == 0 || d.delay == demand_delay, || {
                    "demand-driven answers differ between repetitions".into()
                });
                demand_delay = d.delay;
                if first_traced && demand_rep == 0 {
                    stats.merge(&an.stability_stats());
                    layers.add("core.refine_rounds", d.rounds as f64);
                    layers.add("core.refine_checks", d.checks as f64);
                    if let Some(pool) = an.scheduler_handle() {
                        layers.sched(&pool.stats());
                    }
                }
                demand_rep += 1;
            } else {
                let mut hier =
                    HierAnalyzer::with_config(&design, &top, &base.clone().with_use_models(&db))
                        .map_err(|e| e.to_string())?;
                let w = hier.analyze(&zeros).map_err(|e| e.to_string())?;
                let ms = ms_since(t);
                ctx.calib.mark("reuse_ms", ms);
                round_ms += ms / WARM_REPS as f64;
                let hits = hier.stability_stats().model_db_hits;
                if first_traced {
                    layers.add("modeldb.hits", hits as f64 / WARM_REPS as f64);
                }
                ctx.check(
                    w.delay == cold_delay && w.stats.modules_characterized == 0 && hits == flavors,
                    || {
                        format!(
                            "warm: delay {} vs cold {cold_delay}, {} characterized, {hits} db hits for {flavors} flavors",
                            w.delay, w.stats.modules_characterized
                        )
                    },
                );
            }
            ctx.calib.sample();
        }
        round_ms += demand_ms;
        let _ = fs::remove_dir_all(&db);
        rss.push(proc_status_mb("self", "VmHWM").ok_or("no VmHWM")?);

        ctx.check(cold_delay <= topo && demand_delay <= topo, || {
            format!("two-step {cold_delay} / demand {demand_delay} above topological {topo}")
        });
        match answers {
            None => answers = Some((cold_delay, demand_delay)),
            Some(prev) => ctx.check(prev == (cold_delay, demand_delay), || {
                "answers changed between rounds".into()
            }),
        }
        if traced {
            layers.folded(&sink.drain().folded_stacks(), 1.0);
            traced_round_ms.push(round_ms);
        } else {
            plain_round_ms.push(round_ms);
        }
        round += 1;
        // Another round only if it fits in what is left of --seconds.
        let need = if ctx.trace { 4 } else { MIN_ROUNDS };
        if round >= need && ctx.left() < round_wall.elapsed().as_secs_f64() {
            break;
        }
    }

    let mut out = Outcome {
        peak_rss_mb: median(&rss),
        native: vec![
            ("rounds", round as f64, "count"),
            ("demand_rounds", demand_work.0 as f64, "count"),
            ("demand_checks", demand_work.1 as f64, "count"),
        ],
        ..Outcome::default()
    };
    if ctx.trace {
        let traced = traced_round_ms.len() as f64;
        layers.stability(&stats);
        layers.book_spans(
            &ctx.spans,
            "netlist.parse",
            "netlist.parse_ms",
            SETUP_REPS as f64,
            1.0,
        );
        layers.book_spans(&ctx.spans, "netlist.strash", "netlist.strash_ms", 1.0, 1.0);
        layers.book_spans(
            &ctx.spans,
            "core.characterize_all",
            "core.characterize_span_ms",
            traced,
            1.0,
        );
        layers.book_spans(
            &ctx.spans,
            "core.analyze",
            "core.analyze_span_ms",
            traced,
            1.0,
        );
        layers.book_spans(&ctx.spans, "modeldb.store", "modeldb.store_ms", 1.0, 1.0);
        layers.book_spans(&ctx.spans, "modeldb.probe", "modeldb.probe_ms", 1.0, 1.0);
        layers.set("host.calib_ms", ctx.calib.run_ms());
        let (tr, pl) = (median(&traced_round_ms), median(&plain_round_ms));
        layers.set("trace.overhead_pct", (tr - pl) / pl * 100.0);
        out.layers = layers.finish();
    }
    let (c, d) = answers.expect("at least one round");
    out.answers = vec![
        ("twostep_delay".into(), J::Int(c.raw())),
        ("demand_delay".into(), J::Int(d.raw())),
        ("topological_delay".into(), J::Int(topo.raw())),
    ];
    Ok(out)
}
