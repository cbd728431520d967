//! Property suite for the one stability engine every analysis runs on:
//! one incremental SAT instance per module or signature class
//! (domain-restricted queries, cross-cone learnt sharing, between-query
//! inprocessing, plus the demand verdict memo), whose budget only caps
//! each query.
//!
//! A budget that never binds (`u64::MAX` conflicts) sends every query
//! through the budgeted solver entry points, so the first four
//! properties pin that those decide exactly like the unbudgeted ones:
//! verdicts, arrival times, delays, refinement round/check counts and
//! every solver counter match the default run.
//!
//! Budgets that do bind (1–12 conflicts) degrade verdicts, and which
//! ones depends on the module's or class's probe history. The last
//! property pins what still holds: every output arrival of every
//! hierarchical and flat analysis lies between the exact flat arrival
//! and the topological one, a two-worker run equals the serial one
//! (whole results, counters included), and a rerun on a fresh analyzer
//! equals the first. Its two-step half also runs renamed replicated
//! blocks, whose copies replay each other's cones through the signature
//! cache on every schedule.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, IncrementalAnalyzer};
use hfta_fta::{DelayAnalyzer, SolveBudget, TimingReport, TopoSta};
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition;
use hfta_netlist::{Composite, Design, GateId, NetId, Netlist, Time};
use hfta_testkit::{from_fn_with_shrink, prop, Rng, Strategy};

/// Random partitionable circuits (≥ 2 gates); shrinking reduces gate
/// and input counts toward a minimal failing netlist.
fn spec_strategy() -> impl Strategy<Value = RandomCircuitSpec> {
    from_fn_with_shrink(
        |rng: &mut Rng| RandomCircuitSpec {
            inputs: rng.gen_range(3usize..8),
            gates: rng.gen_range(8usize..40),
            seed: rng.next_u64(),
            locality: rng.gen_range(4usize..12),
            global_fanin_prob: 0.2,
            mix: if rng.next_bool() {
                GateMix::XorHeavy
            } else {
                GateMix::NandHeavy
            },
        },
        |spec: &RandomCircuitSpec| {
            let mut out = Vec::new();
            if spec.gates > 8 {
                out.push(RandomCircuitSpec {
                    gates: 8.max(spec.gates / 2),
                    ..*spec
                });
            }
            if spec.inputs > 3 {
                out.push(RandomCircuitSpec {
                    inputs: spec.inputs - 1,
                    ..*spec
                });
            }
            if spec.seed != 0 {
                out.push(RandomCircuitSpec { seed: 0, ..*spec });
            }
            out
        },
    )
}

/// Random primary-input arrivals: a small finite window with an
/// occasional −∞ (unexercised pin).
fn arrivals_strategy(inputs: usize) -> impl Strategy<Value = Vec<Time>> {
    from_fn_with_shrink(
        move |rng: &mut Rng| {
            (0..inputs)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        Time::NEG_INF
                    } else {
                        Time::new(rng.gen_range(-4i64..9))
                    }
                })
                .collect()
        },
        |v: &Vec<Time>| {
            let mut out = Vec::new();
            for i in 0..v.len() {
                if v[i] != Time::ZERO {
                    let mut w = v.clone();
                    w[i] = Time::ZERO;
                    out.push(w);
                }
            }
            out
        },
    )
}

/// The budgeted solver entry points without degradation: a limited
/// budget that no query can exhaust.
fn never_binds() -> AnalysisConfig {
    AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(u64::MAX))
}

// Two-step characterization: the per-module shared instance answers
// every budgeted validity check exactly like an unbudgeted one, so the
// characterized models — and everything propagated from them — match.
prop!(cases = 32, fn two_step_never_binding_budget_matches_default(spec in spec_strategy()) {
    let flat = random_circuit("s", spec);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");

    let mut shared =
        HierAnalyzer::with_config(&design, "s_top", &AnalysisConfig::default()).expect("valid");
    let a = shared.analyze(&arrivals).expect("analyzes");
    let mut per_cone = HierAnalyzer::with_config(&design, "s_top", &never_binds()).expect("valid");
    let b = per_cone.analyze(&arrivals).expect("analyzes");

    assert_eq!(a.delay, b.delay, "delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "output arrivals diverged");
    assert_eq!(a.net_arrivals, b.net_arrivals, "net arrivals diverged");
    assert_eq!(
        a.stats.modules_characterized, b.stats.modules_characterized,
        "characterization count diverged"
    );
    assert_eq!(a.stats.stability, b.stats.stability, "solver work diverged");
});

// Demand-driven refinement walks the design one edge probe at a time;
// the class oracle (and verdict memo) must return the same verdicts
// through the budgeted entry point, in the same order — pinned by
// comparing the full round/check/refinement trajectory, not just the
// answer.
prop!(cases = 32, fn demand_never_binding_budget_matches_default(
    spec in spec_strategy(),
) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let mut cases = hfta_testkit::Rng::seed_from_u64(spec.seed ^ 0x5ead);
    let arrivals: Vec<Time> = (0..inputs)
        .map(|_| Time::new(cases.gen_range(-3i64..7)))
        .collect();

    let mut shared = DemandDrivenAnalyzer::with_config(&design, "s_top", &AnalysisConfig::default())
        .expect("valid");
    let a = shared.analyze(&arrivals).expect("analyzes");
    let mut per_cone =
        DemandDrivenAnalyzer::with_config(&design, "s_top", &never_binds()).expect("valid");
    let b = per_cone.analyze(&arrivals).expect("analyzes");

    assert_eq!(a.delay, b.delay, "delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "output arrivals diverged");
    assert_eq!(a.rounds, b.rounds, "round trajectory diverged");
    assert_eq!(a.checks, b.checks, "check count diverged");
    assert_eq!(a.refinements, b.refinements, "refinement count diverged");
    assert_eq!(a.stability, b.stability, "solver work diverged");
});

// Flat report path under random arrival conditions: the whole-module
// shared instance produces the same report (arrivals, false-path
// flags, circuit delays) through either entry point, in whatever query
// order the report generator uses.
prop!(cases = 32, fn report_never_binding_budget_matches_default(spec in spec_strategy()) {
    let nl = random_circuit("s", spec);
    let mut cases = hfta_testkit::Rng::seed_from_u64(spec.seed ^ 0x0f1a7);
    for _ in 0..2 {
        let arrivals: Vec<Time> = (0..nl.inputs().len())
            .map(|_| Time::new(cases.gen_range(-4i64..9)))
            .collect();
        let shared = AnalysisConfig::default();
        let (a, a_stats) =
            TimingReport::generate(&nl, &arrivals, Time::ZERO, &shared).expect("analyzes");
        let (b, b_stats) =
            TimingReport::generate(&nl, &arrivals, Time::ZERO, &never_binds()).expect("analyzes");
        assert_eq!(a, b, "reports diverged under arrivals {arrivals:?}");
        assert_eq!(a_stats, b_stats, "solver work diverged under arrivals {arrivals:?}");
    }
});

// The incremental analyzer: one session per budget, each analyzing,
// taking a module edit, and analyzing again. Both sessions must agree
// on every run (per-run characterization counts included).
prop!(cases = 24, fn incremental_never_binding_budget_matches_default(spec in spec_strategy()) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let arrivals = vec![Time::ZERO; inputs];
    let edited = slowed_leaf(&design, spec.seed);

    let session = |config: &AnalysisConfig| {
        let mut an =
            IncrementalAnalyzer::with_config(design.clone(), "s_top", config).expect("valid");
        let before = an.analyze(&arrivals).expect("analyzes");
        an.replace_module(edited.clone()).expect("same ports");
        let after = an.analyze(&arrivals).expect("analyzes");
        (before, after)
    };
    let (a0, a1) = session(&AnalysisConfig::default());
    let (b0, b1) = session(&never_binds());
    for (a, b) in [(&a0, &b0), (&a1, &b1)] {
        assert_eq!(a.delay, b.delay, "delay diverged");
        assert_eq!(a.output_arrivals, b.output_arrivals, "output arrivals diverged");
        assert_eq!(a.net_arrivals, b.net_arrivals, "net arrivals diverged");
        assert_eq!(
            a.stats.modules_characterized, b.stats.modules_characterized,
            "characterization count diverged"
        );
        assert_eq!(a.stats.stability, b.stats.stability, "solver work diverged");
    }
    assert_eq!(a1.stats.modules_characterized, 1, "the edit re-characterizes one module");
});

/// The exact arrival and the topological arrival of every output of
/// `flat` under `arrivals` — the bounds every budgeted analysis of it,
/// flat or hierarchical, must stay between.
fn bounds(flat: &Netlist, arrivals: &[Time]) -> (Vec<Time>, Vec<Time>) {
    let exact = DelayAnalyzer::new_sat_shared(flat, arrivals)
        .expect("acyclic")
        .output_arrivals();
    let topo = TopoSta::new(flat).expect("acyclic").arrival_times(arrivals);
    let topo = flat.outputs().iter().map(|o| topo[o.index()]).collect();
    (exact, topo)
}

fn assert_between(got: &[Time], (exact, topo): &(Vec<Time>, Vec<Time>), what: &str) {
    assert_eq!(got.len(), exact.len(), "{what}: output count");
    for (k, &g) in got.iter().enumerate() {
        assert!(
            exact[k] <= g && g <= topo[k],
            "{what}: output {k} at {g}, outside [exact {}, topological {}]",
            exact[k],
            topo[k]
        );
    }
}

/// A copy of the first leaf of `design` with one gate slowed by 2.
fn slowed_leaf(design: &Design, seed: u64) -> Netlist {
    let mut edited = design
        .modules()
        .iter()
        .find_map(|m| design.leaf(&m.name))
        .expect("a leaf")
        .clone();
    let slowed = GateId::from_index(seed as usize % edited.gate_count());
    let delay = edited.gate(slowed).delay + 2;
    edited.set_gate_delay(slowed, delay);
    edited
}

/// Each leaf of `design` twice under fresh names, side by side on fresh
/// top-level inputs: renamed replicated blocks, so the copies share
/// every cone signature pairwise.
fn renamed_twins(design: &Design) -> Design {
    let mut twins = Design::new();
    let mut top = Composite::new("twins");
    let leaves = design.modules().iter().filter_map(|m| design.leaf(&m.name));
    for (k, leaf) in leaves.enumerate() {
        for copy in 0..2 {
            let name = format!("blk{k}_{copy}");
            let ins: Vec<NetId> = (0..leaf.inputs().len())
                .map(|i| top.add_input(format!("{name}_i{i}")))
                .collect();
            let outs: Vec<NetId> = (0..leaf.outputs().len())
                .map(|o| top.add_net(format!("{name}_o{o}")))
                .collect();
            top.add_instance(format!("u_{name}"), name.clone(), &ins, &outs);
            for &out in &outs {
                top.mark_output(out);
            }
            let mut block = leaf.clone();
            block.set_name(name);
            twins.add_leaf(block).expect("fresh name");
        }
    }
    twins.add_composite(top).expect("valid top");
    twins
}

// A budget that binds (1–12 conflicts) degrades verdicts on shared
// solver state: which probes it interrupts depends on what the module
// or class probed before. Every analysis must stay sound and
// deterministic anyway — same answer on two workers as on one, and on
// a fresh analyzer as on the first.
prop!(cases = 24, fn binding_budget_is_sound_and_deterministic(
    spec in spec_strategy(),
    conflicts in from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(1u64..13),
        |c: &u64| if *c > 1 { vec![1, *c / 2] } else { vec![] },
    ),
) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let mut rng = hfta_testkit::Rng::seed_from_u64(spec.seed ^ conflicts);
    let arrivals = arrivals_strategy(flat.inputs().len()).generate(&mut rng);
    let serial =
        AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(conflicts));
    let two_workers = serial.clone().with_threads(2).with_thread_clamp(false);
    let flattened = |design: &Design| design.flatten("s_top").expect("flattens");
    let before = bounds(&flattened(&design), &arrivals);
    let what = |analysis: &str| format!("{analysis}, {conflicts} conflicts, arrivals {arrivals:?}");

    let two_step = |config: &AnalysisConfig| {
        HierAnalyzer::with_config(&design, "s_top", config)
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes")
    };
    let h = two_step(&serial);
    assert_between(&h.output_arrivals, &before, &what("two-step"));
    assert_eq!(two_step(&two_workers), h, "{}", what("two-step on two workers"));
    assert_eq!(two_step(&serial), h, "{}", what("two-step rerun"));

    let twins = renamed_twins(&design);
    let twin_inputs = twins.composite("twins").expect("top").inputs().len();
    let twin_arrivals = arrivals_strategy(twin_inputs).generate(&mut rng);
    let on_twins = |config: &AnalysisConfig| {
        let mut an = HierAnalyzer::with_config(&twins, "twins", config).expect("valid");
        let analysis = an.analyze(&twin_arrivals).expect("analyzes");
        (analysis, an.sig_aliases().to_vec(), an.degraded_modules().to_vec())
    };
    let tw = on_twins(&serial);
    let twin_bounds = bounds(&twins.flatten("twins").expect("flattens"), &twin_arrivals);
    assert_between(&tw.0.output_arrivals, &twin_bounds, &what("two-step on twins"));
    assert_eq!(on_twins(&two_workers), tw, "{}", what("two-step on twins, two workers"));
    assert_eq!(on_twins(&serial), tw, "{}", what("two-step on twins, rerun"));

    let demand = |config: &AnalysisConfig| {
        DemandDrivenAnalyzer::with_config(&design, "s_top", config)
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes")
    };
    let d = demand(&serial);
    assert_between(&d.output_arrivals, &before, &what("demand"));
    assert_eq!(demand(&two_workers), d, "{}", what("demand on two workers"));
    assert_eq!(demand(&serial), d, "{}", what("demand rerun"));

    let report = |config: &AnalysisConfig| {
        TimingReport::generate(&flat, &arrivals, Time::ZERO, config).expect("analyzes")
    };
    let (r, r_stats) = report(&serial);
    let functional: Vec<Time> = r.outputs.iter().map(|o| o.functional).collect();
    assert_between(&functional, &bounds(&flat, &arrivals), &what("report"));
    assert_eq!(report(&two_workers), (r.clone(), r_stats), "{}", what("report on two workers"));
    assert_eq!(report(&serial), (r, r_stats), "{}", what("report rerun"));

    let edited = slowed_leaf(&design, spec.seed);
    let session = |config: &AnalysisConfig| {
        let mut an =
            IncrementalAnalyzer::with_config(design.clone(), "s_top", config).expect("valid");
        let first = an.analyze(&arrivals).expect("analyzes");
        an.replace_module(edited.clone()).expect("same ports");
        let second = an.analyze(&arrivals).expect("analyzes");
        (first, second, an.design().clone())
    };
    let (i0, i1, edited_design) = session(&serial);
    assert_between(&i0.output_arrivals, &before, &what("incremental"));
    assert_between(
        &i1.output_arrivals,
        &bounds(&flattened(&edited_design), &arrivals),
        &what("incremental after the edit"),
    );
    let (j0, j1, _) = session(&two_workers);
    assert_eq!((&j0, &j1), (&i0, &i1), "{}", what("incremental on two workers"));
    let (k0, k1, _) = session(&serial);
    assert_eq!((&k0, &k1), (&i0, &i1), "{}", what("incremental rerun"));
});

// The arrivals strategy is exercised on the flat path so −∞ pins and
// shifted windows hit the shared instance's slot mapping too.
prop!(cases = 24, fn report_never_binding_budget_matches_under_random_conditions(
    spec in spec_strategy(),
    cond_seed in from_fn_with_shrink(
        |rng: &mut Rng| rng.next_u64(),
        |s: &u64| if *s == 0 { vec![] } else { vec![0] },
    ),
) {
    let nl = random_circuit("s", spec);
    let mut rng = hfta_testkit::Rng::seed_from_u64(cond_seed);
    let strat = arrivals_strategy(nl.inputs().len());
    let arrivals = strat.generate(&mut rng);
    let shared = AnalysisConfig::default();
    let (a, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &shared).expect("analyzes");
    let (b, _) =
        TimingReport::generate(&nl, &arrivals, Time::ZERO, &never_binds()).expect("analyzes");
    assert_eq!(a, b, "reports diverged under arrivals {arrivals:?}");
});
