//! Bit-identity property suite for the two stability paths the budget
//! selects. An unlimited budget shares one incremental SAT instance per
//! module or signature class (domain-restricted queries, cross-cone
//! learnt sharing, between-query inprocessing, plus the demand verdict
//! memo); a limited budget gives every cone a fresh solver. A budget
//! that never binds (`u64::MAX` conflicts) reaches the per-cone path
//! without degrading anything, so the two must be observationally
//! indistinguishable: verdicts, arrival times, delays, and refinement
//! round/check counts match exactly — solver reuse may only change *how
//! fast* an answer arrives, never *which* answer, and never how the
//! refinement loop walks the design.
//!
//! Budgets that do bind are pinned too: they never build a variable
//! domain, i.e. degraded verdicts never touch shared solver state.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, IncrementalAnalyzer};
use hfta_fta::{SolveBudget, TimingReport};
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition;
use hfta_netlist::{GateId, Time};
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

/// The per-cone path without degradation: a limited budget that no
/// query can exhaust.
fn never_binds() -> AnalysisConfig {
    AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(u64::MAX))
}

// Two-step characterization: the per-module shared instance answers
// every validity check exactly like a per-cone analyzer, so the
// characterized models — and everything propagated from them — match.
prop!(cases = 32, fn two_step_shared_matches_per_cone(spec in spec_strategy()) {
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
    assert_eq!(b.stats.stability.domains_built, 0, "budgeted run built a domain");
});

// Demand-driven refinement walks the design one edge probe at a time;
// the per-class shared engine (and verdict memo) must return the exact
// verdict the per-cone oracle would, in the same order — pinned by
// comparing the full round/check/refinement trajectory, not just the
// answer.
prop!(cases = 32, fn demand_shared_matches_per_cone(
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
    assert_eq!(b.stability.domains_built, 0, "budgeted run built a domain");
});

// Flat report path under random arrival conditions: the whole-module
// shared instance and the plain per-output backend produce the same
// report (arrivals, false-path flags, circuit delays), in whatever
// query order the report generator uses.
prop!(cases = 32, fn report_shared_matches_per_cone(spec in spec_strategy()) {
    let nl = random_circuit("s", spec);
    let mut cases = hfta_testkit::Rng::seed_from_u64(spec.seed ^ 0x0f1a7);
    for _ in 0..2 {
        let arrivals: Vec<Time> = (0..nl.inputs().len())
            .map(|_| Time::new(cases.gen_range(-4i64..9)))
            .collect();
        let shared = AnalysisConfig::default();
        let (a, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &shared).expect("analyzes");
        let (b, stats) =
            TimingReport::generate(&nl, &arrivals, Time::ZERO, &never_binds()).expect("analyzes");
        assert_eq!(a, b, "reports diverged under arrivals {arrivals:?}");
        assert_eq!(stats.domains_built, 0, "budgeted run built a domain");
    }
});

// The incremental analyzer: one session per path, each analyzing, taking
// a module edit, and analyzing again. Re-characterization after the
// edit runs on the same path as the first, so both runs must agree
// (per-run characterization counts included).
prop!(cases = 24, fn incremental_shared_matches_per_cone(spec in spec_strategy()) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let arrivals = vec![Time::ZERO; inputs];
    let mut edited = design
        .modules()
        .iter()
        .find_map(|m| design.leaf(&m.name))
        .expect("a leaf")
        .clone();
    let slowed = GateId::from_index(spec.seed as usize % edited.gate_count());
    let delay = edited.gate(slowed).delay + 2;
    edited.set_gate_delay(slowed, delay);

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
        assert_eq!(b.stats.stability.domains_built, 0, "budgeted run built a domain");
    }
    assert_eq!(a1.stats.modules_characterized, 1, "the edit re-characterizes one module");
});

// A budget that binds (1–12 conflicts) degrades verdicts, and a
// degraded verdict must never reach shared state: on every path the
// budgeted analysis builds no variable domain at all.
prop!(cases = 24, fn binding_budget_never_builds_a_domain(
    spec in spec_strategy(),
    conflicts in from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(1u64..12),
        |c: &u64| if *c > 1 { vec![1, *c / 2] } else { vec![] },
    ),
) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let arrivals = vec![Time::ZERO; inputs];
    let config =
        AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(conflicts));

    let mut demand = DemandDrivenAnalyzer::with_config(&design, "s_top", &config).expect("valid");
    let d = demand.analyze(&arrivals).expect("analyzes");
    assert_eq!(d.stability.domains_built, 0, "demand: {:?}", d.stability);

    let mut hier = HierAnalyzer::with_config(&design, "s_top", &config).expect("valid");
    let h = hier.analyze(&arrivals).expect("analyzes");
    assert_eq!(h.stats.stability.domains_built, 0, "two-step: {:?}", h.stats.stability);

    let flat_arrivals = vec![Time::ZERO; flat.inputs().len()];
    let (_, r) = TimingReport::generate(&flat, &flat_arrivals, Time::ZERO, &config)
        .expect("analyzes");
    assert_eq!(r.domains_built, 0, "report: {r:?}");
});

// The arrivals strategy is exercised on the flat path so −∞ pins and
// shifted windows hit the shared instance's slot mapping too.
prop!(cases = 24, fn report_shared_matches_under_random_conditions(
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
