//! Scheduler integration tests: parallel analysis must be bit-identical
//! to serial at every thread count, on the happy path and on the
//! budgeted/degraded one, and the persistent pool must spawn workers
//! once per analyzer lifetime — not once per refinement round.
//!
//! All parallel cases here disable the thread clamp
//! ([`AnalysisConfig::clamp_threads`])
//! so the pool genuinely runs multi-worker even on a 1-core CI box;
//! determinism that held only under a lucky schedule would pass a
//! clamped test vacuously.

use hfta_core::SolveBudget;
use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, Scheduler, TraceSink};
use hfta_netlist::gen::{modular_design, GateMix, ModularDesignSpec};
use hfta_netlist::{Design, Time};
use hfta_trace::Value;

/// A small layered multi-flavor design: distinct modules (real fan-out
/// for the characterization pool) and enough instances that demand
/// refinement rounds span several signature classes.
fn fixture() -> (Design, String, Vec<Time>) {
    let spec = ModularDesignSpec {
        flavors: 3,
        instances: 24,
        gates_per_module: 30,
        layers: 4,
        seed: 7,
        mix: GateMix::NandHeavy,
    };
    let design = modular_design(spec);
    let top = spec.top_name();
    let n = design.composite(&top).expect("top").inputs().len();
    let arrivals = vec![Time::ZERO; n];
    (design, top, arrivals)
}

#[test]
fn parallel_matches_serial_at_every_thread_count() {
    let (design, top, arrivals) = fixture();
    let hier_serial = HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
        .expect("valid")
        .analyze(&arrivals)
        .expect("analyzes");
    let demand_serial =
        DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes");
    for threads in [2usize, 4, 8] {
        let hier_opts = AnalysisConfig::default()
            .with_threads(threads)
            .with_thread_clamp(false);
        let got = HierAnalyzer::with_config(&design, &top, &hier_opts)
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes");
        assert_eq!(got.delay, hier_serial.delay, "hier threads={threads}");
        assert_eq!(
            got.output_arrivals, hier_serial.output_arrivals,
            "hier threads={threads}"
        );
        assert_eq!(
            got.net_arrivals, hier_serial.net_arrivals,
            "hier threads={threads}"
        );

        let demand_opts = AnalysisConfig::default()
            .with_threads(threads)
            .with_thread_clamp(false);
        let got = DemandDrivenAnalyzer::with_config(&design, &top, &demand_opts)
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes");
        assert_eq!(got.delay, demand_serial.delay, "demand threads={threads}");
        assert_eq!(
            got.output_arrivals, demand_serial.output_arrivals,
            "demand threads={threads}"
        );
        // The refinement trajectory itself is schedule-independent,
        // not just the answer.
        assert_eq!(got.rounds, demand_serial.rounds, "demand threads={threads}");
        assert_eq!(got.checks, demand_serial.checks, "demand threads={threads}");
        assert_eq!(
            got.refinements, demand_serial.refinements,
            "demand threads={threads}"
        );
    }
}

/// A per-probe conflict budget degrades some verdicts; which ones
/// degrade is a function of the probe, not of the schedule, so the
/// budgeted path must stay bit-identical too.
#[test]
fn budgeted_parallel_matches_budgeted_serial() {
    let (design, top, arrivals) = fixture();
    let budget = SolveBudget::default().with_conflicts(2);
    let serial = DemandDrivenAnalyzer::with_config(
        &design,
        &top,
        &AnalysisConfig::default().with_budget(budget),
    )
    .expect("valid")
    .analyze(&arrivals)
    .expect("analyzes");
    for threads in [2usize, 8] {
        let opts = AnalysisConfig::default()
            .with_budget(budget)
            .with_threads(threads)
            .with_thread_clamp(false);
        let got = DemandDrivenAnalyzer::with_config(&design, &top, &opts)
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes");
        assert_eq!(got.delay, serial.delay, "threads={threads}");
        assert_eq!(
            got.output_arrivals, serial.output_arrivals,
            "threads={threads}"
        );
        assert_eq!(got.rounds, serial.rounds, "threads={threads}");
        assert_eq!(got.checks, serial.checks, "threads={threads}");
    }
}

/// An already-expired deadline freezes every cone before refinement
/// starts; serial and parallel must degrade to the identical
/// (topological) answer, merged in class order.
#[test]
fn expired_deadline_is_bit_identical_across_schedules() {
    let (design, top, arrivals) = fixture();
    let expired = || SolveBudget::default().with_deadline(std::time::Instant::now());
    let serial = DemandDrivenAnalyzer::with_config(
        &design,
        &top,
        &AnalysisConfig::default().with_budget(expired()),
    )
    .expect("valid")
    .analyze(&arrivals)
    .expect("analyzes");
    let opts = AnalysisConfig::default()
        .with_budget(expired())
        .with_threads(4)
        .with_thread_clamp(false);
    let got = DemandDrivenAnalyzer::with_config(&design, &top, &opts)
        .expect("valid")
        .analyze(&arrivals)
        .expect("analyzes");
    assert_eq!(got.delay, serial.delay);
    assert_eq!(got.output_arrivals, serial.output_arrivals);
    assert!(got.stability.degraded > 0, "{:?}", got.stability);
}

/// A deadline that fires mid-refinement cannot promise bit-identity
/// (wall clocks differ per schedule), but the parallel run must still
/// terminate, merge cleanly, and stay conservative with respect to the
/// exact answer.
#[test]
fn mid_run_deadline_terminates_and_stays_conservative() {
    let (design, top, arrivals) = fixture();
    let exact = DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
        .expect("valid")
        .analyze(&arrivals)
        .expect("analyzes");
    let deadline = std::time::Instant::now() + std::time::Duration::from_micros(200);
    let opts = AnalysisConfig::default()
        .with_budget(SolveBudget::default().with_deadline(deadline))
        .with_threads(4)
        .with_thread_clamp(false);
    let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &opts).expect("valid");
    let got = an.analyze(&arrivals).expect("analyzes");
    assert!(
        got.delay >= exact.delay,
        "degraded answer must stay conservative: {:?} < {:?}",
        got.delay,
        exact.delay
    );
    // The analyzer is left whole: a second, un-hurried analysis on the
    // same instance still works and reproduces the frozen answer.
    let again = an.analyze(&arrivals).expect("analyzes");
    assert_eq!(again.delay, got.delay);
}

/// Satellite of the scheduling bugfix: workers are spawned once per
/// pool, not once per refinement round (the old `thread::scope` path
/// re-spawned every round of every analyze call).
#[test]
fn worker_spawn_count_is_per_pool_not_per_round() {
    let (design, top, arrivals) = fixture();
    let opts = AnalysisConfig::default()
        .with_threads(4)
        .with_thread_clamp(false);
    let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &opts).expect("valid");
    let first = an.analyze(&arrivals).expect("analyzes");
    assert!(first.rounds > 1, "fixture must need several rounds");
    an.reset_refinement();
    let second = an.analyze(&arrivals).expect("analyzes");
    assert_eq!(second.delay, first.delay);
    let pool = an.scheduler_handle().expect("pool was created lazily");
    assert_eq!(pool.threads(), 4);
    assert_eq!(
        pool.workers_spawned(),
        4,
        "spawn count must be O(threads), not O(rounds x threads): \
         {} rounds ran twice",
        first.rounds
    );
}

/// Requesting more threads than the machine has clamps the pool and
/// says so in the trace.
#[test]
fn clamp_is_reported_in_the_trace() {
    let (design, top, arrivals) = fixture();
    let available = hfta_sched::available_parallelism();
    let requested = available * 2;
    let sink = TraceSink::enabled();
    let config = AnalysisConfig::new()
        .with_threads(requested)
        .with_trace(sink.clone());
    let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &config).expect("valid");
    an.analyze(&arrivals).expect("analyzes");
    let trace = sink.drain();
    let clamp_events: Vec<_> = trace
        .records()
        .iter()
        .filter(|r| r.name == "threads_clamped")
        .collect();
    assert_eq!(clamp_events.len(), 1, "reported once, not once per round");
    let fields = &clamp_events[0].fields;
    let field = |k: &str| {
        fields
            .iter()
            .find(|(name, _)| *name == k)
            .unwrap_or_else(|| panic!("missing field {k}"))
            .1
            .clone()
    };
    assert_eq!(field("requested"), Value::from(requested));
    assert_eq!(field("effective"), Value::from(available));
}

/// One pool seated in an `AnalysisConfig` serves several analyzers:
/// nobody respawns workers, and answers match the serial ones.
#[test]
fn one_pool_is_shared_across_analyzers() {
    let (design, top, arrivals) = fixture();
    let pool = Scheduler::new(2);
    let config = AnalysisConfig::new()
        .with_threads(2)
        .with_scheduler(pool.clone());

    let mut hier = HierAnalyzer::with_config(&design, &top, &config).expect("valid");
    let mut demand = DemandDrivenAnalyzer::with_config(&design, &top, &config).expect("valid");
    let hier_got = hier.analyze(&arrivals).expect("analyzes");
    let demand_got = demand.analyze(&arrivals).expect("analyzes");

    assert_eq!(pool.workers_spawned(), 2, "both analyzers rode one pool");
    let hier_serial = HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
        .expect("valid")
        .analyze(&arrivals)
        .expect("analyzes");
    let demand_serial =
        DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
            .expect("valid")
            .analyze(&arrivals)
            .expect("analyzes");
    assert_eq!(hier_got.delay, hier_serial.delay);
    assert_eq!(hier_got.output_arrivals, hier_serial.output_arrivals);
    assert_eq!(demand_got.delay, demand_serial.delay);
    assert_eq!(demand_got.output_arrivals, demand_serial.output_arrivals);
}
