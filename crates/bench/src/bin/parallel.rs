//! Parallel-scaling benchmark on the large generated modular design.
//!
//! Measures hierarchical (step-1 characterization) and demand-driven
//! analysis at 1/2/4/8 threads on the ~100k-gate layered design from
//! [`hfta_netlist::gen::modular_design`], asserting every parallel
//! result equals the serial one. The thread clamp stays ON for the
//! `*_t{n}` cases — on a box with fewer cores than requested the pool
//! is never built, because oversubscribing cores is exactly the
//! regression this bench guards against (the medians then record
//! honest serial parity, not fantasy speedups). The `*_t4_forced`
//! cases disable the clamp and seat a real 4-worker pool regardless
//! of core count, so the work-stealing path itself is exercised (and
//! its determinism asserted) even on a 1-core CI runner; they are not
//! part of the CI gate.
//!
//! Pools are built once, outside the timed closures: worker spawning is
//! a per-process cost, not a per-analysis one.
//!
//! Run with `cargo run --release -p hfta-bench --bin parallel`; see
//! [`hfta_testkit::Harness`] for the environment knobs. Setting
//! `HFTA_PARALLEL_SMOKE` shrinks the design (fewer leaf flavors, fewer
//! instances) to a seconds-long pass for `scripts/check.sh` and CI,
//! whose `trajectory_gate` asserts parallel medians never regress past
//! serial ones.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, Scheduler};
use hfta_netlist::gen::{modular_design, ModularDesignSpec};
use hfta_netlist::{Design, Time};
use hfta_sched::effective_parallelism;
use hfta_testkit::Harness;

const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

fn spec() -> ModularDesignSpec {
    if std::env::var_os("HFTA_PARALLEL_SMOKE").is_some() {
        // Characterization cost scales with flavors, so the smoke
        // workload shrinks those, not just the instance count.
        ModularDesignSpec {
            flavors: 4,
            instances: 100,
            gates_per_module: 60,
            layers: 6,
            seed: 98,
            mix: Default::default(),
        }
    } else {
        ModularDesignSpec::sized(100_000, 98)
    }
}

/// Seats a clamped pool for `threads` in `config`, or none when the
/// machine cannot actually run that wide (the analysis then takes its
/// serial path).
fn seat(config: AnalysisConfig, threads: usize) -> AnalysisConfig {
    match Some(effective_parallelism(threads, true)).filter(|&e| e > 1 && threads > 1) {
        Some(effective) => config.with_scheduler(Scheduler::new(effective)),
        None => config,
    }
}

fn case_id(kind: &str, threads: usize) -> String {
    if threads == 1 {
        format!("{kind}_serial")
    } else {
        format!("{kind}_t{threads}")
    }
}

fn bench_hier(
    harness: &mut Harness,
    design: &Design,
    top: &str,
    arrivals: &[Time],
    serial_delay: Time,
) {
    let mut group = harness.group("parallel_scaling");
    for threads in THREAD_STEPS {
        let config = seat(AnalysisConfig::default().with_threads(threads), threads);
        group.bench_at_least(&case_id("hier", threads), 3, || {
            let mut an = HierAnalyzer::with_config(design, top, &config).expect("valid");
            let r = an.analyze(arrivals).expect("analyzes");
            assert_eq!(
                r.delay, serial_delay,
                "hier t{threads} diverged from serial"
            );
            r.delay
        });
    }
    // Forced-pool case: 4 genuine workers even on a narrower machine.
    let config = AnalysisConfig::default()
        .with_threads(4)
        .with_thread_clamp(false)
        .with_scheduler(Scheduler::new(4));
    group.bench_at_least("hier_t4_forced", 3, || {
        let mut an = HierAnalyzer::with_config(design, top, &config).expect("valid");
        let r = an.analyze(arrivals).expect("analyzes");
        assert_eq!(
            r.delay, serial_delay,
            "forced hier pool diverged from serial"
        );
        r.delay
    });
}

fn bench_demand(
    harness: &mut Harness,
    design: &Design,
    top: &str,
    arrivals: &[Time],
    serial_delay: Time,
) {
    let mut group = harness.group("parallel_scaling");
    for threads in THREAD_STEPS {
        // One analyzer per thread count, built and warmed outside the
        // timed closure; iterations measure steady-state refinement.
        let config = seat(AnalysisConfig::default().with_threads(threads), threads);
        let mut an = DemandDrivenAnalyzer::with_config(design, top, &config).expect("valid");
        group.bench_at_least(&case_id("demand", threads), 3, || {
            an.reset_refinement();
            let r = an.analyze(arrivals).expect("analyzes");
            assert_eq!(
                r.delay, serial_delay,
                "demand t{threads} diverged from serial"
            );
            r.delay
        });
    }
    let config = AnalysisConfig::default()
        .with_threads(4)
        .with_thread_clamp(false)
        .with_scheduler(Scheduler::new(4));
    let mut an = DemandDrivenAnalyzer::with_config(design, top, &config).expect("valid");
    group.bench_at_least("demand_t4_forced", 3, || {
        an.reset_refinement();
        let r = an.analyze(arrivals).expect("analyzes");
        assert_eq!(
            r.delay, serial_delay,
            "forced demand pool diverged from serial"
        );
        r.delay
    });
}

fn main() {
    let spec = spec();
    let design = modular_design(spec);
    let top = spec.top_name();
    let n_inputs = design.composite(&top).expect("top exists").inputs().len();
    let arrivals = vec![Time::ZERO; n_inputs];
    eprintln!(
        "design: {} ({} gates, {} instances x {} flavors)",
        top,
        spec.total_gates(),
        spec.instances,
        spec.flavors
    );

    // Reference answers every measured case must reproduce. Hier and
    // demand each check against their own serial baseline — the two
    // algorithms bound the true delay differently (demand refines only
    // while critical), so their answers need not coincide.
    let hier_delay = {
        let mut an =
            HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default()).expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    };
    let demand_delay = {
        let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
            .expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    };

    let mut harness = Harness::new("parallel");
    bench_hier(&mut harness, &design, &top, &arrivals, hier_delay);
    bench_demand(&mut harness, &design, &top, &arrivals, demand_delay);
    harness.finish();
}
