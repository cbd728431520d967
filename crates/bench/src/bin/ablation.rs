//! Ablations called out in DESIGN.md:
//!
//! 1. **Demand-driven vs full two-step characterization** — the paper's
//!    Section 5 motivation: the two-step algorithm characterizes every
//!    pin pair of every module even when never critical.
//! 2. **Tuple-set size cap** — how many greedy relaxation passes the
//!    characterization runs (1 tuple vs several incomparable tuples).
//! 3. **Fixed vs min-cut partitioning** of the Table 2 workloads.
//! 4. **Serial vs parallel characterization** of a mixed design.
//! 5. **Persistent stability engines, serial vs 4 threads** — the
//!    demand-driven refinement loop answers many stability queries per
//!    cone from solvers that stay warm across probes and rounds.
//! 6. **Structural cone signatures** — hash-consed cone signatures
//!    share characterization across renamed module copies and
//!    stability verdicts across isomorphic cones. Measured on a
//!    replicated-block fixture (where sharing should approach the copy
//!    count, asserted through nonzero signature-cache hits) and an
//!    ISCAS-like partition (where it usually cannot). Sharing has no
//!    off switch; a baseline without it is a recorded revision.
//!
//! 7. **Shared module-level SAT instance vs per-cone solvers** — see
//!    [`bench_shared_solver`].
//!
//! Run with `cargo run --release -p hfta-bench --bin ablation`; see
//! [`hfta_testkit::Harness`] for the environment knobs. Setting
//! `HFTA_ABLATION_SMOKE` shrinks the workload and runs only the
//! oracle, cone-signature and shared-solver groups — a seconds-long
//! sanity pass used by `scripts/check.sh` and CI, which also asserts
//! the signature cache actually hits on the replicated fixture.

use hfta_bench::{build_iscas_like, IscasLike};
use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, Scheduler, TraceSink};
use hfta_netlist::gen::carry_skip_adder;
use hfta_netlist::partition::{cascade_bipartition, cascade_bipartition_min_cut};
use hfta_netlist::Time;
use hfta_testkit::Harness;

fn bench_demand_vs_twostep(harness: &mut Harness) {
    let mut group = harness.group("ablation_demand_vs_twostep");
    let design = carry_skip_adder(32, 4, Default::default());
    let arrivals = vec![Time::ZERO; 65];

    group.bench("demand_driven", || {
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa32.4", &AnalysisConfig::default())
                .expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    });
    group.bench("two_step_full", || {
        let mut an = HierAnalyzer::with_config(&design, "csa32.4", &AnalysisConfig::default())
            .expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    });
}

fn bench_tuple_cap(harness: &mut Harness) {
    let mut group = harness.group("ablation_tuple_cap");
    let design = carry_skip_adder(16, 2, Default::default());
    let arrivals = vec![Time::ZERO; 33];
    for max_tuples in [1usize, 4] {
        let config = AnalysisConfig::default().with_max_tuples(max_tuples);
        group.bench(&format!("max_tuples_{max_tuples}"), || {
            let mut an = HierAnalyzer::with_config(&design, "csa16.2", &config).expect("valid");
            an.analyze(&arrivals).expect("analyzes").delay
        });
    }
}

fn bench_partition_strategy(harness: &mut Harness) {
    let mut group = harness.group("ablation_partition");
    let w = IscasLike {
        name: "c432_like".into(),
        gates: 160,
        seed: 432,
    };
    let flat = build_iscas_like(&w);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];

    let fixed = cascade_bipartition(&flat, 0.5).expect("partitions");
    group.bench("fixed_half_split", || {
        let mut an =
            DemandDrivenAnalyzer::with_config(&fixed, "c432_like_top", &AnalysisConfig::default())
                .expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    });
    let mincut = cascade_bipartition_min_cut(&flat, 0.25, 0.75).expect("partitions");
    group.bench("min_cut_split", || {
        let mut an =
            DemandDrivenAnalyzer::with_config(&mincut, "c432_like_top", &AnalysisConfig::default())
                .expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    });
}

fn bench_parallel_characterization(harness: &mut Harness) {
    // A design with four distinct block flavours so the parallel path
    // has real fan-out.
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::{Composite, Design};
    let mut design = Design::new();
    let mut top = Composite::new("mixed");
    let mut carry = top.add_input("c_in");
    for (k, m) in [2usize, 3, 4, 5].iter().enumerate() {
        let mut block = carry_skip_block(*m, CsaDelays::default());
        block.set_name(format!("blk{k}"));
        design.add_leaf(block).expect("fresh design");
        let mut ins = vec![carry];
        for i in 0..*m {
            ins.push(top.add_input(format!("a{k}_{i}")));
            ins.push(top.add_input(format!("b{k}_{i}")));
        }
        let mut outs = Vec::new();
        for i in 0..*m {
            let s = top.add_net(format!("s{k}_{i}"));
            top.mark_output(s);
            outs.push(s);
        }
        let c = top.add_net(format!("c{k}"));
        outs.push(c);
        top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &outs);
        carry = c;
    }
    top.mark_output(carry);
    let n_inputs = top.inputs().len();
    design.add_composite(top).expect("fresh design");
    let arrivals = vec![Time::ZERO; n_inputs];

    let mut group = harness.group("ablation_parallel_characterize");
    group.bench("serial", || {
        let mut an =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).expect("valid");
        an.analyze(&arrivals).expect("analyzes").delay
    });
    // One pool shared across iterations: workers spawn once, so the
    // measurement is scheduling + characterization, not thread setup.
    let par_config = AnalysisConfig::default()
        .with_threads(4)
        .with_thread_clamp(false)
        .with_scheduler(Scheduler::new(4));
    group.bench("parallel_4_threads", || {
        let mut an = HierAnalyzer::with_config(&design, "mixed", &par_config).expect("valid");
        an.characterize_all().expect("characterizes");
        an.analyze(&arrivals).expect("analyzes").delay
    });
}

fn smoke() -> bool {
    std::env::var_os("HFTA_ABLATION_SMOKE").is_some()
}

fn bench_stability_oracle(harness: &mut Harness) {
    let mut group = harness.group("ablation_stability_oracle");
    let (bits, blocks, top) = if smoke() {
        (8usize, 2usize, "csa8.2")
    } else {
        (32, 4, "csa32.4")
    };
    let design = carry_skip_adder(bits, blocks, Default::default());
    let arrivals = vec![Time::ZERO; 2 * bits + 1];

    // Analyzers are built once, outside the timed closures, and reset
    // to a pre-refinement state each iteration: what the two cases
    // compare is steady-state refinement cost, not construction. The
    // threaded case gets a pre-built pool for the same reason — worker
    // spawning is a per-process cost, not a per-analysis one.
    let mut an_oracle =
        DemandDrivenAnalyzer::with_config(&design, top, &AnalysisConfig::default()).expect("valid");
    group.bench_at_least("persistent_oracle", 10, || {
        an_oracle.reset_refinement();
        an_oracle.analyze(&arrivals).expect("analyzes").delay
    });
    // Default thread clamping stays ON: on a box with fewer than four
    // cores this case runs serial (oversubscribing one core is exactly
    // the regression this group guards against), and on a multicore box
    // the pool spawns once on the first iteration and persists in the
    // analyzer, so steady-state iterations never pay spawn cost.
    let threaded = AnalysisConfig::default().with_threads(4);
    let mut an_par = DemandDrivenAnalyzer::with_config(&design, top, &threaded).expect("valid");
    group.bench_at_least("persistent_oracle_4_threads", 10, || {
        an_par.reset_refinement();
        an_par.analyze(&arrivals).expect("analyzes").delay
    });
}

/// `copies` identical `bits`-bit carry-skip blocks under *distinct*
/// module names — the analyzer can share nothing by name, only through
/// structural signatures. `cascaded` chains the carries (each copy then
/// sees a different arrival context); otherwise the blocks sit side by
/// side with independent carry inputs (identical arrival contexts, the
/// demand verdict memo's win case).
fn replicated_blocks(copies: usize, bits: usize, cascaded: bool) -> (hfta_netlist::Design, usize) {
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::{Composite, Design};
    let mut design = Design::new();
    let top_name = if cascaded {
        "replicated"
    } else {
        "replicated_par"
    };
    let mut top = Composite::new(top_name);
    let mut carry = top.add_input("c_in");
    for k in 0..copies {
        let mut block = carry_skip_block(bits, CsaDelays::default());
        block.set_name(format!("{top_name}_blk{k}"));
        design.add_leaf(block).expect("fresh design");
        if !cascaded && k > 0 {
            carry = top.add_input(format!("c_in{k}"));
        }
        let mut ins = vec![carry];
        for i in 0..bits {
            ins.push(top.add_input(format!("a{k}_{i}")));
            ins.push(top.add_input(format!("b{k}_{i}")));
        }
        let mut outs = Vec::new();
        for i in 0..bits {
            let s = top.add_net(format!("s{k}_{i}"));
            top.mark_output(s);
            outs.push(s);
        }
        let c = top.add_net(format!("c{k}"));
        outs.push(c);
        top.add_instance(format!("u{k}"), format!("{top_name}_blk{k}"), &ins, &outs);
        if cascaded {
            carry = c;
        } else {
            top.mark_output(c);
        }
    }
    if cascaded {
        top.mark_output(carry);
    }
    let n_inputs = top.inputs().len();
    design.add_composite(top).expect("fresh design");
    (design, n_inputs)
}

fn bench_cone_sig(harness: &mut Harness, trace: &TraceSink) {
    let (copies, bits) = if smoke() { (4usize, 2usize) } else { (8, 4) };
    let (design, n_inputs) = replicated_blocks(copies, bits, true);
    let arrivals = vec![Time::ZERO; n_inputs];

    let mut group = harness.group("ablation_cone_sig");
    let traced = AnalysisConfig::default().with_trace(trace.clone());
    group.bench("hier_sig_on", || {
        let mut an = HierAnalyzer::with_config(&design, "replicated", &traced).expect("valid");
        let r = an.analyze(&arrivals).expect("analyzes");
        assert!(
            r.stats.stability.cone_sig_hits > 0,
            "signature cache reported zero hits on the replicated fixture"
        );
        assert_eq!(r.stats.modules_aliased, copies as u64 - 1);
        r.delay
    });
    group.bench("demand_sig_on", || {
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "replicated", &traced).expect("valid");
        let r = an.analyze(&arrivals).expect("analyzes");
        assert!(
            r.stability.cone_sig_hits > 0,
            "verdict memo reported zero hits on the replicated fixture"
        );
        r.delay
    });

    // Side-by-side copies (no carry chain): every copy refines under
    // the *same* arrival context, so verdicts shared across isomorphic
    // cones actually land — the memo's intended workload.
    let (par_design, par_inputs) = replicated_blocks(copies, bits, false);
    let par_arrivals = vec![Time::ZERO; par_inputs];
    group.bench("demand_par_sig_on", || {
        let mut an = DemandDrivenAnalyzer::with_config(
            &par_design,
            "replicated_par",
            &AnalysisConfig::default(),
        )
        .expect("valid");
        let r = an.analyze(&par_arrivals).expect("analyzes");
        assert!(
            r.stability.cone_sig_hits > 0,
            "verdict memo reported zero hits on the side-by-side fixture"
        );
        r.delay
    });

    if !smoke() {
        // A partitioned random netlist: the halves are not isomorphic,
        // so this prices the signature computation when sharing mostly
        // fails to materialize.
        let w = IscasLike {
            name: "c880_like".into(),
            gates: 320,
            seed: 880,
        };
        let flat = build_iscas_like(&w);
        let arr = vec![Time::ZERO; flat.inputs().len()];
        let part = cascade_bipartition(&flat, 0.5).expect("partitions");
        group.bench("iscas_demand_sig_on", || {
            let mut an = DemandDrivenAnalyzer::with_config(
                &part,
                "c880_like_top",
                &AnalysisConfig::default(),
            )
            .expect("valid");
            an.analyze(&arr).expect("analyzes").delay
        });
    }
}

/// Shared module instance vs per-cone solvers: one incremental
/// SAT instance per module answers every cone's stability queries,
/// restricted to the cone's transitive-fanin variable domain, sharing
/// learnt clauses across cones (and, in demand mode, across isomorphic
/// cone classes via slot-permuted import) with between-query
/// inprocessing. Measured on the flat XBD0 path of an ISCAS-like
/// netlist against a per-cone baseline the bench builds itself (the
/// `trajectory_gate` asserts shared never regresses past it), and on
/// demand refinement of the replicated cascade, which asserts the
/// class oracles really ran.
fn bench_shared_solver(harness: &mut Harness) {
    use hfta_fta::DelayAnalyzer;

    let mut group = harness.group("ablation_shared_solver");
    use hfta_netlist::gen::{random_circuit, RandomCircuitSpec};
    let spec = RandomCircuitSpec {
        inputs: 40,
        gates: if smoke() { 64 } else { 240 },
        seed: 499,
        locality: 12,
        global_fanin_prob: 0.01,
        mix: hfta_netlist::gen::GateMix::XorHeavy,
    };
    let flat = random_circuit("c499_like", spec);
    let arr = vec![Time::ZERO; flat.inputs().len()];
    // One reference answer so both cases can assert bit-identity.
    let expected = {
        let mut an = DelayAnalyzer::new_sat_shared(&flat, &arr).expect("valid");
        an.circuit_delay()
    };
    // The per-cone baseline the shared instance replaces: a fresh
    // solver and a fresh encoding for every output cone, re-deriving
    // the overlap between cones from scratch each time.
    group.bench_at_least("flat_xbd0_per_cone", 3, || {
        let mut worst = Time::ZERO;
        for &o in flat.outputs() {
            let (cone, _pis) = flat.cone(o);
            let cone_arr = vec![Time::ZERO; cone.inputs().len()];
            let mut an = DelayAnalyzer::new_sat(&cone, &cone_arr).expect("valid");
            worst = worst.max(an.circuit_delay());
        }
        assert_eq!(worst, expected, "per-cone delay diverges from shared");
        worst
    });
    group.bench_at_least("flat_xbd0_shared", 3, || {
        let mut an = DelayAnalyzer::new_sat_shared(&flat, &arr).expect("valid");
        let d = an.circuit_delay();
        assert_eq!(d, expected, "shared delay is not reproducible");
        d
    });

    // Demand refinement on the replicated cascade: each signature
    // class answers from one shared-solver oracle.
    let (copies, bits) = if smoke() { (4usize, 2usize) } else { (8, 4) };
    let (design, n_inputs) = replicated_blocks(copies, bits, true);
    let arrivals = vec![Time::ZERO; n_inputs];
    group.bench_at_least("demand_cascade_shared", 5, || {
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "replicated", &AnalysisConfig::default())
                .expect("valid");
        let r = an.analyze(&arrivals).expect("analyzes");
        assert!(
            r.stability.domains_built > 0,
            "shared mode reported zero domains built on the cascade fixture"
        );
        r.delay
    });
}

/// Write the accumulated trace to `HFTA_TRACE_JSON` (if set). CI's
/// smoke run greps the file for `sat_episode` and `module_alias`
/// records, pinning the tracing subsystem end to end.
fn emit_trace(trace: &TraceSink, path: Option<&str>) {
    let Some(path) = path else { return };
    let recs = trace.drain();
    std::fs::write(path, recs.to_jsonl()).expect("trace file is writable");
    eprintln!("trace: wrote {} records to {path}", recs.records().len());
}

fn main() {
    let trace_path = std::env::var("HFTA_TRACE_JSON").ok();
    let trace = if trace_path.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    let mut harness = Harness::new("ablation");
    if smoke() {
        bench_stability_oracle(&mut harness);
        bench_cone_sig(&mut harness, &trace);
        bench_shared_solver(&mut harness);
        harness.finish();
        emit_trace(&trace, trace_path.as_deref());
        return;
    }
    bench_demand_vs_twostep(&mut harness);
    bench_tuple_cap(&mut harness);
    bench_partition_strategy(&mut harness);
    bench_parallel_characterization(&mut harness);
    bench_stability_oracle(&mut harness);
    bench_cone_sig(&mut harness, &trace);
    bench_shared_solver(&mut harness);
    harness.finish();
    emit_trace(&trace, trace_path.as_deref());
}
