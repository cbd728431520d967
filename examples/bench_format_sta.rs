//! Working with external netlists: parse an ISCAS-style `.bench`
//! description, run topological vs functional STA, then bipartition
//! the circuit into a two-module cascade and analyze it hierarchically
//! (the paper's Table 2 methodology).
//!
//! Run with: `cargo run --example bench_format_sta`

use hfta::netlist::bench_format;
use hfta::netlist::partition::cascade_bipartition;
use hfta::{AnalysisConfig, DelayAnalyzer, DemandDrivenAnalyzer, Time, TopoSta};

/// A small circuit with a classic false path: a carry-skip-style
/// bypass around a two-stage chain.
const BENCH: &str = "\
# skip-bypass demo circuit
INPUT(c)
INPUT(a0)
INPUT(a1)
OUTPUT(z)
p0 = XOR(a0, a1) # delay=2
t0 = AND(p0, c)
g0 = AND(a0, a1)
k1 = OR(g0, t0)
t1 = AND(p0, k1)
g1 = AND(a0, a1)
k2 = OR(g1, t1)
z  = MUX(p0, c, k2) # delay=2
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nl = bench_format::parse(BENCH, "skip_demo")?;
    println!(
        "parsed `{}`: {} gates, {} inputs, {} outputs",
        nl.name(),
        nl.gate_count(),
        nl.inputs().len(),
        nl.outputs().len()
    );

    // Topological vs functional delay, all inputs at t = 0.
    let arrivals = vec![Time::ZERO; nl.inputs().len()];
    let sta = TopoSta::new(&nl)?;
    let topo = sta.circuit_delay(&arrivals);
    let mut fan = DelayAnalyzer::new_sat(&nl, &arrivals)?;
    let functional = fan.circuit_delay();
    println!("topological delay = {topo}");
    println!("functional  delay = {functional} (the long path through the chain is false when p0 selects the bypass)");
    assert!(functional <= topo);

    // Round-trip through the .bench writer.
    let emitted = bench_format::write(&nl);
    let again = bench_format::parse(&emitted, "skip_demo")?;
    assert_eq!(again.gate_count(), nl.gate_count());
    println!("\n.bench round trip OK ({} bytes)", emitted.len());

    // The Table 2 methodology on this circuit: bipartition into a
    // cascade of two leaf modules and analyze hierarchically.
    let design = cascade_bipartition(&nl, 0.5)?;
    let top = design
        .composite("skip_demo_top")
        .expect("partitioner names it");
    println!(
        "\npartitioned into `{}` + `{}`",
        design.leaf("skip_demo_head").expect("head").name(),
        design.leaf("skip_demo_tail").expect("tail").name()
    );
    let mut demand =
        DemandDrivenAnalyzer::with_config(&design, "skip_demo_top", &AnalysisConfig::default())?;
    let result = demand.analyze(&vec![Time::ZERO; top.inputs().len()])?;
    println!(
        "hierarchical (demand-driven) delay = {} ({} stability checks, {} refinements)",
        result.delay, result.checks, result.refinements
    );
    assert!(result.delay >= functional && result.delay <= topo);
    Ok(())
}
