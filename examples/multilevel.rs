//! Multi-level hierarchies (the paper's footnote 4): a composite's
//! timing model is composed from its children's models without
//! flattening, so deep module trees are analyzed with one leaf
//! characterization and cheap tuple algebra.
//!
//! Run with: `cargo run --example multilevel`

use hfta::core::{analyze_multilevel, characterize_recursive, ComposeOptions};
use hfta::netlist::gen::{carry_skip_adder, CsaDelays};
use hfta::netlist::Composite;
use hfta::AnalysisConfig;
use hfta::{functional_circuit_delay, Time, TopoSta};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three levels: csa_block2 (leaf) → csa8.2 (4 blocks) → pair16
    // (two csa8.2 in cascade) — a 16-bit adder.
    let mut design = carry_skip_adder(8, 2, CsaDelays::default());
    let mut top = Composite::new("pair16");
    let c_in = top.add_input("c_in");
    let mut lo = vec![c_in];
    let mut hi = Vec::new();
    for i in 0..16 {
        let a = top.add_input(format!("a{i}"));
        let b = top.add_input(format!("b{i}"));
        if i < 8 {
            lo.push(a);
            lo.push(b);
        } else {
            hi.push(a);
            hi.push(b);
        }
    }
    let mut lo_out = Vec::new();
    for i in 0..8 {
        lo_out.push(top.add_net(format!("s{i}")));
    }
    let mid = top.add_net("c8");
    lo_out.push(mid);
    let mut hi_out = Vec::new();
    for i in 8..16 {
        hi_out.push(top.add_net(format!("s{i}")));
    }
    let c16 = top.add_net("c16");
    hi_out.push(c16);
    top.add_instance("lo", "csa8.2", &lo, &lo_out);
    let mut hi_in = vec![mid];
    hi_in.extend(hi);
    top.add_instance("hi", "csa8.2", &hi_in, &hi_out);
    for &s in lo_out[..8].iter().chain(&hi_out) {
        top.mark_output(s);
    }
    design.add_composite(top)?;

    // Compose the timing model of the mid-level module.
    let mut cache = HashMap::new();
    let timing = characterize_recursive(
        &design,
        "csa8.2",
        &AnalysisConfig::default(),
        &ComposeOptions::default(),
        &mut cache,
    )?;
    println!(
        "composed model of csa8.2 ({} inputs, {} outputs):",
        timing.input_names().len(),
        timing.output_names().len()
    );
    let carry_model = timing.model(8);
    println!("  carry-out model tuples: {}", carry_model.tuples().len());
    let min_cin = carry_model
        .tuples()
        .iter()
        .map(|t| t.delay(0))
        .min()
        .expect("non-empty");
    println!(
        "  best c_in→c8 effective delay: {min_cin} (2 per block × 4 blocks — false paths compose!)"
    );

    // Analyze the 16-bit top level through the composed models.
    let arrivals = vec![Time::ZERO; 33];
    let analysis = analyze_multilevel(
        &design,
        "pair16",
        &arrivals,
        &AnalysisConfig::default(),
        &ComposeOptions::default(),
    )?;

    // References.
    let flat = design.flatten("pair16")?;
    let exact = functional_circuit_delay(&flat)?;
    let sta = TopoSta::new(&flat)?;
    let topo = sta.circuit_delay(&vec![Time::ZERO; 33]);

    println!("\n16-bit three-level design, all inputs at t = 0:");
    println!("  multi-level hierarchical estimate: {}", analysis.delay);
    println!("  flat functional delay:             {exact}");
    println!("  topological delay:                 {topo}");
    assert!(analysis.delay >= exact && analysis.delay <= topo);
    assert_eq!(analysis.delay, exact, "composition stays exact here");
    Ok(())
}
