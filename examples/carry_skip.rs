//! The full Section 4 walkthrough of the paper: timing models of the
//! 2-bit carry-skip block, the stacked-polygon propagation of
//! Figures 3–4, the slack analysis of Figure 5, and the parametric
//! delay formula checked against flat analysis up to n = 8 blocks.
//!
//! Run with: `cargo run --example carry_skip`

use hfta::netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};
use hfta::{
    AnalysisConfig, DelayAnalyzer, HierAnalyzer, ModelSource, ModuleTiming, Time, TimingModel,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// Renders a timing-model tuple as the paper's Figure 3 "polygon": one
/// bar per input whose length is the input's effective delay.
fn render_polygon(names: &[String], model: &TimingModel) {
    for tuple in model.tuples() {
        let max = tuple
            .delays()
            .iter()
            .filter_map(|d| d.finite())
            .max()
            .unwrap_or(0);
        for (name, &d) in names.iter().zip(tuple.delays()) {
            match d.finite() {
                Some(v) => {
                    let bar = "█".repeat(usize::try_from(v.max(0)).unwrap_or(0));
                    let pad = " ".repeat(usize::try_from(max - v.max(0)).unwrap_or(0));
                    println!("    {name:<5} {pad}{bar}| {v}");
                }
                None => println!("    {name:<5} (not required)"),
            }
        }
        println!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let block = design.leaf("csa_block2").expect("generator provides it");

    // ---------------------------------------------------------------
    // The timing models of the 2-bit block (paper Section 4).
    // ---------------------------------------------------------------
    let timing = ModuleTiming::characterize(block, &AnalysisConfig::default())?;
    println!("== timing models of the 2-bit carry-skip block ==");
    println!(
        "   (inputs ordered {} — compare the paper's Section 4)",
        timing.input_names().join(" < ")
    );
    for (name, model) in timing.output_names().iter().zip(timing.models()) {
        println!("  T_{name} = {model}");
    }
    let t_cout = timing.model(2);
    assert_eq!(
        t_cout.tuples()[0].delay(0),
        t(2),
        "c_in→c_out false path captured"
    );
    println!();
    println!("Figure 3 — T_cout as a polygon (bar length = effective delay):");
    render_polygon(timing.input_names(), t_cout);

    // ---------------------------------------------------------------
    // Figure 4: stacking polygons — hierarchical propagation through
    // the 4-bit cascade with all inputs at t = 0.
    // ---------------------------------------------------------------
    println!("== Figure 4: hierarchical analysis of the 4-bit cascade ==");
    let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
    let analysis = hier.analyze(&[t(0); 9])?;
    let top = design.composite("csa4.2").expect("generator provides it");
    let tmp = top.find_net("c2").expect("intermediate carry");
    let c4 = top.find_net("c4").expect("final carry");
    println!(
        "  arrival(tmp = c2) = {}   (a0/b0 critical in block 1)",
        analysis.net_arrivals[tmp.index()]
    );
    println!(
        "  arrival(c4)       = {}  (tmp critical through the skip mux)",
        analysis.net_arrivals[c4.index()]
    );
    assert_eq!(analysis.net_arrivals[tmp.index()], t(8));
    assert_eq!(analysis.net_arrivals[c4.index()], t(10));
    println!("  — matches flat analysis exactly.");
    println!();

    // ---------------------------------------------------------------
    // Figure 5: arr(c_in) = 5, other inputs 0. Functional slack of
    // c_in is +1; topological slack is −3.
    // ---------------------------------------------------------------
    println!("== Figure 5: slack of c_in under arr(c_in)=5, others 0 ==");
    let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
    let stable = t_cout.stable_time(&arrivals);
    println!("  c_out stable at {stable} (flat analysis agrees)");
    let functional_slack = t_cout.input_slack(&arrivals, stable, 0);
    let topo_model = ModuleTiming::characterize(
        block,
        &AnalysisConfig::default().with_source(ModelSource::Topological),
    )?;
    let topo_slack = topo_model.model(2).input_slack(&arrivals, stable, 0);
    println!("  functional slack(c_in)  = {functional_slack}  (c_in may be delayed 1 more unit)");
    println!("  topological slack(c_in) = {topo_slack}  (false path makes it look critical)");
    assert_eq!(functional_slack, t(1));
    assert_eq!(topo_slack, t(-3));
    // Cross-check the stable time against the flat analyzer.
    let mut flat = DelayAnalyzer::new_sat(block, &arrivals)?;
    let c_out = block.find_net("c_out").expect("exists");
    assert_eq!(flat.output_arrival(c_out), stable);
    println!();

    // ---------------------------------------------------------------
    // Parametric analysis: delay(last carry of n blocks) = 2n + 6,
    // verified against flat analysis up to n = 8 (as in the paper).
    // ---------------------------------------------------------------
    println!("== parametric formula: carry delay of n cascaded blocks = 2n + 6 ==");
    println!("  blocks | hierarchical | flat | formula");
    for blocks in 1usize..=8 {
        let bits = blocks * 2;
        let name = format!("csa{bits}.2");
        let design = carry_skip_adder(bits, 2, CsaDelays::default());
        let mut hier = HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default())?;
        let analysis = hier.analyze(&vec![t(0); 2 * bits + 1])?;
        let top = design.composite(&name).expect("exists");
        let carry = top.find_net(&format!("c{bits}")).expect("exists");
        let hier_carry = analysis.net_arrivals[carry.index()];

        let flat = carry_skip_adder_flat(bits, 2, CsaDelays::default())?;
        let mut an = DelayAnalyzer::new_sat(&flat, &vec![t(0); 2 * bits + 1])?;
        let flat_carry = an.output_arrival(flat.find_net(&format!("c{bits}")).expect("exists"));

        let formula = t(2 * blocks as i64 + 6);
        println!("  {blocks:>6} | {hier_carry:>12} | {flat_carry:>4} | {formula}");
        assert_eq!(hier_carry, formula);
        assert_eq!(flat_carry, formula);
    }
    println!("\nAll Section 4 numbers reproduced.");
    Ok(())
}
