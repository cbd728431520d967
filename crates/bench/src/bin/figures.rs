//! Regenerates the data behind the paper's **Figures 1–5**.
//!
//! * Figures 1–2 are circuit schematics — their structural generators
//!   are exercised and summarized here.
//! * Figure 3: the timing model `T_cout` of the 2-bit block as a
//!   "polygon" (one effective delay per input).
//! * Figure 4: stacked-polygon propagation through the 4-bit cascade
//!   (arrival series at tmp and c4), plus the parametric series
//!   `delay(c_{2n}) = 2n + 6` checked against flat analysis.
//! * Figure 5: the block under `arr(c_in)=5`, others 0 — delay 8,
//!   functional slack(c_in) = +1 vs topological −3.
//!
//! Run with: `cargo run --release -p hfta-bench --bin figures`

use hfta_core::{AnalysisConfig, HierAnalyzer, ModelSource, ModuleTiming};
use hfta_fta::DelayAnalyzer;
use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, carry_skip_block, CsaDelays};
use hfta_netlist::Time;

fn t(v: i64) -> Time {
    Time::new(v)
}

fn main() {
    let delays = CsaDelays::default();

    // Figures 1–2: the circuits themselves.
    let block = carry_skip_block(2, delays);
    println!(
        "Figure 1: 2-bit carry-skip adder block — {} gates, ports ({} in, {} out)",
        block.gate_count(),
        block.inputs().len(),
        block.outputs().len()
    );
    let cascade = carry_skip_adder(4, 2, delays);
    let flat4 = cascade.flatten("csa4.2").expect("flattens");
    println!(
        "Figure 2: 4-bit cascade of two blocks — {} gates flat\n",
        flat4.gate_count()
    );

    // Figure 3: T_cout polygon.
    let timing =
        ModuleTiming::characterize(&block, &AnalysisConfig::default()).expect("characterizes");
    println!("Figure 3: timing model T_cout (effective delay per input):");
    let t_cout = timing.model(2);
    for (name, &d) in timing.input_names().iter().zip(t_cout.tuples()[0].delays()) {
        println!("  {name:<5} {d}");
    }
    println!();

    // Figure 4: stacked propagation, all inputs at 0.
    let mut hier =
        HierAnalyzer::with_config(&cascade, "csa4.2", &AnalysisConfig::default()).expect("valid");
    let analysis = hier.analyze(&[t(0); 9]).expect("analyzes");
    let top = cascade.composite("csa4.2").expect("exists");
    let tmp = top.find_net("c2").expect("exists");
    let c4 = top.find_net("c4").expect("exists");
    println!(
        "Figure 4: arrival(tmp) = {}, arrival(c4) = {}",
        analysis.net_arrivals[tmp.index()],
        analysis.net_arrivals[c4.index()]
    );

    println!("\nparametric series: delay of the last carry, n cascaded 2-bit blocks");
    println!("  n | hier | flat | 2n+6");
    for blocks in 1usize..=8 {
        let bits = 2 * blocks;
        let name = format!("csa{bits}.2");
        let design = carry_skip_adder(bits, 2, delays);
        let mut hier =
            HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default()).expect("valid");
        let analysis = hier.analyze(&vec![t(0); 2 * bits + 1]).expect("analyzes");
        let topc = design.composite(&name).expect("exists");
        let carry = topc.find_net(&format!("c{bits}")).expect("exists");
        let hier_carry = analysis.net_arrivals[carry.index()];

        let flat = carry_skip_adder_flat(bits, 2, delays).expect("flattens");
        let mut an =
            DelayAnalyzer::new_sat_shared(&flat, &vec![t(0); 2 * bits + 1]).expect("valid");
        let flat_carry = an.output_arrival(flat.find_net(&format!("c{bits}")).expect("exists"));
        let formula = t(2 * blocks as i64 + 6);
        println!("  {blocks} | {hier_carry:>4} | {flat_carry:>4} | {formula:>4}");
        assert_eq!(hier_carry, formula);
        assert_eq!(flat_carry, formula);
    }

    // Figure 5: skewed arrivals and the slack of c_in.
    println!("\nFigure 5: arr(c_in)=5, other inputs 0");
    let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
    let stable = t_cout.stable_time(&arrivals);
    let mut flat_an = DelayAnalyzer::new_sat_shared(&block, &arrivals).expect("valid");
    let flat_stable = flat_an.output_arrival(block.find_net("c_out").expect("exists"));
    println!("  delay(c_out): hierarchical model {stable}, flat {flat_stable}");
    let func_slack = t_cout.input_slack(&arrivals, stable, 0);
    let topo = ModuleTiming::characterize(
        &block,
        &AnalysisConfig::default().with_source(ModelSource::Topological),
    )
    .expect("characterizes");
    let topo_slack = topo.model(2).input_slack(&arrivals, stable, 0);
    println!("  slack(c_in): functional {func_slack}, topological {topo_slack}");
    assert_eq!(stable, t(8));
    assert_eq!(flat_stable, t(8));
    assert_eq!(func_slack, t(1));
    assert_eq!(topo_slack, t(-3));
    println!("\nAll figure data reproduced.");
}
