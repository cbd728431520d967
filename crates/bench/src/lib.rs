//! Shared workloads and measurement helpers for the HFTA benchmark
//! harness.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation:
//!
//! * `table1` — carry-skip adders, hierarchical vs flat (Table 1);
//! * `table2` — partitioned ISCAS-like circuits (Table 2);
//! * `figures` — the Section 4 figures (timing-model polygon, stacked
//!   propagation, Figure 5 slacks, parametric delay series).
//!
//! The micro-benchmark binaries `carry_skip`, `iscas_like`, `engines`,
//! and `ablation` (also in `src/bin/`, built on
//! [`hfta_testkit::Harness`]) measure the same workloads plus the
//! ablations called out in DESIGN.md; run them with
//! `cargo run --release -p hfta-bench --bin <name>`.

use std::time::{Duration, Instant};

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
use hfta_fta::{DelayAnalyzer, TopoSta};
use hfta_netlist::gen::{carry_skip_adder, random_circuit, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition_min_cut;
use hfta_netlist::{Design, Netlist, Time};

/// A Table 1 configuration: the `csa n.m` family.
#[derive(Clone, Copy, Debug)]
pub struct CsaConfig {
    /// Total adder width in bits.
    pub bits: usize,
    /// Carry-skip block width in bits.
    pub block: usize,
}

impl CsaConfig {
    /// The paper-style circuit name `csa{n}.{m}`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("csa{}.{}", self.bits, self.block)
    }
}

/// The Table 1 sweep: n ∈ {8, 16, 32, 64}, m ∈ {2, 4, 8}.
#[must_use]
pub fn table1_configs() -> Vec<CsaConfig> {
    let mut v = Vec::new();
    for bits in [8usize, 16, 32, 64] {
        for block in [2usize, 4, 8] {
            if bits % block == 0 && bits > block {
                v.push(CsaConfig { bits, block });
            }
        }
    }
    v
}

/// A Table 2 workload: an ISCAS-like random circuit sized after the
/// named ISCAS-85 benchmark.
#[derive(Clone, Debug)]
pub struct IscasLike {
    /// Display name (`c432_like`, …).
    pub name: String,
    /// Gate count of the original benchmark.
    pub gates: usize,
    /// Generator seed.
    pub seed: u64,
}

/// The Table 2 sweep: six circuits sized after C432…C2670.
#[must_use]
pub fn table2_workloads() -> Vec<IscasLike> {
    [
        ("c432_like", 160, 432),
        ("c499_like", 202, 499),
        ("c880_like", 383, 880),
        ("c1355_like", 546, 1355),
        ("c1908_like", 880, 1908),
        ("c2670_like", 1193, 2670),
    ]
    .into_iter()
    .map(|(name, gates, seed)| IscasLike {
        name: name.to_string(),
        gates,
        seed,
    })
    .collect()
}

/// Builds one ISCAS-like flat circuit.
#[must_use]
pub fn build_iscas_like(w: &IscasLike) -> Netlist {
    random_circuit(&w.name, RandomCircuitSpec::iscas_like(w.gates, w.seed))
}

/// Measures a closure's wall time alongside its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Result row shared by the table binaries.
#[derive(Clone, Debug)]
pub struct Row {
    /// Circuit name.
    pub circuit: String,
    /// Gate count of the flattened circuit.
    pub gates: usize,
    /// Topological delay.
    pub topological: Time,
    /// Hierarchical (demand-driven) estimated delay.
    pub hier_delay: Time,
    /// Hierarchical CPU time.
    pub hier_cpu: Duration,
    /// Flat functional delay.
    pub flat_delay: Time,
    /// Flat CPU time.
    pub flat_cpu: Duration,
}

impl Row {
    /// Prints the table header.
    pub fn print_header() {
        println!(
            "{:<14} {:>6} | {:>6} | {:>6} {:>10} | {:>6} {:>10}",
            "circuit", "gates", "topo", "hier", "hier CPU", "flat", "flat CPU"
        );
        println!("{}", "-".repeat(72));
    }

    /// Prints one row.
    pub fn print(&self) {
        println!(
            "{:<14} {:>6} | {:>6} | {:>6} {:>9.3}s | {:>6} {:>9.3}s",
            self.circuit,
            self.gates,
            self.topological,
            self.hier_delay,
            self.hier_cpu.as_secs_f64(),
            self.flat_delay,
            self.flat_cpu.as_secs_f64(),
        );
    }
}

/// Runs the hierarchical (demand-driven, Section 5) vs flat comparison
/// on a depth-1 design and its flattened equivalent.
///
/// # Panics
///
/// Panics if the design or netlists are malformed (generator output
/// never is).
#[must_use]
pub fn compare(design: &Design, top_name: &str, flat: &Netlist) -> Row {
    let top = design.composite(top_name).expect("top module exists");
    let arrivals = vec![Time::ZERO; top.inputs().len()];

    let sta = TopoSta::new(flat).expect("acyclic");
    let flat_arrivals = vec![Time::ZERO; flat.inputs().len()];
    let topological = sta.circuit_delay(&flat_arrivals);

    let (hier_delay, hier_cpu) = timed(|| {
        let mut an =
            DemandDrivenAnalyzer::with_config(design, top_name, &AnalysisConfig::default())
                .expect("valid design");
        an.analyze(&arrivals).expect("analysis succeeds").delay
    });

    let (flat_delay, flat_cpu) = timed(|| {
        let mut an = DelayAnalyzer::new_sat_shared(flat, &flat_arrivals).expect("acyclic");
        an.circuit_delay()
    });

    Row {
        circuit: top_name.trim_end_matches("_top").to_string(),
        gates: flat.gate_count(),
        topological,
        hier_delay,
        hier_cpu,
        flat_delay,
        flat_cpu,
    }
}

/// Builds the Table 1 row for one adder configuration.
///
/// # Panics
///
/// Panics on malformed generator output (never happens).
#[must_use]
pub fn table1_row(cfg: &CsaConfig) -> Row {
    let design = carry_skip_adder(cfg.bits, cfg.block, Default::default());
    let flat = design
        .flatten(&cfg.name())
        .expect("generator output flattens");
    let mut row = compare(&design, &cfg.name(), &flat);
    row.circuit = cfg.name();
    row
}

/// Builds the Table 2 row for one ISCAS-like workload.
///
/// # Panics
///
/// Panics on malformed generator output (never happens).
#[must_use]
pub fn table2_row(w: &IscasLike) -> Row {
    let flat = build_iscas_like(w);
    // The paper partitions at a natural cascade boundary; the min-cut
    // sweep finds the narrowest crossing in the middle half.
    let design = cascade_bipartition_min_cut(&flat, 0.25, 0.75).expect("partitionable");
    let mut row = compare(&design, &format!("{}_top", w.name), &flat);
    row.circuit = w.name.clone();
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sweep_is_plausible() {
        let configs = table1_configs();
        assert!(configs.len() >= 9);
        assert!(configs.iter().any(|c| c.bits == 64 && c.block == 8));
        assert_eq!(CsaConfig { bits: 16, block: 4 }.name(), "csa16.4");
    }

    #[test]
    fn small_table1_row_matches_paper_shape() {
        let cfg = CsaConfig { bits: 8, block: 2 };
        let row = table1_row(&cfg);
        // Accuracy fully preserved: hier == flat < topological.
        assert_eq!(row.hier_delay, row.flat_delay);
        assert!(row.hier_delay < row.topological);
        assert_eq!(row.flat_delay, Time::new(16));
    }

    #[test]
    fn small_table2_row_is_conservative() {
        let w = IscasLike {
            name: "tiny".into(),
            gates: 120,
            seed: 7,
        };
        let row = table2_row(&w);
        assert!(row.hier_delay >= row.flat_delay);
        assert!(row.hier_delay <= row.topological);
    }
}
