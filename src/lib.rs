//! HFTA — Hierarchical Functional Timing Analysis.
//!
//! A from-scratch Rust reproduction of Kukimoto & Brayton,
//! *"Hierarchical Functional Timing Analysis"* (DAC 1998): timing
//! analysis of hierarchical combinational circuits under the XBD0 delay
//! model — the tightest known sensitization criterion — with leaf
//! modules abstracted into false-path-aware timing models.
//!
//! This facade crate re-exports the whole stack:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`netlist`] | `hfta-netlist` | circuits, hierarchy, `.bench`/HNL formats, generators |
//! | [`sat`] | `hfta-sat` | CDCL SAT solver (stability oracle) |
//! | [`bdd`] | `hfta-bdd` | ROBDD package (exact engines, cross-checks) |
//! | [`fta`] | `hfta-fta` | flat XBD0 analysis: STA, stability, delay, required times |
//! | [`core`] | `hfta-core` | the paper's hierarchical, demand-driven and incremental analyses |
//! | [`sched`] | `hfta-sched` | work-stealing thread pool used by the parallel analyses |
//! | [`serve`] | `hfta-serve` | `hfta serve`: the warm, batched timing-query daemon |
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use hfta::{AnalysisConfig, HierAnalyzer, Time};
//! use hfta::netlist::gen::{carry_skip_adder, CsaDelays};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the paper's 4-bit carry-skip adder (two 2-bit blocks).
//! let design = carry_skip_adder(4, 2, CsaDelays::default());
//!
//! // Hierarchical functional analysis: characterize the block once,
//! // propagate timing models through the cascade.
//! let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
//! let analysis = hier.analyze(&vec![Time::ZERO; 9])?;
//!
//! // The final carry matches flat analysis (10), beating the
//! // topological estimate (14).
//! assert_eq!(*analysis.output_arrivals.last().expect("c4"), Time::new(10));
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hfta_bdd as bdd;
pub use hfta_core as core;
pub use hfta_fta as fta;
pub use hfta_netlist as netlist;
pub use hfta_sat as sat;
pub use hfta_sched as sched;
pub use hfta_serve as serve;

pub use hfta_core::{
    AnalysisConfig, CharacterizeOptions, DemandAnalysis, DemandDrivenAnalyzer, HierAnalysis,
    HierAnalyzer, IncrementalAnalyzer, ModelDb, ModelDbSpec, ModelDbStats, ModelSource,
    ModuleTiming, TimingModel, TimingTuple, Trace, TraceSink, Tracer, WarmSnapshot,
};
pub use hfta_fta::{functional_circuit_delay, DelayAnalyzer, StabilityOracle, TopoSta};
pub use hfta_netlist::{Composite, Design, GateKind, NetId, Netlist, NetlistError, Time};
pub use hfta_sat::{BudgetExhausted, SolveBudget};
