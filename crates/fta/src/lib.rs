//! Flat functional timing analysis under the XBD0 delay model.
//!
//! This crate is the substrate the DAC 1998 hierarchical analysis is
//! built on — and also its comparator, the flat analyzer of McGeer,
//! Saldanha, Brayton & Sangiovanni-Vincentelli (`[6]` in the paper):
//!
//! * [`sta`] — topological STA: arrival/required times, slacks,
//!   longest/shortest paths, distinct path-length lists.
//! * [`stability`] — XBD0 stability characteristic functions over a
//!   pluggable Boolean backend ([`boolalg`]: SAT by default, BDD for
//!   cross-checking), answered by the one owning engine,
//!   [`oracle::StabilityOracle`].
//! * [`delay`] — exact functional (false-path-aware) delay by monotone
//!   binary search over stability probes.
//! * [`cone`] — a module output's fanin cone, extracted and signed
//!   once ([`OutputCone`]), and the monotone store of the verdicts
//!   decided on it ([`VerdictStore`]).
//! * [`required`] — approximate required-time analysis (Kukimoto &
//!   Brayton, DAC 1997): characterizes module outputs into
//!   [`TimingModel`]s of incomparable delay tuples.
//! * [`exact`] — exhaustive exact required-time engines for small
//!   modules, including the per-vector relation `T_exact`.
//! * [`model`] — timing tuples/models and the min–max evaluation used
//!   by hierarchical propagation.
//!
//! # Example: detecting the carry-skip false path
//!
//! ```
//! use hfta_fta::{functional_circuit_delay, TopoSta};
//! use hfta_netlist::gen::{carry_skip_adder_flat, CsaDelays};
//! use hfta_netlist::Time;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An 8-bit adder built from four 2-bit carry-skip blocks.
//! let flat = carry_skip_adder_flat(8, 2, CsaDelays::default())?;
//! let functional = functional_circuit_delay(&flat)?;
//! let sta = TopoSta::new(&flat)?;
//! let topological = sta.circuit_delay(&vec![Time::ZERO; flat.inputs().len()]);
//! assert_eq!(functional, Time::new(16)); // skip paths do the real work
//! assert_eq!(topological, Time::new(26)); // the false ripple path
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boolalg;
pub mod conditional;
pub mod cone;
pub mod config;
pub mod delay;
pub mod exact;
pub mod false_pairs;
pub mod model;
pub mod module_timing;
pub mod oracle;
pub mod paths;
pub mod report;
pub mod required;
pub mod sequential;
pub mod sta;
pub mod stability;

pub use boolalg::{BackendCounters, BddAlg, BoolAlg, SatAlg};
pub use conditional::{ConditionalCase, ConditionalModel};
pub use cone::{OutputCone, VerdictStore};
pub use config::{solve_episode_fields, AnalysisConfig, ModelDbSpec, ModelSource, SchedulerSeat};
pub use delay::{functional_circuit_delay, DelayAnalyzer};
pub use exact::{exact_model, exact_vector_relation, ExactError, ExactOptions};
pub use false_pairs::{arrivals_with_declared_delays, derive_declared_delays, DeclaredDelays};
pub use hfta_sat::{BudgetExhausted, SolveBudget, SolveEpisode};
pub use hfta_trace::{Trace, TraceSink, Tracer};
pub use model::{TimingModel, TimingTuple};
pub use module_timing::{ModuleTiming, ParseModelError};
pub use oracle::StabilityOracle;
pub use paths::{longest_true_path, worst_paths, TimedPath};
pub use report::{OutputReport, TimingReport};
pub use required::{
    characterize_module, topological_delays, CharacterizeOptions, Characterizer, ConeSigCache,
    LENGTHS_CAP,
};
pub use sequential::{SequentialAnalysis, SequentialAnalyzer, SequentialEngine};
pub use sta::TopoSta;
pub use stability::{PhaseWall, StabilityStats};
