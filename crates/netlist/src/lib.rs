//! Gate-level and hierarchical combinational netlists for HFTA.
//!
//! This crate provides the circuit substrate for the hierarchical
//! functional timing analysis of Kukimoto & Brayton (DAC 1998):
//!
//! * [`Netlist`] — a flat, gate-level combinational *leaf module* with
//!   named nets, primary inputs/outputs and single-output gates carrying
//!   integer delays.
//! * [`Design`] — a hierarchical design: a set of module definitions
//!   ([`ModuleDef`]) that are either leaf netlists or *composite* modules
//!   instantiating other modules. [`Design::flatten`] expands any module
//!   into an equivalent flat [`Netlist`].
//! * [`Time`] — integer time with `±∞` sentinels, shared by every HFTA
//!   crate.
//! * Simulation ([`sim`]), the ISCAS `.bench` format ([`bench_format`]),
//!   a hierarchical text format ([`hnl`]), circuit generators ([`gen`])
//!   including the paper's carry-skip adders, and the cascade
//!   partitioner ([`partition`]) used by the Table 2 experiment.
//!
//! # Example
//!
//! ```
//! use hfta_netlist::{Netlist, GateKind};
//!
//! # fn main() -> Result<(), hfta_netlist::NetlistError> {
//! let mut nl = Netlist::new("and2");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let z = nl.add_net("z");
//! nl.add_gate(GateKind::And, &[a, b], z, 1)?;
//! nl.mark_output(z);
//! assert_eq!(nl.gate_count(), 1);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod blif;
mod error;
pub mod event_sim;
mod gate;
pub mod gen;
mod hier;
pub mod hnl;
mod netlist;
pub mod partition;
pub mod seq;
pub mod sim;
pub mod stats;
pub mod strash;
mod time;
pub mod transform;

pub use error::NetlistError;
pub use gate::{Gate, GateId, GateKind, NetId};
pub use hier::{Composite, Design, Instance, ModuleBody, ModuleDef};
pub use netlist::Netlist;
pub use seq::{Register, SeqCircuit};
pub use strash::{cone_signature, exact_fingerprint, ConeKey, ConeSig};
pub use time::{Time, TimeRangeError};
