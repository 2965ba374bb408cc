//! # simnode — a discrete-time simulated compute node
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Understanding the Impact of Dynamic Power Capping on Application
//! Progress"* (Ramesh et al., IPDPS-W 2019). The paper's experiments ran on
//! a real Skylake node with Intel RAPL; this crate provides a mechanistic
//! stand-in with the same interfaces and — crucially — the same *behavioural
//! quirks* that drive the paper's results:
//!
//! - a DVFS P-state ladder with a voltage/frequency curve that has a voltage
//!   floor, so the effective exponent of `P_core ∝ f^α` drifts across the
//!   ladder (the paper observes α ranging from 1 to 4);
//! - a RAPL controller that splits the package budget between core and
//!   uncore by *observed demand* ("application-aware power management",
//!   Fig. 2 of the paper), picks the highest admissible P-state, and falls
//!   back to DDCM duty-cycling and uncore-frequency throttling when DVFS
//!   alone cannot meet the budget (the mechanisms the paper's model does not
//!   capture, explaining its errors at stringent caps);
//! - a shared-memory-bandwidth model with contention, so memory-bound codes
//!   (STREAM) crater when the uncore is throttled;
//! - hardware counters (instructions, cycles, L3 misses) from which MIPS,
//!   IPC and MPO are derived exactly as the paper derives them, including
//!   busy-wait instruction inflation at barriers (Table I);
//! - an MSR register file behind an `msr-safe`-style allow-list, so control
//!   software (the NRM) manipulates the node exactly the way `libmsr` does.
//!
//! The node executes *work* supplied by a driver (see the `proxyapps`
//! crate): each core is assigned [`CoreWork`] and the node is advanced in
//! fixed quanta via [`Node::step`], or — the fast path — to a deadline or
//! the next completion/wake via [`Node::step_until`], which macro-steps
//! over event-free stretches in closed form and agrees with a
//! [`Node::step`] loop (see [`node`]).

pub mod agent;
pub mod backend;
pub mod bandwidth;
pub mod config;
pub mod counters;
pub mod ddcm;
pub mod energy;
pub mod faults;
pub mod freq;
pub mod hw;
pub mod msr;
pub mod node;
pub mod power;
pub mod presets;
pub mod rapl;
pub mod thermal;
pub mod time;

pub use agent::SimAgent;
pub use backend::{BackendKind, Capabilities, MsrBackend, MsrDeviceBuilder};
pub use config::NodeConfig;
pub use counters::{CounterSnapshot, Counters};
pub use ddcm::DutyCycle;
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use freq::{FrequencyLadder, PState};
pub use msr::{MsrDevice, MsrError};
pub use node::{CoreWork, Node, StepOutcome, WorkPacket};
pub use power::PStateTables;
pub use rapl::RaplController;
pub use thermal::{ThermalConfig, ThermalState};
pub use time::{Nanos, MS, NS_PER_SEC, SEC, US};

#[cfg(test)]
mod difftests;
#[cfg(test)]
mod proptests;
