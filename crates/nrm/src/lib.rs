//! # nrm — the node resource manager
//!
//! The paper's `power-policy` tool "runs as a background daemon on the
//! node. It monitors power usage and applies the selected dynamic
//! power-capping scheme on the package domain once every second" (§V.B).
//! This crate is that daemon, plus the pieces around it:
//!
//! - [`scheme`]: the three dynamic capping schedules of §V.B — linearly
//!   decreasing, step-function and jagged-edge — plus constants/uncapped;
//! - [`actuator`]: the control knobs: RAPL package caps, direct DVFS
//!   (used for the paper's Fig. 5 comparison) and DDCM-only;
//! - [`daemon`]: the 1 Hz control loop as a [`simnode::SimAgent`], built
//!   either as the paper's naive loop or hardened against MSR faults;
//! - [`resilience`]: what hardens it: its tuning and its MSR power sensor;
//! - [`backoff`]: the exponential retry curve the hardened loop re-probes
//!   a failed actuator on, shared with the arbiter-daemon client;
//! - [`policies`]: the paper's *envisioned* NRM policies (§II): pick the
//!   technique with the least predicted progress impact under a shrinking
//!   budget, using the `powermodel` predictor;
//! - [`composition`]: the future-work extension for Category-3
//!   applications — progress as a weighted combination of per-component
//!   progress (§VI.3).

pub mod actuator;
pub mod backoff;
pub mod composition;
pub mod daemon;
pub mod policies;
pub mod resilience;
pub mod scheme;

pub use actuator::{Actuator, ActuatorKind};
pub use backoff::Backoff;
pub use composition::CompositeProgress;
pub use daemon::NrmDaemon;
pub use policies::{choose_strategy, ramp_plan, FreqPowerPoint, RateCurve, Strategy};
pub use resilience::{MsrPowerSensor, ResilienceConfig};
pub use scheme::{
    CapSchedule, ConstantCap, JaggedEdge, LinearDecay, PriorityPreemption, StepFunction, Uncapped,
};
