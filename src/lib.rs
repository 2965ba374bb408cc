//! # powerprog
//!
//! A from-scratch, laptop-scale reproduction of
//! **"Understanding the Impact of Dynamic Power Capping on Application
//! Progress"** (S. Ramesh, S. Perarnau, S. Bhalachandra, A. D. Malony,
//! P. Beckman — IPDPS Workshops 2019), built as a production-quality Rust
//! workspace.
//!
//! The paper defines an *online, application-specific notion of progress*,
//! instruments production HPC applications to publish it at runtime,
//! applies dynamic RAPL power-capping schemes from a node-level daemon,
//! and proposes + validates an analytic model (its Eqs. 1–7) of the change
//! in progress a package power cap causes.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`simnode`] | simulated node: DVFS ladder, RAPL controller, DDCM, uncore/bandwidth, hardware counters, MSRs behind an `msr-safe`-style allow-list |
//! | [`proxyapps`] | calibrated proxy applications (LAMMPS, STREAM, AMG, QMCPACK, OpenMC, CANDLE, Listing-1, HACC, Nek5000, URBAN) + a simulated SPMD runtime |
//! | [`progress`] | the progress pub-sub bus, 1 Hz aggregation, taxonomy and the paper's application registry |
//! | [`nrm`] | the node resource manager: capping schemes, actuators, policies, multi-component composition |
//! | [`powermodel`] | the analytic model: β, MPO, Eqs. 1–7, α fitting, error metrics |
//! | [`powerprog_core`] | the experiment harness regenerating every table and figure |
//!
//! ## Quickstart
//!
//! ```
//! use powerprog::prelude::*;
//!
//! // Run LAMMPS uncapped for 5 simulated seconds and read its progress.
//! let cfg = RunConfig::new(AppId::Lammps, 5 * SEC);
//! let run = run_app(&cfg);
//! let rate = run.steady_rate(); // katom-timesteps per second
//! assert!(rate > 900.0 && rate < 1200.0);
//!
//! // Predict what a 90 W package cap would cost (paper Eq. 7).
//! let model = ProgressModel::from_uncapped_run(1.0, 2.0, run.mean_power(), rate);
//! let delta = model.predict_delta(90.0);
//! assert!(delta > 0.0);
//! ```

pub use nrm;
pub use powermodel;
pub use powerprog_core as core;
pub use progress;
pub use proxyapps;
pub use simnode;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use nrm::actuator::ActuatorKind;
    pub use nrm::composition::CompositeProgress;
    pub use nrm::daemon::NrmDaemon;
    pub use nrm::resilience::{MsrPowerSensor, ResilienceConfig};
    pub use nrm::scheme::{
        CapSchedule, ConstantCap, JaggedEdge, LinearDecay, StepFunction, Uncapped,
    };
    pub use powermodel::beta::beta_from_times;
    pub use powermodel::mpo::mpo;
    pub use powermodel::predict::{ProgressModel, PAPER_ALPHA};
    pub use powerprog_core::jobsim::{run_job, settled_job_progress, SimNode};
    pub use powerprog_core::runner::{run_app, RunArtifacts, RunConfig, ScheduleSpec};
    pub use progress::aggregator::ProgressAggregator;
    pub use progress::bus::{BusConfig, DropPolicy, ProgressBus};
    pub use progress::imbalance::{analyze as analyze_imbalance, ImbalanceError, ImbalanceReport};
    pub use progress::series::TimeSeries;
    pub use progress::taxonomy::Category;
    pub use progress::watchdog::{Health, ProgressWatchdog, WatchdogConfig};
    pub use proxyapps::catalog::{build, AppId, AppInstance};
    pub use proxyapps::runtime::{Action, Driver, Program};
    pub use proxyapps::spec::KernelSpec;
    pub use simnode::config::NodeConfig;
    pub use simnode::faults::{FaultKind, FaultPlan, FaultSpec, FaultWindow};
    pub use simnode::node::{CoreWork, Node, WorkPacket};
    pub use simnode::time::{Nanos, MS, SEC, US};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let cfg = NodeConfig::default();
        let app = build(AppId::Stream, &cfg, 8, 1);
        assert_eq!(app.programs.len(), 8);
        let model = ProgressModel::new(0.37, PAPER_ALPHA, 44.0, 16.0);
        assert!(model.predict_rate(80.0) > 0.0);
    }
}
