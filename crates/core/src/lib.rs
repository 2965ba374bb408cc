//! # powerprog-core — the experiment harness
//!
//! Regenerates every table and figure of Ramesh et al. (IPDPS-W 2019) on
//! the simulated node:
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Table I (MIPS vs online performance) | [`experiments::table1`] |
//! | Tables II–V (descriptions, interviews, categories, metrics) | [`experiments::tables2to5`] |
//! | Table VI (β and MPO characterization) | [`experiments::table6`] |
//! | Fig. 1 (characterizing online performance) | [`experiments::fig1`] |
//! | Fig. 2 (RAPL application-aware frequencies) | [`experiments::fig2`] |
//! | Fig. 3 (dynamic capping schemes vs progress) | [`experiments::fig3`] |
//! | Fig. 4 (measured vs predicted Δprogress) | [`experiments::fig4`] |
//! | Fig. 5 (STREAM: RAPL vs DVFS) | [`experiments::fig5`] |
//!
//! Plus the ablations DESIGN.md commits to: α sensitivity/fitting, lossy
//! vs lossless monitoring, and the composition/policy extensions.
//!
//! The [`runner`] module owns single simulation runs; [`sweep`] fans
//! parameter sweeps out over rayon; [`report`] renders text tables and
//! CSV. Every experiment has a `quick()` configuration used by tests and
//! a `Default` configuration matching the paper's scale.

#[cfg(test)]
mod difftests;
pub mod experiments;
pub mod jobsim;
pub mod report;
pub mod runner;
pub mod sweep;

pub use runner::{run_app, RunArtifacts, RunConfig, ScheduleSpec};
