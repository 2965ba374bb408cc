//! `powerbench`: the end-to-end and per-layer benchmark of the simulated
//! node, the cluster engine and the arbiter daemon.
//!
//! Four workloads ([`workloads::WorkloadId`]) each run as closed loops
//! from one process: an untraced pass times ops through the libraries'
//! own entry points and reports the end-to-end metrics in CPU time
//! ([`cpu`]) scaled to a reference host speed ([`calib`]), and a separate
//! traced pass drives benchmark-side mirrors of the same calls to split
//! each op's host time across the layers ([`probe::Layer`]). Every op's
//! outputs are checked against the warm-up's, and the mirrors against the
//! libraries, bit for bit.

pub mod calib;
pub mod compare;
pub mod cpu;
pub mod json;
pub mod probe;
pub mod report;
pub mod rng;
pub mod rss;
pub mod stats;
pub mod workloads;
