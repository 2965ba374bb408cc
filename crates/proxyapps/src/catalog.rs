//! Application catalog: build any study application by id.

use progress::event::MetricDesc;
use simnode::config::NodeConfig;

use crate::apps;
use crate::runtime::Program;
use crate::spec::KernelSpec;

/// The applications of the study (paper Tables II/V), plus the Listing-1
/// microbenchmark variants and the phase-restricted variants the paper
/// uses for characterization ("QMCPACK (DMC)", "OpenMC (Active)").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// LAMMPS Lennard-Jones, 40 000 atoms (Category 1).
    Lammps,
    /// STREAM copy/scale/add/triad (Category 1).
    Stream,
    /// AMG setup + GMRES solve (Category 2).
    Amg,
    /// QMCPACK performance-NiO: VMC1 + VMC2 + DMC phases (Category 1).
    Qmcpack,
    /// QMCPACK DMC phase only — the paper's characterization target.
    QmcpackDmc,
    /// OpenMC inactive + active batches (Category 1).
    Openmc,
    /// OpenMC active phase only — the paper's characterization target.
    OpenmcActive,
    /// CANDLE training proxy, accuracy-bounded epochs (Category 1/2).
    Candle,
    /// Listing-1 with `do_equal_work`.
    Listing1Equal,
    /// Listing-1 with `do_unequal_work`.
    Listing1Unequal,
    /// Listing-1 (unequal) with per-rank progress channels — the paper's
    /// future-work "per-processing-element" monitoring.
    Listing1PerRank,
    /// HACC multi-component cosmology proxy (Category 3).
    Hacc,
    /// Nek5000 CFD proxy with non-uniform timesteps (Category 3).
    Nek5000,
    /// URBAN: Nek5000-style CFD + EnergyPlus at disparate timescales
    /// (Category 3).
    Urban,
}

impl AppId {
    /// The nine applications the paper runs under dynamic caps, each as
    /// its full run.
    pub const PAPER: [AppId; 9] = [
        AppId::Lammps,
        AppId::Stream,
        AppId::Amg,
        AppId::Qmcpack,
        AppId::Openmc,
        AppId::Candle,
        AppId::Hacc,
        AppId::Nek5000,
        AppId::Urban,
    ];

    /// The five applications the paper characterizes in Table VI, as their
    /// characterization variants.
    pub fn table_vi() -> [AppId; 5] {
        [
            AppId::QmcpackDmc,
            AppId::OpenmcActive,
            AppId::Amg,
            AppId::Lammps,
            AppId::Stream,
        ]
    }

    /// The registry name this id maps to.
    pub fn registry_name(self) -> &'static str {
        match self {
            AppId::Lammps => "LAMMPS",
            AppId::Stream => "STREAM",
            AppId::Amg => "AMG",
            AppId::Qmcpack | AppId::QmcpackDmc => "QMCPACK",
            AppId::Openmc | AppId::OpenmcActive => "OpenMC",
            AppId::Candle => "CANDLE",
            AppId::Listing1Equal | AppId::Listing1Unequal | AppId::Listing1PerRank => "Listing1",
            AppId::Hacc => "HACC",
            AppId::Nek5000 => "Nek5000",
            AppId::Urban => "URBAN",
        }
    }
}

/// A ready-to-run application: per-rank programs plus metadata.
pub struct AppInstance {
    /// Display name.
    pub name: &'static str,
    /// Progress metric per channel (channel 0 first).
    pub metrics: Vec<MetricDesc>,
    /// Per-rank programs (rank i runs `programs[i]`).
    pub programs: Vec<Box<dyn Program>>,
    /// The calibration of the performance-dominant kernel, when the app
    /// has one (used by the model harness for β targets etc.).
    pub primary_spec: Option<KernelSpec>,
}

impl AppInstance {
    /// Number of progress channels.
    pub fn channels(&self) -> usize {
        self.metrics.len().max(1)
    }
}

/// Build an application instance for `ranks` ranks with a seed.
pub fn build(id: AppId, cfg: &NodeConfig, ranks: usize, seed: u64) -> AppInstance {
    match id {
        AppId::Lammps => apps::lammps::instance(cfg, ranks, seed),
        AppId::Stream => apps::stream::instance(cfg, ranks, seed),
        AppId::Amg => apps::amg::instance(cfg, ranks, seed),
        AppId::Qmcpack => apps::qmcpack::instance(cfg, ranks, seed, false),
        AppId::QmcpackDmc => apps::qmcpack::instance(cfg, ranks, seed, true),
        AppId::Openmc => apps::openmc::instance(cfg, ranks, seed, false),
        AppId::OpenmcActive => apps::openmc::instance(cfg, ranks, seed, true),
        AppId::Candle => apps::candle::instance(cfg, ranks, seed),
        AppId::Listing1Equal => apps::listing1::instance(ranks, true),
        AppId::Listing1Unequal => apps::listing1::instance(ranks, false),
        AppId::Listing1PerRank => apps::listing1::instance_per_rank(ranks, false),
        AppId::Hacc => apps::hacc::instance(cfg, ranks, seed),
        AppId::Nek5000 => apps::nek5000::instance(cfg, ranks, seed),
        AppId::Urban => apps::urban::instance(cfg, ranks, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_builds_with_matching_rank_count() {
        let cfg = NodeConfig::default();
        for id in [
            AppId::Lammps,
            AppId::Stream,
            AppId::Amg,
            AppId::Qmcpack,
            AppId::QmcpackDmc,
            AppId::Openmc,
            AppId::OpenmcActive,
            AppId::Candle,
            AppId::Listing1Equal,
            AppId::Listing1Unequal,
            AppId::Listing1PerRank,
            AppId::Hacc,
            AppId::Nek5000,
            AppId::Urban,
        ] {
            let app = build(id, &cfg, 24, 1);
            assert_eq!(app.programs.len(), 24, "{:?}", id);
            assert!(!app.metrics.is_empty(), "{:?}", id);
        }
    }

    #[test]
    fn table_vi_ids_map_to_characterized_registry_entries() {
        for id in AppId::table_vi() {
            let rec = progress::registry::lookup(id.registry_name())
                .unwrap_or_else(|| panic!("{:?} not in registry", id));
            assert!(rec.beta_paper.is_some());
        }
    }

    #[test]
    fn characterization_variants_expose_primary_specs() {
        let cfg = NodeConfig::default();
        for id in AppId::table_vi() {
            let app = build(id, &cfg, 24, 1);
            let spec = app
                .primary_spec
                .unwrap_or_else(|| panic!("{:?} has no primary spec", id));
            let rec = progress::registry::lookup(id.registry_name()).unwrap();
            let target = rec.beta_paper.unwrap();
            assert!(
                (spec.beta - target).abs() < 0.02,
                "{:?}: spec beta {} vs Table VI {}",
                id,
                spec.beta,
                target
            );
        }
    }
}
