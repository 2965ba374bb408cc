//! **Fig. 1** — Characterizing online performance.
//!
//! Three uncapped runs reproduce the figure's three panels:
//!
//! - **LAMMPS (left)**: online performance is *consistent* — flat at
//!   ~1080 katom-timesteps/s;
//! - **AMG (center)**: online performance is *inconsistent* — fluctuating
//!   between 2.5 and 3 iterations/s, "needs to be averaged out";
//! - **QMCPACK (right)**: *phased* — VMC1/VMC2/DMC compute blocks at
//!   clearly distinguishable rates.

use progress::series::TimeSeries;
use proxyapps::catalog::AppId;
use simnode::time::{Nanos, SEC};

use crate::report::{f, TextTable};
use crate::runner::{run_app, RunConfig};
use crate::sweep::par_map;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// LAMMPS run length.
    pub lammps: Nanos,
    /// AMG run length.
    pub amg: Nanos,
    /// QMCPACK phase budget: VMC1+VMC2 take ~20 s, so this should exceed
    /// that to reach the DMC phase.
    pub qmcpack: Nanos,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            lammps: 30 * SEC,
            amg: 40 * SEC,
            qmcpack: 40 * SEC,
        }
    }
}

impl Config {
    /// Reduced-scale config for tests (still long enough for QMCPACK to
    /// enter DMC).
    pub fn quick() -> Self {
        Self {
            lammps: 10 * SEC,
            amg: 20 * SEC,
            qmcpack: 30 * SEC,
        }
    }
}

/// One panel's data.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Application name.
    pub app: &'static str,
    /// Progress-rate series (1 s windows).
    pub series: TimeSeries,
    /// Phase markers (time s, name).
    pub phases: Vec<(f64, &'static str)>,
}

/// The three panels.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// LAMMPS panel.
    pub lammps: Panel,
    /// AMG panel.
    pub amg: Panel,
    /// QMCPACK panel.
    pub qmcpack: Panel,
}

fn panel(app: AppId, name: &'static str, duration: Nanos) -> Panel {
    let a = run_app(&RunConfig::new(app, duration));
    Panel {
        app: name,
        series: a.progress[0].clone(),
        phases: a
            .record
            .phases
            .iter()
            .map(|&(t, n)| (simnode::time::secs(t), n))
            .collect(),
    }
}

/// Run the experiment.
pub fn run(cfg: &Config) -> Fig1 {
    let mut panels = par_map(
        vec![
            (AppId::Lammps, "LAMMPS", cfg.lammps),
            (AppId::Amg, "AMG", cfg.amg),
            (AppId::Qmcpack, "QMCPACK", cfg.qmcpack),
        ],
        |(app, name, d)| panel(app, name, d),
    );
    let qmcpack = panels.pop().expect("three panels");
    let amg = panels.pop().expect("two left");
    let lammps = panels.pop().expect("one left");
    Fig1 {
        lammps,
        amg,
        qmcpack,
    }
}

impl Fig1 {
    /// Mean rate of a QMCPACK phase (between its marker and the next).
    pub fn qmcpack_phase_rate(&self, phase: &str) -> Option<f64> {
        let phases = &self.qmcpack.phases;
        let idx = phases.iter().position(|(_, n)| *n == phase)?;
        let start = phases[idx].0;
        let end = phases
            .get(idx + 1)
            .map(|&(t, _)| t)
            .unwrap_or(f64::INFINITY);
        // Skip the boundary windows, which straddle two phases.
        Some(self.qmcpack.series.mean_between(start + 1.5, end - 0.5))
    }

    /// Summary table (the figure's headline statistics).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 1: Characterizing online performance (summary statistics)",
            &["Application", "mean rate", "min", "max", "CV"],
        );
        for p in [&self.lammps, &self.amg, &self.qmcpack] {
            t.row(vec![
                p.app.to_string(),
                f(p.series.mean(), 2),
                f(p.series.min(), 2),
                f(p.series.max(), 2),
                f(p.series.cv(), 3),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lammps_is_flat_amg_fluctuates_qmcpack_is_phased() {
        let r = run(&Config::quick());

        // LAMMPS: consistent (paper: flat line). Drop the partial first
        // and last windows.
        let n = r.lammps.series.len();
        let inner: TimeSeries = r
            .lammps
            .series
            .iter()
            .skip(1)
            .take(n.saturating_sub(2))
            .collect();
        assert!(
            inner.cv() < 0.03,
            "LAMMPS CV {:.4} should be tiny (flat)",
            inner.cv()
        );
        assert!(
            (1000.0..1150.0).contains(&inner.mean()),
            "LAMMPS level {:.0}",
            inner.mean()
        );

        // AMG: inconsistent, in the paper's 2.5-3 band.
        let amg_inner: TimeSeries = r
            .amg
            .series
            .iter()
            .filter(|&(t, _)| t > 4.0) // skip setup
            .collect();
        assert!(
            amg_inner.cv() > 0.05,
            "AMG CV {:.4} should show fluctuation",
            amg_inner.cv()
        );
        let m = amg_inner.mean();
        assert!((2.3..3.2).contains(&m), "AMG mean {m:.2} out of band");

        // QMCPACK: three phases at distinguishable rates.
        assert_eq!(r.qmcpack.phases.len(), 3, "VMC1, VMC2, DMC");
        let v1 = r.qmcpack_phase_rate("VMC1").expect("VMC1 rate");
        let v2 = r.qmcpack_phase_rate("VMC2").expect("VMC2 rate");
        let dmc = r.qmcpack_phase_rate("DMC").expect("DMC rate");
        assert!(
            v1 > v2 && v2 > dmc,
            "phase rates must be distinct: VMC1={v1:.1} VMC2={v2:.1} DMC={dmc:.1}"
        );
        assert!((14.0..18.0).contains(&dmc), "DMC rate {dmc:.1}");
    }
}
