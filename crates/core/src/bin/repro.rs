//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|tables2to5|table6|fig1|fig2|fig3|fig4|fig5|candle|ablations|faults|backends|cluster|sched|loadgen]
//!       [--quick] [--out DIR] [--budget W] [--seed N] [--nodes N]
//!       [--shards N] [--clients M]
//!
//! `sched` schedules a seeded multi-tenant batch queue under a machine
//! power envelope and compares the eco-mode-aware admission policies;
//! `--seed N` reseeds its arrival trace.
//!
//! `loadgen` (not part of `all`) stress-drives the `arbiterd` daemon
//! with thousands of simulated telemetry producers across clean,
//! overload, hostile-wire, crash/recovery, and sharded scenarios;
//! `--seed N` reseeds the whole run (telemetry, fault schedules,
//! backoff jitter), which is how the CI soak sweeps fresh chaos every
//! iteration. `--shards N` sets the sharded scenario's daemon count and
//! `--clients M` rescales the cohort; a zero for either is rejected as
//! a configuration error (exit 2), not a panic.
//! ```
//!
//! `--budget W` overrides the machine-level power budget of the cluster
//! artefacts; an infeasible value is reported as a configuration error
//! (which field, which constraint) instead of a panic backtrace.
//!
//! `--nodes N` rescales the cluster artefacts to an N-node machine
//! (budget density held at the default 65 W/node; the hierarchical
//! variants add racks of the default width, so N must be a multiple of
//! it). This is the large-sweep knob: the scale-smoke CI tier runs
//! `repro cluster --quick --nodes 1024` and diffs the CSVs bit for bit.
//!
//! Prints each artefact as an aligned text table; with `--out DIR` also
//! writes one CSV per artefact (plus raw series for the figures).
//!
//! Exit codes: 0 on success, 2 on an operator mistake (an unknown
//! experiment name or flag, a bad flag value, a flag no selected
//! experiment reads, an invalid configuration; the usage line goes to
//! stderr), 1 when an output file or directory cannot be written.

use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use powerprog_core::experiments::{
    ablations, backends, candle_ext, cluster, faults, fig1, fig2, fig3, fig4, fig5, hierarchy,
    loadgen, sched, table1, table6, tables2to5,
};
use powerprog_core::report::TextTable;

/// Experiment names `repro` accepts; `all` selects every one but
/// `loadgen`.
const EXPERIMENTS: [&str; 16] = [
    "all",
    "table1",
    "tables2to5",
    "table6",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "candle",
    "ablations",
    "faults",
    "backends",
    "cluster",
    "sched",
    "loadgen",
];

/// The experiments that read each experiment-specific flag.
const FLAG_READERS: [(&str, &[&str]); 5] = [
    ("--budget", &["cluster"]),
    ("--nodes", &["cluster"]),
    ("--seed", &["sched", "loadgen"]),
    ("--shards", &["loadgen"]),
    ("--clients", &["loadgen"]),
];

/// Whether the experiment names in `what` select experiment `k`.
fn selects(what: &[String], k: &str) -> bool {
    what.iter()
        .any(|w| w == k || (w == "all" && k != "loadgen"))
}

fn usage() -> String {
    format!(
        "usage: repro [{}]... [--quick] [--out DIR] [--budget W] [--seed N] [--nodes N] [--shards N] [--clients M]",
        EXPERIMENTS.join("|")
    )
}

#[derive(Debug, Default, PartialEq)]
struct Opts {
    what: Vec<String>,
    quick: bool,
    out: Option<PathBuf>,
    budget_w: Option<f64>,
    seed: Option<u64>,
    nodes: Option<usize>,
    shards: Option<usize>,
    clients: Option<usize>,
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Cli {
    Run(Opts),
    Help,
}

/// Parse the arguments after the program name. An `Err` is an operator
/// mistake, reported with the usage line and exit code 2.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        what: &str,
    ) -> Result<T, String> {
        args.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| what.to_string())
    }
    let mut o = Opts::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value(&mut args, "--out requires a directory")?),
            "--budget" => o.budget_w = Some(value(&mut args, "--budget requires a wattage")?),
            "--seed" => o.seed = Some(value(&mut args, "--seed requires an integer")?),
            "--nodes" => {
                let n: NonZeroUsize = value(&mut args, "--nodes requires a positive node count")?;
                o.nodes = Some(n.get());
            }
            // Zero is parsed, not rejected: `loadgen` maps it to a
            // ConfigError naming the field (still exit code 2).
            "--shards" => o.shards = Some(value(&mut args, "--shards requires a shard count")?),
            "--clients" => {
                o.clients = Some(value(&mut args, "--clients requires a producer count")?)
            }
            "--help" | "-h" => return Ok(Cli::Help),
            name if EXPERIMENTS.contains(&name) => o.what.push(a),
            other => return Err(format!("unknown experiment or option '{other}'")),
        }
    }
    if o.what.is_empty() {
        o.what.push("all".to_string());
    }
    let given = [
        o.budget_w.is_some(),
        o.nodes.is_some(),
        o.seed.is_some(),
        o.shards.is_some(),
        o.clients.is_some(),
    ];
    for ((flag, readers), given) in FLAG_READERS.iter().zip(given) {
        if given && !readers.iter().any(|k| selects(&o.what, k)) {
            return Err(format!(
                "{flag} is read only by {}, and no such experiment is selected",
                readers.join(" and ")
            ));
        }
    }
    Ok(Cli::Run(o))
}

/// Reject an invalid cluster configuration with context (which field,
/// which constraint) instead of a panic backtrace from deep inside the
/// run. Exit code 2 marks an operator error, not a simulator bug.
fn check_config(what: &str, cfg: &::cluster::ClusterConfig) {
    if let Err(e) = cfg.validate() {
        eprintln!("repro {what}: {e}");
        std::process::exit(2);
    }
}

/// Unwrap a filesystem result for `path`, or report the failure and
/// exit 1 (an environment problem, not an operator mistake).
fn or_exit<T>(r: std::io::Result<T>, path: &Path) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    })
}

fn emit(t: &TextTable, out: &Option<PathBuf>, name: &str) {
    println!("{}", t.render());
    if let Some(dir) = out {
        let path = dir.join(format!("{name}.csv"));
        or_exit(fs::write(&path, t.to_csv()), &path);
    }
}

fn write_series(out: &Option<PathBuf>, name: &str, s: &progress::series::TimeSeries, v: &str) {
    if let Some(dir) = out {
        let path = dir.join(format!("{name}.csv"));
        or_exit(fs::write(&path, s.to_csv("t_s", v)), &path);
    }
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(opts)) => opts,
        Ok(Cli::Help) => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Some(dir) = &opts.out {
        or_exit(fs::create_dir_all(dir), dir);
    }
    let wants = |k: &str| selects(&opts.what, k);
    let t0 = std::time::Instant::now();

    if wants("table1") {
        let cfg = table1::Config::default();
        emit(&table1::run(&cfg).table(), &opts.out, "table1");
    }
    if wants("tables2to5") {
        for (i, t) in tables2to5::tables().iter().enumerate() {
            emit(t, &opts.out, &format!("table{}", i + 2));
        }
    }
    if wants("table6") {
        let cfg = if opts.quick {
            table6::Config::quick()
        } else {
            table6::Config::default()
        };
        emit(&table6::run(&cfg).table(), &opts.out, "table6");
    }
    if wants("fig1") {
        let cfg = if opts.quick {
            fig1::Config::quick()
        } else {
            fig1::Config::default()
        };
        let r = fig1::run(&cfg);
        emit(&r.table(), &opts.out, "fig1_summary");
        for p in [&r.lammps, &r.amg, &r.qmcpack] {
            println!("Fig. 1 sketch — {} progress rate:", p.app);
            println!("{}", powerprog_core::report::ascii_chart(&p.series, 72, 10));
        }
        write_series(
            &opts.out,
            "fig1_lammps",
            &r.lammps.series,
            "katom_steps_per_s",
        );
        write_series(&opts.out, "fig1_amg", &r.amg.series, "iters_per_s");
        write_series(&opts.out, "fig1_qmcpack", &r.qmcpack.series, "blocks_per_s");
    }
    if wants("fig2") {
        let cfg = if opts.quick {
            fig2::Config::quick()
        } else {
            fig2::Config::default()
        };
        emit(&fig2::run(&cfg).table(), &opts.out, "fig2");
    }
    if wants("fig3") {
        let cfg = if opts.quick {
            fig3::Config::quick()
        } else {
            fig3::Config::default()
        };
        let r = fig3::run(&cfg);
        emit(&r.table(), &opts.out, "fig3_summary");
        if let Some(c) = r.cell("jagged-edge", "LAMMPS") {
            println!("Fig. 3 sketch — jagged-edge cap vs LAMMPS progress:");
            println!("{}", powerprog_core::report::ascii_chart(&c.cap, 72, 8));
            println!(
                "{}",
                powerprog_core::report::ascii_chart(&c.progress, 72, 8)
            );
        }
        if opts.out.is_some() {
            for c in &r.cells {
                let tag = format!(
                    "fig3_{}_{}",
                    c.scheme.replace('-', "_"),
                    c.app.to_lowercase().replace([' ', '(', ')'], "")
                );
                write_series(&opts.out, &format!("{tag}_progress"), &c.progress, "rate");
                write_series(&opts.out, &format!("{tag}_cap"), &c.cap, "cap_w");
            }
        }
    }
    if wants("fig4") {
        let cfg = if opts.quick {
            fig4::Config::quick()
        } else {
            fig4::Config::default()
        };
        emit(&fig4::run(&cfg).table(), &opts.out, "fig4");
    }
    if wants("fig5") {
        let cfg = if opts.quick {
            fig5::Config::quick()
        } else {
            fig5::Config::default()
        };
        emit(&fig5::run(&cfg).table(), &opts.out, "fig5");
    }
    if wants("candle") {
        let cfg = if opts.quick {
            candle_ext::Config::quick()
        } else {
            candle_ext::Config::default()
        };
        emit(&candle_ext::run(&cfg).table(), &opts.out, "candle_ext");
    }
    if wants("faults") {
        let cfg = if opts.quick {
            faults::Config::quick()
        } else {
            faults::Config::default()
        };
        emit(&faults::run(&cfg).table(), &opts.out, "faults");
        let (plain, empty) = faults::purity_check(&cfg);
        println!(
            "fault-free purity: {} (plain {plain:.3} J, empty plan {empty:.3} J)\n",
            if plain.to_bits() == empty.to_bits() {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
    }
    if wants("backends") {
        let cfg = if opts.quick {
            backends::Config::quick()
        } else {
            backends::Config::default()
        };
        emit(&backends::run(&cfg).table(), &opts.out, "backends");
    }
    if wants("cluster") {
        let mut cfg = if opts.quick {
            cluster::Config::quick()
        } else {
            cluster::Config::default()
        };
        if let Some(n) = opts.nodes {
            cfg = cfg.with_nodes(n);
        }
        if let Some(w) = opts.budget_w {
            cfg.budget_w = w;
        }
        check_config("cluster", &cfg.cluster_config(cfg.policies()[0]));
        let r = cluster::run(&cfg).unwrap_or_else(|e| {
            eprintln!("repro cluster: {e}");
            std::process::exit(2);
        });
        emit(&r.table(), &opts.out, "cluster_policies");
        emit(&r.budget_trace_table(), &opts.out, "cluster_budget_trace");

        let mut hcfg = if opts.quick {
            hierarchy::Config::quick()
        } else {
            hierarchy::Config::default()
        };
        if let Some(n) = opts.nodes {
            if !n.is_multiple_of(hcfg.nodes_per_rack) {
                eprintln!(
                    "repro cluster: --nodes {n} is not a multiple of the {}-node rack width",
                    hcfg.nodes_per_rack
                );
                std::process::exit(2);
            }
            hcfg = hcfg.with_nodes(n);
        }
        if let Some(w) = opts.budget_w {
            hcfg.budget_w = w;
        }
        for v in hcfg.variants() {
            check_config("cluster", &hcfg.cluster_config(v.policy, v.hierarchy));
        }
        let h = hierarchy::run(&hcfg).unwrap_or_else(|e| {
            eprintln!("repro cluster: {e}");
            std::process::exit(2);
        });
        emit(&h.table(), &opts.out, "cluster_hierarchy");
        emit(
            &h.rack_trace_table(),
            &opts.out,
            "cluster_hierarchy_rack_trace",
        );
        emit(
            &h.node_trace_table(),
            &opts.out,
            "cluster_hierarchy_node_trace",
        );
    }
    if wants("sched") {
        let mut cfg = if opts.quick {
            sched::Config::quick()
        } else {
            sched::Config::default()
        };
        if let Some(s) = opts.seed {
            cfg = cfg.with_seed(s);
        }
        if let Err(e) = cfg.sched.validate() {
            eprintln!("repro sched: {e}");
            std::process::exit(2);
        }
        let r = sched::run(&cfg).unwrap_or_else(|e| {
            eprintln!("repro sched: {e}");
            std::process::exit(2);
        });
        emit(&r.table(), &opts.out, "sched_policies");
        emit(&r.tenant_table(), &opts.out, "sched_tenants");
        emit(&r.job_table(), &opts.out, "sched_jobs");
    }
    // Not a paper artefact, so not part of `all` (see `selects`).
    if wants("loadgen") {
        let mut cfg = if opts.quick {
            loadgen::Config::quick()
        } else {
            loadgen::Config::default()
        };
        if let Some(s) = opts.seed {
            cfg.seed = s;
        }
        if let Some(n) = opts.shards {
            cfg.shards = n;
        }
        if let Some(m) = opts.clients {
            cfg.clients = m;
        }
        let r = loadgen::run(&cfg).unwrap_or_else(|e| {
            eprintln!("repro loadgen: {e}");
            std::process::exit(2);
        });
        emit(&r.table(), &opts.out, "loadgen");
    }
    if wants("ablations") {
        let cfg = if opts.quick {
            fig4::Config::quick()
        } else {
            fig4::Config::default()
        };
        for (i, t) in ablations::tables(&cfg).iter().enumerate() {
            emit(t, &opts.out, &format!("ablation{}", i + 1));
        }
    }

    eprintln!("done in {:.1} s", t0.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_names_and_flags_parse() {
        let Ok(Cli::Run(o)) = parse(&["fig5", "cluster", "--quick", "--nodes", "64"]) else {
            panic!("valid command line rejected");
        };
        assert_eq!(o.what, ["fig5", "cluster"]);
        assert!(o.quick);
        assert_eq!(o.nodes, Some(64));
        let Ok(Cli::Run(o)) = parse(&[]) else {
            panic!("empty command line rejected");
        };
        assert_eq!(o.what, ["all"]);
        assert_eq!(parse(&["--help"]), Ok(Cli::Help));
    }

    #[test]
    fn unknown_names_and_flags_are_errors() {
        for bad in [&["fgi5"][..], &["--quik"], &["fig5", "--verbose"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("unknown experiment or option"), "{err}");
        }
    }

    #[test]
    fn flag_values_are_checked() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--budget", "lots"]).is_err());
        assert!(parse(&["--nodes", "0"]).is_err());
        let Ok(Cli::Run(o)) = parse(&["loadgen", "--shards", "0"]) else {
            panic!("zero shards is loadgen's error to report");
        };
        assert_eq!(o.shards, Some(0));
    }

    #[test]
    fn flags_no_selected_experiment_reads_are_errors() {
        let err = parse(&["fig1", "--budget", "1"]).unwrap_err();
        assert!(err.contains("--budget") && err.contains("cluster"), "{err}");
        // `all` covers cluster and sched, but not loadgen.
        let err = parse(&["all", "--shards", "4"]).unwrap_err();
        assert!(err.contains("--shards") && err.contains("loadgen"), "{err}");
        let err = parse(&["--clients", "9"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        for ok in [
            &["cluster", "--budget", "1", "--nodes", "64"][..],
            &["--seed", "3"],
            &["fig1", "sched", "--seed", "3"],
            &["loadgen", "--seed", "3", "--shards", "2", "--clients", "9"],
        ] {
            assert!(parse(ok).is_ok(), "{ok:?} rejected");
        }
    }
}
