//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [all|EXPERIMENT]... [--quick] [--out DIR] [--budget W] [--seed N]
//!       [--nodes N] [--shards N] [--clients M]
//! ```
//!
//! The `EXPERIMENTS` table lists every experiment. Selected ones run once
//! each, in table order, whatever order the command line names them in.
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
//! Counts above [`MAX_NODES`] are rejected (exit 2) before anything is
//! allocated, as are `--clients` counts above `loadgen`'s
//! `MAX_CLIENTS`.
//!
//! Prints each artefact as an aligned text table; with `--out DIR` also
//! writes one CSV per artefact (plus raw series for the figures).
//!
//! Exit codes: 0 on success, 2 on an operator mistake (an unknown
//! experiment name or flag, a bad flag value, a flag given twice, a
//! flag no selected experiment reads, an invalid configuration; the
//! usage line goes to stderr), 1 when an output file or directory
//! cannot be written.

use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use powerprog_core::experiments::{
    ablations, backends, candle_ext, cluster, faults, fig1, fig2, fig3, fig4, fig5, hierarchy,
    loadgen, sched, table1, table6, tables2to5,
};
use powerprog_core::report::TextTable;

/// The largest `--nodes` accepted, 244× the largest shipped cluster
/// shape (4096 nodes). The cluster artefacts build a roster of that
/// many nodes before their configurations validate, so a mistyped
/// count would otherwise run out of memory instead of failing to parse.
const MAX_NODES: usize = 1_000_000;

/// One experiment `repro` can run.
struct Experiment {
    name: &'static str,
    /// Whether `all` selects it.
    in_all: bool,
    /// The experiment-specific flags it reads.
    flags: &'static [&'static str],
    /// Runs it; an `Err` is an operator mistake, reported with exit 2.
    run: fn(&Opts) -> Result<(), String>,
}

impl Experiment {
    const fn new(
        name: &'static str,
        flags: &'static [&'static str],
        run: fn(&Opts) -> Result<(), String>,
    ) -> Self {
        Self {
            name,
            in_all: true,
            flags,
            run,
        }
    }
}

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", &[], run_table1),
    Experiment::new("tables2to5", &[], run_tables2to5),
    Experiment::new("table6", &[], run_table6),
    Experiment::new("fig1", &[], run_fig1),
    Experiment::new("fig2", &[], run_fig2),
    Experiment::new("fig3", &[], run_fig3),
    Experiment::new("fig4", &[], run_fig4),
    Experiment::new("fig5", &[], run_fig5),
    Experiment::new("candle", &[], run_candle),
    Experiment::new("faults", &[], run_faults),
    Experiment::new("backends", &[], run_backends),
    Experiment::new("cluster", &["--budget", "--nodes"], run_cluster),
    Experiment::new("sched", &["--seed"], run_sched),
    // Not a paper artefact, so not part of `all`.
    Experiment {
        in_all: false,
        ..Experiment::new("loadgen", &["--seed", "--shards", "--clients"], run_loadgen)
    },
    Experiment::new("ablations", &[], run_ablations),
];

/// Whether the experiment names in `what` select `e`.
fn selects(what: &[String], e: &Experiment) -> bool {
    what.iter().any(|w| w == e.name || (w == "all" && e.in_all))
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro [all|{}]... [--quick] [--out DIR] [--budget W] [--seed N] [--nodes N] [--shards N] [--clients M]",
        names.join("|")
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
    let mut flags = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--out" => o.out = Some(value(&mut args, "--out requires a directory")?),
            "--budget" => o.budget_w = Some(value(&mut args, "--budget requires a wattage")?),
            "--seed" => o.seed = Some(value(&mut args, "--seed requires an integer")?),
            "--nodes" => {
                let n: NonZeroUsize = value(&mut args, "--nodes requires a positive node count")?;
                if n.get() > MAX_NODES {
                    return Err(format!("--nodes {n} exceeds the limit of {MAX_NODES}"));
                }
                o.nodes = Some(n.get());
            }
            // Zero is parsed, not rejected: `loadgen` maps it to a
            // ConfigError naming the field (still exit code 2).
            "--shards" => o.shards = Some(value(&mut args, "--shards requires a shard count")?),
            "--clients" => {
                o.clients = Some(value(&mut args, "--clients requires a producer count")?)
            }
            "--help" | "-h" => return Ok(Cli::Help),
            name if name == "all" || EXPERIMENTS.iter().any(|e| e.name == name) => {
                o.what.push(a);
                continue;
            }
            other => return Err(format!("unknown experiment or option '{other}'")),
        }
        if flags.contains(&a) {
            return Err(format!("{a} is given more than once"));
        }
        flags.push(a);
    }
    if o.what.is_empty() {
        o.what.push("all".to_string());
    }
    // A flag no experiment lists (`--quick`, `--out`) is read by all.
    for flag in &flags {
        let readers: Vec<&Experiment> = EXPERIMENTS
            .iter()
            .filter(|e| e.flags.contains(&flag.as_str()))
            .collect();
        if !readers.is_empty() && !readers.iter().any(|e| selects(&o.what, e)) {
            let names: Vec<&str> = readers.iter().map(|e| e.name).collect();
            return Err(format!(
                "{flag} is read only by {}, and no such experiment is selected",
                names.join(" and ")
            ));
        }
    }
    Ok(Cli::Run(o))
}

/// The quick or the full configuration, as `--quick` asks.
fn pick<C: Default>(o: &Opts, quick: fn() -> C) -> C {
    if o.quick {
        quick()
    } else {
        C::default()
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

fn emit(t: &TextTable, o: &Opts, name: &str) {
    println!("{}", t.render());
    if let Some(dir) = &o.out {
        let path = dir.join(format!("{name}.csv"));
        or_exit(fs::write(&path, t.to_csv()), &path);
    }
}

fn write_series(o: &Opts, name: &str, s: &progress::series::TimeSeries, v: &str) {
    if let Some(dir) = &o.out {
        let path = dir.join(format!("{name}.csv"));
        or_exit(fs::write(&path, s.to_csv("t_s", v)), &path);
    }
}

fn run_table1(o: &Opts) -> Result<(), String> {
    let cfg = table1::Config::default();
    emit(&table1::run(&cfg).table(), o, "table1");
    Ok(())
}

fn run_tables2to5(o: &Opts) -> Result<(), String> {
    for (i, t) in tables2to5::tables().iter().enumerate() {
        emit(t, o, &format!("table{}", i + 2));
    }
    Ok(())
}

fn run_table6(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, table6::Config::quick);
    emit(&table6::run(&cfg).table(), o, "table6");
    Ok(())
}

fn run_fig1(o: &Opts) -> Result<(), String> {
    let r = fig1::run(&pick(o, fig1::Config::quick));
    emit(&r.table(), o, "fig1_summary");
    for p in [&r.lammps, &r.amg, &r.qmcpack] {
        println!("Fig. 1 sketch — {} progress rate:", p.app);
        println!("{}", powerprog_core::report::ascii_chart(&p.series, 72, 10));
    }
    write_series(o, "fig1_lammps", &r.lammps.series, "katom_steps_per_s");
    write_series(o, "fig1_amg", &r.amg.series, "iters_per_s");
    write_series(o, "fig1_qmcpack", &r.qmcpack.series, "blocks_per_s");
    Ok(())
}

fn run_fig2(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, fig2::Config::quick);
    emit(&fig2::run(&cfg).table(), o, "fig2");
    Ok(())
}

fn run_fig3(o: &Opts) -> Result<(), String> {
    let r = fig3::run(&pick(o, fig3::Config::quick));
    emit(&r.table(), o, "fig3_summary");
    if let Some(c) = r.cell("jagged-edge", "LAMMPS") {
        println!("Fig. 3 sketch — jagged-edge cap vs LAMMPS progress:");
        println!("{}", powerprog_core::report::ascii_chart(&c.cap, 72, 8));
        println!(
            "{}",
            powerprog_core::report::ascii_chart(&c.progress, 72, 8)
        );
    }
    if o.out.is_some() {
        for c in &r.cells {
            let tag = format!(
                "fig3_{}_{}",
                c.scheme.replace('-', "_"),
                c.app.to_lowercase().replace([' ', '(', ')'], "")
            );
            write_series(o, &format!("{tag}_progress"), &c.progress, "rate");
            write_series(o, &format!("{tag}_cap"), &c.cap, "cap_w");
        }
    }
    Ok(())
}

fn run_fig4(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, fig4::Config::quick);
    emit(&fig4::run(&cfg).table(), o, "fig4");
    Ok(())
}

fn run_fig5(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, fig5::Config::quick);
    emit(&fig5::run(&cfg).table(), o, "fig5");
    Ok(())
}

fn run_candle(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, candle_ext::Config::quick);
    emit(&candle_ext::run(&cfg).table(), o, "candle_ext");
    Ok(())
}

fn run_faults(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, faults::Config::quick);
    emit(&faults::run(&cfg).table(), o, "faults");
    let (plain, empty) = faults::purity_check(&cfg);
    println!(
        "fault-free purity: {} (plain {plain:.3} J, empty plan {empty:.3} J)\n",
        if plain.to_bits() == empty.to_bits() {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    Ok(())
}

fn run_backends(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, backends::Config::quick);
    emit(&backends::run(&cfg).table(), o, "backends");
    Ok(())
}

/// The flat-policy and the hierarchy artefacts. Every configuration is
/// validated before the first one runs, so an infeasible `--budget` or
/// `--nodes` names the field and the constraint, and prints and writes
/// nothing, instead of failing after some artefacts are out.
fn run_cluster(o: &Opts) -> Result<(), String> {
    let mut cfg = pick(o, cluster::Config::quick);
    if let Some(n) = o.nodes {
        cfg = cfg.with_nodes(n);
    }
    if let Some(w) = o.budget_w {
        cfg.budget_w = w;
    }
    cfg.cluster_config(cfg.policies()[0])
        .validate()
        .map_err(|e| e.to_string())?;

    let mut hcfg = pick(o, hierarchy::Config::quick);
    if let Some(n) = o.nodes {
        if !n.is_multiple_of(hcfg.nodes_per_rack) {
            return Err(format!(
                "--nodes {n} is not a multiple of the {}-node rack width",
                hcfg.nodes_per_rack
            ));
        }
        hcfg = hcfg.with_nodes(n);
    }
    if let Some(w) = o.budget_w {
        hcfg.budget_w = w;
    }
    for v in hcfg.variants() {
        hcfg.cluster_config(v.policy, v.hierarchy)
            .validate()
            .map_err(|e| e.to_string())?;
    }

    let r = cluster::run(&cfg).map_err(|e| e.to_string())?;
    emit(&r.table(), o, "cluster_policies");
    emit(&r.budget_trace_table(), o, "cluster_budget_trace");
    let h = hierarchy::run(&hcfg).map_err(|e| e.to_string())?;
    emit(&h.table(), o, "cluster_hierarchy");
    emit(&h.rack_trace_table(), o, "cluster_hierarchy_rack_trace");
    emit(&h.node_trace_table(), o, "cluster_hierarchy_node_trace");
    Ok(())
}

fn run_sched(o: &Opts) -> Result<(), String> {
    let mut cfg = pick(o, sched::Config::quick);
    if let Some(s) = o.seed {
        cfg = cfg.with_seed(s);
    }
    cfg.sched.validate().map_err(|e| e.to_string())?;
    let r = sched::run(&cfg).map_err(|e| e.to_string())?;
    emit(&r.table(), o, "sched_policies");
    emit(&r.tenant_table(), o, "sched_tenants");
    emit(&r.job_table(), o, "sched_jobs");
    Ok(())
}

fn run_loadgen(o: &Opts) -> Result<(), String> {
    let mut cfg = pick(o, loadgen::Config::quick);
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    if let Some(n) = o.shards {
        cfg.shards = n;
    }
    if let Some(m) = o.clients {
        cfg.clients = m;
    }
    let r = loadgen::run(&cfg).map_err(|e| e.to_string())?;
    emit(&r.table(), o, "loadgen");
    Ok(())
}

fn run_ablations(o: &Opts) -> Result<(), String> {
    let cfg = pick(o, fig4::Config::quick);
    for (i, t) in ablations::tables(&cfg).iter().enumerate() {
        emit(t, o, &format!("ablation{}", i + 1));
    }
    Ok(())
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
    let t0 = std::time::Instant::now();
    for e in EXPERIMENTS.iter().filter(|e| selects(&opts.what, e)) {
        if let Err(msg) = (e.run)(&opts) {
            eprintln!("repro {}: {msg}", e.name);
            std::process::exit(2);
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
        let err = parse(&["cluster", "--nodes", "1000001"]).unwrap_err();
        assert!(err.contains("exceeds the limit"), "{err}");
        assert!(parse(&["cluster", "--nodes", "1000000"]).is_ok());
        let Ok(Cli::Run(o)) = parse(&["loadgen", "--shards", "0"]) else {
            panic!("zero shards is loadgen's error to report");
        };
        assert_eq!(o.shards, Some(0));
    }

    #[test]
    fn repeated_flags_are_errors() {
        for (bad, flag) in [
            (&["sched", "--seed", "1", "--seed", "2"][..], "--seed"),
            (&["--seed", "1", "--seed", "1"], "--seed"),
            (&["--quick", "fig5", "--quick"], "--quick"),
            (
                &["cluster", "--out", "a", "--budget", "90", "--out", "b"],
                "--out",
            ),
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, format!("{flag} is given more than once"), "{bad:?}");
        }
        // An experiment named twice is not an option given twice.
        assert!(parse(&["fig5", "fig5", "--quick"]).is_ok());
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

    /// A valid value for each experiment-specific flag.
    fn sample_value(flag: &str) -> &'static str {
        match flag {
            "--budget" => "100",
            "--nodes" => "64",
            "--seed" | "--shards" | "--clients" => "3",
            other => panic!("no sample value for {other}; add one here"),
        }
    }

    #[test]
    fn every_experiment_is_wired_into_the_parser() {
        let all = ["all".to_string()];
        let mut seen = Vec::new();
        for e in EXPERIMENTS {
            assert!(!seen.contains(&e.name), "{} is listed twice", e.name);
            seen.push(e.name);
            let Ok(Cli::Run(o)) = parse(&[e.name]) else {
                panic!("{} does not parse", e.name);
            };
            assert_eq!(o.what, [e.name]);
            assert_eq!(selects(&all, e), e.name != "loadgen", "{}", e.name);
            for &flag in e.flags {
                let v = sample_value(flag);
                let ok = parse(&[e.name, flag, v]);
                assert!(ok.is_ok(), "{} rejects {flag}: {ok:?}", e.name);
                for other in EXPERIMENTS.iter().filter(|x| !x.flags.contains(&flag)) {
                    let err = parse(&[other.name, flag, v]).unwrap_err();
                    assert!(err.contains(flag) && err.contains(e.name), "{err}");
                }
            }
        }
    }
}
