//! Command-line entry point; see `README.md` for the workloads and the
//! metrics.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use powerbench::compare::compare;
use powerbench::workloads::{run, Settings, WorkloadId};

const USAGE: &str = "\
usage: powerbench [--workload NAME|all]... [--seed N] [--seconds S] [--trace 0|1]
                  [--smoke] [--out FILE] [--spans FILE]
       powerbench compare PARENT.jsonl CHANGE.jsonl [--spec BENCHMARK.json]

workloads: paper_single_node cluster_hier_halo_4096 arbiterd_sharded_100k arbiterd_durable_4k";

struct Args {
    workloads: Vec<WorkloadId>,
    settings: Settings,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        settings: Settings {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        },
        out: None,
        spans: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.settings.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads.extend(WorkloadId::ALL),
            "--workload" => args
                .workloads
                .push(WorkloadId::parse(&value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => args.settings.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                args.settings.seconds = s;
            }
            "--trace" => {
                args.settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => args.out = Some(value.into()),
            "--spans" => args.spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads.extend(WorkloadId::ALL);
    }
    Ok(args)
}

fn append(path: &PathBuf, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn bench(args: Args) -> ExitCode {
    let mut all_correct = true;
    for id in args.workloads {
        let (result, probe) = match run(id, &args.settings) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("powerbench: {}: {e}", id.name());
                return ExitCode::FAILURE;
            }
        };
        print!("{}", result.table());
        if let Some(path) = &args.out {
            if let Err(e) = append(path, &result.record()) {
                eprintln!("powerbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if let (Some(path), Some(p)) = (&args.spans, &probe) {
            if let Err(e) = p.write_spans(path, id.name()) {
                eprintln!("powerbench: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{}", result.result_line());
        all_correct &= result.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_cmd(mut it: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let (Some(parent), Some(change)) = (it.next(), it.next()) else {
        return Err("compare needs two results files".into());
    };
    let spec = match (it.next().as_deref(), it.next()) {
        (None, _) => PathBuf::from("BENCHMARK.json"),
        (Some("--spec"), Some(p)) => p.into(),
        _ => return Err("compare takes only --spec FILE after the two files".into()),
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, clean) = compare(
        &read(&spec.to_string_lossy())?,
        &read(&parent)?,
        &read(&change)?,
    )?;
    print!("{table}");
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1).peekable();
    let outcome = if it.peek().map(String::as_str) == Some("compare") {
        it.next();
        compare_cmd(it)
    } else {
        parse(it).map(bench)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("powerbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
