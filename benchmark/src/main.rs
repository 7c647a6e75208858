//! Command line of the benchmark.
//!
//! ```text
//! ag-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ag-benchmark all [--seed <n>] [--seconds <s>] [--trace <0|1|both>] [--out <file>] [--quick]
//! ag-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload in one
//! process (so that `peak_rss_mib` is per workload), the result as one JSON
//! object on the last line of standard output.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ag_benchmark::compare::{compare_files, read_json};
use ag_benchmark::env;
use ag_benchmark::json::Json;
use ag_benchmark::metrics::WORKLOADS;
use ag_benchmark::run::{run, Outcome, DEFAULT_SEED};
use ag_benchmark::workloads::Workload;

/// `--seconds` when none is given; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  ag-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  ag-benchmark all [--seed <n>] [--seconds <s>] [--trace <0|1|both>] [--out <file>] [--quick]
  ag-benchmark compare <a.json> <b.json>
workloads: gossip-payload gossip-rank decode-stream trial-sweep";

/// The options shared by the single-workload and `all` forms.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: String,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: "0".into(),
        out: None,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            options.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => options.workload = Some(value.clone()),
            "--seed" => options.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => options.trace = value.clone(),
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(options)
}

/// Runs one workload in this process and prints its result.
fn run_one(options: &Options) -> Result<(), String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let workload = Workload::by_name(name, options.quick)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let traced = match options.trace.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let outcome = run(&workload, options.seed, options.seconds, traced)?;
    outcome.write_files()?;
    print!("{}", outcome.report());
    println!("{}", outcome.driver_line());
    Ok(())
}

/// Runs every workload, each in a child process of its own, and merges the
/// children's result files into one.
fn run_all(options: &Options) -> Result<(), String> {
    let traces: &[bool] = match options.trace.as_str() {
        "0" => &[false],
        "1" => &[true],
        "both" => &[false, true],
        other => return Err(format!("--trace takes 0, 1 or both, not `{other}`")),
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut env_header = Json::Null;
    let mut runs = Vec::new();
    for name in WORKLOADS {
        for &traced in traces {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if options.quick {
                child.arg("--quick");
            }
            // `status` waits for the child to end.
            let status = child
                .status()
                .map_err(|e| format!("cannot start the {name} run: {e}"))?;
            if !status.success() {
                return Err(format!("the {name} run failed: {status}"));
            }
            let path = Outcome::result_path(name, traced);
            let doc = read_json(&path)?;
            env_header = doc.get("env").cloned().unwrap_or(Json::Null);
            runs.extend_from_slice(doc.get("runs").map(Json::elements).unwrap_or_default());
        }
    }
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| env::out_dir().join("result.json"));
    let merged = Json::obj([("env", env_header), ("runs", Json::Arr(runs))]);
    std::fs::write(&out, merged.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(Path::new(a), Path::new(b)).and_then(|regressed| {
                if regressed {
                    Err("at least one pair regressed".into())
                } else {
                    Ok(())
                }
            }),
            _ => Err("compare takes exactly two result files".into()),
        },
        Some("all") => env::prepare()
            .and_then(|()| parse_options(&args[1..]))
            .and_then(|options| run_all(&options)),
        Some(_) => env::prepare()
            .and_then(|()| parse_options(&args))
            .and_then(|options| run_one(&options)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ag-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
