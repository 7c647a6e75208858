//! The paper's experiments, one binary.
//!
//! ```text
//! cargo run --release -p ag-experiments -- <name>
//! cargo run --release -p ag-experiments -- all [out.md]
//! ```
//!
//! The first form prints one experiment: names are the module names under
//! `experiments/`, and an unknown one lists them. The second runs the
//! whole suite, prints it and rewrites `EXPERIMENTS.md`. Set
//! `AG_BENCH_SCALE=full` for the larger configuration; a value that is
//! neither `quick` nor `full` is refused with exit code 2.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "a command-line harness reads its arguments; the ban exists for simulation code"
)]

use ag_experiments::{render_suite, Scale, EXPERIMENTS};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|value| {
        eprintln!(
            "AG_BENCH_SCALE={value:?} is not a scale: accepted values are `quick` and `full` \
             (any capitalization); unset means quick"
        );
        std::process::exit(2);
    });
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "all" {
        let out_path = args.next().unwrap_or_else(|| "EXPERIMENTS.md".to_string());
        let md = render_suite(scale);
        print!("{md}");
        std::fs::write(&out_path, md).expect("write the report");
        println!("wrote {out_path}");
    } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) {
        print!("{}", experiment.section(scale));
    } else {
        eprintln!("usage: experiments all [out.md] | experiments <name>, with <name> one of:");
        for experiment in &EXPERIMENTS {
            eprintln!("  {}", experiment.name);
        }
        std::process::exit(2);
    }
}
