//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment is a module of [`experiments`] whose `run(scale)`
//! returns its Markdown section body, written as a spec over the shared
//! pieces of [`common`]: graph families, the one cell runner and round
//! budget, and the two table shapes. [`EXPERIMENTS`] lists them with the
//! id and title the `EXPERIMENTS.md` index prints. The one binary,
//! `src/bin/experiments.rs`, prints a single experiment (`experiments
//! <name>`) or the whole suite, which it also writes to `EXPERIMENTS.md`
//! (`experiments all`, [`render_suite`]).
//!
//! Scale: every experiment takes a [`Scale`]; `Scale::Quick` keeps the
//! whole suite to a few seconds (and is what `tests/experiments_md.rs`
//! regenerates and compares with the committed `EXPERIMENTS.md`),
//! `Scale::Full` uses larger n and more trials. Set `AG_BENCH_SCALE=full`
//! to upgrade the binary.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use ag_analysis::TableBuilder;

pub mod common;
pub mod experiments;

pub use common::Scale;

/// One experiment of the suite.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name (its module's name).
    pub name: &'static str,
    /// Report id as the EXPERIMENTS.md index lists it (e.g. "T1", "F1/F2").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Regenerates the Markdown section body at the given scale.
    pub run: fn(Scale) -> String,
}

impl Experiment {
    /// The section as `EXPERIMENTS.md` holds it: heading, then body.
    #[must_use]
    pub fn section(&self, scale: Scale) -> String {
        format!("## [{}] {}\n\n{}\n", self.id, self.title, (self.run)(scale))
    }
}

/// Every experiment, in the order of the EXPERIMENTS.md index.
pub const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "table1",
        id: "T1",
        title: "Table 1 — main stopping-time results",
        run: experiments::table1::run,
    },
    Experiment {
        name: "table2",
        id: "T2",
        title: "Table 2 — comparison with Haeupler's bound",
        run: experiments::table2::run,
    },
    Experiment {
        name: "queue_fig",
        id: "F1/F2",
        title: "Figure 1 & Theorem 2 — queueing reduction",
        run: experiments::queue_fig::run,
    },
    Experiment {
        name: "brr_fig",
        id: "F3/F4",
        title: "Theorem 5 (B_RR) & Lemma 2 (degree sums)",
        run: experiments::brr_fig::run,
    },
    Experiment {
        name: "scaling_fig",
        id: "F5",
        title: "Scaling curves: t vs n and t vs k",
        run: experiments::scaling_fig::run,
    },
    Experiment {
        name: "barbell_fig",
        id: "F6",
        title: "Barbell: uniform AG Ω(n²) vs TAG Θ(n)",
        run: experiments::barbell_fig::run,
    },
    Experiment {
        name: "progress_fig",
        id: "F7",
        title: "Rank-evolution traces on the barbell",
        run: experiments::progress_fig::run,
    },
    Experiment {
        name: "stopping_time",
        id: "F8",
        title: "Stopping-time scaling suite: rounds vs n per family",
        run: experiments::stopping_time::run,
    },
    Experiment {
        name: "ablation",
        id: "A1-A6",
        title: "Ablations: field, loss, comm model, coding gain, density, crashes",
        run: experiments::ablation::run,
    },
    Experiment {
        name: "dynamic_fig",
        id: "F9",
        title: "Dynamic topologies: churn sweeps, adversarial schedules, recovery",
        run: experiments::dynamic_fig::run,
    },
];

/// Runs every experiment and renders the whole report, `EXPERIMENTS.md`
/// byte for byte apart from the wall-clock `Suite runtime` line.
#[must_use]
#[allow(
    clippy::disallowed_methods,
    reason = "the report states its own wall-clock runtime; the ban exists for simulation code"
)]
pub fn render_suite(scale: Scale) -> String {
    let started = Instant::now();
    let sections: Vec<String> = EXPERIMENTS.iter().map(|e| e.section(scale)).collect();
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
    let mut index = TableBuilder::new(["id", "paper artifact", "verdict"]);
    for e in &EXPERIMENTS {
        index.row([e.id, e.title, "reproduced (see section)"]);
    }
    let _ = writeln!(md, "## Experiment index\n\n{}", index.render_markdown());
    md.extend(sections);
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table is the index: names and ids are unique, and the ids and
    /// titles are the committed index's rows, in its order.
    #[test]
    fn experiments_are_unique_and_in_index_order() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            for b in &EXPERIMENTS[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(a.id, b.id);
            }
        }
        let committed = include_str!("../../../EXPERIMENTS.md");
        let index: Vec<&str> = committed
            .lines()
            .skip_while(|line| *line != "|---|---|---|")
            .skip(1)
            .take_while(|line| !line.is_empty())
            .collect();
        let ours: Vec<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("| {} | {} | reproduced (see section) |", e.id, e.title))
            .collect();
        assert_eq!(index, ours);
    }
}
