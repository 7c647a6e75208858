//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment lives in [`experiments`] and returns an
//! [`ExperimentReport`]; the one binary, `src/bin/experiments.rs`, prints a
//! single experiment (`experiments <id>`, ids listed in [`EXPERIMENTS`]) or
//! runs the whole suite and rewrites `EXPERIMENTS.md` (`experiments all`).
//! Report ids ("T1", "F1", …) are the ones in the EXPERIMENTS.md index.
//!
//! Scale: every experiment takes a [`Scale`]; `Scale::Quick` keeps the
//! whole suite to a few seconds (and is what CI regenerates and diffs
//! against the committed `EXPERIMENTS.md`), `Scale::Full` uses larger n
//! and more trials. Set `AG_BENCH_SCALE=full` to upgrade
//! the binary.

#![forbid(unsafe_code)]

pub mod common;
pub mod experiments;

pub use common::{median_rounds_protocol, ExperimentReport, Scale};

/// One experiment: regenerates its table or figure at the given scale.
pub type Experiment = fn(Scale) -> ExperimentReport;

/// Every experiment, by command-line id (its module's name), in the order
/// of the EXPERIMENTS.md index.
pub const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("table1", experiments::table1::run),
    ("table2", experiments::table2::run),
    ("queue_fig", experiments::queue_fig::run),
    ("brr_fig", experiments::brr_fig::run),
    ("scaling_fig", experiments::scaling_fig::run),
    ("barbell_fig", experiments::barbell_fig::run),
    ("progress_fig", experiments::progress_fig::run),
    ("stopping_time", experiments::stopping_time::run),
    ("ablation", experiments::ablation::run),
    ("dynamic_fig", experiments::dynamic_fig::run),
];
