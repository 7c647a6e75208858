//! The repository's one performance benchmark: four workloads, four gated
//! end-to-end metrics and a traced pass that attributes time to the layers
//! `ag-gf`, `ag-linalg`, `ag-rlnc`, `ag-graph`, `ag-sim` and `core` from
//! the outside, by timing calls into each layer's public functions. See
//! `README.md` in this directory and `BENCHMARK.json` at the repository
//! root.

// Timing harness: wall-clock reads are this package's job; the root
// clippy.toml bans them for simulation code.
#![allow(clippy::disallowed_methods)]

pub mod compare;
pub mod env;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
