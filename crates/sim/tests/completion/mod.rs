//! Per-node completion rounds, observed rather than recorded: the engine
//! keeps no per-node record, so a test that pins when each node finished
//! derives it from [`Engine::run_observed`].
//!
//! A node complete before round 1 finished at round 0; any other node at
//! the first observed round that sees it complete. The observer fires
//! after every round under both time models, and under the asynchronous
//! model once more when a run finishes mid-round, so that round is
//! `ceil(timeslots / n)` of the slot it finished in, the convention of
//! [`RunStats::rounds`].
//!
//! Shared by the engine's unit tests, the `ag-sim` integration tests and
//! the `algebraic-gossip` tests (each includes this file as a module).

use ag_sim::{Engine, Protocol, RunStats};

/// Runs `proto` on `engine`, passing every observation on to `observer`,
/// and returns the run's stats beside each node's completion round
/// (`None` for a node that never finished).
pub fn run_with_completion<P: Protocol>(
    engine: &mut Engine,
    proto: &mut P,
    mut observer: impl FnMut(u64, &P),
) -> (RunStats, Vec<Option<u64>>) {
    let mut finished: Vec<Option<u64>> = (0..proto.num_nodes())
        .map(|v| proto.node_complete(v).then_some(0))
        .collect();
    let stats = engine.run_observed(proto, |round, p| {
        for (v, at) in finished.iter_mut().enumerate() {
            if at.is_none() && p.node_complete(v) {
                *at = Some(round);
            }
        }
        observer(round, p);
    });
    (stats, finished)
}
