//! F7 — rank-evolution traces: how total rank grows over rounds, per
//! protocol, on the barbell. Uniform AG plateaus when each clique has
//! saturated internally and the bridge throttles cross-traffic; TAG climbs
//! linearly once its tree is up. This is the time-domain view behind the
//! F6 separation.

use ag_analysis::{downsample, sparkline};
use ag_gf::Gf256;
use ag_sim::{Engine, TimeModel::Synchronous};
use algebraic_gossip::{AgConfig, AlgebraicGossip, BroadcastTree, CommModel, Tag};

use crate::common::{engine, Family, Scale};

/// Runs the rank-progress trace experiment.
#[must_use]
pub fn run(scale: Scale) -> String {
    let n = scale.pick(32, 64);
    let g = Family::Barbell.build(n, 0);
    let k = n;
    let full_rank = (n * k) as f64;
    let width = 64;

    // Trace uniform AG.
    let cfg = AgConfig::new(k);
    let mut uniform = AlgebraicGossip::<Gf256>::new(&g, &cfg, 71).unwrap();
    let mut trace_u = Vec::new();
    let stats_u = Engine::new(engine(Synchronous, 71)).run_observed(
        &mut uniform,
        &mut |_, p: &AlgebraicGossip<Gf256>| {
            trace_u.push(p.total_rank() as f64 / full_rank);
        },
    );

    // Trace TAG+BRR.
    let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 71).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, brr, &cfg, 71).unwrap();
    let mut trace_t = Vec::new();
    let stats_t =
        Engine::new(engine(Synchronous, 71)).run_observed(&mut tag, &mut |_, p: &Tag<Gf256, _>| {
            let total: usize = (0..n).map(|v| p.rank(v)).sum();
            trace_t.push(total as f64 / full_rank);
        });

    let spark_u = sparkline(&downsample(&trace_u, width));
    let spark_t = sparkline(&downsample(&trace_t, width));
    format!(
        "### F7 Rank evolution on the barbell (n = {n}, k = {k})\n\n\
         ```text\nuniform AG ({} rounds): |{spark_u}|\nTAG+B_RR   ({} rounds): |{spark_t}|\n```\n\n\
         Each cell is the network-wide fraction of full rank in that time\n\
         bucket. The uniform-AG plateau is the bridge bottleneck; TAG's ramp\n\
         is the pipelined tree flow of Lemma 1.\n\n",
        stats_u.rounds, stats_t.rounds
    )
}
