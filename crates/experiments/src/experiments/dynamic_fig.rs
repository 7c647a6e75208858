//! F9 — dynamic-topology gossip: stopping time under scheduled churn.
//!
//! The paper analyzes static graphs; Haeupler's "Analyzing network coding
//! gossip made easy" (the PAPERS.md T2 comparison) proves the projection
//! argument behind RLNC's convergence is oblivious to *adversarial*
//! topology dynamics: any `k` linearly independent equations decode, no
//! matter which graph delivered them. Three measurements probe that claim
//! with the [`ag_graph::ScheduledTopology`] scenario engine:
//!
//! * **F9a — churn-rate sweep.** Median stopping time vs random rewire
//!   rate per graph family, RLNC (`UniformAg`) vs the uncoded baseline.
//!   The ratio columns (`rounds@rate / rounds@static`) must stay bounded
//!   for RLNC — connectivity-preserving churn (Haeupler's model) does not
//!   hurt coded gossip; on sparse families random rewires even *help*,
//!   acting as shortcut edges. The uncoded baseline meanwhile pays its
//!   coupon-collector multiple at every rate (the `uncoded/RLNC` column).
//! * **F9b — adversarial partition.** The complete graph split in two by
//!   an alternating partition/heal schedule with ever-longer blackout
//!   windows. RLNC's ratio stays flat: the k/2 innovative crossings it
//!   needs fit into a single heal window (every crossing is innovative
//!   w.h.p. — the rank-projection argument needs no static graph). The
//!   uncoded baseline's stopping time remains a ~constant multiple set by
//!   its coupon tail — the degradation coding removes — at every
//!   severity.
//! * **F9c — bridge-cut adversary + crash-then-rewire.** The barbell
//!   bridge cycling up/cut under uniform AG vs TAG. With the bridge down
//!   most of the time *any* protocol is bridge-uptime-bound (k messages
//!   must cross a cut of capacity ≤ 2/round), so both degrade together
//!   and TAG's carefully engineered static-barbell advantage stops
//!   mattering: the adversary, not the protocol structure, sets the
//!   stopping time. Plus the recovery scenario: a star whose hub crashes
//!   after one round stalls forever statically, but completes under
//!   rewiring churn — crash tolerance composes with dynamics.

use std::fmt::Write as _;

use ag_analysis::{Summary, TableBuilder};
use ag_gf::Gf256;
use ag_graph::{ChurnSchedule, Graph, ScheduledTopology, Topology};
use ag_sim::{Engine, EngineConfig, TimeModel::Synchronous};
use algebraic_gossip::{
    AgConfig, AlgebraicGossip, BroadcastTree, CommModel, CrashPlan, Placement, RandomMessageGossip,
    Tag, TrialPlan, WithCrashes,
};

use crate::common::{engine, ratio_table, Family, Scale, ROUND_BUDGET};

/// Base seed for every F9 schedule and trial plan.
const F9_SEED: u64 = 0x0F9_0F9;

/// The F9a rewire rates (fraction of edges rewired per round), the static
/// baseline first.
const REWIRE_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// The ratio-table columns of RLNC against the uncoded baseline (F9a,
/// F9b), after the row label.
const RLNC_VS_UNCODED: [&str; 5] = [
    "RLNC rounds",
    "RLNC ratio",
    "uncoded rounds",
    "uncoded ratio",
    "uncoded/RLNC",
];

/// The F9c bridge adversary's up-window, in epochs.
const BRIDGE_UP: u64 = 2;

/// The seed of F9c's trial plans.
const F9C_SEED: u64 = F9_SEED ^ 0xC;

/// The stall budget of F9c's TAG cells, in rounds: 35 times the slowest
/// TAG trial that finishes at either scale (280 rounds). At full scale some
/// trials never finish, a resonance of the bridge adversary's period with
/// `B_RR`'s round-robin pointers that the F9c text explains.
const TAG_STALL_BUDGET: u64 = 10_000;

/// Which protocol an F9 cell runs. The dynamic lanes construct protocols
/// directly, since `TrialPlan::run` is graph-typed, and take their seeds
/// and their threads from `TrialPlan::map` like every other experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DynProto {
    Rlnc,
    Uncoded,
    Tag,
}

/// The stopping time of `proto` on `graph` under `schedule` in each of
/// `trials` decorrelated trials (synchronous model), `None` for a trial
/// still running after `budget` rounds.
fn dynamic_rounds(
    graph: &Graph,
    schedule: &ChurnSchedule,
    proto: DynProto,
    k: usize,
    trials: u64,
    seed0: u64,
    budget: u64,
) -> Vec<Option<u64>> {
    TrialPlan::new(trials, seed0).map(|seeds| {
        let mut engine = Engine::new(engine(Synchronous, seeds.engine).with_max_rounds(budget));
        let cfg = AgConfig::new(k);
        let topo = ScheduledTopology::new(graph, schedule.clone());
        let pseed = seeds.protocol;
        let stats = match proto {
            DynProto::Rlnc => engine.run_batch(
                &mut AlgebraicGossip::<Gf256, _>::on_topology(topo, &cfg, pseed).expect("spec"),
            ),
            DynProto::Uncoded => engine.run_batch(
                &mut RandomMessageGossip::<Gf256, _>::on_topology(topo, &cfg, pseed).expect("spec"),
            ),
            DynProto::Tag => {
                let tree =
                    BroadcastTree::on_topology(topo.clone(), 0, CommModel::RoundRobin, pseed)
                        .expect("tree");
                engine.run_batch(
                    &mut Tag::<Gf256, _, _>::on_topology(topo, tree, &cfg, pseed).expect("spec"),
                )
            }
        };
        stats.completed.then_some(stats.rounds)
    })
}

/// The scheduled-topology twin of [`crate::common::median_rounds`]
/// (`run_protocol` takes a static graph): the median of
/// [`dynamic_rounds`] under the one [`ROUND_BUDGET`]. Panics if a trial
/// exhausts the budget — cells are sized to always complete.
fn median_dynamic_rounds(
    graph: &Graph,
    schedule: &ChurnSchedule,
    proto: DynProto,
    k: usize,
    trials: u64,
    seed0: u64,
) -> f64 {
    let rounds = dynamic_rounds(graph, schedule, proto, k, trials, seed0, ROUND_BUDGET);
    let rounds: Option<Vec<u64>> = rounds.into_iter().collect();
    Summary::of_u64(&rounds.expect("F9 trial hit the round budget")).median()
}

/// F9a: stopping time vs rewire rate, per family, RLNC vs uncoded.
fn churn_rate_sweep(scale: Scale, md: &mut String) {
    let trials = scale.trials();
    let seed = F9_SEED;
    let _ = writeln!(
        md,
        "### F9a — churn-rate sweep (random rewires)\n\n\
         Median synchronous stopping time vs the fraction of edges rewired\n\
         per round, {trials} trials per cell, uniform RLNC gossip vs the uncoded\n\
         random-message baseline on the same seeds. Ratio columns divide by\n\
         the static (rate 0) stopping time of the same protocol: **bounded,\n\
         ≈flat RLNC ratios mean coded gossip is churn-oblivious** (the\n\
         Haeupler shape claim at the connectivity-preserving end of the\n\
         adversary spectrum). On sparse families rewires act as shortcuts,\n\
         so ratios may dip below 1 — churn *helping* is still churn not\n\
         hurting. The `uncoded/RLNC` column is the coding gain the churned\n\
         baseline keeps paying at every rate.\n"
    );
    let n = scale.pick(32, 64);
    // The square grid nearest the quick size is 6 × 6.
    let grid_n = scale.pick(36, 64);
    let k = 4;
    let families = [
        (Family::Ring, n),
        (Family::GridSquare, grid_n),
        (Family::RandomRegular, n),
    ];
    for (family, n) in families {
        let graph = family.build(n, F9_SEED);
        // The first rate is 0: the static run every ratio divides by.
        let rows = REWIRE_RATES.map(|rate| {
            let schedule = if rate == 0.0 {
                ChurnSchedule::None
            } else {
                ChurnSchedule::rewire(rate, seed)
            };
            let rlnc = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
            let unc = median_dynamic_rounds(&graph, &schedule, DynProto::Uncoded, k, trials, seed);
            (format!("{rate:.2}"), rlnc, unc)
        });
        let _ = writeln!(
            md,
            "#### F9a {} (n = {})\n\n{}",
            family.label(),
            graph.n(),
            ratio_table(["rewire rate"].into_iter().chain(RLNC_VS_UNCODED), rows)
        );
    }
}

/// F9b: the partition/heal adversary on the complete graph.
fn partition_adversary(scale: Scale, md: &mut String) {
    let trials = scale.trials();
    let seed = F9_SEED ^ 0xB;
    let n = scale.pick(24, 32);
    let graph = Family::Complete.build(n, 0);
    let k = n; // all-to-all: the regime where the coupon tail bites

    // Healed 1 epoch, partitioned `cut` epochs, repeating.
    let blackout = |cut| {
        let schedule = ChurnSchedule::partition_heal(n / 2, 1, cut);
        (format!("{cut}/1"), schedule)
    };
    let schedules = [
        ("static".to_string(), ChurnSchedule::None),
        blackout(2),
        blackout(4),
        blackout(8),
    ];
    let rows = schedules.map(|(label, schedule)| {
        let rlnc = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
        let unc = median_dynamic_rounds(&graph, &schedule, DynProto::Uncoded, k, trials, seed);
        (label, rlnc, unc)
    });
    let table = ratio_table(["blackout len"].into_iter().chain(RLNC_VS_UNCODED), rows);
    let _ = writeln!(
        md,
        "### F9b — adversarial partition/heal on K_{n} (k = n)\n\n\
         The complete graph is split into two halves for `blackout` epochs\n\
         out of every `blackout + 1`; cross-partition bandwidth shrinks to\n\
         the heal epochs. Every RLNC crossing is innovative w.h.p. (the\n\
         rank-projection argument never references a static graph), and\n\
         the ≈n/2 crossings of a single heal round already cover the k/2\n\
         ranks each side is missing — so **RLNC's ratio stays flat as the\n\
         blackouts lengthen**. The uncoded baseline remains the ~constant\n\
         `uncoded/RLNC` multiple behind at every severity: its\n\
         coupon-collector tail — the degradation that coding removes — is\n\
         what it keeps paying whether or not the adversary is active.\n\
         {trials} trials/cell.\n\n{table}"
    );
}

/// F9c's barbell at `scale` and its three schedules: static, then the
/// bridge cut for `2·up` and `8·up` epochs per [`BRIDGE_UP`] epochs up.
fn bridge_schedules(scale: Scale) -> (Graph, [(String, ChurnSchedule); 3]) {
    let n = scale.pick(16, 24);
    let up = BRIDGE_UP;
    let bridge = (n / 2 - 1, n / 2);
    let cut_for = |cut: u64| (cut.to_string(), ChurnSchedule::bridge_cut(bridge, up, cut));
    let schedules = [
        ("static".to_string(), ChurnSchedule::None),
        cut_for(2 * up),
        cut_for(8 * up),
    ];
    (Family::Barbell.build(n, 0), schedules)
}

/// One F9c TAG cell at `scale` (k = n): each trial's stopping time, `None`
/// for a trial stalled at `budget` rounds.
fn tag_bridge_rounds(
    graph: &Graph,
    schedule: &ChurnSchedule,
    scale: Scale,
    budget: u64,
) -> Vec<Option<u64>> {
    let (k, trials) = (graph.n(), scale.trials());
    dynamic_rounds(graph, schedule, DynProto::Tag, k, trials, F9C_SEED, budget)
}

/// F9c: bridge-cut adversary (uniform AG vs TAG) + crash-then-rewire.
fn bridge_and_recovery(scale: Scale, md: &mut String) {
    let trials = scale.trials();
    let seed = F9C_SEED;
    let up = BRIDGE_UP;
    let (graph, schedules) = bridge_schedules(scale);
    let k = graph.n();
    let mut stalls = 0;
    let rows = schedules.map(|(label, schedule)| {
        let ag = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
        let tag = tag_bridge_rounds(&graph, &schedule, scale, TAG_STALL_BUDGET);
        let done: Vec<u64> = tag.iter().copied().flatten().collect();
        let stalled = tag.len() - done.len();
        stalls += stalled;
        let label = match stalled {
            0 => label,
            _ => format!("{label} (TAG {stalled}/{trials} stalled)"),
        };
        let tag = match done.as_slice() {
            [] => f64::NAN,
            _ => Summary::of_u64(&done).median(),
        };
        (label, ag, tag)
    });
    let table = ratio_table(
        [
            format!("bridge cut (per {up} up)").as_str(),
            "uniform AG rounds",
            "AG ratio",
            "TAG(B_RR) rounds",
            "TAG ratio",
            "TAG/AG",
        ],
        rows,
    );
    let _ = writeln!(
        md,
        "### F9c — barbell bridge-cut adversary: uniform AG vs TAG\n\n\
         The barbell bridge cycles `{up}` epochs up / `c` epochs cut; when\n\
         the bridge is down, TAG's Phase 2 skips the missing parent edge\n\
         (the tree routes over the bridge) and uniform AG has no cross\n\
         edge to draw. With k = n messages that must cross a cut of\n\
         capacity ≤ 2 per up-round, *any* protocol is bridge-uptime-bound,\n\
         so both ratios grow together with the downtime: the adversary,\n\
         not the protocol's tree engineering, sets the stopping time —\n\
         which is exactly the erosion claim: the static barbell is where\n\
         TAG's Θ(n) speedup lives, and a dynamic adversary takes that\n\
         regime away (TAG/AG drifts toward parity instead of the paper's\n\
         n-fold separation). {trials} trials/cell.\n\n{table}"
    );
    if stalls > 0 {
        let _ = writeln!(
            md,
            "A row marked *stalled* counts the TAG trials still running after\n\
             {TAG_STALL_BUDGET} rounds; its TAG median is over the trials that\n\
             finished. Those trials never finish: Phase 1 runs on odd wakeups,\n\
             so between two up-window picks a bridge endpoint's `B_RR` pointer\n\
             moves `({up} + cut)/2` steps, and where that step shares a factor\n\
             with the endpoint's degree ({} here) the pointer reaches the\n\
             bridge from one class of start offsets only. A trial whose two\n\
             endpoints both start outside it never builds its tree across the\n\
             bridge: a resonance of the adversary's period with round-robin,\n\
             not a stopping time.\n",
            graph.max_degree()
        );
    }

    // Crash-then-rewire recovery: stall statically, complete dynamically.
    let star = Family::Star.build(scale.pick(10, 16), 0);
    let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(0));
    let plan = CrashPlan::explicit(vec![(0, 2)]);
    let budget = 3_000;
    let seeds = TrialPlan::new(1, seed ^ 0xD).seeds(0);
    // Both runs stall or finish under the same engine and stall budget.
    let stall = EngineConfig::synchronous(seeds.engine).with_max_rounds(budget);
    let inner = AlgebraicGossip::<Gf256>::new(&star, &cfg, seeds.protocol).expect("static");
    let mut static_run = WithCrashes::new(inner, plan.clone());
    let s_static = Engine::new(stall).run(&mut static_run);
    let topo = ScheduledTopology::new(&star, ChurnSchedule::rewire(0.2, seed ^ 0xE));
    let inner =
        AlgebraicGossip::<Gf256, _>::on_topology(topo, &cfg, seeds.protocol).expect("dynamic");
    let mut dynamic_run = WithCrashes::new(inner, plan);
    let s_dynamic = Engine::new(stall).run(&mut dynamic_run);
    assert!(
        !s_static.completed && s_dynamic.completed,
        "crash-then-rewire recovery scenario regressed"
    );
    let mut t = TableBuilder::new(["scenario", "completed", "rounds", "surviving ranks"]);
    fn rank_sum<T: Topology>(p: &WithCrashes<AlgebraicGossip<Gf256, T>>) -> String {
        let alive = p.survivors();
        let ranks: usize = alive.iter().map(|&v| p.inner().rank(v)).sum();
        format!("{ranks}/{}", alive.len() * 3)
    }
    t.row([
        "static star, hub crash".into(),
        "no (stalled)".into(),
        format!("> {budget}"),
        rank_sum(&static_run),
    ]);
    t.row([
        "rewire 0.2, hub crash".into(),
        "yes".into(),
        format!("{}", s_dynamic.rounds),
        rank_sum(&dynamic_run),
    ]);
    let _ = writeln!(
        md,
        "### F9c′ — crash-then-rewire recovery\n\n\
         The star hub is the single source; it answers exactly one round\n\
         (every leaf ends at rank 1 of k = 3) and dies. Statically the\n\
         leaves are pairwise unreachable and the run stalls at the budget;\n\
         under rewiring churn the topology heals around the corpse and the\n\
         survivors aggregate their collectively-full-rank combos. Crash\n\
         tolerance composes with dynamics — no protocol change needed.\n\n{}",
        t.render_markdown()
    );
}

/// Runs the F9 dynamic-topology suite.
#[must_use]
pub fn run(scale: Scale) -> String {
    let mut md = String::new();
    let _ = writeln!(
        md,
        "Scheduled-churn scenarios over the `Topology` abstraction\n\
         (`ScheduledTopology` advancing one epoch per round; round 1 always\n\
         runs the initial graph). The Haeupler-style claim under test:\n\
         RLNC's stopping time stays flat (bounded ratio to its static run)\n\
         under churn — any k independent equations decode, whichever\n\
         graphs delivered them — while the uncoded baseline keeps paying\n\
         its coupon-collector multiple at every churn rate and adversary\n\
         severity.\n"
    );
    churn_rate_sweep(scale, &mut md);
    partition_adversary(scale, &mut md);
    bridge_and_recovery(scale, &mut md);
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    /// F9c's TAG cells return under a stall budget and count the trials
    /// the bridge resonance stalls: some in both cut schedules at
    /// `barbell(24)`, none at `barbell(16)` and none on the static graph.
    #[test]
    fn bridge_cut_tag_cells_report_their_stalls() {
        for scale in [Scale::Full, Scale::Quick] {
            let (graph, schedules) = bridge_schedules(scale);
            let stalled = schedules.map(|(_, schedule)| {
                let rounds = tag_bridge_rounds(&graph, &schedule, scale, 1_000);
                assert_eq!(rounds.len() as u64, scale.trials());
                rounds.iter().filter(|r| r.is_none()).count()
            });
            match scale {
                Scale::Full => assert!(
                    stalled[0] == 0 && stalled[1] > 0 && stalled[2] > 0,
                    "{stalled:?}"
                ),
                Scale::Quick => assert_eq!(stalled, [0; 3]),
            }
        }
    }
}
