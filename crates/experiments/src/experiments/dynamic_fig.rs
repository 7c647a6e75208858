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
use ag_graph::{builders, ChurnSchedule, Graph, ScheduledTopology, Topology};
use ag_sim::{Engine, EngineConfig};
use algebraic_gossip::{
    AgConfig, AlgebraicGossip, BroadcastTree, CommModel, CrashPlan, Placement, RandomMessageGossip,
    Tag, TrialPlan, WithCrashes,
};

use crate::common::{ExperimentReport, Scale};

/// Base seed for every F9 schedule and trial plan.
const F9_SEED: u64 = 0x0F9_0F9;

/// The F9a rewire rates (fraction of edges rewired per round), the static
/// baseline first.
const REWIRE_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// The F9c bridge adversary's up-window, in epochs.
const BRIDGE_UP: u64 = 2;

/// Which protocol an F9 cell runs. The dynamic lanes construct protocols
/// directly, since `TrialPlan::run` is graph-typed, and take their seeds
/// and their threads from `TrialPlan::map` like every other experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DynProto {
    Rlnc,
    Uncoded,
    Tag,
}

/// Median stopping time of `proto` on `graph` under `schedule`, over
/// `trials` decorrelated trials (synchronous model). Panics if a trial
/// exhausts the budget — cells are sized to always complete.
fn median_dynamic_rounds(
    graph: &Graph,
    schedule: &ChurnSchedule,
    proto: DynProto,
    k: usize,
    trials: u64,
    seed0: u64,
) -> f64 {
    let rounds = TrialPlan::new(trials, seed0).map(|seeds| {
        let mut engine =
            Engine::new(EngineConfig::synchronous(seeds.engine).with_max_rounds(20_000_000));
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
        assert!(stats.completed, "F9 trial hit the round budget");
        stats.rounds
    });
    Summary::of_u64(&rounds).median()
}

/// One F9a family: label, graph, and the generation size it sweeps at.
fn f9a_families(scale: Scale) -> Vec<(&'static str, Graph, usize)> {
    let (ring_n, grid_side, rr_n) = match scale {
        Scale::Quick => (32, 6, 32),
        Scale::Full => (64, 8, 64),
    };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(F9_SEED);
    vec![
        ("ring", builders::cycle(ring_n).expect("cycle"), 4),
        (
            "grid",
            builders::grid(grid_side, grid_side).expect("grid"),
            4,
        ),
        (
            "random 3-regular",
            builders::random_regular(rr_n, 3, &mut rng).expect("rr(3)"),
            4,
        ),
    ]
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
    for (label, graph, k) in f9a_families(scale) {
        let mut t = TableBuilder::new(vec![
            "rewire rate".into(),
            "RLNC rounds".into(),
            "RLNC ratio".into(),
            "uncoded rounds".into(),
            "uncoded ratio".into(),
            "uncoded/RLNC".into(),
        ]);
        // The first rate is 0: the static run every ratio divides by.
        let mut base: Option<(f64, f64)> = None;
        for rate in REWIRE_RATES {
            let schedule = if rate == 0.0 {
                ChurnSchedule::None
            } else {
                ChurnSchedule::rewire(rate, seed)
            };
            let rlnc = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
            let unc = median_dynamic_rounds(&graph, &schedule, DynProto::Uncoded, k, trials, seed);
            let (b_rlnc, b_unc) = *base.get_or_insert((rlnc, unc));
            t.row(vec![
                format!("{rate:.2}"),
                format!("{rlnc:.0}"),
                format!("{:.2}", rlnc / b_rlnc),
                format!("{unc:.0}"),
                format!("{:.2}", unc / b_unc),
                format!("{:.2}", unc / rlnc),
            ]);
        }
        let _ = writeln!(
            md,
            "#### F9a {label} (n = {})\n\n{}",
            graph.n(),
            t.render_markdown()
        );
    }
}

/// F9b: the partition/heal adversary on the complete graph.
fn partition_adversary(scale: Scale, md: &mut String) {
    let trials = scale.trials();
    let seed = F9_SEED ^ 0xB;
    let n = match scale {
        Scale::Quick => 24,
        Scale::Full => 32,
    };
    let graph = builders::complete(n).expect("complete");
    let k = n; // all-to-all: the regime where the coupon tail bites
    let blackouts: &[u64] = &[0, 2, 4, 8];
    let mut t = TableBuilder::new(vec![
        "blackout len".into(),
        "RLNC rounds".into(),
        "RLNC ratio".into(),
        "uncoded rounds".into(),
        "uncoded ratio".into(),
        "uncoded/RLNC".into(),
    ]);
    let mut base: Option<(f64, f64)> = None;
    for &cut in blackouts {
        let schedule = if cut == 0 {
            ChurnSchedule::None
        } else {
            // Healed 1 epoch, partitioned `cut` epochs, repeating.
            ChurnSchedule::partition_heal(n / 2, 1, cut)
        };
        let rlnc = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
        let unc = median_dynamic_rounds(&graph, &schedule, DynProto::Uncoded, k, trials, seed);
        let (b_rlnc, b_unc) = *base.get_or_insert((rlnc, unc));
        t.row(vec![
            if cut == 0 {
                "static".into()
            } else {
                format!("{cut}/1")
            },
            format!("{rlnc:.0}"),
            format!("{:.2}", rlnc / b_rlnc),
            format!("{unc:.0}"),
            format!("{:.2}", unc / b_unc),
            format!("{:.2}", unc / rlnc),
        ]);
    }
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
         {trials} trials/cell.\n\n{}",
        t.render_markdown()
    );
}

/// F9c: bridge-cut adversary (uniform AG vs TAG) + crash-then-rewire.
fn bridge_and_recovery(scale: Scale, md: &mut String) {
    let trials = scale.trials();
    let seed = F9_SEED ^ 0xC;
    let n = match scale {
        Scale::Quick => 16,
        Scale::Full => 24,
    };
    let up = BRIDGE_UP;
    let graph = builders::barbell(n).expect("barbell");
    let bridge = (n / 2 - 1, n / 2);
    let k = n;
    let cuts: &[u64] = &[0, 2 * up, 8 * up];
    let mut t = TableBuilder::new(vec![
        format!("bridge cut (per {up} up)"),
        "uniform AG rounds".into(),
        "AG ratio".into(),
        "TAG(B_RR) rounds".into(),
        "TAG ratio".into(),
        "TAG/AG".into(),
    ]);
    let mut base: Option<(f64, f64)> = None;
    for &cut in cuts {
        let schedule = if cut == 0 {
            ChurnSchedule::None
        } else {
            ChurnSchedule::bridge_cut(bridge, up, cut)
        };
        let ag = median_dynamic_rounds(&graph, &schedule, DynProto::Rlnc, k, trials, seed);
        let tag = median_dynamic_rounds(&graph, &schedule, DynProto::Tag, k, trials, seed);
        let (b_ag, b_tag) = *base.get_or_insert((ag, tag));
        t.row(vec![
            if cut == 0 {
                "static".into()
            } else {
                format!("{cut}")
            },
            format!("{ag:.0}"),
            format!("{:.2}", ag / b_ag),
            format!("{tag:.0}"),
            format!("{:.2}", tag / b_tag),
            format!("{:.2}", tag / ag),
        ]);
    }
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
         n-fold separation). {trials} trials/cell.\n\n{}",
        t.render_markdown()
    );

    // Crash-then-rewire recovery: stall statically, complete dynamically.
    let star = builders::star(match scale {
        Scale::Quick => 10,
        Scale::Full => 16,
    })
    .expect("star");
    let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(0));
    let plan = CrashPlan::explicit(vec![(0, 2)]);
    let budget = 3_000;
    let seeds = TrialPlan::new(1, seed ^ 0xD).seeds(0);
    let (pseed, eseed) = (seeds.protocol, seeds.engine);
    let inner = AlgebraicGossip::<Gf256>::new(&star, &cfg, pseed).expect("static");
    let mut static_run = WithCrashes::new(inner, plan.clone());
    let s_static =
        Engine::new(EngineConfig::synchronous(eseed).with_max_rounds(budget)).run(&mut static_run);
    let topo = ScheduledTopology::new(&star, ChurnSchedule::rewire(0.2, seed ^ 0xE));
    let inner = AlgebraicGossip::<Gf256, _>::on_topology(topo, &cfg, pseed).expect("dynamic");
    let mut dynamic_run = WithCrashes::new(inner, plan);
    let s_dynamic =
        Engine::new(EngineConfig::synchronous(eseed).with_max_rounds(budget)).run(&mut dynamic_run);
    assert!(
        !s_static.completed && s_dynamic.completed,
        "crash-then-rewire recovery scenario regressed"
    );
    let mut t = TableBuilder::new(vec![
        "scenario".into(),
        "completed".into(),
        "rounds".into(),
        "surviving ranks".into(),
    ]);
    fn rank_sum<T: Topology>(p: &WithCrashes<AlgebraicGossip<Gf256, T>>) -> String {
        let alive = p.survivors();
        let ranks: usize = alive.iter().map(|&v| p.inner().rank(v)).sum();
        format!("{ranks}/{}", alive.len() * 3)
    }
    t.row(vec![
        "static star, hub crash".into(),
        "no (stalled)".into(),
        format!("> {budget}"),
        rank_sum(&static_run),
    ]);
    t.row(vec![
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
pub fn run(scale: Scale) -> ExperimentReport {
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
    ExperimentReport {
        id: "F9",
        title: "Dynamic topologies: churn sweeps, adversarial schedules, recovery",
        markdown: md,
    }
}
