//! A1–A6 — ablations beyond the paper's defaults: field size q,
//! loss/dedup, the communication-model / action choices, the coding gain,
//! recoding density and crashes.

use std::fmt::Write as _;

use ag_analysis::{Summary, TableBuilder};
use ag_gf::{Gf2, Gf256, F13, F257, F65537};
use ag_sim::{Engine, EngineConfig, TimeModel::Synchronous};
use algebraic_gossip::{
    Action, AgConfig, AlgebraicGossip, CrashPlan, ProtocolKind, RunSpec, TrialPlan, WithCrashes,
};

use crate::common::{median_rounds, run_spec, Family, Scale, Sweep};

/// Runs the ablation suite.
#[must_use]
pub fn run(scale: Scale) -> String {
    let trials = scale.trials();
    let n = scale.pick(16, 32);
    let k = n;
    // The spec every ablation starts from and tweaks one field of.
    let base = run_spec(ProtocolKind::UniformAg, k, Synchronous);
    let mut md = String::new();

    // ---- A1: field size q. The helpfulness probability is ≥ 1 − 1/q, so
    // GF(2) pays the largest redundancy penalty; the gain saturates fast.
    // q enters only through 1/q, never the characteristic, so binary and
    // prime fields interleave on one axis.
    let g = Family::Ring.build(n, 0);
    let mut t = TableBuilder::new(["field", "q", "median rounds", "vs GF(2)"]);
    let q2 = median_rounds::<Gf2>(&g, &base, trials, 1100);
    for (name, q, rounds) in [
        ("GF(2)", 2u64, q2),
        ("F_13", 13, median_rounds::<F13>(&g, &base, trials, 1100)),
        (
            "GF(256)",
            256,
            median_rounds::<Gf256>(&g, &base, trials, 1100),
        ),
        ("F_257", 257, median_rounds::<F257>(&g, &base, trials, 1100)),
        (
            "F_65537",
            65537,
            median_rounds::<F65537>(&g, &base, trials, 1100),
        ),
    ] {
        t.row([
            name.to_string(),
            q.to_string(),
            format!("{rounds:.0}"),
            format!("{:.2}x", rounds / q2),
        ]);
    }
    let _ = writeln!(
        md,
        "### A1 Field-size ablation (cycle, n = {n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A2: loss and dedup. --------------------------------------------
    let g = Family::GridStrip.build(n, 0);
    let mut t = TableBuilder::new(["configuration", "median rounds", "vs baseline"]);
    let lossless = median_rounds::<Gf256>(&g, &base, trials, 1200);
    for (name, loss, dedup) in [
        ("baseline (lossless, dedup on)", 0.0, true),
        ("dedup off", 0.0, false),
        ("loss 10%", 0.1, true),
        ("loss 30%", 0.3, true),
        ("loss 50%", 0.5, true),
    ] {
        let spec = RunSpec {
            engine: base.engine.with_loss(loss).with_dedup(dedup),
            ..base.clone()
        };
        let rounds = median_rounds::<Gf256>(&g, &spec, trials, 1200);
        t.row([
            name.to_string(),
            format!("{rounds:.0}"),
            format!("{:.2}x", rounds / lossless),
        ]);
    }
    let _ = writeln!(
        md,
        "### A2 Loss / dedup ablation (grid, n = {n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A3: communication model and action. ----------------------------
    let g = Family::Barbell.build(n, 0);
    let mut t = TableBuilder::new(["variant", "median rounds (barbell)"]);
    let uni = median_rounds::<Gf256>(&g, &base, trials, 1301);
    let round_robin = RunSpec {
        kind: ProtocolKind::RoundRobinAg,
        ..base.clone()
    };
    let rr = median_rounds::<Gf256>(&g, &round_robin, trials, 1302);
    t.row(["uniform EXCHANGE".to_string(), format!("{uni:.0}")]);
    t.row([
        "round-robin EXCHANGE (quasirandom)".to_string(),
        format!("{rr:.0}"),
    ]);
    for action in [Action::Push, Action::Pull] {
        let spec = RunSpec {
            ag: base.ag.clone().with_action(action),
            ..base.clone()
        };
        let rounds = median_rounds::<Gf256>(&g, &spec, trials, 1303);
        t.row([format!("uniform {action:?}"), format!("{rounds:.0}")]);
    }
    let _ = writeln!(
        md,
        "### A3 Communication model / action (barbell, n = {n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A4: the coding gain — RLNC vs the uncoded store-and-forward
    // baseline (random message selection). The baseline pays a
    // coupon-collector log k factor that widens with k.
    let ks: &[usize] = scale.pick(&[8, 16, 32], &[8, 16, 32, 64, 128]);
    let kinds = [
        (ProtocolKind::UncodedRandom, 1402),
        (ProtocolKind::UniformAg, 1401),
    ];
    let sweep = Sweep::measure(ks, &kinds, |k, &(kind, seed0)| {
        let spec = run_spec(kind, k, Synchronous);
        median_rounds::<Gf256>(&Family::Complete.build(k, 0), &spec, trials, seed0)
    });
    let _ = writeln!(
        md,
        "### A4 Coding gain: RLNC vs uncoded random-message gossip (K_n, k = n)\n\n{}",
        sweep.table_with(
            [
                "k (complete graph, n=k)",
                "uncoded baseline",
                "RLNC (uniform AG)",
                "coding gain"
            ],
            |_, row| vec![
                format!("{:.0}", row[0]),
                format!("{:.0}", row[1]),
                format!("{:.2}x", row[0] / row[1]),
            ]
        )
    );

    // ---- A5: sparse recoding density. -----------------------------------
    let g = Family::Complete.build(n, 0);
    let mut t = TableBuilder::new(["coding density", "median rounds", "vs dense"]);
    let dense = median_rounds::<Gf256>(&g, &base, trials, 1500);
    for density in [1.0, 0.5, 0.25, 0.1] {
        let spec = RunSpec {
            ag: base.ag.clone().with_coding_density(density),
            ..base.clone()
        };
        let rounds = median_rounds::<Gf256>(&g, &spec, trials, 1500);
        t.row([
            format!("{density:.2}"),
            format!("{rounds:.0}"),
            format!("{:.2}x", rounds / dense),
        ]);
    }
    let _ = writeln!(
        md,
        "### A5 Sparse-recoding density (K_{n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A6: crash robustness. ------------------------------------------
    let mut t = TableBuilder::new([
        "crash fraction @ round 3",
        "completed runs",
        "median rounds (completed)",
    ]);
    for frac in [0.0, 0.1, 0.25, 0.4] {
        // Crash injection wraps the protocol, so it cannot be expressed
        // as a RunSpec — route the custom trial body through the plan's
        // map() escape hatch instead (central seeds, parallel execution).
        let outcomes = TrialPlan::new(trials, 1600).map(|s| {
            let inner =
                AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(k), s.protocol).expect("valid");
            let plan = CrashPlan::random_fraction(n, frac, 3, s.protocol);
            let mut proto = WithCrashes::new(inner, plan);
            // A crashed run may never complete, and counting those is the
            // measurement: the stall budget is a parameter of the scenario.
            let stall = EngineConfig::synchronous(s.engine).with_max_rounds(100_000);
            let stats = Engine::new(stall).run(&mut proto);
            stats.completed.then_some(stats.rounds)
        });
        let rounds: Vec<u64> = outcomes.iter().copied().flatten().collect();
        let median = if rounds.is_empty() {
            "—".to_string()
        } else {
            format!("{:.0}", Summary::of_u64(&rounds).median())
        };
        t.row([
            format!("{frac:.2}"),
            format!("{}/{trials}", rounds.len()),
            median,
        ]);
    }
    let _ = writeln!(
        md,
        "### A6 Crash-stop robustness (K_{n}, k = {k})\n\n{}",
        t.render_markdown()
    );
    md
}
