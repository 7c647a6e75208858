//! A1–A3 — ablations beyond the paper's defaults: field size q,
//! loss/dedup, and the communication-model / action choices.

use std::fmt::Write as _;

use ag_analysis::{Summary, TableBuilder};
use ag_gf::{Gf16, Gf2, Gf256, Gf65536, SlabField, F257};
use ag_graph::builders;
use ag_sim::{EngineConfig, TimeModel};
use algebraic_gossip::{Action, ProtocolKind, RunSpec, TrialPlan};

use crate::common::{median_rounds_protocol, ExperimentReport, Scale};

fn median_with<F: SlabField>(
    g: &ag_graph::Graph,
    k: usize,
    trials: u64,
    seed0: u64,
    tweak: impl Fn(&mut RunSpec),
) -> f64 {
    let mut base = RunSpec::new(ProtocolKind::UniformAg, k);
    base.engine = EngineConfig::synchronous(0).with_max_rounds(5_000_000);
    tweak(&mut base);
    TrialPlan::new(trials, seed0)
        .run::<F>(g, &base)
        .expect("valid spec")
        .expect_all_ok(&format!("ablation on n={} k={k}", g.n()))
        .median_rounds()
}

/// Runs the ablation suite.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let trials = scale.trials();
    let n = match scale {
        Scale::Quick => 16,
        Scale::Full => 32,
    };
    let k = n;
    let mut md = String::new();

    // ---- A1: field size q. The helpfulness probability is ≥ 1 − 1/q, so
    // GF(2) pays the largest redundancy penalty; the gain saturates fast.
    let g = builders::cycle(n).unwrap();
    let mut t = TableBuilder::new(vec![
        "field".into(),
        "q".into(),
        "median rounds".into(),
        "vs GF(2)".into(),
    ]);
    let q2 = median_with::<Gf2>(&g, k, trials, 1100, |_| {});
    for (name, q, rounds) in [
        ("GF(2)", 2u64, q2),
        (
            "GF(16)",
            16,
            median_with::<Gf16>(&g, k, trials, 1100, |_| {}),
        ),
        (
            "GF(256)",
            256,
            median_with::<Gf256>(&g, k, trials, 1100, |_| {}),
        ),
        (
            "GF(65536)",
            65536,
            median_with::<Gf65536>(&g, k, trials, 1100, |_| {}),
        ),
        (
            "F_257",
            257,
            median_with::<F257>(&g, k, trials, 1100, |_| {}),
        ),
    ] {
        t.row(vec![
            name.into(),
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
    let g = builders::grid(4, n / 4).unwrap();
    let mut t = TableBuilder::new(vec![
        "configuration".into(),
        "median rounds".into(),
        "vs baseline".into(),
    ]);
    let base = median_with::<Gf256>(&g, k, trials, 1200, |_| {});
    for (name, loss, dedup) in [
        ("baseline (lossless, dedup on)", 0.0, true),
        ("dedup off", 0.0, false),
        ("loss 10%", 0.1, true),
        ("loss 30%", 0.3, true),
        ("loss 50%", 0.5, true),
    ] {
        let rounds = median_with::<Gf256>(&g, k, trials, 1200, |spec| {
            spec.engine = spec.engine.with_loss(loss).with_dedup(dedup);
        });
        t.row(vec![
            name.into(),
            format!("{rounds:.0}"),
            format!("{:.2}x", rounds / base),
        ]);
    }
    let _ = writeln!(
        md,
        "### A2 Loss / dedup ablation (grid, n = {n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A3: communication model and action. ----------------------------
    let g = builders::barbell(n).unwrap();
    let mut t = TableBuilder::new(vec!["variant".into(), "median rounds (barbell)".into()]);
    let uni = median_rounds_protocol::<Gf256>(
        &g,
        ProtocolKind::UniformAg,
        k,
        TimeModel::Synchronous,
        trials,
        1301,
    );
    let rr = median_rounds_protocol::<Gf256>(
        &g,
        ProtocolKind::RoundRobinAg,
        k,
        TimeModel::Synchronous,
        trials,
        1302,
    );
    t.row(vec!["uniform EXCHANGE".into(), format!("{uni:.0}")]);
    t.row(vec![
        "round-robin EXCHANGE (quasirandom)".into(),
        format!("{rr:.0}"),
    ]);
    for action in [Action::Push, Action::Pull] {
        let rounds = median_with::<Gf256>(&g, k, trials, 1303, |spec| {
            spec.ag = spec.ag.clone().with_action(action);
        });
        t.row(vec![format!("uniform {action:?}"), format!("{rounds:.0}")]);
    }
    let _ = writeln!(
        md,
        "### A3 Communication model / action (barbell, n = {n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    // ---- A4: the coding gain — RLNC vs the uncoded store-and-forward
    // baseline (random message selection). The baseline pays a
    // coupon-collector log k factor that widens with k.
    let mut t = TableBuilder::new(vec![
        "k (complete graph, n=k)".into(),
        "uncoded baseline".into(),
        "RLNC (uniform AG)".into(),
        "coding gain".into(),
    ]);
    let ks: Vec<usize> = match scale {
        Scale::Quick => vec![8, 16, 32],
        Scale::Full => vec![8, 16, 32, 64, 128],
    };
    for &kk in &ks {
        let g = builders::complete(kk).unwrap();
        let rlnc = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UniformAg,
            kk,
            TimeModel::Synchronous,
            trials,
            1401,
        );
        let base = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UncodedRandom,
            kk,
            TimeModel::Synchronous,
            trials,
            1402,
        );
        t.row(vec![
            kk.to_string(),
            format!("{base:.0}"),
            format!("{rlnc:.0}"),
            format!("{:.2}x", base / rlnc),
        ]);
    }
    let _ = writeln!(
        md,
        "### A4 Coding gain: RLNC vs uncoded random-message gossip (K_n, k = n)\n\n{}",
        t.render_markdown()
    );

    // ---- A5: sparse recoding density. -----------------------------------
    let g = builders::complete(n).unwrap();
    let mut t = TableBuilder::new(vec![
        "coding density".into(),
        "median rounds".into(),
        "vs dense".into(),
    ]);
    let dense = median_with::<Gf256>(&g, k, trials, 1500, |_| {});
    for density in [1.0, 0.5, 0.25, 0.1] {
        let rounds = median_with::<Gf256>(&g, k, trials, 1500, |spec| {
            spec.ag = spec.ag.clone().with_coding_density(density);
        });
        t.row(vec![
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
    let g = builders::complete(n).unwrap();
    let mut t = TableBuilder::new(vec![
        "crash fraction @ round 3".into(),
        "completed runs".into(),
        "median rounds (completed)".into(),
    ]);
    for frac in [0.0, 0.1, 0.25, 0.4] {
        // Crash injection wraps the protocol, so it cannot be expressed
        // as a RunSpec — route the custom trial body through the plan's
        // map() escape hatch instead (central seeds, parallel execution).
        let outcomes = TrialPlan::new(trials, 1600).map(|s| {
            let inner = algebraic_gossip::AlgebraicGossip::<Gf256>::new(
                &g,
                &algebraic_gossip::AgConfig::new(k),
                s.protocol,
            )
            .expect("valid");
            let plan = algebraic_gossip::CrashPlan::random_fraction(n, frac, 3, s.protocol);
            let mut proto = algebraic_gossip::WithCrashes::new(inner, plan);
            let stats =
                ag_sim::Engine::new(EngineConfig::synchronous(s.engine).with_max_rounds(100_000))
                    .run(&mut proto);
            stats.completed.then_some(stats.rounds)
        });
        let rounds: Vec<u64> = outcomes.iter().copied().flatten().collect();
        let completed = rounds.len() as u64;
        let median = if rounds.is_empty() {
            "—".to_string()
        } else {
            format!("{:.0}", Summary::of_u64(&rounds).median())
        };
        t.row(vec![
            format!("{frac:.2}"),
            format!("{completed}/{trials}"),
            median,
        ]);
    }
    let _ = writeln!(
        md,
        "### A6 Crash-stop robustness (K_{n}, k = {k})\n\n{}",
        t.render_markdown()
    );

    ExperimentReport {
        id: "A1-A6",
        title: "Ablations: field, loss, comm model, coding gain, density, crashes",
        markdown: md,
    }
}
