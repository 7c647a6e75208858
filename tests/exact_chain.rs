//! The engine against an exact oracle: on four nodes, the stopping time of
//! asynchronous uniform algebraic gossip has a law that can be computed
//! exactly (`oracle/subspace.rs`, a Markov chain over the tuple of node
//! spans that shares no code with the workspace). Each cell runs the real
//! `run_protocol` over many seeds and checks the sample against that law:
//! the mean within 4 standard errors of E[T], and the one-sample
//! Kolmogorov–Smirnov distance under 2.093/√N, the 1 % critical value
//! Bonferroni-corrected over the 32 cells (`sqrt(ln(2·32/0.01)/2)`; also
//! conservative for a discrete law), so that a correct engine whose random
//! draws change still passes the whole family with probability ≥ 99 %.
//!
//! Cells: GF(2) with k = 3 on the path, star, cycle and complete graph on
//! four nodes, under Push, Pull and Exchange, from spread and single-source
//! placements; F₇ and F₁₃ with k = 2 on the path and the complete graph
//! under Exchange. Push and Pull give the same (sender, receiver) law on
//! the cycle and the complete graph, so the path and the star are where a
//! swapped direction shows. Run with `--nocapture` to print E[T] per cell.

#[path = "oracle/subspace.rs"]
mod subspace;

use algebraic_gossip_repro::gf::{Gf2, SlabField, F13, F7};
use algebraic_gossip_repro::graph::{builders, Graph};
use algebraic_gossip_repro::protocols::{run_protocol, Action, Placement, ProtocolKind, RunSpec};
use algebraic_gossip_repro::sim::EngineConfig;
use subspace::{stopping_law, Contact, Subspaces};

/// Seeds per cell.
const SEEDS: u64 = 4000;

const N: usize = 4;

/// One of the four graphs, and its adjacency lists for the oracle.
fn graph(name: &str) -> (Vec<Vec<usize>>, Graph) {
    let g = match name {
        "path" => builders::path(N),
        "star" => builders::star(N),
        "cycle" => builders::cycle(N),
        "complete" => builders::complete(N),
        _ => unreachable!("unknown graph {name}"),
    }
    .expect("a four-node graph");
    let adjacency = (0..N).map(|v| g.neighbors(v).collect()).collect();
    (adjacency, g)
}

/// One cell: the exact law against `SEEDS` engine runs.
fn cell<F: SlabField>(name: &str, action: Action, placement: Placement, k: usize) {
    let q = F::SIZE;
    let spaces = Subspaces::new(q, k);
    let (adjacency, g) = graph(name);
    let contact = match action {
        Action::Push => Contact::Push,
        Action::Pull => Contact::Pull,
        Action::Exchange => Contact::Exchange,
    };
    let start: Vec<usize> = match placement {
        // Message i starts at node i mod n, as the unit vector e_i.
        Placement::Spread => (0..N)
            .map(|v| spaces.span_of_units(&(v..k).step_by(N).collect::<Vec<_>>()))
            .collect(),
        Placement::SingleSource(s) => (0..N)
            .map(|v| if v == s { spaces.full() } else { spaces.zero() })
            .collect(),
        _ => unreachable!("the chain models spread and single-source placements"),
    };
    let law = stopping_law(&spaces, &adjacency, contact, &start);

    let mut spec = RunSpec::new(ProtocolKind::UniformAg, k);
    spec.ag = spec
        .ag
        .with_action(action)
        .with_placement(placement.clone());
    let slots: Vec<u64> = (0..SEEDS)
        .map(|seed| {
            spec.seed = seed;
            spec.engine = EngineConfig::asynchronous(seed ^ 0xC4A1_0000);
            let (stats, ok) = run_protocol::<F>(&g, &spec).expect("a valid spec");
            assert!(stats.completed && ok, "seed {seed} did not finish decoded");
            stats.timeslots
        })
        .collect();

    let count = slots.len() as f64;
    let mean = slots.iter().sum::<u64>() as f64 / count;
    let var = slots
        .iter()
        .map(|&t| (t as f64 - mean).powi(2))
        .sum::<f64>()
        / (count - 1.0);
    let sem = (var / count).sqrt();
    let mut sorted = slots;
    sorted.sort_unstable();
    let max = *sorted.last().expect("at least one seed");
    let mut below = 0;
    let mut ks: f64 = 0.0;
    for t in 0..=max {
        while below < sorted.len() && sorted[below] <= t {
            below += 1;
        }
        ks = ks.max((below as f64 / count - law.at(t)).abs());
    }
    let critical = 2.093 / count.sqrt();
    let label = format!("q = {q}, k = {k}, {name}, {action:?}, {placement:?}");
    println!(
        "{label}: E[T] = {:.4}, sample mean {mean:.4} ± {sem:.4}, KS {ks:.4} < {critical:.4}, {} states",
        law.mean, law.states
    );
    assert!(
        (mean - law.mean).abs() <= 4.0 * sem,
        "{label}: sample mean {mean} is more than 4 SEM ({sem}) from E[T] = {}",
        law.mean
    );
    assert!(ks < critical, "{label}: KS distance {ks} ≥ {critical}");
}

fn gf2_cells(name: &str) {
    for action in [Action::Push, Action::Pull, Action::Exchange] {
        for placement in [Placement::Spread, Placement::SingleSource(0)] {
            cell::<Gf2>(name, action, placement, 3);
        }
    }
}

#[test]
fn gf2_path_matches_the_exact_law() {
    gf2_cells("path");
}

#[test]
fn gf2_star_matches_the_exact_law() {
    gf2_cells("star");
}

#[test]
fn gf2_cycle_matches_the_exact_law() {
    gf2_cells("cycle");
}

#[test]
fn gf2_complete_matches_the_exact_law() {
    gf2_cells("complete");
}

#[test]
fn prime_fields_match_the_exact_law() {
    for name in ["path", "complete"] {
        for placement in [Placement::Spread, Placement::SingleSource(0)] {
            cell::<F7>(name, Action::Exchange, placement.clone(), 2);
            cell::<F13>(name, Action::Exchange, placement, 2);
        }
    }
}

#[test]
fn helpfulness_lemma_holds_exactly() {
    for (q, k, subspaces) in [(2, 3, 16), (7, 2, 10), (13, 2, 16)] {
        let spaces = Subspaces::new(q, k);
        assert_eq!(spaces.len(), subspaces, "subspaces of F_{q}^{k}");
        assert!(spaces.assert_helpfulness_lemma() > 0);
    }
}
