//! The Monte-Carlo trial engine: plan many runs, execute them across
//! threads, summarize the results.
//!
//! A [`TrialPlan`] is the single way the repo repeats an experiment: it
//! owns the trial count and the seed derivation (see [`crate::seeding`]),
//! hands every trial a decorrelated `(protocol, engine)` seed pair, and
//! executes trials across threads via rayon **with results collected in
//! trial order**, so a parallel run is bit-identical to a serial run of
//! the same plan — `RAYON_NUM_THREADS=1` and a 64-core box produce the
//! same bytes.
//!
//! Experiments consume the result as a [`TrialSet`], whose summaries
//! (median/mean/min/max/CI) come from [`ag_analysis::Summary`] instead of
//! per-call-site median code.

// Seed-keying code: a narrowing `as` would collapse distinct seed domains.
#![warn(clippy::cast_possible_truncation)]

use ag_analysis::Summary;
use ag_gf::SlabField;
use ag_graph::{Graph, GraphError};
use ag_sim::RunStats;
use rayon::prelude::*;

use crate::runner::{run_protocol, RunSpec};
use crate::seeding::{engine_seed_for, trial_protocol_seed};

/// The seed pair of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrialSeeds {
    /// Trial index within the plan.
    pub trial: u64,
    /// Seed for protocol randomness (generation content, placement, RR
    /// offsets, tree construction).
    pub protocol: u64,
    /// Seed for the engine's wakeup/loss randomness.
    pub engine: u64,
}

/// A batch of independent trials with centrally derived seeds.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_graph::builders;
/// use algebraic_gossip::{ProtocolKind, RunSpec, TrialPlan};
///
/// let g = builders::grid(3, 3).unwrap();
/// let base = RunSpec::new(ProtocolKind::UniformAg, 4);
/// let set = TrialPlan::new(5, 42).run::<Gf256>(&g, &base).unwrap();
/// assert_eq!(set.len(), 5);
/// assert!(set.all_ok());
/// assert!(set.median_rounds() >= 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialPlan {
    trials: u64,
    seed0: u64,
}

impl TrialPlan {
    /// A plan of `trials` independent trials derived from `seed0`.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero — an empty plan has no summary.
    #[must_use]
    pub fn new(trials: u64, seed0: u64) -> Self {
        assert!(trials > 0, "a trial plan needs at least one trial");
        TrialPlan { trials, seed0 }
    }

    /// Number of trials.
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The plan seed all trial seeds derive from.
    #[must_use]
    pub fn seed0(&self) -> u64 {
        self.seed0
    }

    /// The seed pair of trial `trial` (also valid for `trial >=
    /// self.trials()`, should a caller want to extend a plan).
    #[must_use]
    pub fn seeds(&self, trial: u64) -> TrialSeeds {
        let protocol = trial_protocol_seed(self.seed0, trial);
        TrialSeeds {
            trial,
            protocol,
            engine: engine_seed_for(protocol),
        }
    }

    /// All seed pairs, in trial order.
    #[must_use]
    pub fn seed_list(&self) -> Vec<TrialSeeds> {
        (0..self.trials).map(|t| self.seeds(t)).collect()
    }

    /// The fully seeded per-trial specs: `base` with both seeds replaced.
    #[must_use]
    pub fn specs(&self, base: &RunSpec) -> Vec<RunSpec> {
        self.seed_list()
            .into_iter()
            .map(|s| {
                let mut spec = base.clone();
                spec.seed = s.protocol;
                spec.engine.seed = s.engine;
                spec
            })
            .collect()
    }

    /// Runs an arbitrary per-trial function across threads, returning the
    /// results **in trial order**: bit-identical to mapping `f` over
    /// [`Self::seed_list`] on one thread.
    ///
    /// This is the escape hatch for trials that are not a plain
    /// `run_protocol` call — tree-protocol measurements, queueing drains,
    /// crash injections — so those experiments still get central seed
    /// derivation and parallel execution.
    pub fn map<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TrialSeeds) -> T + Sync + Send,
    {
        self.seed_list().into_par_iter().map(f).collect()
    }

    /// Runs `base` once per trial across threads and collects the stats
    /// in trial order: bit-identical to [`run_protocol`] over
    /// [`Self::specs`] on one thread.
    ///
    /// # Errors
    ///
    /// Propagates the first construction error (disconnected graph, bad
    /// root, `k = 0`).
    pub fn run<F: SlabField>(&self, graph: &Graph, base: &RunSpec) -> Result<TrialSet, GraphError> {
        let results: Result<Vec<_>, GraphError> = self
            .specs(base)
            .into_par_iter()
            .map(|spec| run_protocol::<F>(graph, &spec))
            .collect();
        Ok(TrialSet { results: results? })
    }
}

/// The outcome of a [`TrialPlan`] execution: per-trial stats in trial
/// order, plus [`Summary`]-backed aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSet {
    results: Vec<(RunStats, bool)>,
}

impl TrialSet {
    /// Number of trials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when the set holds no trials (never the case for sets built
    /// by a [`TrialPlan`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Per-trial `(stats, verified)` pairs, in trial order.
    #[must_use]
    pub fn results(&self) -> &[(RunStats, bool)] {
        &self.results
    }

    /// True when every trial completed within budget and verified.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|(s, ok)| s.completed && *ok)
    }

    /// Panics with `context` unless every trial completed and verified.
    /// Experiments use this so an under-budgeted run fails loudly instead
    /// of skewing a median.
    ///
    /// # Panics
    ///
    /// Panics when any trial failed to complete or verify.
    pub fn expect_all_ok(self, context: &str) -> Self {
        assert!(self.all_ok(), "trial set has failed runs: {context}");
        self
    }

    /// Rounds of every trial, in trial order.
    #[must_use]
    pub fn rounds(&self) -> Vec<u64> {
        self.results.iter().map(|(s, _)| s.rounds).collect()
    }

    /// Summary statistics (mean/sd/quantiles/CI) of the round counts.
    #[must_use]
    pub fn rounds_summary(&self) -> Summary {
        Summary::of_u64(&self.rounds())
    }

    /// Median rounds — the headline number most tables report.
    #[must_use]
    pub fn median_rounds(&self) -> f64 {
        self.rounds_summary().median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ProtocolKind;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use std::collections::BTreeSet;

    #[test]
    fn seed_pairs_never_collide_within_or_across_plans() {
        // Within one plan: guaranteed by bijectivity (splitmix64 of an
        // odd-stride arithmetic progression). Across the plans below the
        // strides cannot alias either; the test pins both properties.
        let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
        for seed0 in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let plan = TrialPlan::new(2048, seed0);
            for t in 0..plan.trials() {
                let s = plan.seeds(t);
                assert_ne!(
                    s.protocol, s.engine,
                    "protocol and engine streams must differ (seed0={seed0}, t={t})"
                );
                assert!(
                    seen.insert((s.protocol, s.engine)),
                    "seed collision at seed0={seed0}, t={t}"
                );
            }
        }
    }

    #[test]
    fn with_seed_and_plan_derivation_agree() {
        // RunSpec::with_seed must be the trial-plan derivation for the
        // same protocol seed — one function, no second constant.
        let plan = TrialPlan::new(3, 7);
        let base = RunSpec::new(ProtocolKind::UniformAg, 4);
        for (spec, seeds) in plan.specs(&base).iter().zip(plan.seed_list()) {
            let via_with_seed = base.clone().with_seed(seeds.protocol);
            assert_eq!(spec.seed, via_with_seed.seed);
            assert_eq!(spec.engine.seed, via_with_seed.engine.seed);
        }
    }

    #[test]
    fn splitmix64_reference_vector() {
        // Reference values from the SplitMix64 paper's test vector
        // (seed 1234567): guards against silent constant drift.
        // trial 1 of plan 1234567 is exactly the first SplitMix64 output
        // for seed 1234567: mix(seed + gamma).
        assert_eq!(
            crate::seeding::trial_protocol_seed(1_234_567, 1),
            6_457_827_717_110_365_317
        );
    }

    #[test]
    fn parallel_and_serial_runs_are_bit_identical() {
        let g = builders::grid(3, 4).unwrap();
        let mut base = RunSpec::new(ProtocolKind::UniformAg, 6);
        base.engine.max_rounds = 1_000_000;
        let plan = TrialPlan::new(6, 99);
        let parallel = plan.run::<Gf256>(&g, &base).unwrap();
        let serial: Vec<_> = plan
            .specs(&base)
            .iter()
            .map(|spec| run_protocol::<Gf256>(&g, spec).unwrap())
            .collect();
        assert_eq!(parallel.results(), serial);
        assert!(parallel.all_ok());
    }

    #[test]
    fn map_matches_a_serial_map() {
        let plan = TrialPlan::new(64, 5);
        let par = plan.map(|s| s.protocol ^ s.engine);
        let ser: Vec<_> = plan
            .seed_list()
            .into_iter()
            .map(|s| s.protocol ^ s.engine)
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn summaries_come_from_analysis() {
        let g = builders::complete(8).unwrap();
        let base = RunSpec::new(ProtocolKind::UniformAg, 4);
        let set = TrialPlan::new(5, 1).run::<Gf256>(&g, &base).unwrap();
        let summary = set.rounds_summary();
        assert_eq!(summary.len(), 5);
        assert!(summary.min() <= summary.median() && summary.median() <= summary.max());
        assert_eq!(set.median_rounds(), summary.median());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn empty_plan_rejected() {
        let _ = TrialPlan::new(0, 3);
    }
}
