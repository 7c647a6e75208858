//! Shared experiment plumbing: scales, trial plans, report formatting.

use ag_gf::SlabField;
use ag_graph::Graph;
use ag_sim::{EngineConfig, TimeModel};
use algebraic_gossip::{ProtocolKind, RunSpec, TrialPlan};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes / few trials — the default, and the scale of the
    /// committed `EXPERIMENTS.md`, which CI regenerates and diffs.
    Quick,
    /// Larger sizes and more trials.
    Full,
}

impl Scale {
    /// Reads `AG_BENCH_SCALE`: any capitalization of `full` upgrades,
    /// everything else (including unset or invalid values) stays `Quick`.
    #[must_use]
    #[allow(
        clippy::disallowed_methods,
        reason = "the harness's one knob; library code never reads the environment"
    )]
    pub fn from_env() -> Self {
        Self::from_value(std::env::var("AG_BENCH_SCALE").ok().as_deref())
    }

    /// [`Self::from_env`] on an explicit value (separated for testing).
    #[must_use]
    pub fn from_value(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.trim().eq_ignore_ascii_case("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// The value of `AG_BENCH_SCALE` that selects this scale.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Number of trials per measured cell.
    #[must_use]
    pub fn trials(self) -> u64 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 7,
        }
    }
}

/// One regenerated table/figure: id, title and the Markdown section that
/// goes to stdout and into `EXPERIMENTS.md`.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Report id as the EXPERIMENTS.md index lists it (e.g. "T1", "F1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Markdown section body.
    pub markdown: String,
}

impl ExperimentReport {
    /// The section as `EXPERIMENTS.md` holds it: heading, then body.
    #[must_use]
    pub fn section(&self) -> String {
        format!("## [{}] {}\n\n{}\n", self.id, self.title, self.markdown)
    }

    /// Prints the section.
    pub fn print(&self) {
        print!("{}", self.section());
    }
}

/// Median synchronous/asynchronous rounds of a protocol over trials: a
/// thin wrapper over [`TrialPlan`]. Panics if any trial fails to complete
/// or decode — experiments must be sized so that completion is certain.
#[must_use]
pub fn median_rounds_protocol<F: SlabField>(
    graph: &Graph,
    kind: ProtocolKind,
    k: usize,
    time: TimeModel,
    trials: u64,
    seed0: u64,
) -> f64 {
    let mut base = RunSpec::new(kind, k);
    base.engine = match time {
        TimeModel::Synchronous => EngineConfig::synchronous(0),
        TimeModel::Asynchronous => EngineConfig::asynchronous(0),
    }
    .with_max_rounds(20_000_000);
    TrialPlan::new(trials, seed0)
        .run::<F>(graph, &base)
        .expect("valid spec")
        .expect_all_ok(&format!("{kind:?} on n={} k={k}", graph.n()))
        .median_rounds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::Gf256;
    use ag_graph::builders;

    #[test]
    fn scale_trials_ordering() {
        assert!(Scale::Full.trials() > Scale::Quick.trials());
    }

    #[test]
    fn scale_parsing_is_case_insensitive_and_rejects_garbage() {
        assert_eq!(Scale::from_value(Some("full")), Scale::Full);
        assert_eq!(Scale::from_value(Some("FULL")), Scale::Full);
        assert_eq!(Scale::from_value(Some("Full")), Scale::Full);
        assert_eq!(Scale::from_value(Some("fUlL")), Scale::Full);
        assert_eq!(Scale::from_value(Some("  full ")), Scale::Full);
        assert_eq!(Scale::from_value(Some("quick")), Scale::Quick);
        assert_eq!(Scale::from_value(Some("")), Scale::Quick);
        assert_eq!(Scale::from_value(Some("fullest")), Scale::Quick);
        assert_eq!(Scale::from_value(Some("banana")), Scale::Quick);
        assert_eq!(Scale::from_value(None), Scale::Quick);
    }

    // No set_var-based test for from_env: mutating the process
    // environment races with the concurrent getenv calls other test
    // threads make (the rayon shim reads RAYON_NUM_THREADS), which is
    // undefined behavior on glibc. from_value covers the parsing;
    // from_env is a one-line env read over it, exercised end-to-end by
    // the AG_BENCH_SCALE=FuLL runs in CI and the verify flow.

    #[test]
    fn median_is_deterministic() {
        let g = builders::cycle(8).unwrap();
        let a = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UniformAg,
            4,
            TimeModel::Synchronous,
            3,
            1,
        );
        let b = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UniformAg,
            4,
            TimeModel::Synchronous,
            3,
            1,
        );
        assert_eq!(a, b);
        assert!(a >= 2.0, "k/2 lower bound");
    }
}
