//! `compare <a.json> <b.json>`: one verdict per (end-to-end metric,
//! workload) between two result files, by the bounds `BENCHMARK.json`
//! fixes. This is the tool the A/A acceptance check and every later perf
//! PR use.

use std::fmt;
use std::path::Path;

use crate::env::package_dir;
use crate::json::Json;
use crate::metrics::reported;
use crate::stats::quartile_spread;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The pass-to-pass spread is wider than the bound, so the two values
    /// cannot be told apart at that resolution.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Below this many seconds a difference in `setup_s` is not a regression
/// whatever its share: `trial-sweep` sets up in tens of microseconds.
const SETUP_FLOOR_S: f64 = 0.005;

/// An end-to-end metric's gate, as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the gates from `BENCHMARK.json` at the repository root.
///
/// # Errors
///
/// A message when the file is missing or malformed.
pub fn load_gates() -> Result<Vec<Gate>, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let doc = read_json(&path)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .elements()
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str);
            Some(Gate {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Gate>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Reads and parses one JSON file.
///
/// # Errors
///
/// A message naming the file when it cannot be read or is not JSON.
pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Decides one pair from the per-pass samples of both sides.
///
/// `worse` is how much worse `b`'s reported value is than `a`'s, as a share
/// of `a`'s (negative when better). With the spread inside the bound the
/// reported values decide, and the bound is the resolution in both directions: a
/// smaller gain than that needs the paired runs a perf PR makes, not this
/// tool. With the spread outside the bound, only complete separation of
/// the two sample sets decides.
#[must_use]
pub fn decide(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (reported(&gate.name, a), reported(&gate.name, b));
    let sign = if gate.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (mb - ma) / ma.abs();
    let mut bound = gate.bound;
    if gate.name == "setup_s" {
        bound = bound.max(SETUP_FLOOR_S / ma.abs());
    }
    let spread = quartile_spread(a).max(quartile_spread(b));
    if spread > bound {
        let (lo_a, hi_a) = range(a, sign);
        let (lo_b, hi_b) = range(b, sign);
        return if hi_b < lo_a {
            Verdict::Improved
        } else if lo_b > hi_a && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(best, worst)` of a sample set, mapped so that lower is better.
fn range(values: &[f64], sign: f64) -> (f64, f64) {
    let mapped = values.iter().map(|v| sign * v);
    (
        mapped.clone().fold(f64::INFINITY, f64::min),
        mapped.fold(f64::NEG_INFINITY, f64::max),
    )
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// The untraced runs of a result file, by workload.
fn untraced_runs(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("runs")
        .map(Json::elements)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|run| Some((run.get("workload")?.as_str()?, run)))
        .collect()
}

/// Compares every (end-to-end metric, workload) pair present in both
/// documents, plus each workload's `failed_share`, where any increase is a
/// regression.
///
/// # Errors
///
/// A message when the two files share no untraced run.
pub fn compare_docs(gates: &[Gate], a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let runs_b = untraced_runs(b);
    let mut rows = Vec::new();
    for (workload, run_a) in untraced_runs(a) {
        let Some((_, run_b)) = runs_b.iter().find(|(w, _)| *w == workload) else {
            continue;
        };
        for gate in gates {
            let samples = |run: &Json| {
                let metric = run.get("metrics")?.get(&gate.name)?;
                let samples = metric.get("samples")?.as_f64_vec();
                (!samples.is_empty()).then_some(samples)
            };
            let (Some(sa), Some(sb)) = (samples(run_a), samples(run_b)) else {
                continue;
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: gate.name.clone(),
                a: reported(&gate.name, &sa),
                b: reported(&gate.name, &sb),
                verdict: decide(gate, &sa, &sb),
            });
        }
        let share = |run: &Json| {
            let field = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            field("failed") / field("attempted").max(1.0)
        };
        let (fa, fb) = (share(run_a), share(run_b));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_share".to_string(),
            a: fa,
            b: fb,
            verdict: match fb.partial_cmp(&fa) {
                Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
                Some(std::cmp::Ordering::Less) => Verdict::Improved,
                _ => Verdict::Unchanged,
            },
        });
    }
    if rows.is_empty() {
        return Err("the two result files share no untraced run".into());
    }
    Ok(rows)
}

/// Runs the `compare` subcommand: prints one row per pair and returns
/// whether any pair regressed.
///
/// # Errors
///
/// A message when a file cannot be read or the files share no run.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare_docs(&load_gates()?, &read_json(a)?, &read_json(b)?)?;
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for row in &rows {
        let change = if row.a == 0.0 {
            0.0
        } else {
            (row.b - row.a) / row.a.abs() * 100.0
        };
        println!(
            "{:<16} {:<14} {:>16.6} {:>16.6} {:>+8.2}%  {}",
            row.workload, row.metric, row.a, row.b, change, row.verdict
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str, lower_is_better: bool, bound: f64) -> Gate {
        Gate {
            name: name.to_string(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn reported_values_decide_when_the_spread_is_inside_the_bound() {
        let wall = gate("wall_s", true, 0.10);
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(decide(&wall, &a, &a), Verdict::Unchanged);
        assert_eq!(
            decide(&wall, &a, &[1.05, 1.06, 1.04, 1.05, 1.07]),
            Verdict::Unchanged
        );
        assert_eq!(
            decide(&wall, &a, &[1.15, 1.16, 1.14, 1.15, 1.17]),
            Verdict::Regressed
        );
        assert_eq!(
            decide(&wall, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Improved
        );
        // Higher-is-better metrics flip the direction.
        let rate = gate("slots_per_s", false, 0.10);
        assert_eq!(
            decide(&rate, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Regressed
        );
        assert_eq!(
            decide(&rate, &a, &[1.30, 1.31, 1.29, 1.30, 1.32]),
            Verdict::Improved
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_samples_separate() {
        let wall = gate("wall_s", true, 0.10);
        let noisy = [1.0, 1.3, 0.8, 1.2, 0.9];
        assert_eq!(
            decide(&wall, &noisy, &[1.05, 1.25, 0.85, 1.1, 0.95]),
            Verdict::Unresolved
        );
        assert_eq!(
            decide(&wall, &noisy, &[0.5, 0.6, 0.4, 0.55, 0.45]),
            Verdict::Improved
        );
        assert_eq!(
            decide(&wall, &noisy, &[2.0, 2.6, 1.6, 2.4, 1.8]),
            Verdict::Regressed
        );
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = gate("setup_s", true, 0.25);
        // 30 us against 60 us: twice as slow, but 30 us is below the floor.
        let a = [30e-6, 31e-6, 29e-6];
        assert_eq!(
            decide(&setup, &a, &[60e-6, 61e-6, 59e-6]),
            Verdict::Unchanged
        );
        // 100 ms against 140 ms is a real regression.
        assert_eq!(
            decide(&setup, &[0.100, 0.101, 0.099], &[0.140, 0.141, 0.139]),
            Verdict::Regressed
        );
    }

    fn doc(wall: &[f64], failed: f64) -> Json {
        let metric = |samples: &[f64]| {
            Json::obj([
                ("value", Json::Num(reported("wall_s", samples))),
                ("unit", Json::str("s")),
                ("samples", Json::nums(samples)),
            ])
        };
        let run = |trace: f64| {
            Json::obj([
                ("workload", Json::str("gossip-rank")),
                ("trace", Json::Num(trace)),
                ("attempted", Json::Num(100.0)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::obj([("wall_s", metric(wall))])),
            ])
        };
        Json::obj([("runs", Json::Arr(vec![run(1.0), run(0.0)]))])
    }

    #[test]
    fn documents_compare_pairwise_and_failures_always_regress() {
        let gates = [gate("wall_s", true, 0.10), gate("setup_s", true, 0.25)];
        let a = doc(&[1.0, 1.01, 0.99], 0.0);
        let same = compare_docs(&gates, &a, &a).unwrap();
        // wall_s and failed_share; setup_s is in neither file; traced runs
        // are skipped.
        assert_eq!(same.len(), 2);
        assert!(same.iter().all(|r| r.verdict == Verdict::Unchanged));

        let worse = compare_docs(&gates, &a, &doc(&[1.0, 1.01, 0.99], 1.0)).unwrap();
        assert_eq!(worse[1].metric, "failed_share");
        assert_eq!(worse[1].verdict, Verdict::Regressed);

        let empty = Json::obj([("runs", Json::Arr(vec![]))]);
        assert!(compare_docs(&gates, &a, &empty).is_err());
    }

    #[test]
    fn gates_load_from_benchmark_json() {
        let gates = load_gates().unwrap();
        let names: Vec<&str> = gates.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["wall_s", "slots_per_s", "setup_s", "peak_rss_mib"]);
        assert!(!gates[1].lower_is_better);
        assert!(gates.iter().all(|g| g.bound > 0.0 && g.bound <= 0.25));
    }
}
