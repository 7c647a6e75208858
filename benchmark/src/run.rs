//! One measured run of one workload: a warm-up pass, timed passes for
//! `--seconds`, the exact-repeat check, and the result in the three shapes
//! it is reported in (printed lines, the driver's JSON line, a result file).

use std::path::PathBuf;
use std::time::Instant;

use crate::env;
use crate::json::Json;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Pass, Workload};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 0x51AB_51AB;

/// Timed passes a run makes at least, however short `--seconds` is: a
/// quartile and a quartile spread need three samples.
const MIN_PASSES: usize = 3;

/// Untraced/traced pass pairs a traced run makes at least. Its end-to-end
/// samples are not reported, and a traced `trial-sweep` pass is four times
/// as long as an untraced one.
const MIN_TRACED_PAIRS: usize = 2;

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    /// Timed passes made (untraced ones, on a traced run).
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The span tree of the last traced pass.
    pub tracer: Option<Tracer>,
}

/// Checks that `pass` repeated `reference` exactly: every counter, and
/// every `RunStats`.
fn check_repeat(reference: &Pass, pass: &Pass, what: &str) -> Result<(), String> {
    for ((name, want), (_, got)) in reference.counters.iter().zip(&pass.counters) {
        if want != got {
            return Err(format!(
                "{what}: counter {name} is {got}, the warm-up pass of the same seed counted {want}"
            ));
        }
    }
    if reference.run_stats != pass.run_stats {
        return Err(format!(
            "{what}: RunStats differ from the warm-up pass of the same seed"
        ));
    }
    Ok(())
}

/// Collects each per-layer metric's value over the passes that measured it.
fn layer_samples(passes: &[Pass]) -> Vec<(&'static str, Vec<f64>)> {
    let mut out: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (name, value) in passes.iter().flat_map(|p| p.layer.iter().copied()) {
        match out.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(value),
            None => out.push((name, vec![value])),
        }
    }
    out
}

/// Runs `workload` for about `seconds` of timed passes.
///
/// With `traced` set, every untraced pass is followed by a traced one, and
/// the isolated probes run at the end; the end-to-end metrics are still
/// taken from the untraced passes only.
///
/// # Errors
///
/// A message when the library rejects the workload's inputs, or when a pass
/// does not repeat the warm-up pass exactly (a traced pass that differs
/// means the tracing wrapper perturbed the simulation).
pub fn run(workload: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let timer_ns = traced.then(probes::timer_ns);
    let inputs = workload.inputs(seed)?;
    let reference = workload.pass(&inputs, None)?;
    // One pass is one user-visible run, and its high-water mark repeats to
    // the page. Read at exit instead, the mark creeps up by a few percent at
    // unpredictable passes (allocator fragmentation), so it would depend on
    // how many passes the machine fitted into `--seconds`.
    let peak_rss_mib = env::peak_rss_mib().unwrap_or(0.0);

    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    let min_passes = if traced { MIN_TRACED_PAIRS } else { MIN_PASSES };
    let start = Instant::now();
    while plain.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let mut pass = workload.pass(&inputs, None)?;
        check_repeat(&reference, &pass, "untraced pass")?;
        pass.run_stats = Vec::new();
        plain.push(pass);
        if traced {
            let mut pass = workload.pass(&inputs, timer_ns)?;
            check_repeat(&reference, &pass, "traced pass")?;
            pass.run_stats = Vec::new();
            with_trace.push(pass);
        }
    }

    let column = |f: fn(&Pass) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let mut metrics = Metrics::default();
    metrics.set_samples("wall_s", column(|p| p.wall_s));
    metrics.set_samples("slots_per_s", column(|p| p.slots as f64 / p.wall_s));
    metrics.set_samples("setup_s", column(|p| p.setup_s));

    if let Some(timer_ns) = timer_ns {
        for &(name, count) in &reference.counters {
            if PER_LAYER.iter().any(|(n, _)| *n == name) {
                metrics.set(name, count as f64);
            }
        }
        for (name, samples) in layer_samples(&with_trace) {
            if metrics.samples(name).is_none() {
                metrics.set_samples(name, samples);
            }
        }
        let traced_wall: Vec<f64> = with_trace.iter().map(|p| p.wall_s).collect();
        metrics.set(
            "trace.overhead_share",
            median(&traced_wall) / median(&column(|p| p.wall_s)) - 1.0,
        );
        probes::run_all(&mut metrics, seed, timer_ns);
        for (name, value) in workload.derived(&metrics) {
            metrics.set(name, value);
        }
    }
    metrics.set("peak_rss_mib", peak_rss_mib);

    Ok(Outcome {
        workload: workload.name(),
        traced,
        seed,
        passes: plain.len(),
        attempted: plain.iter().map(|p| p.attempted).sum(),
        failed: plain.iter().map(|p| p.failed).sum(),
        metrics,
        tracer: with_trace.pop().map(|p| p.tracer),
    })
}

impl Outcome {
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Every metric by name, with its unit, one per line.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = format!(
            "workload {}  seed {:#x}  passes {}  attempted {}  failed {}  failed_share {}\n",
            self.workload,
            self.seed,
            self.passes,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for (name, unit) in self.table() {
            let value = self.metrics.value(name).unwrap_or(0.0);
            out.push_str(&format!("  {name:<30} {value:>16.6} {unit}\n"));
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    #[must_use]
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(self.table(), false)),
        ])
        .render()
    }

    /// This run as an entry of a result file's `runs` array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("passes", Json::Num(self.passes as f64)),
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(self.table(), true)),
        ])
    }

    /// Where [`Outcome::write_files`] puts this run's result file.
    #[must_use]
    pub fn result_path(workload: &str, traced: bool) -> PathBuf {
        env::out_dir().join(format!("{workload}.trace{}.json", u8::from(traced)))
    }

    /// Writes the result file (environment header plus this run) and, for
    /// a traced run, the span list of its last traced pass.
    ///
    /// # Errors
    ///
    /// The I/O error, with the path it happened on.
    pub fn write_files(&self) -> Result<(), String> {
        let write = |path: PathBuf, doc: Json| {
            std::fs::write(&path, doc.render_pretty())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        std::fs::create_dir_all(env::out_dir())
            .map_err(|e| format!("cannot create {}: {e}", env::out_dir().display()))?;
        write(
            Self::result_path(self.workload, self.traced),
            Json::obj([
                ("env", env::header(self.seed)),
                ("runs", Json::Arr(vec![self.to_json()])),
            ]),
        )?;
        if let Some(tracer) = &self.tracer {
            write(
                env::out_dir().join(format!("trace-{}.json", self.workload)),
                Json::obj([
                    ("workload", Json::str(self.workload)),
                    ("seed", Json::str(format!("{:#x}", self.seed))),
                    ("spans", tracer.to_json()),
                ]),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    /// The `--quick` smoke: all four workloads at toy size, both modes,
    /// through the same code path the driver runs.
    #[test]
    fn quick_smoke_runs_every_workload_traced_and_untraced() {
        let start = Instant::now();
        for name in WORKLOADS {
            let workload = Workload::by_name(name, true).unwrap();
            let plain = run(&workload, DEFAULT_SEED, 0.0, false).unwrap();
            assert_eq!(plain.failed, 0, "{name}");
            assert!(plain.attempted >= 1, "{name}");
            assert_eq!(plain.passes, MIN_PASSES);
            for (metric, _) in END_TO_END {
                assert!(
                    plain.metrics.value(metric).unwrap() > 0.0,
                    "{name} {metric}"
                );
            }
            let line = Json::parse(&plain.driver_line()).unwrap();
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics").unwrap().members().len(),
                END_TO_END.len()
            );
        }
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "the untraced quick smoke must stay under 5 s"
        );

        for name in WORKLOADS {
            let workload = Workload::by_name(name, true).unwrap();
            let traced = run(&workload, DEFAULT_SEED, 0.0, true).unwrap();
            assert_eq!(traced.failed, 0, "{name}");
            let line = Json::parse(&traced.driver_line()).unwrap();
            assert_eq!(
                line.get("metrics").unwrap().members().len(),
                PER_LAYER.len()
            );
            assert!(
                traced.metrics.value("trace.accounted_share").unwrap() >= 0.9,
                "{name}"
            );
            assert!(traced.metrics.value("cal.timer_ns").unwrap() > 0.0);
            assert!(!traced.tracer.as_ref().unwrap().spans().is_empty());
            assert!(traced.report().contains("trace.overhead_share"));
        }
    }

    #[test]
    fn different_seeds_give_different_inputs_and_equal_seeds_equal_ones() {
        let workload = Workload::by_name("gossip-rank", true).unwrap();
        let pass = |seed| {
            workload
                .pass(&workload.inputs(seed).unwrap(), None)
                .unwrap()
        };
        let (a, b, c) = (pass(1), pass(1), pass(2));
        assert_eq!(a.run_stats, b.run_stats);
        assert_ne!(a.run_stats, c.run_stats);
        assert!(check_repeat(&a, &b, "same seed").is_ok());
        let err = check_repeat(&a, &c, "other seed").unwrap_err();
        assert!(err.contains("counter sim."), "{err}");
    }
}
