//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, exactly as `BENCHMARK.json` declares them (a test holds the two
//! together), and the container results are collected in.

use crate::json::Json;
use crate::stats::quantile;

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "gossip-payload",
    "gossip-rank",
    "decode-stream",
    "trial-sweep",
];

/// `(name, unit)` of every end-to-end metric. `BENCHMARK.json` adds the
/// direction and the regression bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("slots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A traced run prints all of
/// them; a metric whose layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("cal.memcpy_gib_s", "GiB/s"),
    ("cal.xor_gib_s", "GiB/s"),
    ("cal.timer_ns", "ns"),
    ("gf.axpy_gib_s.1k", "GiB/s"),
    ("gf.axpy_gib_s.1m", "GiB/s"),
    ("gf.multi_gib_s.32x1k", "GiB/s"),
    ("gf.scatter_gib_s.32x1k", "GiB/s"),
    ("gf.block_gmul_s.128", "Gmul/s"),
    ("gf.axpy_gib_s.gf2.1k", "GiB/s"),
    ("linalg.insert_innovative_ns", "ns"),
    ("linalg.insert_redundant_ns", "ns"),
    ("linalg.probe_ns", "ns"),
    ("linalg.settle_us", "us"),
    ("linalg.solution_us", "us"),
    ("linalg.accumulate_ns", "ns"),
    ("rlnc.new_s", "s"),
    ("rlnc.receive_s", "s"),
    ("rlnc.decode_s", "s"),
    ("rlnc.receive_innovative_ns", "ns"),
    ("rlnc.receive_redundant_ns", "ns"),
    ("rlnc.emit_ns.full", "ns"),
    ("rlnc.emit_ns.half", "ns"),
    ("rlnc.would_help_ns", "ns"),
    ("rlnc.decode_ms_p50", "ms"),
    ("rlnc.decode_ms_p99", "ms"),
    ("rlnc.decode_mib_per_s", "MiB/s"),
    ("rlnc.self_share", "share"),
    ("graph.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_ns_per_slot", "ns"),
    ("sim.rounds", "count"),
    ("sim.timeslots", "count"),
    ("sim.delivered", "count"),
    ("sim.dedup_dropped", "count"),
    ("sim.empty_sends", "count"),
    ("core.new_s", "s"),
    ("core.on_wakeup_s", "s"),
    ("core.compose_s", "s"),
    ("core.deliver_s", "s"),
    ("core.complete_s", "s"),
    ("core.verify_s", "s"),
    ("core.compose_ns_per_msg", "ns"),
    ("core.deliver_ns_per_msg", "ns"),
    ("core.helpful", "count"),
    ("core.redundant", "count"),
    ("core.helpful_share", "share"),
    ("core.trial_serial_s", "s"),
    ("core.plan_efficiency", "share"),
    ("core.cell_s.tag-brr-async", "s"),
    ("core.cell_s.uniform-async", "s"),
    ("core.trial_ms_p50", "ms"),
    ("core.trial_ms_p90", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.accounted_share", "share"),
    ("trace.model_ratio.compose", "ratio"),
    ("trace.model_ratio.deliver", "ratio"),
];

/// The value a metric reports for its per-pass `samples`.
///
/// Per-layer metrics report the median. The three per-pass end-to-end
/// metrics report the quartile on the fast side: on a shared machine other
/// tenants' bursts only ever slow a pass down, and a burst that covers less
/// than three quarters of a run leaves that quartile alone. Measured on ten
/// runs per workload, it spreads by a quarter to a half less than the
/// median does.
#[must_use]
pub fn reported(name: &str, samples: &[f64]) -> f64 {
    let q = match name {
        "wall_s" | "setup_s" => 0.25,
        "slots_per_s" => 0.75,
        _ => 0.5,
    };
    quantile(samples, q)
}

/// A metric or workload name: 1 to 64 letters, digits, `_`, `.` and `-`,
/// starting with a letter or a digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Measured values by metric name. A metric measured once per pass keeps
/// its samples and reports [`reported`] of them.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, Vec<f64>)>,
}

impl Metrics {
    /// Records a metric measured once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_samples(name, vec![value]);
    }

    /// Records a metric measured once per pass.
    ///
    /// # Panics
    ///
    /// Panics on a name already recorded, on an empty sample, and on a name
    /// that is in neither table: a typo must not vanish into a default 0.
    pub fn set_samples(&mut self, name: &'static str, samples: Vec<f64>) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "`{name}` is not a declared metric"
        );
        assert!(self.samples(name).is_none(), "`{name}` recorded twice");
        assert!(!samples.is_empty(), "`{name}` has no samples");
        self.entries.push((name, samples));
    }

    #[must_use]
    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.as_slice())
    }

    /// The reported value: [`reported`] of the samples.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples(name).map(|samples| reported(name, samples))
    }

    /// Every metric of `table` with its value and unit, unmeasured ones as
    /// 0: the `metrics` object of the driver's result line. Result files
    /// add each metric's per-pass `samples` (`compare` needs the spread).
    #[must_use]
    pub fn to_json(&self, table: &[(&'static str, &'static str)], with_samples: bool) -> Json {
        Json::obj(table.iter().map(|&(name, unit)| {
            let mut fields = vec![
                ("value", Json::Num(self.value(name).unwrap_or(0.0))),
                ("unit", Json::str(unit)),
            ];
            if with_samples {
                fields.push(("samples", Json::nums(self.samples(name).unwrap_or(&[]))));
            }
            (name, Json::obj(fields))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::package_dir;

    #[test]
    fn name_charset() {
        for good in [
            "wall_s",
            "core.cell_s.tag-brr-async",
            "gf.axpy_gib_s.1k",
            "9x",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_x",
            "has space",
            "slash/s",
            "µs",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|(_, u)| unit_ok(u)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// above are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names_units = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .elements()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), own(&END_TO_END));
        assert_eq!(names_units("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names_units("workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in doc.get("end_to_end").unwrap().elements() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for w in doc.get("workloads").unwrap().elements() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn metrics_report_their_statistic_and_default_to_zero() {
        let seven = vec![7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0];
        assert_eq!(reported("wall_s", &seven), 2.0);
        assert_eq!(reported("setup_s", &seven), 2.0);
        assert_eq!(reported("slots_per_s", &seven), 6.0);
        assert_eq!(reported("sim.run_s", &seven), 4.0);

        let mut m = Metrics::default();
        m.set_samples("wall_s", vec![3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0]);
        m.set("peak_rss_mib", 12.5);
        assert_eq!(m.value("wall_s"), Some(2.0));
        let line = m.to_json(&END_TO_END, false);
        assert_eq!(
            line.get("wall_s")
                .and_then(|w| w.get("value"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            line.get("setup_s")
                .and_then(|w| w.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        let file = m.to_json(&END_TO_END, true);
        assert_eq!(
            file.get("wall_s")
                .unwrap()
                .get("samples")
                .unwrap()
                .as_f64_vec(),
            vec![3.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_names_are_rejected() {
        Metrics::default().set("wall_seconds", 1.0);
    }
}
