//! The environment header written into every result file, and the
//! fail-fast checks that keep two result files comparable.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// `RAYON_NUM_THREADS` for every run. Only `trial-sweep` is parallel; the
/// pin makes its numbers independent of how many cores the box has beyond
/// two.
pub const PINNED_THREADS: usize = 2;

/// Environment knobs that override what the library picks by default (the
/// kernel rung and the replay schedule). The benchmark measures the
/// defaults, so it refuses to run with any of them set.
const OVERRIDE_PREFIXES: [&str; 2] = ["AG_GF_", "AG_LINALG_"];

/// The benchmark package's own directory (`benchmark/` in a checkout).
#[must_use]
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where result and trace files go (ignored by git).
#[must_use]
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The lines of a manifest's `[profile.release]` table, comments and
/// blank lines dropped, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Checks every precondition of a comparable run and pins the thread
/// count. Call once, first thing in `main`, before any thread exists.
///
/// # Errors
///
/// A message naming the first violated precondition.
pub fn prepare() -> Result<(), String> {
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let own = release_profile(&read(package_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(package_dir().join("../Cargo.toml"))?);
    if own != root {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ));
    }
    let nproc = nproc();
    if nproc < PINNED_THREADS {
        return Err(format!(
            "{nproc} core(s) available, the benchmark pins {PINNED_THREADS} threads"
        ));
    }
    if let Some((key, _)) = std::env::vars_os().find(|(k, _)| {
        OVERRIDE_PREFIXES
            .iter()
            .any(|p| k.to_string_lossy().starts_with(p))
    }) {
        return Err(format!(
            "{} is set; the benchmark measures the library defaults",
            key.to_string_lossy()
        ));
    }
    std::env::set_var("RAYON_NUM_THREADS", PINNED_THREADS.to_string());
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The transparent-huge-page policy, e.g. `always [madvise] never`.
fn thp_setting() -> String {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The environment header. The pass count, which differs from run to run,
/// is in each entry of the file's `runs`.
#[must_use]
pub fn header(seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("pinned_threads", Json::Num(PINNED_THREADS as f64)),
        ("simd_level", Json::str(ag_gf::simd::level_name())),
        ("rustc", Json::str(env!("AG_BENCHMARK_RUSTC"))),
        ("thp", Json::str(thp_setting())),
        // Seeds are 64-bit; a JSON number would round above 2^53.
        ("seed", Json::str(format!("{seed:#x}"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_comments_order_and_spacing() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"\ncodegen-units=1\n\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\ncodegen-units = 1 # one unit\nlto = \"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 2);
        let c = "[profile.release]\nlto = \"fat\"\ncodegen-units = 1\n";
        assert_ne!(release_profile(a), release_profile(c));
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn this_package_matches_the_root_profile() {
        let own = std::fs::read_to_string(package_dir().join("Cargo.toml")).unwrap();
        let root = std::fs::read_to_string(package_dir().join("../Cargo.toml")).unwrap();
        assert!(!release_profile(&own).is_empty());
        assert_eq!(release_profile(&own), release_profile(&root));
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
