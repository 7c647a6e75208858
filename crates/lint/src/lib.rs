//! `ag-lint` — the workspace's static-analysis pass for what clippy
//! cannot state.
//!
//! The repo's central claim is that simulation runs are a *pure function
//! of the seed*: bit-identical across shard counts, thread counts and
//! reruns. Runtime tests (golden pins, differential suites) defend that
//! claim after the fact; static checks defend it before the code runs.
//! Each policy has exactly one checker. Clippy owns the ones a stock lint
//! states (wall-clock and environment reads, hash-ordered collections,
//! `// SAFETY:` comments on unsafe blocks, truncating casts in
//! seed-keying code, the no-`unwrap`/`panic!` policy; see `clippy.toml`,
//! the crate roots' lint heads and the README table). This crate owns the
//! two that need this codebase's own structure:
//!
//! * `rng-discipline` — every RNG keyed through the `seedmix` chain, and
//!   sharded phases drawing only from RNGs bound inside them,
//! * `alloc-discipline` — no allocating constructs inside
//!   `// ag-lint: hot-path` zones,
//!
//! plus one check on its own annotations: an `ag-lint:` comment that is
//! no known annotation is a finding, so a typo cannot switch a zone off.
//!
//! It is a two-phase analyzer. Phase 1 ([`index`]) builds a per-file
//! symbol/region index (fn boundaries, call sites, annotated regions) and
//! a cross-file seed-derivation fixpoint; phase 2 ([`rules`]) runs the
//! families over it.
//!
//! Everything is pure `std` (the container is offline), driven by a
//! lightweight lexer/line scanner — no `syn`, no type information. There
//! is no configuration and no command-line option: scopes and
//! vocabularies are the constants in [`policy`], and the tool lints the
//! workspace it was built in. See the README's static-analysis section for
//! the policy table and `crates/lint/fixtures/` for the known-good and
//! known-bad examples every family is self-tested against.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod index;
pub mod policy;
pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use index::FileIndex;
use rules::Finding;
use scan::{scan, ScannedFile};

/// Result of linting a workspace.
#[derive(Debug)]
pub struct Report {
    /// Surviving findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// The workspace this tool was built in: two levels above `crates/lint`.
#[must_use]
pub fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
}

/// Run the whole pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut paths: Vec<String> = Vec::new();
    for src_root in policy::SOURCE_ROOTS {
        collect_rs_files(root, Path::new(src_root), &mut paths)?;
    }
    paths.sort();
    paths.retain(|p| !policy::glob_match(policy::EXCLUDE, p));

    // Phase 1: scan and index every file, then resolve the workspace-wide
    // seed-derivation set by fixpoint (a helper in crates/graph that
    // wraps `splitmix64` must count as a derivation in crates/sim too).
    let mut scanned: Vec<(String, ScannedFile, FileIndex)> = Vec::new();
    for rel in &paths {
        let text = fs::read_to_string(root.join(rel))?;
        let file = scan(&text);
        let idx = index::index_file(&file);
        scanned.push((rel.clone(), file, idx));
    }
    let indexes: Vec<&FileIndex> = scanned.iter().map(|(_, _, i)| i).collect();
    let derivation = index::derivation_fixpoint(&indexes);

    // Phase 2: run the rule families per file against the shared context.
    // Files come in path order and each file's findings in line order.
    let findings = scanned
        .iter()
        .flat_map(|(rel, file, idx)| rules::lint_file_indexed(rel, file, idx, &derivation))
        .collect();
    Ok(Report {
        findings,
        files_scanned: paths.len(),
    })
}

/// Recursively collect `.rs` files under `root/dir` as workspace-relative
/// `/`-separated paths. A missing source root is not an error.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(&abs)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &dir.join(name), out)?;
        } else if name.ends_with(".rs") {
            let rel = dir.join(name);
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}
