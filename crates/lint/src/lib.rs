//! `ag-lint` — the workspace's static-analysis pass for what clippy
//! cannot state.
//!
//! The repo's central claim is that simulation runs are a *pure function
//! of the seed*: bit-identical across shard counts, thread counts and
//! reruns. Runtime tests (golden pins, differential suites) defend that
//! claim after the fact; static checks defend it before the code runs.
//! Each policy has exactly one checker. Clippy owns the ones a stock lint
//! states exactly (wall-clock and environment reads, truncating casts in
//! seed-keying code, the no-`unwrap`/`panic!` policy; see `clippy.toml`,
//! the library roots' `#![warn(clippy::…)]` heads and the README table).
//! This crate owns the five that need this codebase's own structure:
//!
//! * `hash-iteration` — iteration over hash-ordered collections (the
//!   exact latent bug PR 1 fixed in `RandomMessageGossip`, where `HashSet`
//!   iteration order leaked into message picks); clippy can ban naming
//!   the type, not iterating a field whose type was allowed,
//! * `unsafe-audit` — every `unsafe` site carries a `// SAFETY:`
//!   justification and is listed in a committed, drift-checked
//!   `UNSAFE_INVENTORY.md`,
//! * `rng-discipline` — every RNG keyed through the `seedmix` chain,
//! * `alloc-discipline` — no allocating constructs inside
//!   `// ag-lint: hot-path` zones,
//! * `bounds-provenance` — pointer-arithmetic SAFETY comments must cite a
//!   real len/bound from the enclosing scope.
//!
//! It is a two-phase analyzer. Phase 1 ([`index`]) builds a per-file
//! symbol/region index (fn boundaries, call sites, annotated regions,
//! unsafe spans) and a cross-file seed-derivation fixpoint; phase 2
//! ([`rules`]) runs the families over it.
//!
//! Everything is pure `std` (the container is offline), driven by a
//! lightweight lexer/line scanner — no `syn`, no type information. There
//! is no configuration: scopes and vocabularies are the constants in
//! [`policy`], and the tool lints the workspace it was built in. See the
//! README's static-analysis section for the policy table and
//! `crates/lint/fixtures/` for the known-good/known-bad examples every
//! family is self-tested against.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod index;
pub mod inventory;
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
    /// Waivers that suppressed at least one finding.
    pub waivers_honored: usize,
    /// Rendered `UNSAFE_INVENTORY.md` content for this tree.
    pub inventory: String,
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
    let mut findings = Vec::new();
    let mut waivers_honored = 0usize;
    for (rel, file, idx) in &scanned {
        let (mut file_findings, honored) = rules::lint_file_indexed(rel, file, idx, &derivation);
        findings.append(&mut file_findings);
        waivers_honored += honored;
    }

    let inventory = inventory::render(&scanned);

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(Report {
        findings,
        files_scanned: paths.len(),
        waivers_honored,
        inventory,
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
