//! Self-tests: each rule family must demonstrably fire on its known-bad
//! fixture (with the right file:line), stay quiet on the known-good one
//! and skip out-of-scope files, the annotation check must catch what is
//! no annotation, and the tool must exit clean on the real workspace,
//! pinning "the tree passes its own lint" as a test rather than a
//! CI-only property.

use std::path::Path;

use ag_lint::rules::{lint_file, Finding, RuleId};
use ag_lint::scan::scan;

/// Fixtures are linted as if they sat in `ag-sim`'s sources, the one
/// directory inside every family's scope, under the real policy table.
const AS_IF_IN: &str = "crates/sim/src";

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_file(&format!("{AS_IF_IN}/{name}"), &scan(&text))
}

fn lines_for(findings: &[Finding], rule: RuleId) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn rng_discipline_fires_on_ambient_literal_unkeyed_and_captured() {
    let findings = lint_fixture("bad_rng.rs");
    let lines = lines_for(&findings, RuleId::RngDiscipline);
    assert_eq!(
        lines,
        vec![6, 10, 15, 19, 27],
        "from_entropy, thread_rng, literal seed, unkeyed expression, \
         and the engine RNG captured inside the sharded phase"
    );
}

#[test]
fn seedmix_keyed_rngs_are_clean() {
    let findings = lint_fixture("good_rng.rs");
    assert!(
        findings.is_empty(),
        "derivation-keyed RNGs must pass: {findings:?}"
    );
}

#[test]
fn alloc_discipline_fires_inside_hot_zones_only() {
    let findings = lint_fixture("bad_hot_alloc.rs");
    let lines = lines_for(&findings, RuleId::AllocDiscipline);
    assert_eq!(
        lines,
        vec![7, 8, 9, 10, 22, 32, 33, 34],
        "to_vec, push, vec!, Box::new in the hot fn, Vec::with_capacity in \
         the hot region, and the turbofish and path-qualified constructors; \
         the cold fn (15) and the post-region collect (26) stay legal"
    );
}

#[test]
fn scratch_reuse_with_allowlisted_growth_is_clean() {
    let findings = lint_fixture("good_hot_alloc.rs");
    assert!(
        findings.is_empty(),
        "receiver-pinned ALLOW_CALLS must suppress: {findings:?}"
    );
}

#[test]
fn unknown_annotations_fire_and_open_no_zone() {
    let findings = lint_fixture("bad_annotation.rs");
    let lines = lines_for(&findings, RuleId::UnknownAnnotation);
    assert_eq!(
        lines,
        vec![5, 11, 13],
        "the misspelt hot-path, the underscored sharded-phase and the \
         waiver"
    );
    assert_eq!(
        findings.len(),
        3,
        "a misspelt hot-path opens no zone, so its push is no finding: \
         {findings:?}"
    );
}

#[test]
fn out_of_scope_files_are_ignored() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad_rng.rs");
    let text = std::fs::read_to_string(path).expect("fixture exists");
    // Same bad content, but in a crate the rng-discipline scope leaves out.
    let findings = lint_file("crates/gf/src/other.rs", &scan(&text));
    assert!(findings.is_empty(), "out of scope: {findings:?}");
}

/// The alloc ban must be live on the real tree, not only on fixtures:
/// injecting an allocation into a really-annotated hot path is caught.
#[test]
fn injected_allocation_in_real_hot_path_is_caught() {
    let root = ag_lint::workspace_root();
    let rel = "crates/rlnc/src/decoder.rs";
    let text = std::fs::read_to_string(root.join(rel)).expect("decoder source");
    let clean = lint_file(rel, &scan(&text));
    assert!(clean.is_empty(), "pristine decoder must pass: {clean:?}");

    // First statement of the hot-path-annotated receive.
    let needle =
        "pub fn try_receive(&mut self, packet: &Packet<F>) -> Result<Insertion, CodingError> {";
    assert!(text.contains(needle), "try_receive signature moved");
    let sabotaged = text.replace(needle, &format!("{needle}\n        self.audit.push(0u8);"));
    let findings = lint_file(rel, &scan(&sabotaged));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == RuleId::AllocDiscipline && f.message.contains("push")),
        "injected Vec::push in a hot path must be caught: {findings:?}"
    );
}

/// The tree must pass its own lint.
#[test]
fn workspace_is_clean() {
    let report = ag_lint::run(ag_lint::workspace_root()).expect("lint pass runs");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean: {:?}",
        report.findings
    );
}
