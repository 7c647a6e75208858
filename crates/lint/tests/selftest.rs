//! Self-tests: every rule family must demonstrably fire on its known-bad
//! fixture (with the right file:line), stay quiet on the known-good one,
//! honor waivers, and skip out-of-scope files — and the tool must exit
//! clean on the real workspace, pinning "the tree passes its own lint"
//! as a test rather than a CI-only property.

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
    lint_file(&format!("{AS_IF_IN}/{name}"), &scan(&text)).0
}

fn lines_for(findings: &[Finding], rule: RuleId) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn hash_iteration_fires_on_message_pick_pattern() {
    let findings = lint_fixture("bad_hash_iteration.rs");
    let lines = lines_for(&findings, RuleId::HashIteration);
    assert_eq!(lines, vec![15, 21, 29], "iter(), for-loop, retain()");
    assert!(findings
        .iter()
        .all(|f| f.path == "crates/sim/src/bad_hash_iteration.rs"));
}

#[test]
fn keyed_hash_lookup_is_clean() {
    let findings = lint_fixture("good_hash_keyed.rs");
    assert!(findings.is_empty(), "keyed access must pass: {findings:?}");
}

#[test]
fn undocumented_unsafe_fires_and_doc_safety_does_not_count() {
    let findings = lint_fixture("bad_unsafe.rs");
    let lines = lines_for(&findings, RuleId::UnsafeAudit);
    assert_eq!(
        lines,
        vec![5, 12],
        "the block, and the fn whose only justification is a doc contract"
    );
}

#[test]
fn safety_comments_satisfy_the_unsafe_audit() {
    let findings = lint_fixture("good_unsafe.rs");
    assert!(
        findings.is_empty(),
        "documented unsafe must pass: {findings:?}"
    );
}

#[test]
fn invalid_waivers_are_findings_and_do_not_suppress() {
    let findings = lint_fixture("bad_waiver.rs");
    let invalid = lines_for(&findings, RuleId::InvalidWaiver);
    assert_eq!(invalid, vec![5, 7], "reasonless and unknown-rule waivers");
    let live = lines_for(&findings, RuleId::HashIteration);
    assert_eq!(live, vec![6, 8], "a malformed waiver suppresses nothing");
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
        vec![7, 8, 9, 10, 22],
        "to_vec, push, vec!, Box::new in the hot fn and Vec::with_capacity \
         in the hot region; the cold fn (15) and the post-region collect \
         (26) stay legal"
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
fn bounds_provenance_fires_when_safety_cites_no_bound() {
    let findings = lint_fixture("bad_bounds.rs");
    let lines = lines_for(&findings, RuleId::BoundsProvenance);
    assert_eq!(
        lines,
        vec![8, 13],
        "both SAFETY comments exist (unsafe-audit passes) but cite no \
         len/bound identifier from the enclosing scope"
    );
    assert!(
        lines_for(&findings, RuleId::UnsafeAudit).is_empty(),
        "the two rules must not double-report"
    );
}

#[test]
fn cited_bounds_satisfy_provenance() {
    let findings = lint_fixture("good_bounds.rs");
    assert!(
        findings.is_empty(),
        "cited bounds (and ptr-free spans) must pass: {findings:?}"
    );
}

#[test]
fn unused_waivers_fire_and_live_ones_stay_silent() {
    let findings = lint_fixture("bad_unused_waiver.rs");
    let unused = lines_for(&findings, RuleId::UnusedWaiver);
    assert_eq!(
        unused,
        vec![6],
        "the stale waiver fires; the one over the live iteration does not"
    );
    assert!(
        lines_for(&findings, RuleId::HashIteration).is_empty(),
        "the live waiver still suppresses its iteration"
    );
    assert!(
        lines_for(&findings, RuleId::InvalidWaiver).is_empty(),
        "both waivers are syntactically valid"
    );
}

#[test]
fn out_of_scope_files_are_ignored() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("bad_hash_iteration.rs");
    let text = std::fs::read_to_string(path).expect("fixture exists");
    // Same bad content, but in a crate the hash-iteration scope leaves out.
    let (findings, _) = lint_file("crates/gf/src/other.rs", &scan(&text));
    assert!(findings.is_empty(), "out of scope: {findings:?}");
}

/// The alloc ban must be live on the real tree, not only on fixtures:
/// injecting an allocation into a really-annotated hot path is caught.
#[test]
fn injected_allocation_in_real_hot_path_is_caught() {
    let root = ag_lint::workspace_root();
    let rel = "crates/rlnc/src/decoder.rs";
    let text = std::fs::read_to_string(root.join(rel)).expect("decoder source");
    let (clean, _) = lint_file(rel, &scan(&text));
    assert!(clean.is_empty(), "pristine decoder must pass: {clean:?}");

    // First statement of the hot-path-annotated receive.
    let needle =
        "pub fn try_receive(&mut self, packet: &Packet<F>) -> Result<Insertion, CodingError> {";
    assert!(text.contains(needle), "try_receive signature moved");
    let sabotaged = text.replace(needle, &format!("{needle}\n        self.audit.push(0u8);"));
    let (findings, _) = lint_file(rel, &scan(&sabotaged));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == RuleId::AllocDiscipline && f.message.contains("push")),
        "injected Vec::push in a hot path must be caught: {findings:?}"
    );
}

/// The tree must pass its own lint: zero findings and a committed
/// inventory that matches the unsafe sites actually present.
#[test]
fn real_workspace_is_clean_and_inventory_is_current() {
    let root = ag_lint::workspace_root();
    let report = ag_lint::run(root).expect("lint pass runs");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean: {:?}",
        report.findings
    );
    let committed = std::fs::read_to_string(root.join(ag_lint::policy::INVENTORY_PATH))
        .expect("UNSAFE_INVENTORY.md is committed");
    assert_eq!(
        committed, report.inventory,
        "UNSAFE_INVENTORY.md drifted — run `cargo run -p ag-lint -- --write-inventory`"
    );
}
