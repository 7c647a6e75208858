//! The pass's policy table: which files each rule family covers and the
//! vocabularies the rules match against.
//!
//! These are constants, not a configuration file: each has one value and
//! one consumer, and a change to any of them is a change to what the gate
//! enforces, so it is reviewed as code.

/// Directories (workspace-relative) walked for `.rs` files. A missing one
/// is skipped.
pub const SOURCE_ROOTS: [&str; 5] = ["crates", "shims", "src", "tests", "examples"];

/// Deliberate known-bad/known-good rule examples, exercised by the
/// crate's self-tests; never linted as workspace code.
pub const EXCLUDE: &str = "crates/lint/fixtures/**";

/// Scope of `rng-discipline`: the crates whose behavior feeds the seeded
/// simulation.
pub const SEEDED: [&str; 4] = [
    "crates/graph/src/**",
    "crates/sim/src/**",
    "crates/core/src/**",
    "crates/rlnc/src/**",
];

/// Scope of `alloc-discipline`: the crates that hold
/// `// ag-lint: hot-path` zones.
pub const HOT: [&str; 4] = [
    "crates/rlnc/src/**",
    "crates/linalg/src/**",
    "crates/sim/src/**",
    "crates/gf/src/**",
];

/// Does the workspace-relative `path` match one of `scope`'s globs?
#[must_use]
pub fn in_scope(scope: &[&str], path: &str) -> bool {
    scope.iter().any(|p| glob_match(p, path))
}

/// `rng-discipline`: root seed-derivation function names; the cross-file
/// fixpoint grows the set transitively from these.
pub const DERIVATION_ROOTS: [&str; 1] = ["splitmix64"];

/// `alloc-discipline`: `receiver.method` calls permitted inside hot-path
/// zones even though the method is in the allocating-method table; the
/// receiver pins which buffer is sanctioned.
pub const ALLOW_CALLS: [&str; 5] = [
    // Preallocated scratch/output buffers resized to the row shape.
    "out.resize",
    "factors.resize",
    "buf.extend_from_slice",
    // A node's payload rows: the slab is at its full-rank capacity before
    // a row goes in (`Tails::reserve_full_rank`), so it never reallocates.
    "slab.extend_from_slice",
    // Engine round scratch, cleared and reused across rounds.
    "intents.extend",
];

/// Match a `/`-separated glob against a `/`-separated relative path:
/// `**` matches any number of path segments (including zero), any other
/// segment matches itself.
#[must_use]
pub fn glob_match(pattern: &str, path: &str) -> bool {
    fn go(pat: &[&str], segs: &[&str]) -> bool {
        match pat.split_first() {
            None => segs.is_empty(),
            Some((&"**", rest)) => (0..=segs.len()).any(|skip| go(rest, &segs[skip..])),
            Some((p, rest)) => segs
                .split_first()
                .is_some_and(|(s, tail)| p == s && go(rest, tail)),
        }
    }
    let pat: Vec<&str> = pattern.split('/').collect();
    let segs: Vec<&str> = path.split('/').collect();
    go(&pat, &segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_match_segments_and_double_star() {
        assert!(glob_match("crates/sim/**", "crates/sim/src/engine.rs"));
        assert!(glob_match("**", "anything/at/all.rs"));
        assert!(glob_match("**/c.rs", "a/b/c.rs"));
        assert!(glob_match("**/c.rs", "c.rs"));
        assert!(glob_match(
            "crates/core/src/seeding.rs",
            "crates/core/src/seeding.rs"
        ));
        assert!(!glob_match("crates/sim/**", "crates/gf/src/simd.rs"));
        assert!(!glob_match("crates/sim", "crates/sim/src/engine.rs"));
    }

    #[test]
    fn scopes_select_by_crate() {
        assert!(in_scope(&SEEDED, "crates/sim/src/engine.rs"));
        assert!(!in_scope(&SEEDED, "crates/gf/src/simd.rs"));
        assert!(in_scope(&HOT, "crates/gf/src/simd.rs"));
        assert!(!in_scope(&HOT, "crates/core/src/plan.rs"));
        assert!(!in_scope(&HOT, "crates/gf/tests/proptest_slab.rs"));
    }
}
