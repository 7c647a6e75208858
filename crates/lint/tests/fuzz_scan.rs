//! Token-soup fuzzing for the scanner → indexer → rules pipeline.
//!
//! The scanner is the soundness root of every rule (a missed string
//! boundary turns doc prose into findings), so it must be *total*:
//! arbitrary concatenations of Rust-ish lexical fragments — unterminated
//! strings, nested comment markers, stray quotes, half-open annotations —
//! must never panic any stage, and the blanking invariants must hold on
//! every input, not just on well-formed Rust.

use proptest::prelude::*;

use ag_lint::index::index_file;
use ag_lint::rules::lint_file;
use ag_lint::scan::scan;

/// Lexical fragments chosen to collide: comment openers/closers, string
/// and raw-string delimiters, escapes, char-vs-lifetime quotes, braces
/// for the depth tracker, and every marker the indexer reacts to.
const TOKENS: &[&str] = &[
    "fn",
    "f",
    "unsafe",
    "impl",
    "trait",
    "{",
    "}",
    "(",
    ")",
    ";",
    ",",
    "\"",
    "\\\"",
    "\\",
    "r#\"",
    "\"#",
    "r\"",
    "b\"",
    "br#\"",
    "//",
    "///",
    "//!",
    "/*",
    "*/",
    "/**/",
    "'a",
    "'a'",
    "'\\''",
    "'{'",
    "#[cfg(test)]",
    "#[inline]",
    "// ag-lint: hot-path",
    "// ag-lint: hot-path(begin)",
    "// ag-lint: hot-path(end)",
    "// ag-lint: sharded-phase(begin)",
    "// ag-lint: sharded-phase(end)",
    "// ag-lint: allow(hash-iteration) — soup",
    "// ag-lint: hot-paht",
    ".push(x)",
    "vec![0]",
    "Vec::new()",
    "Vec::<u8>::with_capacity",
    "::<Vec<u8>",
    "seed_from_u64",
    "from_entropy",
    "let mut rng",
    "splitmix64(seed)",
    // Separators masquerading as tokens keep the generator one-dimensional.
    " ",
    "  ",
    "\n",
    "\n\n",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scan_index_lint_are_total_on_token_soup(
        picks in proptest::collection::vec(0..TOKENS.len(), 0..120),
    ) {
        let src: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let file = scan(&src);

        // Line-preserving: one scanned line per input line.
        prop_assert_eq!(file.lines.len(), src.lines().count());

        // Blanking: comment markers never survive into code text (a
        // marker that did would let comment prose trigger rules).
        for line in &file.lines {
            prop_assert!(
                !line.code.contains("//") && !line.code.contains("/*"),
                "comment marker leaked into code: {:?} (src {:?})",
                line.code,
                src
            );
        }

        // Deterministic: scanning is a pure function of the source.
        prop_assert_eq!(format!("{:?}", file.lines), format!("{:?}", scan(&src).lines));

        // The indexer is total and its spans stay inside the file.
        let idx = index_file(&file);
        for f in &idx.fns {
            prop_assert!(f.body.start <= f.body.end);
            prop_assert!(f.body.end < file.lines.len().max(1));
        }
        for span in idx.hot_regions.iter().chain(&idx.sharded_regions) {
            prop_assert!(span.start <= span.end);
            prop_assert!(span.end < file.lines.len().max(1));
        }

        // Every rule family survives the soup (findings are fine; panics
        // and non-termination are not): `ag-sim`'s sources are inside
        // every family's scope.
        let _findings = lint_file("crates/sim/src/soup.rs", &file);
    }
}
