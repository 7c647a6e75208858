//! The two rule families and the annotation check.
//!
//! Every rule is a scanner over [`crate::scan::ScannedFile`] — substring
//! and token matching over comment-free, literal-free code text. That is
//! deliberately weaker than type-aware analysis and deliberately stronger
//! than reviewer vigilance: each family targets a bug class that is
//! *lexically* recognizable in this codebase and that clippy cannot state
//! (the policies a stock lint states — wall-clock and environment reads,
//! hash-ordered collections, `// SAFETY:` comments, truncating casts in
//! seed-keying code, the panic policy — are clippy's, see the README), and
//! the fixture self-tests pin exactly what fires and what passes. Which
//! files a family covers is in [`crate::policy`].
//!
//! Both families run over the phase-1 [`crate::index::FileIndex`];
//! `rng-discipline` also takes the workspace-wide derivation-function set
//! resolved by fixpoint in [`crate::run`]:
//!
//! * **`rng-discipline`** — every RNG construction must be keyed through
//!   the `seedmix` derivation chain: `from_entropy`/`thread_rng` are
//!   banned outright, raw literal seeds are banned outside tests, a
//!   `seed_from_u64(expr)` whose expression neither calls a derivation
//!   function nor flows from a seed-named binding is flagged, and inside
//!   `// ag-lint: sharded-phase(begin/end)` regions any mention of an RNG
//!   not bound within the region (i.e. not built from the per-slot key)
//!   is a finding — the double-draw bug class.
//! * **`alloc-discipline`** — functions/regions annotated
//!   `// ag-lint: hot-path` may not contain allocating constructs
//!   (`Vec::new`, `push`, `with_capacity`, `to_vec`, `clone`, `format!`,
//!   `Box::new`, `collect`, …) except the calls listed in
//!   [`crate::policy::ALLOW_CALLS`] — turning the counting-allocator
//!   audits into a lint-time gate. A constructor counts under any leading
//!   path and through a turbofish (`std::vec::Vec::<u8>::new`).
//!
//! There are no waivers: a finding is fixed, or the policy constant that
//! makes it one is changed in review. The third finding,
//! `unknown-annotation`, is an `ag-lint:` marker in a plain comment that is
//! none of [`crate::index`]'s annotations, in every scanned file: a
//! misspelt `hot-path` must not silently switch its zone off. Annotations
//! live in plain `//` comments only — doc text never parses as one.

use std::collections::BTreeSet;
use std::fmt;

use crate::dataflow;
use crate::index::{annotations, index_file, FileIndex, Span};
use crate::policy;
use crate::scan::{is_ident_char, token_positions, ScannedFile};

/// Identifier of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    RngDiscipline,
    AllocDiscipline,
    /// An `ag-lint:` comment that is no known annotation.
    UnknownAnnotation,
}

impl RuleId {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::RngDiscipline => "rng-discipline",
            RuleId::AllocDiscipline => "alloc-discipline",
            RuleId::UnknownAnnotation => "unknown-annotation",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lint one scanned file in isolation: builds the phase-1 index and a
/// file-local derivation fixpoint, then runs the indexed pass. The
/// workspace driver ([`crate::run`]) computes the fixpoint across all
/// files instead and calls [`lint_file_indexed`] directly.
#[must_use]
pub fn lint_file(path: &str, file: &ScannedFile) -> Vec<Finding> {
    let index = index_file(file);
    let derivation = crate::index::derivation_fixpoint(&[&index]);
    lint_file_indexed(path, file, &index, &derivation)
}

/// Lint one scanned file against its phase-1 index and the cross-file
/// derivation set; findings come sorted by line.
#[must_use]
pub fn lint_file_indexed(
    path: &str,
    file: &ScannedFile,
    index: &FileIndex,
    derivation_fns: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if policy::in_scope(&policy::SEEDED, path) {
        check_rng_discipline(path, file, index, derivation_fns, &mut findings);
    }
    if policy::in_scope(&policy::HOT, path) {
        check_alloc_discipline(path, file, index, &mut findings);
    }
    check_annotations(path, file, &mut findings);
    findings.sort_by_key(|f| f.line);
    findings
}

/// Every `ag-lint:` marker must parse as an annotation, in every scanned
/// file regardless of the families' scopes.
fn check_annotations(path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        for _ in annotations(&line.comment).filter(Option::is_none) {
            push(
                out,
                path,
                i + 1,
                RuleId::UnknownAnnotation,
                "unknown `ag-lint:` annotation: the markers are `hot-path`, \
                 `hot-path(begin)`, `hot-path(end)`, `sharded-phase(begin)` and \
                 `sharded-phase(end)`, and a misspelt one switches its zone off"
                    .to_owned(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// Does `code` contain `needle` as a standalone token?
fn has_token(code: &str, needle: &str) -> bool {
    !token_positions(code, needle).is_empty()
}

/// The identifier ending at byte offset `end` of `code` (exclusive).
fn ident_ending_at(code: &str, end: usize) -> Option<&str> {
    let mut start = end;
    for (i, c) in code[..end].char_indices().rev() {
        if !is_ident_char(c) {
            break;
        }
        start = i;
    }
    let ident = &code[start..end];
    (!ident.is_empty() && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()))
        .then_some(ident)
}

/// Iterate the lines outside `#[cfg(test)]` items with their 1-based
/// numbers.
fn code_lines(file: &ScannedFile) -> impl Iterator<Item = (usize, &str)> {
    file.lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.in_test)
        .map(|(i, l)| (i + 1, l.code.as_str()))
}

fn push(out: &mut Vec<Finding>, path: &str, line: usize, rule: RuleId, message: String) {
    out.push(Finding {
        path: path.to_owned(),
        line,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------------
// rng-discipline
// ---------------------------------------------------------------------------

/// RNG constructors that consume ambient entropy — banned outright.
const AMBIENT_RNG: [&str; 2] = ["from_entropy", "thread_rng"];

/// RNG constructors taking a seed whose provenance is checked.
const SEEDED_RNG: [&str; 2] = ["seed_from_u64", "from_seed"];

fn check_rng_discipline(
    path: &str,
    file: &ScannedFile,
    index: &FileIndex,
    derivation_fns: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    for (lineno, code) in code_lines(file) {
        for tok in AMBIENT_RNG {
            if has_token(code, tok) {
                push(
                    out,
                    path,
                    lineno,
                    RuleId::RngDiscipline,
                    format!(
                        "`{tok}` consumes ambient entropy: every RNG must be keyed \
                         through the seedmix derivation chain (`splitmix64`) so runs \
                         stay a pure function of the seed"
                    ),
                );
            }
        }
        for ctor in SEEDED_RNG {
            for at in token_positions(code, ctor) {
                let after = &code[at + ctor.len()..];
                let Some(rel) = after.find('(') else { continue };
                if !after[..rel].trim().is_empty() {
                    continue;
                }
                let open = at + ctor.len() + rel;
                let arg = dataflow::call_arg_text(file, lineno - 1, open);
                let span = index
                    .enclosing_fn(lineno - 1)
                    .map(|f| Span {
                        start: f.sig_line,
                        end: f.body.end,
                    })
                    .unwrap_or(Span {
                        start: 0,
                        end: file.lines.len().saturating_sub(1),
                    });
                let derived = dataflow::seed_derived_idents(file, span, derivation_fns);
                if dataflow::is_integer_literal(&arg) {
                    push(
                        out,
                        path,
                        lineno,
                        RuleId::RngDiscipline,
                        format!(
                            "`{ctor}({lit})` with a raw literal seed: derive the key \
                             via the seedmix chain (`splitmix64(seed ^ …)`) or move \
                             the construction under `#[cfg(test)]`",
                            lit = arg.trim()
                        ),
                    );
                } else if !dataflow::expr_is_seed_derived(&arg, derivation_fns, &derived) {
                    push(
                        out,
                        path,
                        lineno,
                        RuleId::RngDiscipline,
                        format!(
                            "`{ctor}(…)` seed expression `{}` neither calls a seedmix \
                             derivation function nor flows from a seed-named binding — \
                             the RNG stream is not keyed to the run seed",
                            arg.trim()
                        ),
                    );
                }
            }
        }
    }

    // Sharded phases: an RNG-looking identifier not bound inside the
    // region is a capture of the serial engine RNG — drawing from it in
    // shard work changes the stream with the shard count (the
    // double-draw bug class PR 7 eliminated).
    for span in &index.sharded_regions {
        let bound = dataflow::region_bindings(file, *span);
        for i in span.start..=span.end.min(file.lines.len().saturating_sub(1)) {
            let line = &file.lines[i];
            if line.in_test {
                continue;
            }
            let mut flagged: BTreeSet<&str> = BTreeSet::new();
            for id in dataflow::idents(&line.code) {
                if id.starts_with(|c: char| c.is_ascii_lowercase())
                    && id.to_ascii_lowercase().contains("rng")
                    && !bound.contains(id)
                    && flagged.insert(id)
                {
                    push(
                        out,
                        path,
                        i + 1,
                        RuleId::RngDiscipline,
                        format!(
                            "`{id}` inside a sharded phase is not bound within the \
                             region: shard work must draw only from an RNG \
                             constructed from the per-slot key, never from the \
                             engine's serial RNG"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// alloc-discipline
// ---------------------------------------------------------------------------

const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Allocating constructors as `(type, constructor)`, matched under any
/// leading path (`std::vec::Vec::new`) and through a turbofish
/// (`Vec::<u8>::with_capacity`).
const ALLOC_PATHS: [(&str, &str); 7] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

const ALLOC_METHODS: [&str; 17] = [
    "push",
    "insert",
    "extend",
    "extend_from_slice",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "append",
    "collect",
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "with_capacity",
    "into_boxed_slice",
    "split_off",
];

fn check_alloc_discipline(
    path: &str,
    file: &ScannedFile,
    index: &FileIndex,
    out: &mut Vec<Finding>,
) {
    let spans = index.hot_spans();
    if spans.is_empty() {
        return;
    }
    // Overlapping spans (a hot fn containing a hot region) must not
    // double-report one site.
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for span in spans {
        for i in span.start..=span.end.min(file.lines.len().saturating_sub(1)) {
            let line = &file.lines[i];
            if line.in_test {
                continue;
            }
            let code = &line.code;
            for mac in ALLOC_MACROS {
                for at in token_positions(code, mac) {
                    if code[at + mac.len()..].starts_with('!') && seen.insert((i, at)) {
                        push(
                            out,
                            path,
                            i + 1,
                            RuleId::AllocDiscipline,
                            format!(
                                "`{mac}!` allocates inside a hot-path zone — hot \
                                 receive/emit/flush paths must reuse preallocated \
                                 scratch"
                            ),
                        );
                    }
                }
            }
            for (ty, ctor) in ALLOC_PATHS {
                for at in token_positions(code, ty) {
                    let after = skip_turbofish(&code[at + ty.len()..]);
                    let called = after.strip_prefix("::").and_then(|r| r.strip_prefix(ctor));
                    if called.is_some_and(|r| !r.starts_with(is_ident_char)) && seen.insert((i, at))
                    {
                        push(
                            out,
                            path,
                            i + 1,
                            RuleId::AllocDiscipline,
                            format!(
                                "`{ty}::{ctor}` allocates inside a hot-path zone — \
                                 preallocate in the constructor and reuse"
                            ),
                        );
                    }
                }
            }
            for m in ALLOC_METHODS {
                for at in token_positions(code, m) {
                    if !code[..at].ends_with('.') {
                        continue;
                    }
                    let after = code[at + m.len()..].trim_start();
                    if !after.starts_with('(') && !after.starts_with("::<") {
                        continue;
                    }
                    let recv = ident_ending_at(code, at - 1);
                    let allowed = recv.is_some_and(|r| {
                        policy::ALLOW_CALLS
                            .iter()
                            .any(|a| a.split_once('.') == Some((r, m)))
                    });
                    if !allowed && seen.insert((i, at)) {
                        let on = recv.map(|r| format!(" on `{r}`")).unwrap_or_default();
                        push(
                            out,
                            path,
                            i + 1,
                            RuleId::AllocDiscipline,
                            format!(
                                "`.{m}(…)`{on} may allocate inside a hot-path zone — \
                                 use preallocated scratch, or reserve the capacity up \
                                 front and list the call in `policy::ALLOW_CALLS`"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// `text` past a leading turbofish `::<…>`, or `text` itself when there is
/// none (or it never closes).
fn skip_turbofish(text: &str) -> &str {
    let Some(args) = text.strip_prefix("::<") else {
        return text;
    };
    let (mut depth, mut prev) = (1, ' ');
    for (i, c) in args.char_indices() {
        match c {
            '<' => depth += 1,
            // `->` in a `fn` type argument closes nothing.
            '>' if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return &args[i + 1..];
                }
            }
            _ => {}
        }
        prev = c;
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    /// A path inside every family's scope.
    const PATH: &str = "crates/sim/src/a.rs";

    #[test]
    fn constructors_match_under_paths_and_turbofish_only() {
        let src = concat!(
            "// ag-lint: hot-path\n",
            "fn f(v: &Vec<u8>) -> usize {\n",
            "    let a = alloc::vec::Vec::<Vec<u8>>::new();\n",
            "    let b = Box::<dyn Fn() -> u8>::new(g);\n",
            "    let n = Vec::<u8>::len(v) + SmallVec::<u8>::new().len();\n",
            "    let s = String::from_utf8_lossy(v).len() + MyString::new().len();\n",
            "    n + s\n",
            "}\n",
        );
        let f = lint_file(PATH, &scan(src));
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [3, 4], "findings: {f:?}");
    }

    #[test]
    fn unknown_markers_fire_in_any_file_and_doc_text_does_not() {
        let src = concat!(
            "//! `// ag-lint: hot-paht` in doc text is prose\n",
            "// ag-lint: hot-path — known\n",
            "fn f() {}\n",
            "// ag-lint: cold-path\n",
            "fn g() {}\n",
        );
        let f = lint_file("crates/analysis/src/a.rs", &scan(src));
        let found: Vec<(usize, RuleId)> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(found, [(4, RuleId::UnknownAnnotation)]);
    }
}
