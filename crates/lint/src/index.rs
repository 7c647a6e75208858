//! Phase 1 of the two-phase analyzer: a per-file symbol/region index.
//!
//! Both rule families need to know *where they are*: which function a
//! line belongs to, which functions/regions carry an
//! `// ag-lint: hot-path` annotation, and which functions each body calls
//! (so seed-derivation helpers can be resolved transitively across
//! files). This module builds that index from the
//! [`crate::scan::ScannedFile`] alone — brace-depth structure, no type
//! information — and phase 2 ([`crate::rules`]) consumes it.
//!
//! Annotation grammar (plain `//` comments only, never doc text):
//!
//! * `// ag-lint: hot-path` directly above a `fn` marks its whole body as
//!   an allocation-free zone.
//! * `// ag-lint: hot-path(begin)` / `// ag-lint: hot-path(end)` bracket
//!   a region inside a larger function (e.g. the engine's round loop).
//! * `// ag-lint: sharded-phase(begin)` / `(end)` bracket a sharded
//!   compose/merge phase: inside it, only RNGs *bound inside the region*
//!   (i.e. constructed from the per-slot key) may be mentioned.

use std::collections::BTreeSet;

use crate::scan::{is_ident_char, ScannedFile};

/// An inclusive 0-based line span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    #[must_use]
    pub fn contains(self, line: usize) -> bool {
        self.start <= line && line <= self.end
    }
}

/// One function with a body in this file.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Body span: the line holding the opening `{` through the line
    /// holding its matching `}`.
    pub body: Span,
    /// Carries an `// ag-lint: hot-path` annotation?
    pub hot_path: bool,
    /// Names called as `name(…)` anywhere in the body (methods and free
    /// functions alike) — the raw material for the cross-file
    /// seed-derivation fixpoint.
    pub calls: BTreeSet<String>,
}

/// The per-file index.
#[derive(Debug, Default)]
pub struct FileIndex {
    pub fns: Vec<FnSpan>,
    /// `hot-path(begin)`/`(end)` regions, in source order.
    pub hot_regions: Vec<Span>,
    /// `sharded-phase(begin)`/`(end)` regions, in source order.
    pub sharded_regions: Vec<Span>,
}

impl FileIndex {
    /// The innermost function whose body (or signature) covers `line`.
    #[must_use]
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.sig_line <= line && line <= f.body.end)
            .min_by_key(|f| f.body.end - f.sig_line)
    }

    /// Every hot span: annotated function bodies plus explicit regions.
    #[must_use]
    pub fn hot_spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .fns
            .iter()
            .filter(|f| f.hot_path)
            .map(|f| Span {
                start: f.sig_line,
                end: f.body.end,
            })
            .collect();
        out.extend(self.hot_regions.iter().copied());
        out
    }
}

/// What opens an annotation in a plain comment.
pub const MARK: &str = "ag-lint:";
/// Marker names recognized after [`MARK`].
pub const ANNOTATION_HOT: &str = "hot-path";
pub const ANNOTATION_SHARDED: &str = "sharded-phase";

/// What an `ag-lint: <marker>` annotation says, if the comment holds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    HotFn,
    HotBegin,
    HotEnd,
    ShardedBegin,
    ShardedEnd,
}

/// Parse the text following `ag-lint:` as an annotation; `None` when it
/// is none (an `unknown-annotation` finding).
#[must_use]
pub fn parse_annotation(text: &str) -> Option<Annotation> {
    let text = text.trim_start();
    if let Some(rest) = text.strip_prefix(ANNOTATION_HOT) {
        let rest = rest.trim_start();
        if let Some(arg) = rest.strip_prefix("(begin)") {
            return arg_terminates(arg).then_some(Annotation::HotBegin);
        }
        if let Some(arg) = rest.strip_prefix("(end)") {
            return arg_terminates(arg).then_some(Annotation::HotEnd);
        }
        return arg_terminates(rest).then_some(Annotation::HotFn);
    }
    if let Some(rest) = text.strip_prefix(ANNOTATION_SHARDED) {
        let rest = rest.trim_start();
        if let Some(arg) = rest.strip_prefix("(begin)") {
            return arg_terminates(arg).then_some(Annotation::ShardedBegin);
        }
        if let Some(arg) = rest.strip_prefix("(end)") {
            return arg_terminates(arg).then_some(Annotation::ShardedEnd);
        }
    }
    None
}

/// After the marker, only an optional `— explanation` may follow.
fn arg_terminates(rest: &str) -> bool {
    let rest = rest.trim_start();
    rest.is_empty() || rest.starts_with(['—', '–', '-'])
}

/// Each [`MARK`] in one comment string, parsed: `None` where the text
/// after it is no annotation.
pub fn annotations(comment: &str) -> impl Iterator<Item = Option<Annotation>> + '_ {
    comment
        .match_indices(MARK)
        .map(|(at, _)| parse_annotation(&comment[at + MARK.len()..]))
}

/// Build the index for one scanned file.
#[must_use]
pub fn index_file(file: &ScannedFile) -> FileIndex {
    let mut idx = FileIndex::default();

    // Region annotations: pair begins with ends in source order. An
    // unmatched begin extends to end-of-file (safer to over-cover than to
    // silently drop the region).
    let mut hot_open: Option<usize> = None;
    let mut sharded_open: Option<usize> = None;
    for (i, line) in file.lines.iter().enumerate() {
        for a in annotations(&line.comment).flatten() {
            match a {
                Annotation::HotBegin => hot_open = hot_open.or(Some(i)),
                Annotation::HotEnd => {
                    if let Some(start) = hot_open.take() {
                        idx.hot_regions.push(Span { start, end: i });
                    }
                }
                Annotation::ShardedBegin => sharded_open = sharded_open.or(Some(i)),
                Annotation::ShardedEnd => {
                    if let Some(start) = sharded_open.take() {
                        idx.sharded_regions.push(Span { start, end: i });
                    }
                }
                Annotation::HotFn => {}
            }
        }
    }
    let eof = file.lines.len().saturating_sub(1);
    if let Some(start) = hot_open {
        idx.hot_regions.push(Span { start, end: eof });
    }
    if let Some(start) = sharded_open {
        idx.sharded_regions.push(Span { start, end: eof });
    }

    // Function structure: one brace-depth walk.
    let mut depth: i64 = 0;
    // (name, sig_line) awaiting its opening brace.
    let mut pending_fn: Option<(String, usize)> = None;
    // Open fn bodies: (partial FnSpan, depth of their opening brace).
    let mut open_fns: Vec<(FnSpan, i64)> = Vec::new();
    // Paren/bracket depth so `;` inside `fn f(x: [u8; 32])` does not
    // cancel the pending fn.
    let mut nest: i64 = 0;

    for (i, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let chars: Vec<char> = code.chars().collect();
        let mut c = 0usize;
        while c < chars.len() {
            let ch = chars[c];
            if is_ident_char(ch) {
                let start = c;
                while c < chars.len() && is_ident_char(chars[c]) {
                    c += 1;
                }
                let word: String = chars[start..c].iter().collect();
                let prev_ok = start == 0 || !is_ident_char(chars[start - 1]);
                if !prev_ok {
                    continue;
                }
                match word.as_str() {
                    "fn" => {
                        // A `fn` followed by an identifier starts a
                        // declaration; `fn(` in type position does not.
                        let mut j = c;
                        while j < chars.len() && chars[j].is_whitespace() {
                            j += 1;
                        }
                        let mut name = String::new();
                        while j < chars.len() && is_ident_char(chars[j]) {
                            name.push(chars[j]);
                            j += 1;
                        }
                        if !name.is_empty() {
                            pending_fn = Some((name, i));
                        }
                    }
                    _ => {
                        // A call site `name(`: record into every open fn
                        // (the innermost is what matters, but recording
                        // into all is harmless for the fixpoint).
                        let mut j = c;
                        while j < chars.len() && chars[j].is_whitespace() {
                            j += 1;
                        }
                        let turbofish =
                            chars.get(j) == Some(&':') && chars.get(j + 1) == Some(&':');
                        if chars.get(j) == Some(&'(') || turbofish {
                            for (f, _) in &mut open_fns {
                                f.calls.insert(word.clone());
                            }
                        }
                    }
                }
                continue;
            }
            match ch {
                '(' | '[' => nest += 1,
                ')' | ']' => nest -= 1,
                ';' if nest == 0 => pending_fn = None,
                '{' => {
                    depth += 1;
                    if let Some((name, sig_line)) = pending_fn.take() {
                        open_fns.push((
                            FnSpan {
                                name,
                                sig_line,
                                body: Span { start: i, end: i },
                                hot_path: false,
                                calls: BTreeSet::new(),
                            },
                            depth,
                        ));
                    }
                    nest = 0;
                }
                '}' => {
                    if let Some((f, d)) = open_fns.last() {
                        if *d == depth {
                            let mut f = f.clone();
                            f.body.end = i;
                            idx.fns.push(f);
                            open_fns.pop();
                        }
                    }
                    depth -= 1;
                }
                _ => {}
            }
            c += 1;
        }
    }
    // Unclosed bodies (truncated input): close at end of file.
    for (mut f, _) in open_fns {
        f.body.end = eof;
        idx.fns.push(f);
    }
    idx.fns.sort_by_key(|f| f.sig_line);

    // `hot-path` fn annotations: on the signature line, or on directly
    // preceding comment-only / attribute-only lines.
    for f in &mut idx.fns {
        f.hot_path = fn_has_hot_annotation(file, f.sig_line);
    }

    idx
}

/// Resolve the workspace-wide set of seed-derivation functions by
/// fixpoint: start from [`crate::policy::DERIVATION_ROOTS`], then add any
/// function whose body calls a function already in the set, until stable.
/// Deliberately over-approximate in the safe direction — a helper that
/// merely *touches* the derivation chain counts as keyed, so the rule
/// errs toward fewer false positives.
#[must_use]
pub fn derivation_fixpoint(indexes: &[&FileIndex]) -> BTreeSet<String> {
    let mut set: BTreeSet<String> = crate::policy::DERIVATION_ROOTS
        .iter()
        .map(|r| (*r).to_owned())
        .collect();
    loop {
        let mut changed = false;
        for idx in indexes {
            for f in &idx.fns {
                if !set.contains(&f.name) && f.calls.iter().any(|c| set.contains(c)) {
                    set.insert(f.name.clone());
                    changed = true;
                }
            }
        }
        if !changed {
            return set;
        }
    }
}

fn fn_has_hot_annotation(file: &ScannedFile, sig_line: usize) -> bool {
    let holds =
        |i: usize| annotations(&file.lines[i].comment).any(|a| a == Some(Annotation::HotFn));
    if holds(sig_line) {
        return true;
    }
    let mut i = sig_line;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        if line.has_code() && !line.is_attr_only() {
            return false;
        }
        if holds(i) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn fn_spans_and_calls_are_indexed() {
        let src = concat!(
            "pub fn outer(x: [u8; 4]) -> u64 {\n",
            "    let k = splitmix64(x[0] as u64);\n",
            "    inner(k)\n",
            "}\n",
            "fn inner(k: u64) -> u64 { k }\n",
        );
        let idx = index_file(&scan(src));
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].name, "outer");
        assert_eq!(idx.fns[0].body, Span { start: 0, end: 3 });
        assert!(idx.fns[0].calls.contains("splitmix64"));
        assert!(idx.fns[0].calls.contains("inner"));
        assert_eq!(idx.fns[1].name, "inner");
    }

    #[test]
    fn bodyless_decls_and_fn_types_are_not_fns() {
        let src = concat!(
            "trait T { fn required(&self) -> u8; }\n",
            "type Hook = fn(u8) -> u8;\n",
            "fn real() { body(); }\n",
        );
        let idx = index_file(&scan(src));
        // The trait's braces open no fn body; only `real` has one.
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn hot_path_annotations_mark_fns_and_regions() {
        let src = concat!(
            "// ag-lint: hot-path\n",
            "fn hot() { work(); }\n",
            "fn cold() {\n",
            "    setup();\n",
            "    // ag-lint: hot-path(begin)\n",
            "    inner_loop();\n",
            "    // ag-lint: hot-path(end)\n",
            "}\n",
        );
        let idx = index_file(&scan(src));
        assert!(idx.fns.iter().any(|f| f.name == "hot" && f.hot_path));
        assert!(idx.fns.iter().any(|f| f.name == "cold" && !f.hot_path));
        assert_eq!(idx.hot_regions, vec![Span { start: 4, end: 6 }]);
    }

    #[test]
    fn sharded_regions_pair_and_unmatched_begin_extends_to_eof() {
        let src = concat!(
            "// ag-lint: sharded-phase(begin)\n",
            "a();\n",
            "// ag-lint: sharded-phase(end)\n",
            "// ag-lint: hot-path(begin) — never closed\n",
            "b();\n",
        );
        let idx = index_file(&scan(src));
        assert_eq!(idx.sharded_regions, vec![Span { start: 0, end: 2 }]);
        assert_eq!(idx.hot_regions, vec![Span { start: 3, end: 4 }]);
    }

    #[test]
    fn derivation_fixpoint_resolves_transitive_helpers() {
        let a = index_file(&scan(concat!(
            "pub fn derive_key(seed: u64, i: u64) -> u64 {\n",
            "    splitmix64(seed ^ i)\n",
            "}\n",
        )));
        let b = index_file(&scan(concat!(
            "pub fn cell_key(seed: u64, r: u64, s: u64) -> u64 {\n",
            "    derive_key(seed, r ^ s)\n",
            "}\n",
            "pub fn unrelated() -> u64 { 7 }\n",
        )));
        let set = derivation_fixpoint(&[&a, &b]);
        assert!(set.contains("derive_key"));
        assert!(set.contains("cell_key"), "transitive across files");
        assert!(!set.contains("unrelated"));
    }

    #[test]
    fn enclosing_fn_picks_the_innermost() {
        let src = concat!(
            "fn outer() {\n",
            "    fn inner() {\n",
            "        x();\n",
            "    }\n",
            "}\n",
        );
        let idx = index_file(&scan(src));
        assert_eq!(idx.enclosing_fn(2).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(idx.enclosing_fn(4).map(|f| f.name.as_str()), Some("outer"));
    }
}
