//! The five rule families, plus waiver handling.
//!
//! Every rule is a scanner over [`crate::scan::ScannedFile`] — substring
//! and token matching over comment-free, literal-free code text. That is
//! deliberately weaker than type-aware analysis and deliberately stronger
//! than reviewer vigilance: each family targets a bug class that is
//! *lexically* recognizable in this codebase and that clippy cannot state
//! (the policies it can state — wall-clock and environment reads,
//! truncating casts in seed-keying code, the panic policy — are clippy
//! lints, see the README), and the fixture self-tests pin exactly what
//! fires and what passes. Which files a family covers is in
//! [`crate::policy`].
//!
//! * **`hash-iteration`** — iteration over `HashMap`/`HashSet` in the
//!   simulation crates. Hash iteration order is randomized per process
//!   and per instance, so any iteration that feeds a decision breaks the
//!   runs-are-a-pure-function-of-the-seed guarantee (the exact latent bug
//!   PR 1 fixed in `RandomMessageGossip`). Keyed lookup stays legal: the
//!   rule tracks which identifiers are hash-typed and fires only on
//!   iteration forms (`iter`/`keys`/`values`/`drain`/`retain`/`for … in`).
//!   Clippy's `disallowed-types` can only ban *naming* the type; it cannot
//!   see iteration over a field whose type was allowed for keyed lookup.
//! * **`unsafe-audit`** — every `unsafe` fn/impl/block/trait, test code
//!   included, must carry a `// SAFETY:` comment stating its actual
//!   precondition.
//!
//! Three *cross-file* families run over the phase-1
//! [`crate::index::FileIndex`] plus a workspace-wide derivation-function
//! set resolved by fixpoint in [`crate::run`]:
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
//!   audits into a lint-time gate.
//! * **`bounds-provenance`** — an unsafe span (test code included) that
//!   does pointer arithmetic (`get_unchecked`, `from_raw_parts`,
//!   `.add(…)`, …) must cite, in its `// SAFETY:` comment, at least one
//!   len/bound identifier that actually exists in the enclosing scope —
//!   tightening the presence-only `unsafe-audit` check.
//!
//! Findings are suppressed by inline waivers with a mandatory reason —
//! for example `// ag-lint: allow(hash-iteration) — order-independent sum`
//! — either on the offending line or on comment lines directly above it.
//! A waiver without a reason, or naming an unknown rule, is itself a
//! finding (`invalid-waiver`) that cannot be waived; a well-formed waiver
//! that suppresses nothing is an `unused-waiver` finding (waivers must
//! not outlive the code they excused). Waivers and annotations live in
//! plain `//` comments only — doc text never parses as either.

use std::collections::BTreeSet;
use std::fmt;

use crate::dataflow;
use crate::index::{index_file, FileIndex, Span};
use crate::policy;
use crate::scan::{is_ident_char, ScannedFile};

/// Identifier of a rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    HashIteration,
    UnsafeAudit,
    RngDiscipline,
    AllocDiscipline,
    BoundsProvenance,
    /// Malformed waivers; internal, never waivable.
    InvalidWaiver,
    /// Well-formed waivers that suppress nothing; internal, unwaivable.
    UnusedWaiver,
}

impl RuleId {
    /// The rule families a waiver can name, in reporting order.
    pub const FAMILIES: [RuleId; 5] = [
        RuleId::HashIteration,
        RuleId::UnsafeAudit,
        RuleId::RngDiscipline,
        RuleId::AllocDiscipline,
        RuleId::BoundsProvenance,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIteration => "hash-iteration",
            RuleId::UnsafeAudit => "unsafe-audit",
            RuleId::RngDiscipline => "rng-discipline",
            RuleId::AllocDiscipline => "alloc-discipline",
            RuleId::BoundsProvenance => "bounds-provenance",
            RuleId::InvalidWaiver => "invalid-waiver",
            RuleId::UnusedWaiver => "unused-waiver",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::FAMILIES.into_iter().find(|r| r.name() == name)
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

/// A parsed inline waiver.
#[derive(Debug, Clone)]
struct Waiver {
    /// 0-based line the waiver text sits on.
    line: usize,
    rules: Vec<RuleId>,
    has_reason: bool,
    /// Did this waiver suppress at least one finding?
    used: bool,
}

/// Lint one scanned file in isolation: builds the phase-1 index and a
/// file-local derivation fixpoint, then runs the indexed pass. The
/// workspace driver ([`crate::run`]) computes the fixpoint across all
/// files instead and calls [`lint_file_indexed`] directly.
#[must_use]
pub fn lint_file(path: &str, file: &ScannedFile) -> (Vec<Finding>, usize) {
    let index = index_file(file);
    let derivation = crate::index::derivation_fixpoint(&[&index]);
    lint_file_indexed(path, file, &index, &derivation)
}

/// Lint one scanned file against its phase-1 index and the cross-file
/// derivation set. Returns surviving findings and the number of findings
/// that waivers suppressed.
#[must_use]
pub fn lint_file_indexed(
    path: &str,
    file: &ScannedFile,
    index: &FileIndex,
    derivation_fns: &BTreeSet<String>,
) -> (Vec<Finding>, usize) {
    let mut raw: Vec<Finding> = Vec::new();

    let seeded = policy::in_scope(&policy::SEEDED, path);
    if seeded {
        check_hash_iteration(path, file, &mut raw);
    }
    check_unsafe(path, file, &mut raw);
    if seeded {
        check_rng_discipline(path, file, index, derivation_fns, &mut raw);
    }
    if policy::in_scope(&policy::HOT, path) {
        check_alloc_discipline(path, file, index, &mut raw);
    }
    check_bounds_provenance(path, file, index, &mut raw);

    // Waiver application: a finding on line L is suppressed when a
    // well-formed waiver naming its rule covers L. Every waiver that
    // suppresses something is marked used; the rest become findings.
    let mut waivers = collect_waivers(file);
    let mut findings = Vec::new();
    let mut honored = 0usize;
    for finding in raw {
        let covering = covering_lines(file, finding.line - 1);
        let mut suppressed = false;
        for w in &mut waivers {
            if w.has_reason && covering.contains(&w.line) && w.rules.contains(&finding.rule) {
                w.used = true;
                suppressed = true;
            }
        }
        if suppressed {
            honored += 1;
        } else {
            findings.push(finding);
        }
    }

    // Unused waivers are findings: a suppression that excuses nothing has
    // outlived the code it excused (or never matched it) and silently
    // widens the exemption surface. Unwaivable, like invalid-waiver.
    for w in &waivers {
        if w.has_reason && !w.used {
            findings.push(Finding {
                path: path.to_owned(),
                line: w.line + 1,
                rule: RuleId::UnusedWaiver,
                message: format!(
                    "waiver for `{}` suppresses no finding here — delete it \
                     (waivers must not outlive the code they excused)",
                    w.rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }

    // Malformed waivers are findings in *every* scanned file, regardless
    // of rule scopes: a waiver that silently fails to parse is exactly
    // the silent exemption the tool exists to forbid.
    for (i, line) in file.lines.iter().enumerate() {
        if let Some(err) = waiver_syntax_error(&line.plain_comment) {
            findings.push(Finding {
                path: path.to_owned(),
                line: i + 1,
                rule: RuleId::InvalidWaiver,
                message: err,
            });
        }
    }

    findings.sort_by_key(|f| f.line);
    (findings, honored)
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

const WAIVER_MARK: &str = "ag-lint:";

/// All waivers in the file, from plain (non-doc) comment text only —
/// waiver examples in doc comments never register as live suppressions.
fn collect_waivers(file: &ScannedFile) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        for mut w in parse_waivers(&line.plain_comment) {
            w.line = i;
            out.push(w);
        }
    }
    out
}

/// The 0-based lines whose waivers cover line `idx`: the line itself plus
/// directly preceding comment-only / attribute-only lines.
fn covering_lines(file: &ScannedFile, idx: usize) -> Vec<usize> {
    let mut out = vec![idx];
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        if line.has_code() && !line.is_attr_only() {
            break;
        }
        out.push(i);
    }
    out
}

/// Parse every well-formed waiver in one comment string (`line` is left
/// 0 for the caller to fill in).
fn parse_waivers(comment: &str) -> Vec<Waiver> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(WAIVER_MARK) {
        rest = &rest[pos + WAIVER_MARK.len()..];
        if let Some((waiver, tail)) = parse_one_waiver(rest) {
            out.push(waiver);
            rest = tail;
        }
    }
    out
}

/// Parse the `allow(rule, …) — reason` tail that follows the waiver
/// marker. Returns `None` on malformed syntax (reported via
/// [`waiver_syntax_error`]).
fn parse_one_waiver(text: &str) -> Option<(Waiver, &str)> {
    let text = text.trim_start();
    let args = text.strip_prefix("allow(")?;
    let close = args.find(')')?;
    let mut rules = Vec::new();
    for name in args[..close].split(',') {
        rules.push(RuleId::parse(name.trim())?);
    }
    if rules.is_empty() {
        return None;
    }
    let tail = &args[close + 1..];
    // Mandatory reason: an em/en/hyphen dash separator followed by text.
    let reason = tail.trim_start().trim_start_matches(['—', '–', '-']).trim();
    Some((
        Waiver {
            line: 0,
            rules,
            has_reason: !reason.is_empty(),
            used: false,
        },
        tail,
    ))
}

/// A human-readable description of what is wrong with the waivers in
/// this comment, if anything. `hot-path`/`sharded-phase` annotations are
/// valid non-waivers; anything else after `ag-lint:` must parse as an
/// `allow(…)` with a reason.
fn waiver_syntax_error(comment: &str) -> Option<String> {
    let mut rest = comment;
    while let Some(pos) = rest.find(WAIVER_MARK) {
        rest = &rest[pos + WAIVER_MARK.len()..];
        if crate::index::parse_annotation(rest).is_some() {
            continue;
        }
        match parse_one_waiver(rest) {
            Some((waiver, tail)) => {
                if !waiver.has_reason {
                    return Some(
                        "waiver is missing its mandatory reason: \
                         `// ag-lint: allow(<rule>) — <reason>`"
                            .to_owned(),
                    );
                }
                rest = tail;
            }
            None => {
                return Some(
                    "malformed waiver (expected `allow(<known-rule>, …)` \
                     after `ag-lint:`)"
                        .to_owned(),
                );
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// Byte offsets where `needle` occurs in `code` as a standalone token
/// (not embedded in a longer identifier).
fn token_positions(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(code[..at].chars().next_back().unwrap_or(' '));
        let after = code[at + needle.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            out.push(at);
        }
        start = at + needle.len();
    }
    out
}

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
// hash-iteration
// ---------------------------------------------------------------------------

const ITERATION_METHODS: [&str; 10] = [
    "iter()",
    "iter_mut()",
    "into_iter()",
    "keys()",
    "values()",
    "values_mut()",
    "drain(",
    "retain(",
    "into_keys()",
    "into_values()",
];

fn check_hash_iteration(path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    // Pass 1: which identifiers are hash-typed? Collected from the whole
    // file (including tests — a field declared once is used everywhere).
    let mut names: Vec<String> = Vec::new();
    for line in &file.lines {
        collect_hash_names(&line.code, &mut names);
    }
    names.sort();
    names.dedup();

    // Pass 2: flag iteration forms over those identifiers.
    for (lineno, code) in code_lines(file) {
        for name in &names {
            for at in token_positions(code, name) {
                let after = &code[at + name.len()..];
                if let Some(rest) = after.strip_prefix('.') {
                    if let Some(m) = ITERATION_METHODS.iter().find(|m| rest.starts_with(**m)) {
                        push(
                            out,
                            path,
                            lineno,
                            RuleId::HashIteration,
                            format!(
                                "iteration over hash-ordered collection `{name}` \
                                 (`.{m}`): hash order is nondeterministic per \
                                 process — use a BTree collection or a sorted Vec, \
                                 or waive with an order-independence argument"
                            ),
                        );
                    }
                }
                // `for x in map {` / `for x in &self.map {`: the loop
                // target ends at `at + name`, so everything between the
                // `in` keyword and the name must be only borrow sigils
                // and a dotted owner path.
                if has_token(code, "for") && for_target_ends_here(code, at) {
                    let next = after.trim_start().chars().next();
                    if matches!(next, None | Some('{')) {
                        push(
                            out,
                            path,
                            lineno,
                            RuleId::HashIteration,
                            format!(
                                "`for` loop over hash-ordered collection `{name}`: \
                                 hash order is nondeterministic per process"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Is the expression ending at byte `at` (exclusive of the identifier
/// that starts there) the target of a `for … in` loop? True when the
/// text between the nearest preceding ` in ` keyword and `at` consists
/// only of borrow sigils (`&`, `&mut`) and a dotted owner path.
fn for_target_ends_here(code: &str, at: usize) -> bool {
    let Some(in_pos) = token_positions(&code[..at], "in").into_iter().next_back() else {
        return false;
    };
    let between = code[in_pos + 2..at].trim();
    let between = between.strip_prefix('&').unwrap_or(between).trim_start();
    let between = between.strip_prefix("mut ").unwrap_or(between).trim_start();
    between.chars().all(|c| is_ident_char(c) || c == '.')
}

/// Collect identifiers bound to `HashMap`/`HashSet` on this line: typed
/// bindings and fields (`name: HashMap<…>`, `name: &HashSet<…>`) and
/// constructor bindings (`let name = HashMap::new()`).
fn collect_hash_names(code: &str, names: &mut Vec<String>) {
    for ty in ["HashMap", "HashSet"] {
        for at in token_positions(code, ty) {
            let before = &code[..at];
            // Strip a leading module path (`std::collections::HashSet`).
            let mut prefix_end = at;
            loop {
                let upto = &code[..prefix_end];
                let Some(stripped) = upto.strip_suffix("::") else {
                    break;
                };
                let mut seg_start = stripped.len();
                for (i, c) in stripped.char_indices().rev() {
                    if !is_ident_char(c) {
                        break;
                    }
                    seg_start = i;
                }
                prefix_end = seg_start;
            }
            let decl = code[..prefix_end].trim_end();
            // `name: [&[mut ]]HashMap<…>` — field, param or let type.
            let decl_stripped = decl
                .strip_suffix("&mut")
                .or_else(|| decl.strip_suffix('&'))
                .map_or(decl, str::trim_end);
            if let Some(colon) = decl_stripped.strip_suffix(':') {
                let colon = colon.trim_end();
                if let Some(name) = ident_ending_at(colon, colon.len()) {
                    names.push(name.to_owned());
                }
            }
            // `let [mut] name = HashMap::…`.
            if before.contains("let ") && code[at..].starts_with(&format!("{ty}::")) {
                if let Some(eq) = decl.strip_suffix('=') {
                    let eq = eq.trim_end();
                    if let Some(name) = ident_ending_at(eq, eq.len()) {
                        names.push(name.to_owned());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

/// Kind of an unsafe site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    Fn,
    Impl,
    Trait,
    Block,
}

impl fmt::Display for UnsafeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UnsafeKind::Fn => "fn",
            UnsafeKind::Impl => "impl",
            UnsafeKind::Trait => "trait",
            UnsafeKind::Block => "block",
        })
    }
}

/// One `unsafe` occurrence, as shared between the audit rule and the
/// inventory generator.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line number.
    pub line: usize,
    pub kind: UnsafeKind,
    /// The `// SAFETY:` justification, joined across continuation
    /// comment lines; `None` when undocumented.
    pub justification: Option<String>,
}

/// Extract every unsafe site in a file, with its justification.
#[must_use]
pub fn unsafe_sites(file: &ScannedFile) -> Vec<UnsafeSite> {
    let mut out = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        for at in token_positions(&line.code, "unsafe") {
            let after = line.code[at + "unsafe".len()..].trim_start();
            let kind = if after.starts_with("fn") {
                UnsafeKind::Fn
            } else if after.starts_with("impl") {
                UnsafeKind::Impl
            } else if after.starts_with("trait") {
                UnsafeKind::Trait
            } else {
                UnsafeKind::Block
            };
            out.push(UnsafeSite {
                line: i + 1,
                kind,
                justification: safety_comment(file, i),
            });
        }
    }
    out
}

/// The `// SAFETY:` text covering line `idx`: searched on the line
/// itself, then on directly preceding comment-only / attribute-only
/// lines. Continuation comment lines after the `SAFETY:` marker are
/// joined into the excerpt.
fn safety_comment(file: &ScannedFile, idx: usize) -> Option<String> {
    let mark_line = find_safety_mark(file, idx)?;
    let first = &file.lines[mark_line].comment;
    let pos = first.find("SAFETY:")?;
    let mut text = first[pos + "SAFETY:".len()..].trim().to_owned();
    // Join continuation comment lines between the marker and the site.
    for line in &file.lines[mark_line + 1..=idx] {
        if line.has_code() || line.comment.trim().is_empty() {
            break;
        }
        text.push(' ');
        text.push_str(line.comment.trim());
    }
    Some(text)
}

fn find_safety_mark(file: &ScannedFile, idx: usize) -> Option<usize> {
    if file.lines[idx].comment.contains("SAFETY:") {
        return Some(idx);
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        if line.has_code() && !line.is_attr_only() {
            return None;
        }
        if line.comment.contains("SAFETY:") {
            return Some(i);
        }
    }
    None
}

fn check_unsafe(path: &str, file: &ScannedFile, out: &mut Vec<Finding>) {
    for site in unsafe_sites(file) {
        if site.justification.is_none() {
            push(
                out,
                path,
                site.line,
                RuleId::UnsafeAudit,
                format!(
                    "undocumented `unsafe` {}: add a `// SAFETY:` comment stating \
                     the precondition that makes this sound (feature guard, \
                     pointer/length provenance, alignment, …)",
                    site.kind
                ),
            );
        }
    }
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

const ALLOC_PATHS: [&str; 7] = [
    "Vec::new",
    "Vec::with_capacity",
    "Vec::from",
    "Box::new",
    "String::new",
    "String::from",
    "String::with_capacity",
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
            for p in ALLOC_PATHS {
                let mut start = 0usize;
                while let Some(pos) = code[start..].find(p) {
                    let at = start + pos;
                    start = at + p.len();
                    let prev = code[..at].chars().next_back().unwrap_or(' ');
                    let next = code[at + p.len()..].chars().next().unwrap_or(' ');
                    if !is_ident_char(prev)
                        && prev != ':'
                        && !is_ident_char(next)
                        && seen.insert((i, at))
                    {
                        push(
                            out,
                            path,
                            i + 1,
                            RuleId::AllocDiscipline,
                            format!(
                                "`{p}` allocates inside a hot-path zone — \
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

// ---------------------------------------------------------------------------
// bounds-provenance
// ---------------------------------------------------------------------------

/// Unchecked-access constructs whose soundness depends on a length/bound
/// argument computed in the enclosing scope.
const PTR_FNS: [&str; 10] = [
    "get_unchecked",
    "get_unchecked_mut",
    "from_raw_parts",
    "from_raw_parts_mut",
    "copy_nonoverlapping",
    "copy_from_nonoverlapping",
    "copy_to_nonoverlapping",
    "read_unaligned",
    "write_unaligned",
    "offset_from",
];

/// Raw-pointer methods (matched only in `.m(` position).
const PTR_METHODS: [&str; 7] = [
    "add",
    "sub",
    "offset",
    "read",
    "write",
    "byte_add",
    "byte_offset",
];

fn check_bounds_provenance(
    path: &str,
    file: &ScannedFile,
    index: &FileIndex,
    out: &mut Vec<Finding>,
) {
    for us in &index.unsafe_spans {
        let ops = ptr_ops_in(file, us.body);
        if ops.is_empty() {
            continue;
        }
        // A missing SAFETY comment is unsafe-audit's finding, not ours.
        let Some(just) = safety_comment(file, us.kw_line) else {
            continue;
        };
        let cited = cited_bounds(file, index, us.kw_line, us.body, &just);
        if cited.is_empty() {
            push(
                out,
                path,
                us.kw_line + 1,
                RuleId::BoundsProvenance,
                format!(
                    "unsafe span does pointer arithmetic ({}) but its SAFETY \
                     comment cites no len/bound identifier from the enclosing \
                     scope — name the bound that keeps the access in range",
                    ops.join(", ")
                ),
            );
        }
    }
}

/// Pointer ops inside a span, deduplicated, in table order.
fn ptr_ops_in(file: &ScannedFile, span: Span) -> Vec<&'static str> {
    let mut out = Vec::new();
    for i in span.start..=span.end.min(file.lines.len().saturating_sub(1)) {
        let code = &file.lines[i].code;
        for f in PTR_FNS {
            if has_token(code, f) && !out.contains(&f) {
                out.push(f);
            }
        }
        for m in PTR_METHODS {
            if out.contains(&m) {
                continue;
            }
            for at in token_positions(code, m) {
                if code[..at].ends_with('.') && code[at + m.len()..].starts_with('(') {
                    out.push(m);
                    break;
                }
            }
        }
    }
    out
}

/// Identifiers in the SAFETY text that both exist in the enclosing scope
/// and look like length/bound names per [`policy::BOUND_HINTS`].
fn cited_bounds(
    file: &ScannedFile,
    index: &FileIndex,
    kw_line: usize,
    body: Span,
    just: &str,
) -> Vec<String> {
    let scope = index
        .enclosing_fn(kw_line)
        .map(|f| Span {
            start: f.sig_line,
            end: f.body.end,
        })
        .unwrap_or(body);
    let mut scope_idents: BTreeSet<&str> = BTreeSet::new();
    for i in scope.start..=scope.end.min(file.lines.len().saturating_sub(1)) {
        scope_idents.extend(dataflow::idents(&file.lines[i].code));
    }
    let mut out: Vec<String> = Vec::new();
    for id in dataflow::idents(just) {
        if !scope_idents.contains(id) {
            continue;
        }
        let lower = id.to_ascii_lowercase();
        let is_bound = policy::BOUND_HINTS.iter().any(|h| {
            if h.len() <= 2 {
                lower == *h
            } else {
                lower.contains(h)
            }
        });
        if is_bound && !out.iter().any(|o| o == id) {
            out.push(id.to_owned());
        }
    }
    out
}

/// For the inventory: pointer ops and cited bounds of the unsafe span
/// whose keyword sits on 1-based `line`. `None` when no span matches
/// (e.g. `unsafe impl`, which has no body to do arithmetic in).
#[must_use]
pub fn bounds_summary(
    file: &ScannedFile,
    index: &FileIndex,
    line: usize,
) -> Option<(Vec<&'static str>, Vec<String>)> {
    let us = index.unsafe_spans.iter().find(|u| u.kw_line + 1 == line)?;
    let ops = ptr_ops_in(file, us.body);
    if ops.is_empty() {
        return Some((ops, Vec::new()));
    }
    let just = safety_comment(file, us.kw_line).unwrap_or_default();
    let cited = cited_bounds(file, index, us.kw_line, us.body, &just);
    Some((ops, cited))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    /// A path inside every family's scope.
    const PATH: &str = "crates/sim/src/a.rs";

    #[test]
    fn hash_names_collected_from_decl_forms() {
        let mut names = Vec::new();
        collect_hash_names(
            "    edge_pos: HashMap<(NodeId, NodeId), usize>,",
            &mut names,
        );
        collect_hash_names(
            "let mut seen = std::collections::HashSet::new();",
            &mut names,
        );
        collect_hash_names(
            "pub fn volume(g: &Graph, set: &HashSet<NodeId>) {",
            &mut names,
        );
        assert_eq!(names, ["edge_pos", "seen", "set"]);
    }

    #[test]
    fn keyed_lookup_passes_iteration_fires() {
        let src = concat!(
            "struct T { edge_pos: HashMap<(u32, u32), usize> }\n",
            "fn ok(t: &T) -> bool { t.edge_pos.contains_key(&(1, 2)) }\n",
            "fn bad(t: &T) -> usize { t.edge_pos.keys().count() }\n",
            "fn bad2(t: &T) { for _ in &t.edge_pos {} }\n",
        );
        let (f, _) = lint_file(PATH, &scan(src));
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [3, 4], "findings: {f:?}");
    }

    #[test]
    fn waiver_suppresses_and_requires_reason() {
        let src = concat!(
            "fn f(set: &HashSet<u32>) -> usize {\n",
            "    // ag-lint: allow(hash-iteration) — order-independent sum\n",
            "    set.iter().count()\n",
            "}\n",
            "fn g(set: &HashSet<u32>) -> usize {\n",
            "    set.iter().count() // ag-lint: allow(hash-iteration)\n",
            "}\n",
        );
        let (f, honored) = lint_file(PATH, &scan(src));
        assert_eq!(honored, 1);
        // The reasonless waiver does not suppress, and is itself flagged.
        let rules: Vec<RuleId> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RuleId::HashIteration));
        assert!(rules.contains(&RuleId::InvalidWaiver));
    }

    #[test]
    fn unsafe_sites_classified_and_safety_lookback_works() {
        let src = concat!(
            "// SAFETY: documented impl\n",
            "unsafe impl Send for T {}\n",
            "fn f() { unsafe { core(); } }\n",
            "/// # Safety\n",
            "/// caller contract only — not a site justification\n",
            "unsafe fn g() {}\n",
        );
        let sites = unsafe_sites(&scan(src));
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].kind, UnsafeKind::Impl);
        assert_eq!(sites[0].justification.as_deref(), Some("documented impl"));
        assert_eq!(sites[1].kind, UnsafeKind::Block);
        assert!(sites[1].justification.is_none());
        assert_eq!(sites[2].kind, UnsafeKind::Fn);
        assert!(
            sites[2].justification.is_none(),
            "a `# Safety` doc section states the caller contract, not why \
             this body is sound — the audit wants `// SAFETY:`"
        );
    }

    #[test]
    fn multiline_safety_comment_joins_into_excerpt() {
        let src = concat!(
            "// SAFETY: the matched level was runtime-detected\n",
            "// and never exceeds the CPU's features.\n",
            "unsafe { kernel(); }\n",
        );
        let sites = unsafe_sites(&scan(src));
        assert_eq!(
            sites[0].justification.as_deref(),
            Some("the matched level was runtime-detected and never exceeds the CPU's features.")
        );
    }
}
