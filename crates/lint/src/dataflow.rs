//! Phase-2 dataflow helpers: lightweight, lexical, and deliberately
//! over-approximate in the safe direction.
//!
//! The `rng-discipline` family needs to answer "does the seed expression
//! of this RNG construction flow from a seedmix derivation?" without a
//! real parser. Three facts make that tractable here:
//!
//! * derivations are *calls* — `splitmix64(…)` or a helper that bottoms
//!   out in it (resolved transitively by the cross-file fixpoint in
//!   `lib.rs`'s run pass);
//! * seed-carrying values are *named like seeds* throughout this
//!   codebase (`seed`, `seed0`, `config.seed`, `round_key`, `cell_key`) —
//!   a convention the lint turns into a checked contract: an identifier
//!   whose name mentions neither is treated as unkeyed;
//! * within one function, `let` bindings propagate the property
//!   (`let round_key = splitmix64(…); … seed_from_u64(round_key ^ …)`),
//!   which a two-pass scan over the body resolves.

use std::collections::BTreeSet;

use crate::index::Span;
use crate::scan::{is_ident_char, token_positions, ScannedFile};

/// Iterate the identifiers in a code/comment string.
pub fn idents(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    let mut base = 0usize;
    while let Some(start_rel) = rest.find(|c: char| is_ident_char(c)) {
        let start = base + start_rel;
        let tail = &text[start..];
        let len = tail.find(|c: char| !is_ident_char(c)).unwrap_or(tail.len());
        let word = &text[start..start + len];
        if !word.starts_with(|c: char| c.is_ascii_digit()) {
            out.push(word);
        }
        base = start + len;
        rest = &text[base..];
    }
    out
}

/// Is this identifier seed-carrying by naming convention?
#[must_use]
pub fn is_seed_named(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower.contains("seed") || lower.contains("key") || lower == "gamma" || lower.contains("gamma")
}

/// The balanced-paren argument text of a call whose opening `(` sits at
/// byte `open` of line `line` (0-based), joined across continuation
/// lines. Returns the text between the parens (exclusive).
#[must_use]
pub fn call_arg_text(file: &ScannedFile, line: usize, open: usize) -> String {
    let mut out = String::new();
    let mut depth = 0i64;
    let mut li = line;
    let mut started = false;
    let mut col = open;
    while li < file.lines.len() {
        let code = &file.lines[li].code;
        for (i, c) in code.char_indices() {
            if li == line && i < col {
                continue;
            }
            match c {
                '(' => {
                    depth += 1;
                    if depth == 1 {
                        started = true;
                        continue;
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
            if started && depth >= 1 {
                out.push(c);
            }
        }
        out.push(' ');
        li += 1;
        col = 0;
        if li > line + 20 {
            // Degenerate input: bail rather than scan the whole file.
            break;
        }
    }
    out
}

/// Identifiers `let`-bound to seed-derived expressions inside `span`,
/// given the cross-file set of derivation functions. Two passes resolve
/// chains (`let a = splitmix64(s); let b = a ^ 1;`).
#[must_use]
pub fn seed_derived_idents(
    file: &ScannedFile,
    span: Span,
    derivation_fns: &BTreeSet<String>,
) -> BTreeSet<String> {
    let mut derived: BTreeSet<String> = BTreeSet::new();
    for _pass in 0..2 {
        for line in &file.lines[span.start..=span.end.min(file.lines.len() - 1)] {
            let code = &line.code;
            let Some((lhs, rhs)) = split_let_binding(code) else {
                continue;
            };
            if expr_is_seed_derived(rhs, derivation_fns, &derived) {
                derived.insert(lhs.to_owned());
            }
        }
    }
    derived
}

/// `let [mut] name = RHS` → `(name, RHS)`; `None` for anything else.
fn split_let_binding(code: &str) -> Option<(&str, &str)> {
    let let_pos = find_token(code, "let")?;
    let after = code[let_pos + 3..].trim_start();
    let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
    let name_len = after
        .find(|c: char| !is_ident_char(c))
        .unwrap_or(after.len());
    let name = &after[..name_len];
    if name.is_empty() || name.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let rest = after[name_len..].trim_start();
    // Skip a `: Type` ascription up to the `=` (but not `==`).
    let eq = rest.find('=')?;
    if rest.as_bytes().get(eq + 1) == Some(&b'=') {
        return None;
    }
    Some((name, &rest[eq + 1..]))
}

/// Is this expression text seed-derived: a derivation call, a
/// seed-named identifier, or a previously derived identifier?
#[must_use]
pub fn expr_is_seed_derived(
    expr: &str,
    derivation_fns: &BTreeSet<String>,
    derived: &BTreeSet<String>,
) -> bool {
    for id in idents(expr) {
        if derivation_fns.contains(id) || derived.contains(id) || is_seed_named(id) {
            return true;
        }
    }
    false
}

/// Is `expr` a bare integer literal (`42`, `0xFF`, `1_000u64`)?
#[must_use]
pub fn is_integer_literal(expr: &str) -> bool {
    let t = expr.trim();
    if t.is_empty() {
        return false;
    }
    let t = t
        .trim_end_matches("u64")
        .trim_end_matches("u32")
        .trim_end_matches("usize")
        .trim_end_matches("i64");
    let t = t.trim_end_matches('_');
    let digits = t.strip_prefix("0x").unwrap_or(t);
    !digits.is_empty() && digits.chars().all(|c| c.is_ascii_hexdigit() || c == '_')
}

/// Identifiers bound *inside* `span`: `let` bindings, `for` loop
/// variables and closure parameters. Used by the sharded-phase check to
/// separate region-local RNGs (derived from the per-slot key) from
/// captures of the engine's serial RNG.
#[must_use]
pub fn region_bindings(file: &ScannedFile, span: Span) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in &file.lines[span.start..=span.end.min(file.lines.len() - 1)] {
        let code = &line.code;
        if let Some((name, _)) = split_let_binding(code) {
            out.insert(name.to_owned());
        }
        // `for pat in …`
        if let Some(pos) = find_token(code, "for") {
            let between = match find_token(&code[pos..], "in") {
                Some(inp) => &code[pos + 3..pos + inp],
                None => "",
            };
            for id in idents(between) {
                if id != "mut" {
                    out.insert(id.to_owned());
                }
            }
        }
        // Closure parameters: idents between a `|…|` pair.
        if let Some(open) = code.find('|') {
            if let Some(close_rel) = code[open + 1..].find('|') {
                let params = &code[open + 1..open + 1 + close_rel];
                for id in idents(params) {
                    if id != "mut" && !id.starts_with(|c: char| c.is_ascii_uppercase()) {
                        out.insert(id.to_owned());
                    }
                }
            }
        }
    }
    out
}

/// Byte offset of `needle` as a standalone token in `code`.
fn find_token(code: &str, needle: &str) -> Option<usize> {
    token_positions(code, needle).first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn set(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn multi_line_call_args_are_joined() {
        let f = scan(concat!(
            "let rng = StdRng::seed_from_u64(splitmix64(\n",
            "    round_key ^ (slot as u64),\n",
            "));\n",
        ));
        let open = f.lines[0].code.find("(").expect("opening paren");
        let arg = call_arg_text(&f, 0, open);
        assert!(arg.contains("splitmix64"));
        assert!(arg.contains("round_key"));
        assert!(!arg.contains(";"));
    }

    #[test]
    fn let_chains_propagate_seed_derivation() {
        let f = scan(concat!(
            "fn f(seed: u64) {\n",
            "    let round_key = splitmix64(seed ^ 3);\n",
            "    let slot_key = round_key ^ 17;\n",
            "    let unrelated = 99;\n",
            "}\n",
        ));
        let derived = seed_derived_idents(&f, Span { start: 0, end: 4 }, &set(&["splitmix64"]));
        assert!(derived.contains("round_key"));
        assert!(derived.contains("slot_key"));
        assert!(!derived.contains("unrelated"));
    }

    #[test]
    fn integer_literals_are_recognized() {
        assert!(is_integer_literal("42"));
        assert!(is_integer_literal("0xDEAD_BEEF"));
        assert!(is_integer_literal("1_000u64"));
        assert!(!is_integer_literal("seed"));
        assert!(!is_integer_literal("seed + 1"));
        assert!(!is_integer_literal(""));
    }

    #[test]
    fn region_bindings_cover_let_for_and_closures() {
        let f = scan(concat!(
            "let mut slot_rng = mk();\n",
            "for slot in worklist {\n",
            "    jobs.map(|(mut shard, wl)| shard.go(wl));\n",
            "}\n",
        ));
        let b = region_bindings(&f, Span { start: 0, end: 3 });
        assert!(b.contains("slot_rng"));
        assert!(b.contains("slot"));
        assert!(b.contains("shard"));
        assert!(b.contains("wl"));
        assert!(!b.contains("worklist"));
    }
}
