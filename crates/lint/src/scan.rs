//! A lightweight Rust lexer/line scanner.
//!
//! The rules in [`crate::rules`] are substring matchers, which is only
//! sound if the substrings they look for cannot hide inside string
//! literals or comments (`"call buf.push(x) here"` in a doc string must
//! not fire `alloc-discipline`). This module does the one pass of real
//! lexing the tool needs: it splits every source line into *code text*
//! (with comment bodies and literal contents blanked out) and plain
//! *comment text* (where `ag-lint:` annotations live), and tracks which
//! lines sit inside a `#[cfg(test)]` item so rules can ignore test code.
//!
//! The lexer understands line and (nested) block comments, string
//! literals with escapes, raw strings (`r"…"`, `r#"…"#`, byte variants),
//! char/byte-char literals, and the char-literal-vs-lifetime ambiguity
//! (`'a'` vs `'a`). It is deliberately *not* a parser: item structure is
//! approximated by brace depth, which is exactly enough to delimit
//! `#[cfg(test)]` modules and functions.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// Source text with comments and literal contents blanked. String and
    /// char delimiters are kept (so `.expect("msg")` stays recognizable
    /// as `.expect("")`), comment spans collapse to a single space.
    pub code: String,
    /// Plain comment text on this line, with the `//` and block markers
    /// stripped: the only place `ag-lint:` annotations are honored. Doc
    /// comments (`///`, `//!`) are left out, so doc text *talking about*
    /// an annotation never opens a zone or reads as a misspelt one.
    pub comment: String,
    /// True when the line is inside (or is the attribute line of) a
    /// `#[cfg(test)]` item.
    pub in_test: bool,
}

impl ScannedLine {
    /// Does this line carry any non-whitespace code?
    #[must_use]
    pub fn has_code(&self) -> bool {
        !self.code.trim().is_empty()
    }

    /// Is the line's code only an attribute (possibly a fragment of a
    /// multi-line attribute)? The `hot-path` lookback skips attribute
    /// lines between an annotation and the `fn` it marks.
    #[must_use]
    pub fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        (t.starts_with("#[") || t.starts_with("#![")) && t.ends_with(']')
    }
}

/// A whole scanned file.
#[derive(Debug)]
pub struct ScannedFile {
    pub lines: Vec<ScannedLine>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    /// Inside `/* … */`, tracking nesting depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string with this many `#`s in its delimiter.
    RawStr(u8),
}

/// Scan one file into per-line code/comment text plus test-region marks.
#[must_use]
pub fn scan(src: &str) -> ScannedFile {
    let mut state = LexState::Normal;
    let mut lines: Vec<ScannedLine> = Vec::new();

    for raw in src.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0usize;
        while i < chars.len() {
            match state {
                LexState::Block(depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        i += 2;
                        if depth == 1 {
                            state = LexState::Normal;
                            code.push(' ');
                        } else {
                            state = LexState::Block(depth - 1);
                        }
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                LexState::Str => {
                    if chars[i] == '\\' {
                        i += 2; // skip the escaped char (may run past EOL: fine)
                    } else if chars[i] == '"' {
                        code.push('"');
                        state = LexState::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"' && closes_raw(&chars, i + 1, hashes) {
                        code.push('"');
                        state = LexState::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                LexState::Normal => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        // Line comment (includes /// and //! doc forms).
                        let is_doc = matches!(chars.get(i + 2), Some('/') | Some('!'));
                        let mut j = i + 2;
                        while chars.get(j) == Some(&'/') || chars.get(j) == Some(&'!') {
                            j += 1;
                        }
                        if !is_doc {
                            comment.extend(&chars[j..]);
                        }
                        code.push(' ');
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        state = LexState::Str;
                        i += 1;
                    } else if let Some(hashes) = raw_string_at(&chars, i) {
                        // r"…" / r#"…"# / br#"…"# — jump to just after the
                        // opening quote.
                        let prefix_len = raw_prefix_len(&chars, i);
                        code.push('"');
                        state = LexState::RawStr(hashes);
                        i += prefix_len;
                    } else if c == '\'' {
                        if let Some(end) = char_literal_end(&chars, i) {
                            code.push_str("''");
                            i = end;
                        } else {
                            // A lifetime: keep it as code.
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        lines.push(ScannedLine {
            code,
            comment,
            in_test: false,
        });
    }

    mark_test_regions(&mut lines);
    ScannedFile { lines }
}

/// Does a raw string start at `i` (an `r`/`br` prefix followed by `#…"`)?
/// Returns the number of `#`s in the delimiter.
fn raw_string_at(chars: &[char], i: usize) -> Option<u8> {
    let prev_is_ident = i > 0 && is_ident_char(chars[i - 1]);
    if prev_is_ident {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u8;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Length of the raw-string prefix (`r#…#"`, `br…`) through the opening
/// quote, assuming [`raw_string_at`] matched at `i`.
fn raw_prefix_len(chars: &[char], i: usize) -> usize {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // 'r'
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    j + 1 - i // opening quote
}

/// Does position `i` (just past a closing `"`) carry `hashes` `#`s?
fn closes_raw(chars: &[char], i: usize, hashes: u8) -> bool {
    (0..hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If a char (or byte-char) literal starts at `i` (which holds `'`),
/// return the index just past its closing quote; `None` for a lifetime.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = i + 2;
            while j < chars.len() {
                if chars[j] == '\\' {
                    j += 2;
                } else if chars[j] == '\'' {
                    return Some(j + 1);
                } else {
                    j += 1;
                }
            }
            None
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 3),
        _ => None,
    }
}

/// Is `c` part of an identifier?
#[must_use]
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets where `needle` occurs in `code` as a standalone token
/// (not embedded in a longer identifier).
#[must_use]
pub fn token_positions(code: &str, needle: &str) -> Vec<usize> {
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

/// Mark every line inside a `#[cfg(test)]` item. An attribute arms a
/// pending flag; the next `{` at any depth opens the test region, which
/// closes when brace depth returns below it. A `;` before any `{`
/// (e.g. `#[cfg(test)] use x;` or `#[cfg(test)] mod tests;`) disarms the
/// flag — the item had no body in this file.
fn mark_test_regions(lines: &mut [ScannedLine]) {
    let mut depth: i64 = 0;
    let mut test_open_depths: Vec<i64> = Vec::new();
    let mut pending = false;
    for line in lines.iter_mut() {
        line.in_test = !test_open_depths.is_empty();
        if line.code.contains("#[cfg(test)]") {
            pending = true;
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        test_open_depths.push(depth);
                        pending = false;
                        // The line opening the test item is part of it.
                        line.in_test = true;
                    }
                }
                '}' => {
                    if test_open_depths.last() == Some(&depth) {
                        test_open_depths.pop();
                    }
                    depth -= 1;
                }
                ';' if pending && test_open_depths.is_empty() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked_out_of_code() {
        let f = scan(concat!(
            "let x = \"has .unwrap() inside\"; // and .unwrap() here\n",
            "let y = 1; /* block .unwrap() */ let z = 2;\n",
        ));
        assert!(!f.lines[0].code.contains(".unwrap()"));
        assert!(f.lines[0].comment.contains(".unwrap()"));
        assert!(f.lines[1].code.contains("let z = 2;"));
        assert!(!f.lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn raw_strings_and_escapes_do_not_leak_into_code() {
        let f = scan(concat!(
            "let a = r#\"raw unsafe { } \"quoted\" \"#; let tail = 3;\n",
            "let b = \"esc \\\" still string unsafe {\"; let tail2 = 4;\n",
        ));
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].code.contains("let tail = 3;"));
        assert!(!f.lines[1].code.contains("unsafe"));
        assert!(f.lines[1].code.contains("let tail2 = 4;"));
    }

    #[test]
    fn char_literals_close_but_lifetimes_stay_code() {
        let f = scan("fn f<'a>(x: &'a u8) { let q = '\\''; let brace = '{'; }\n");
        // The '{' literal must not look like an opening brace...
        assert!(!f.lines[0].code.contains("'{'"));
        // ...and the lifetime must survive as code.
        assert!(f.lines[0].code.contains("<'a>"));
    }

    #[test]
    fn multiline_block_comments_span_lines() {
        let f = scan("a(); /* start\nstill comment .unwrap()\nend */ b();\n");
        assert!(f.lines[0].code.contains("a();"));
        assert!(!f.lines[1].has_code());
        assert!(f.lines[1].comment.contains(".unwrap()"));
        assert!(f.lines[2].code.contains("b();"));
    }

    #[test]
    fn cfg_test_regions_cover_mods_and_fns() {
        let src = concat!(
            "fn lib() { x.unwrap(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { y.unwrap(); }\n",
            "}\n",
            "fn lib2() {}\n",
        );
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attribute line counts as test");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test, "closing brace still inside region");
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_on_bodyless_item_disarms_at_semicolon() {
        let src = concat!("#[cfg(test)]\nmod tests;\n", "fn lib() { z(); }\n");
        let f = scan(src);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn doc_comments_are_excluded_from_comment_text() {
        let f = scan(concat!(
            "//! for example `// ag-lint: hot-path — doc text`\n",
            "/// ag-lint: hot-path — also just documentation\n",
            "// ag-lint: hot-path — a live annotation\n",
            "let x = 1; /* block ag-lint: text */\n",
        ));
        assert!(f.lines[0].comment.is_empty());
        assert!(f.lines[1].comment.is_empty());
        assert!(f.lines[2].comment.contains("a live annotation"));
        assert!(
            f.lines[3].comment.contains("ag-lint:"),
            "block comments are plain"
        );
    }

    #[test]
    fn attr_only_lines_are_recognized() {
        let f = scan("#[cfg(test)]\n#[allow(dead_code)] // note\nlet x = 1;\n");
        assert!(f.lines[0].is_attr_only());
        assert!(f.lines[1].is_attr_only());
        assert!(!f.lines[2].is_attr_only());
    }
}
