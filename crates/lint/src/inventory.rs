//! `UNSAFE_INVENTORY.md` generation and drift checking.
//!
//! The audit's second half: beyond requiring a `// SAFETY:` comment at
//! every unsafe site, the tool renders all sites into one committed
//! markdown table (file, line, kind, justification excerpt). CI
//! regenerates the table and fails on any difference, so the inventory
//! can never drift from the code: adding, moving or rewording an unsafe
//! site forces `ag-lint --write-inventory` and makes the change visible
//! in review as a diff of the inventory itself.

use crate::index::FileIndex;
use crate::rules::{bounds_summary, unsafe_sites, UnsafeSite};
use crate::scan::ScannedFile;

/// Longest justification excerpt kept in the table.
const EXCERPT_MAX: usize = 180;

/// Render the inventory for `(path, scanned-file, index)` triples, sorted
/// by path.
#[must_use]
pub fn render(files: &[(String, ScannedFile, FileIndex)]) -> String {
    // Site row plus its bounds-provenance columns: pointer ops performed
    // in the span, and the len/bound identifiers its SAFETY comment cites.
    let mut rows: Vec<(String, UnsafeSite, String, String)> = Vec::new();
    for (path, file, idx) in files {
        for site in unsafe_sites(file) {
            let (ops, cited) = match bounds_summary(file, idx, site.line) {
                Some((ops, _)) if ops.is_empty() => ("—".to_owned(), "—".to_owned()),
                Some((ops, cited)) => {
                    let cited = if cited.is_empty() {
                        "**NONE** (fails `bounds-provenance`)".to_owned()
                    } else {
                        code_list(&cited)
                    };
                    (code_list(&ops), cited)
                }
                // No braced span: `unsafe impl`/`unsafe trait` have no
                // body to do pointer arithmetic in.
                None => ("—".to_owned(), "—".to_owned()),
            };
            rows.push((path.clone(), site, ops, cited));
        }
    }

    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Generated by `cargo run -p ag-lint -- --write-inventory`. Do not edit by\n\
         hand: CI regenerates this table and fails on any drift, so every\n\
         `unsafe` site added, moved or re-justified must re-run the generator.\n\
         The justification column is the site's `// SAFETY:` comment (excerpted);\n\
         the `unsafe-audit` lint guarantees it is never empty. The `Ptr ops`\n\
         column lists pointer-arithmetic / unchecked-access constructs in the\n\
         span, and `Bounds cited` the len/bound identifiers from the enclosing\n\
         scope that the SAFETY comment names (the `bounds-provenance` lint\n\
         requires at least one whenever `Ptr ops` is non-empty).\n\n",
    );
    out.push_str(&format!("Total sites: {}\n\n", rows.len()));
    out.push_str("| # | Site | Kind | Ptr ops | Bounds cited | Justification |\n");
    out.push_str("|--:|------|------|---------|--------------|---------------|\n");
    for (i, (path, site, ops, cited)) in rows.iter().enumerate() {
        let justification = match &site.justification {
            Some(text) => excerpt(text),
            None => "**UNDOCUMENTED** (fails `unsafe-audit`)".to_owned(),
        };
        out.push_str(&format!(
            "| {} | `{}:{}` | {} | {} | {} | {} |\n",
            i + 1,
            path,
            site.line,
            site.kind,
            ops,
            cited,
            justification
        ));
    }
    out
}

/// Comma-joined code-formatted list cell.
fn code_list<S: AsRef<str>>(items: &[S]) -> String {
    items
        .iter()
        .map(|s| format!("`{}`", s.as_ref()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One table cell: whitespace collapsed, pipes escaped, truncated.
fn excerpt(text: &str) -> String {
    let mut s = text
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .replace('|', "\\|");
    if s.len() > EXCERPT_MAX {
        let mut cut = EXCERPT_MAX;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    #[test]
    fn renders_sites_with_excerpts_and_flags_undocumented() {
        let documented = scan(concat!(
            "// SAFETY: len | is checked above\n",
            "unsafe { go(); }\n",
        ));
        let undocumented = scan("unsafe impl Sync for T {}\n");
        let di = crate::index::index_file(&documented);
        let ui = crate::index::index_file(&undocumented);
        let files = vec![
            ("a.rs".to_owned(), documented, di),
            ("b.rs".to_owned(), undocumented, ui),
        ];
        let md = render(&files);
        assert!(md.contains("Total sites: 2"));
        assert!(
            md.contains("| 1 | `a.rs:2` | block | — | — | len \\| is checked above |"),
            "{md}"
        );
        assert!(md.contains("| 2 | `b.rs:1` | impl | — | — | **UNDOCUMENTED**"));
    }

    #[test]
    fn pointer_ops_and_cited_bounds_fill_the_new_columns() {
        let src = concat!(
            "fn f(xs: &[u8]) -> u8 {\n",
            "    let n = xs.len();\n",
            "    // SAFETY: i < n is checked by the loop bound above.\n",
            "    unsafe { *xs.get_unchecked(0).add(0) }\n",
            "}\n",
        );
        let file = scan(src);
        let idx = crate::index::index_file(&file);
        let files = vec![("a.rs".to_owned(), file, idx)];
        let md = render(&files);
        assert!(md.contains("`get_unchecked`, `add`"), "{md}");
        assert!(md.contains("| `n` |"), "{md}");
    }

    #[test]
    fn long_justifications_truncate_on_char_boundaries() {
        let long = "é".repeat(400);
        let e = excerpt(&long);
        assert!(e.ends_with('…'));
        assert!(e.len() <= EXCERPT_MAX + '…'.len_utf8());
    }
}
