//! The `ag-lint` CLI.
//!
//! ```text
//! ag-lint
//! ```
//!
//! Lints the workspace it was built in; it takes no arguments. Exit
//! codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::process::ExitCode;

#[allow(
    clippy::disallowed_methods,
    reason = "a command-line tool reads its arguments"
)]
fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("ag-lint: unknown argument `{arg}`\nusage: ag-lint (no arguments)");
        return ExitCode::from(2);
    }

    let report = match ag_lint::run(ag_lint::workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ag-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    println!(
        "ag-lint: {} finding(s) across {} file(s)",
        report.findings.len(),
        report.files_scanned
    );
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
