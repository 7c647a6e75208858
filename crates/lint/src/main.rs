//! The `ag-lint` CLI.
//!
//! ```text
//! ag-lint [--write-inventory]
//! ```
//!
//! Lints the workspace it was built in and checks `UNSAFE_INVENTORY.md`
//! for drift. Exit codes: 0 clean, 1 findings or inventory drift, 2
//! usage or I/O error.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ag_lint::policy::INVENTORY_PATH;

#[allow(
    clippy::disallowed_methods,
    reason = "a command-line tool reads its arguments"
)]
fn main() -> ExitCode {
    let mut write_inventory = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write-inventory" => write_inventory = true,
            "--help" | "-h" => {
                println!("usage: ag-lint [--write-inventory]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!(
                    "ag-lint: unknown argument `{other}`\nusage: ag-lint [--write-inventory]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let root = ag_lint::workspace_root();
    let report = match ag_lint::run(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ag-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }

    let inv_path = root.join(INVENTORY_PATH);
    let mut drift = false;
    if write_inventory {
        if let Err(e) = std::fs::write(&inv_path, &report.inventory) {
            eprintln!("ag-lint: cannot write {}: {e}", inv_path.display());
            return ExitCode::from(2);
        }
        println!("ag-lint: wrote {INVENTORY_PATH}");
    } else {
        let on_disk = std::fs::read_to_string(&inv_path).unwrap_or_default();
        if on_disk != report.inventory {
            drift = true;
            println!(
                "{INVENTORY_PATH}: inventory drift: the committed file does not match the \
                 unsafe sites in the tree — run `cargo run -p ag-lint -- \
                 --write-inventory` and commit the result"
            );
        }
    }

    println!(
        "ag-lint: {} finding(s) across {} file(s), {} waiver(s) honored{}",
        report.findings.len(),
        report.files_scanned,
        report.waivers_honored,
        if drift { ", inventory DRIFTED" } else { "" }
    );
    if report.findings.is_empty() && !drift {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
