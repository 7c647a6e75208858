//! Records the compiler that built the benchmark, for the environment
//! header of every result file.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=AG_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
