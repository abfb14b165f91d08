//! `cargo run -p lint` — run the concurrency-discipline rules over the
//! workspace.
//!
//! One flag: `--root PATH` lints the tree at `PATH`. Without it the binary
//! lints the checkout it was built from (fixed at compile time, so the
//! working directory and the environment do not matter).
//!
//! Exit codes: 0 clean, 1 violations, 2 usage error or a root holding no
//! protocol-crate source.

use std::path::PathBuf;
use std::process::ExitCode;

/// The checkout this binary was built from: `crates/lint/../..`.
const BUILT_FROM: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn main() -> ExitCode {
    let mut root = PathBuf::from(BUILT_FROM);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match (a.as_str(), args.next()) {
            ("--root", Some(path)) => root = PathBuf::from(path),
            _ => {
                eprintln!("lint: usage: lint [--root PATH]");
                return ExitCode::from(2);
            }
        }
    }

    let rep = match lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &rep.violations {
        eprintln!("error: [{}] {}:{}: {}", f.rule, f.file, f.line, f.message);
    }
    eprintln!(
        "lint: {} files scanned; {} violations",
        rep.files_scanned,
        rep.violations.len()
    );
    if rep.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
