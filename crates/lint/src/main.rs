//! `cargo run -p lint` — run the concurrency-discipline rules over the
//! workspace.
//!
//! Flags:
//! - `--root PATH`   workspace root (default: nearest ancestor with `lint/`,
//!   falling back to the manifest's grandparent — works from any cwd)
//! - `--json PATH`   also write the machine-readable violation inventory
//! - `--bless`       rewrite `lint/relaxed-inventory.tsv` from the current
//!   scan instead of diffing
//! - `--quiet`       suppress the per-finding listing (summary only)
//!
//! Exit codes: 0 clean, 1 violations or ratchet drift, 2 config error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use lint::{
    diff_ratchet, parse_counts, render_counts, run, to_json, Finding, RELAXED_INVENTORY_PATH,
};

fn find_root() -> PathBuf {
    // Prefer CARGO_MANIFEST_DIR (set by `cargo run`): crates/lint/../..
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            return root.to_path_buf();
        }
    }
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

fn print_findings(label: &str, items: &[Finding]) {
    for f in items {
        if f.line > 0 {
            eprintln!("{label} [{}] {}:{}: {}", f.rule, f.file, f.line, f.message);
        } else {
            eprintln!("{label} [{}] {}", f.rule, f.message);
        }
    }
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut bless = false;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            "--bless" => bless = true,
            "--quiet" | "-q" => quiet = true,
            other => {
                eprintln!("lint: unknown flag `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_root);

    let rep = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut ratchet_findings = Vec::new();
    if bless {
        let inv = render_counts(
            "Relaxed atomic sites per file (protocol crates, non-test code)",
            &rep.relaxed_inventory,
        );
        if let Err(e) = fs::write(root.join(RELAXED_INVENTORY_PATH), inv) {
            eprintln!("lint: writing {RELAXED_INVENTORY_PATH}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("lint: blessed {RELAXED_INVENTORY_PATH}");
    } else {
        let committed = match fs::read_to_string(root.join(RELAXED_INVENTORY_PATH)) {
            Ok(t) => parse_counts(&t),
            Err(e) => {
                eprintln!(
                    "lint: cannot read {RELAXED_INVENTORY_PATH}: {e} (run with --bless to create it)"
                );
                return ExitCode::from(2);
            }
        };
        ratchet_findings = diff_ratchet(
            "relaxed-inventory",
            RELAXED_INVENTORY_PATH,
            &rep.relaxed_inventory,
            &committed,
        );
    }

    if let Some(p) = &json_path {
        if let Err(e) = fs::write(p, to_json(&rep, &ratchet_findings)) {
            eprintln!("lint: writing {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }

    if !quiet {
        print_findings("error:", &rep.violations);
        print_findings("error:", &ratchet_findings);
    }

    let annotated: usize = rep.safety_annotated.values().sum();
    let relaxed: usize = rep.relaxed_inventory.values().sum();
    eprintln!(
        "lint: {} files scanned; {} violations, {} ratchet diffs, {} allowlisted; \
         {} Relaxed sites inventoried; {} annotated `unsafe` sites",
        rep.files_scanned,
        rep.violations.len(),
        ratchet_findings.len(),
        rep.allowed.len(),
        relaxed,
        annotated,
    );

    if rep.violations.is_empty() && ratchet_findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
