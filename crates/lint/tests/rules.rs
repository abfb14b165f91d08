//! Rule-level tests: drive the lint library against a seeded fixture tree
//! (`tests/fixtures/fixroot/`) and then against the real repository, so
//! `cargo test -p lint` both proves each rule fires and enforces that the
//! workspace itself stays clean. The last test holds the binary to its
//! exit-code contract.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lint::Report;

const FANOUT: &str = "crates/fanout/src/lib.rs";
const POOL: &str = "crates/ebr/src/pool.rs";

fn fixroot() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fixroot")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn fixture_report() -> Report {
    lint::run(&fixroot()).expect("fixture scan")
}

#[test]
fn atomic_shim_fires_in_protocol_crate() {
    let rep = fixture_report();
    for file in [FANOUT, POOL] {
        assert!(
            rep.violations
                .iter()
                .any(|f| f.rule == "atomic-shim" && f.file == file && f.line == 4),
            "expected an atomic-shim violation at {file}:4, got {:?}",
            rep.violations
        );
    }
}

#[test]
fn relaxed_without_annotation_fires_and_annotated_does_not() {
    let rep = fixture_report();
    let relaxed: Vec<_> = rep
        .violations
        .iter()
        .filter(|f| f.rule == "relaxed-ordering")
        .collect();
    assert_eq!(
        relaxed.len(),
        1,
        "exactly the unannotated site: {relaxed:?}"
    );
    assert_eq!((relaxed[0].file.as_str(), relaxed[0].line), (FANOUT, 12));
}

#[test]
fn safety_rule_buckets_debt_and_annotated_per_crate() {
    let rep = fixture_report();
    let unannotated: Vec<_> = rep
        .violations
        .iter()
        .filter(|f| f.rule == "safety-comment")
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        unannotated,
        [(FANOUT, 22), ("crates/util/src/lib.rs", 12)],
        "SAFETY rule is workspace-wide; test-tier unsafe (ebr) is exempt"
    );
}

/// The `guard-deref` violations in `file`, as line numbers.
fn guard_derefs(rep: &Report, file: &str) -> Vec<usize> {
    rep.violations
        .iter()
        .filter(|f| f.rule == "guard-deref" && f.file == file)
        .map(|f| f.line)
        .collect()
}

#[test]
fn guard_deref_denies_without_pin_evidence() {
    let rep = fixture_report();
    assert_eq!(
        guard_derefs(&rep, FANOUT),
        [22],
        "the deref under a `Guard` parameter (line 28) stays clean"
    );
}

#[test]
fn guard_deref_is_deny_tier_in_the_crates_the_bat_bug_lives_in() {
    let rep = fixture_report();
    assert_eq!(
        guard_derefs(&rep, "crates/core/src/lib.rs"),
        [18],
        "the `fn from_raw` header and the `// guard:`-annotated deref stay clean"
    );
}

#[test]
fn cfg_test_regions_are_exempt_inline_and_out_of_line() {
    let rep = fixture_report();
    let hits = |file_frag: &str| {
        rep.violations
            .iter()
            .filter(|f| f.file.contains(file_frag))
            .count()
    };
    assert_eq!(
        hits("shadow.rs"),
        0,
        "out-of-line `#[cfg(test)] mod shadow;` file"
    );
    assert!(
        !rep.violations
            .iter()
            .any(|f| f.file == FANOUT && f.line >= 31),
        "inline `#[cfg(test)] mod tests` body"
    );
}

#[test]
fn non_protocol_crate_skips_shim_and_ordering_rules() {
    let rep = fixture_report();
    assert!(
        !rep.violations
            .iter()
            .any(|f| f.file.starts_with("crates/util/") && f.rule != "safety-comment"),
        "util is not a protocol crate"
    );
}

#[test]
fn real_repo_is_clean() {
    let rep = lint::run(&repo_root()).expect("workspace scan");
    assert!(
        rep.violations.is_empty(),
        "workspace must lint clean: {:#?}",
        rep.violations
    );
}

/// Exit codes of the binary run from outside any checkout, with no cargo
/// environment: it lints the checkout it was built from by default, and a
/// root with nothing to lint or an unknown flag is a usage error.
#[test]
fn binary_exit_codes_do_not_depend_on_the_working_directory() {
    let empty = std::env::temp_dir().join(format!("lint-empty-root-{}", std::process::id()));
    fs::create_dir_all(&empty).expect("empty root");
    let fixroot = fixroot();
    let cases: [(&[&Path], i32); 4] = [
        (&[], 0),
        (&[Path::new("--root"), &fixroot], 1),
        (&[Path::new("--root"), &empty], 2),
        (&[Path::new("--quiet")], 2),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(args)
            .current_dir(std::env::temp_dir())
            .env_remove("CARGO_MANIFEST_DIR")
            .output()
            .expect("run the lint binary");
        assert_eq!(
            out.status.code(),
            Some(want),
            "lint {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    fs::remove_dir(&empty).expect("remove empty root");
}
