//! Rule-level tests: drive the lint library against a seeded fixture tree
//! (`tests/fixtures/fixroot/`) and then against the real repository, so
//! `cargo test -p lint` both proves each rule fires and enforces that the
//! workspace itself stays clean (including the committed ratchet file).

use std::fs;
use std::path::{Path, PathBuf};

use lint::{Allowlist, Report};

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
    assert!(
        rep.violations
            .iter()
            .any(|f| f.rule == "atomic-shim" && f.file == FANOUT && f.line == 4),
        "expected an atomic-shim violation at {FANOUT}:4, got {:?}",
        rep.violations
    );
}

#[test]
fn allowlist_suppresses_with_justification() {
    let rep = fixture_report();
    let (f, just) = rep
        .allowed
        .iter()
        .find(|(f, _)| f.rule == "atomic-shim" && f.file == POOL)
        .expect("pool.rs import should be allowlisted");
    assert_eq!(f.line, 4);
    assert!(
        just.contains("layout probe"),
        "justification carried: {just}"
    );
    assert!(
        !rep.violations.iter().any(|f| f.file == POOL),
        "allowlisted file must not also appear as a violation"
    );
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
fn relaxed_inventory_counts_annotated_and_not() {
    let rep = fixture_report();
    assert_eq!(rep.relaxed_inventory.get(FANOUT), Some(&2));
    assert_eq!(
        rep.relaxed_inventory.len(),
        1,
        "{:?}",
        rep.relaxed_inventory
    );
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
    assert_eq!(rep.safety_annotated.get("fanout"), Some(&1));
    assert_eq!(rep.safety_annotated.get("core"), Some(&3));
    assert_eq!(rep.safety_annotated.get("util"), None);
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
fn ratchet_flags_drift_in_both_directions() {
    let rep = fixture_report();
    let committed = lint::parse_counts(&lint::render_counts("hdr", &rep.relaxed_inventory));
    assert!(lint::diff_ratchet(
        "relaxed-ratchet",
        "x.tsv",
        &rep.relaxed_inventory,
        &committed
    )
    .is_empty());

    let mut fewer = committed.clone();
    fewer.insert(FANOUT.to_string(), 1);
    let up = lint::diff_ratchet("relaxed-ratchet", "x.tsv", &rep.relaxed_inventory, &fewer);
    assert_eq!(up.len(), 1);
    assert!(up[0].message.contains("new sites"), "{}", up[0].message);

    let mut more = committed;
    more.insert(FANOUT.to_string(), 3);
    let down = lint::diff_ratchet("relaxed-ratchet", "x.tsv", &rep.relaxed_inventory, &more);
    assert_eq!(down.len(), 1);
    assert!(down[0].message.contains("--bless"), "{}", down[0].message);
}

#[test]
fn allowlist_rejects_missing_or_short_justification() {
    assert!(Allowlist::parse("atomic-shim\tx.rs\ttoo short").is_err());
    assert!(Allowlist::parse("atomic-shim\tx.rs").is_err());
    assert!(Allowlist::parse("# comment only\n")
        .unwrap()
        .entries
        .is_empty());
}

#[test]
fn real_repo_is_clean_and_ratchets_match() {
    let root = repo_root();
    let rep = lint::run(&root).expect("workspace scan");
    assert!(
        rep.violations.is_empty(),
        "workspace must lint clean: {:#?}",
        rep.violations
    );

    let committed_inv = lint::parse_counts(
        &fs::read_to_string(root.join(lint::RELAXED_INVENTORY_PATH)).expect("inventory file"),
    );
    let drift = lint::diff_ratchet(
        "relaxed-ratchet",
        lint::RELAXED_INVENTORY_PATH,
        &rep.relaxed_inventory,
        &committed_inv,
    );
    assert!(
        drift.is_empty(),
        "ratchet drift — rerun `cargo run -p lint -- --bless`: {drift:#?}"
    );
}
