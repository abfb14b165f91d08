//! A/A comparison: two sets of runs of the same build, every end-to-end
//! metric's difference between the sets' medians, and its spread within
//! each set, against the metric's bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::catalog::{self, Better, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, relative_spread};

/// workload → metric → one value per run, read from the saved output of
/// runs named `<workload>.<n>.txt` in `dir` (`name value unit` lines).
fn read_set(dir: &Path) -> std::io::Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>> {
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut files: Vec<_> = fs::read_dir(dir)?.flatten().map(|e| e.path()).collect();
    files.sort();
    for path in files {
        let Some(stem) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(workload) = WORKLOADS
            .iter()
            .map(|w| w.name)
            .find(|w| stem.starts_with(&format!("{w}.")) && stem.ends_with(".txt"))
        else {
            continue;
        };
        for line in fs::read_to_string(&path)?.lines() {
            let mut words = line.split_whitespace();
            let (Some(name), Some(value)) = (words.next(), words.next()) else {
                continue;
            };
            if let (Some(_), Ok(v)) = (catalog::end_to_end(name), value.parse::<f64>()) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.to_string())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Compare the sets in `a` and `b`; print the table, write `out` (JSON),
/// and say whether every metric on every workload stayed within its bound.
pub fn compare(a: &Path, b: &Path, out: &Path) -> std::io::Result<bool> {
    let (set_a, set_b) = (read_set(a)?, read_set(b)?);
    let mut json = String::from("{\n  \"host\": ");
    json.push_str(&crate::host::fingerprint_json());
    json.push_str(",\n  \"rows\": [\n");
    let mut all_within = true;
    let mut first = true;
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        if !set_a.contains_key(w) && !set_b.contains_key(w) {
            continue; // `run.sh --aa --workload NAME` runs one
        }
        for m in &END_TO_END {
            let empty = Vec::new();
            let va = set_a.get(w).and_then(|s| s.get(m.name)).unwrap_or(&empty);
            let vb = set_b.get(w).and_then(|s| s.get(m.name)).unwrap_or(&empty);
            if va.is_empty() || vb.is_empty() {
                println!("{w:<14} {:<13} missing from one set", m.name);
                all_within = false;
                continue;
            }
            let (med_a, med_b) = (quartiles(va).1, quartiles(vb).1);
            // Positive = B is worse than A, as a share of A.
            let worse = match m.better {
                Better::Lower => (med_b - med_a) / med_a,
                Better::Higher => (med_a - med_b) / med_a,
            };
            let (spread_a, spread_b) = (relative_spread(va), relative_spread(vb));
            // setup_s is held to the median test only, like the driver does.
            let spread_ok = m.name == "setup_s" || (spread_a <= m.bound && spread_b <= m.bound);
            let within = worse.abs() <= m.bound && spread_ok;
            all_within &= within;
            println!(
                "{w:<14} {:<13} {med_a:>14.4} {med_b:>14.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                m.name,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0,
                if within { "within" } else { "MISSES" }
            );
            let _ = write!(
                json,
                "{}    {{\"workload\": \"{w}\", \"metric\": \"{}\", \"unit\": \"{}\", \"runs_per_set\": {}, \"median_a\": {med_a}, \"median_b\": {med_b}, \"b_worse_by\": {worse}, \"spread_a\": {spread_a}, \"spread_b\": {spread_b}, \"bound\": {}, \"within\": {within}, \"values_a\": {va:?}, \"values_b\": {vb:?}}}",
                if first { "" } else { ",\n" },
                m.name,
                m.unit,
                va.len().min(vb.len()),
                m.bound
            );
            first = false;
        }
    }
    let _ = write!(json, "\n  ],\n  \"all_within\": {all_within}\n}}\n");
    fs::write(out, json)?;
    Ok(all_within)
}
