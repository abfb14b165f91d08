//! VcasBST snapshot semantics under concurrency: timestamped reads must
//! be stable, mutually ordered, and agree with quiescent states.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vcas::VcasSet;

#[test]
fn nested_snapshots_are_ordered() {
    let s = VcasSet::new();
    for k in 0..100 {
        s.insert(k);
    }
    let snap_a = s.snapshot();
    for k in 100..200 {
        s.insert(k);
    }
    let snap_b = s.snapshot();
    for k in 0..50 {
        s.remove(k);
    }
    let snap_c = s.snapshot();
    assert_eq!(snap_a.range_count(0, 999), 100);
    assert_eq!(snap_b.range_count(0, 999), 200);
    assert_eq!(snap_c.range_count(0, 999), 150);
    // Old snapshots still intact after later ones were taken.
    assert_eq!(snap_a.range_count(0, 999), 100);
    assert!(snap_a.contains(0));
    assert!(!snap_c.contains(0));
}

#[test]
fn monotone_counts_under_insert_only_writers() {
    let s = Arc::new(VcasSet::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|t| {
            let s = s.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut k = t;
                while !stop.load(Ordering::Relaxed) {
                    s.insert(k);
                    k += 3;
                }
            })
        })
        .collect();
    let mut last = 0;
    for _ in 0..60 {
        let n = s.snapshot().range_count(0, u64::MAX - 2);
        assert!(n >= last, "count regressed: {n} < {last}");
        last = n;
    }
    stop.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    ebr::flush();
}

#[test]
fn long_lived_snapshot_survives_heavy_churn() {
    let s = VcasSet::new();
    for k in 0..1_000 {
        s.insert(k);
    }
    let snap = s.snapshot();
    for round in 0..10u64 {
        for k in 0..1_000 {
            s.remove(k);
            s.insert(k + (round + 1) * 100_000);
            s.remove(k + (round + 1) * 100_000);
            s.insert(k);
        }
    }
    assert_eq!(snap.range_count(0, 10_000), 1_000);
    assert_eq!(snap.range_collect(0, 10).len(), 11);
    ebr::flush();
}

#[test]
fn range_collect_sorted_and_bounded() {
    let s = VcasSet::new();
    for k in (0..500).rev() {
        s.insert(k * 2);
    }
    let snap = s.snapshot();
    let got = snap.range_collect(100, 200);
    let want: Vec<u64> = (50..=100).map(|k| k * 2).collect();
    assert_eq!(got, want);
    assert_eq!(
        snap.range_collect(200, 100),
        [],
        "an inverted range is empty"
    );
}
