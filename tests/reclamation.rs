//! Memory-reclamation integration tests (paper §6): versions, nodes and
//! PropStatus objects must all be retired and eventually freed — no
//! unbounded growth under sustained churn, and no reclamation while
//! snapshots can still reach the memory.

use cbat::{BatMap, BatSet, DelegationPolicy};

// Every test here holds `ebr::own_the_global_epoch()` for its whole body:
// each either stalls the epoch on purpose (a held snapshot, a tree torn
// down between collects) or asserts on `ebr::stats()` deltas.

/// Sustained update churn must not leak: the gap between retired and
/// freed objects stays bounded (by the epoch lag and per-thread bags),
/// rather than growing with the operation count.
#[test]
fn churn_does_not_leak() {
    let _serial = ebr::own_the_global_epoch();
    let map = BatMap::<u64, u64>::new();
    // Warm up and measure the baseline gap.
    for k in 0..500u64 {
        map.insert(k, k);
    }
    ebr::flush();
    ebr::flush();
    let s0 = ebr::stats();

    // Heavy churn: every op retires nodes and versions.
    const ROUNDS: u64 = 8;
    const OPS: u64 = 4_000;
    let mut gaps = Vec::new();
    for r in 0..ROUNDS {
        for i in 0..OPS {
            let k = (r * OPS + i) % 1_000;
            if i % 2 == 0 {
                map.insert(k, k);
            } else {
                map.remove(&k);
            }
        }
        ebr::flush();
        ebr::flush();
        let s = ebr::stats();
        gaps.push(s.retired - s.freed);
    }
    let s1 = ebr::stats();
    assert!(
        s1.retired > s0.retired + (ROUNDS * OPS) as usize / 4,
        "churn must retire many objects (retired {} -> {})",
        s0.retired,
        s1.retired
    );
    // The outstanding gap must be bounded, not proportional to total ops.
    let max_gap = *gaps.iter().max().unwrap();
    assert!(
        max_gap < 20_000,
        "unreclaimed gap {max_gap} grows with op count: {gaps:?}"
    );
}

/// A live snapshot pins its version tree: reclamation of versions it can
/// reach is deferred until the snapshot is dropped — meanwhile the
/// snapshot must stay readable and exactly consistent.
#[test]
fn snapshot_blocks_reclamation_of_its_versions() {
    let _serial = ebr::own_the_global_epoch();
    let set = BatSet::<u64>::new();
    for k in 0..2_000u64 {
        set.insert(k);
    }
    let snap = set.snapshot();
    // Replace essentially every version in the tree many times over.
    for round in 0..5u64 {
        for k in 0..2_000u64 {
            set.remove(&k);
            set.insert(k + (round + 1) * 10_000);
            set.remove(&(k + (round + 1) * 10_000));
            set.insert(k);
        }
        ebr::collect();
    }
    // The old snapshot still reads perfectly.
    assert_eq!(snap.len(), 2_000);
    for probe in (0..2_000u64).step_by(97) {
        assert!(snap.contains(&probe), "snapshot lost key {probe}");
    }
    assert_eq!(snap.rank(&1_999), 2_000);
    drop(snap);
    ebr::flush();
    ebr::flush();
    let s = ebr::stats();
    assert!(s.freed > 0);
}

/// PropStatus objects (delegation variants) are retired at propagate end;
/// delegation-heavy runs must not leak them either.
#[test]
fn delegation_objects_reclaimed() {
    let _serial = ebr::own_the_global_epoch();
    use std::sync::Arc;
    let s0 = ebr::stats();
    let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::EagerDel));
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let set = set.clone();
            std::thread::spawn(move || {
                for i in 0..4_000u64 {
                    let k = (t + i * 7) % 32; // tiny space: heavy conflicts
                    if i % 2 == 0 {
                        set.insert(k);
                    } else {
                        set.remove(&k);
                    }
                }
                ebr::flush();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    ebr::flush();
    ebr::flush();
    let s1 = ebr::stats();
    let outstanding = (s1.retired - s1.freed) as i64 - (s0.retired - s0.freed) as i64;
    assert!(
        outstanding < 20_000,
        "delegation run leaked {outstanding} objects"
    );
    // Every propagate allocated a PropStatus: 6 threads x 4000 ops, all
    // must have been retired through the normal path (no crash = pass,
    // plus the bound above).
    assert_eq!(set.as_map().stats.snapshot().propagates, 6 * 4_000);
}

/// Dropping a whole tree frees it without touching EBR correctness.
#[test]
fn tree_drop_is_clean() {
    let _serial = ebr::own_the_global_epoch();
    for _ in 0..50 {
        let map = BatMap::<u64, u64>::new();
        for k in 0..200u64 {
            map.insert(k, k);
        }
        for k in (0..200u64).step_by(2) {
            map.remove(&k);
        }
        drop(map);
        ebr::collect();
    }
    ebr::flush();
}

/// The retire/free counters and the `BatStats` and `TreeStats` stripes
/// are per-thread words their owner bumps with a plain load + store, and
/// sequentially spawned threads reuse one EBR slot — and so one stripe of
/// each and one pair of counters: every hand-off must carry the totals
/// over exactly. Lost `propagates` bumps show in the count, lost
/// `scx_commits` bumps against the updates that succeeded plus the
/// rebalancing steps they caused; a lost `retired` or `freed` bump shows
/// once the process is quiescent and the limbo is empty, where the two
/// totals must meet.
#[test]
fn counters_stay_exact_across_slot_reuse() {
    let _serial = ebr::own_the_global_epoch();
    use std::sync::Arc;
    const THREADS: u64 = 64;
    const UPDATES: u64 = 100;
    let set = Arc::new(BatSet::<u64>::new());
    let mut changed = 0u64;
    for t in 0..THREADS {
        let set = set.clone();
        changed += std::thread::spawn(move || {
            let mut changed = 0;
            for i in 0..UPDATES {
                let k = t * UPDATES + i;
                changed += if i % 3 == 2 {
                    set.remove(&(k - 1))
                } else {
                    set.insert(k)
                } as u64;
            }
            changed
        })
        .join()
        .unwrap();
    }
    assert_eq!(set.stats().snapshot().propagates, THREADS * UPDATES);
    let tree = set.as_map().node_tree().stats.snapshot();
    assert_eq!(
        tree.scx_commits,
        changed + tree.rebalance_steps.iter().sum::<u64>()
    );
    drop(set);
    // Nothing is pinned and every worker has exited, so each flush empties
    // what the last one's frees retired (a freed node retires its version).
    let mut s = ebr::stats();
    for _ in 0..16 {
        if s.retired == s.freed {
            break;
        }
        ebr::flush();
        s = ebr::stats();
    }
    assert!(s.retired > (THREADS * UPDATES) as usize);
    assert_eq!(
        s.retired, s.freed,
        "the limbo is empty, so the counters must agree: {s:?}"
    );
}
