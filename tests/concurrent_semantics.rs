//! Cross-crate integration tests: concurrent semantics of the augmented
//! trees under multi-threaded workloads, checked against per-thread
//! bookkeeping and snapshot self-consistency invariants.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cbat::workloads::Xorshift;
use cbat::{BatMap, BatSet, DelegationPolicy, SumAug};

fn all_policies() -> Vec<DelegationPolicy> {
    vec![
        DelegationPolicy::None,
        DelegationPolicy::Del,
        DelegationPolicy::EagerDel,
    ]
}

/// Disjoint key ranges per thread: final state must equal the union of
/// per-thread expectations, for every balanced variant and for FR-BST.
#[test]
fn final_state_matches_per_thread_oracles() {
    let configs = all_policies()
        .into_iter()
        .map(|p| (p.name(), BatMap::<u64, u64>::with_policy(p)))
        .chain([("FR-BST", BatMap::<u64, u64>::new_unbalanced())]);
    for (config, map) in configs {
        let map = Arc::new(map);
        const THREADS: u64 = 6;
        const RANGE: u64 = 700;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = map.clone();
                std::thread::spawn(move || {
                    let base = t * RANGE;
                    let mut rng = Xorshift::new(t + 1);
                    let mut mine = BTreeSet::new();
                    for _ in 0..3_000 {
                        let k = base + rng.below(RANGE);
                        if rng.next_u64() & 1 == 0 {
                            assert_eq!(map.insert(k, k * 2), mine.insert(k), "{config}");
                        } else {
                            assert_eq!(map.remove(&k), mine.remove(&k), "{config}");
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut expect = BTreeSet::new();
        for h in handles {
            expect.extend(h.join().unwrap());
        }
        let snap = map.snapshot();
        let got: Vec<u64> = snap.keys();
        let want: Vec<u64> = expect.iter().copied().collect();
        assert_eq!(got, want, "{config}");
        assert_eq!(snap.len(), want.len() as u64, "{config}");
        // Values survived too.
        for &k in expect.iter().take(50) {
            assert_eq!(map.get(&k), Some(k * 2), "{config}");
        }
        ebr::flush();
    }
}

/// Snapshot monotonicity under insert-only load, plus internal consistency
/// of every snapshot taken mid-flight.
#[test]
fn snapshots_consistent_under_churn() {
    let set = Arc::new(BatSet::<u64>::new());
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let set = set.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut k = t;
            while !stop.load(Ordering::Relaxed) {
                set.insert(k);
                k += 4;
            }
            k / 4
        }));
    }
    let mut last = 0u64;
    for _ in 0..200 {
        let snap = set.snapshot();
        let n = snap.len();
        assert!(n >= last, "insert-only sizes must be monotone");
        last = n;
        if n > 1 {
            // rank/select round-trip on the frozen snapshot.
            let mid = n / 2;
            let (k, _) = snap.select(mid).unwrap();
            assert_eq!(snap.rank(&k), mid + 1);
            assert!(snap.contains(&k));
            // Range count over everything equals len.
            let (max_k, _) = snap.select(n - 1).unwrap();
            assert_eq!(snap.range_count(&0, &max_k), n);
        }
    }
    stop.store(true, Ordering::SeqCst);
    for w in writers {
        w.join().unwrap();
    }
    ebr::flush();
}

/// A mixed read/write stress where range counts are cross-checked between
/// the augmented fast path and a brute-force traversal of the same
/// snapshot: both must agree exactly (they see the same frozen tree).
#[test]
fn range_count_agrees_with_snapshot_scan() {
    let set = Arc::new(BatSet::<u64>::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let set = set.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut rng = Xorshift::new(5);
            while !stop.load(Ordering::Relaxed) {
                let k = rng.below(5_000);
                if rng.next_u64() & 1 == 0 {
                    set.insert(k);
                } else {
                    set.remove(&k);
                }
            }
        })
    };
    let mut rng = Xorshift::new(6);
    for _ in 0..300 {
        let lo = rng.below(4_000);
        let hi = lo + rng.below(1_000);
        let snap = set.snapshot();
        let fast = snap.range_count(&lo, &hi);
        let slow = snap
            .keys()
            .into_iter()
            .filter(|k| *k >= lo && *k <= hi)
            .count() as u64;
        assert_eq!(fast, slow, "[{lo},{hi}]");
    }
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
    ebr::flush();
}

/// Aggregation invariant under concurrency: with SumAug and value == key,
/// a quiescent aggregate equals the sum of the final key set.
#[test]
fn sum_aggregate_converges() {
    let map = Arc::new(BatMap::<u64, u64, SumAug>::new());
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let base = t * 10_000;
                for i in 0..1_000 {
                    map.insert(base + i, base + i);
                }
                for i in (0..1_000).step_by(3) {
                    map.remove(&(base + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = map.snapshot();
    let brute: u64 = snap.iter().map(|(_, v)| v).sum();
    assert_eq!(map.aggregate(), brute);
    assert_eq!(snap.len() as usize, snap.keys().len());
    ebr::flush();
}

/// FR-BST and BAT run the identical workload concurrently (per-thread
/// disjoint ranges) and must converge to identical sets.
#[test]
fn frbst_and_bat_converge_identically() {
    let bat = Arc::new(BatSet::<u64>::new());
    let fr = Arc::new(cbat::FrSet::<u64>::new());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let bat = bat.clone();
            let fr = fr.clone();
            std::thread::spawn(move || {
                let mut rng = Xorshift::new(100 + t);
                let base = t * 500;
                for _ in 0..2_000 {
                    let k = base + rng.below(500);
                    if rng.next_u64() & 1 == 0 {
                        bat.insert(k);
                        fr.insert(k);
                    } else {
                        bat.remove(&k);
                        fr.remove(&k);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(bat.len(), fr.len());
    assert_eq!(bat.snapshot().keys(), fr.as_map().snapshot().keys());
    ebr::flush();
}

/// Delegation with a stalled delegatee: the timeout fallback must keep
/// other threads progressing (failure-injection for §5's blocking note).
#[test]
fn delegation_timeout_survives_stalls() {
    // A tiny key space maximizes refresh conflicts (everyone shares the
    // top of the tree), and stalls longer than the 2 ms
    // `DELEGATION_TIMEOUT` force the fallback path.
    let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::EagerDel));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let set = set.clone();
            std::thread::spawn(move || {
                let mut rng = Xorshift::new(t);
                for _ in 0..2_000 {
                    let k = rng.below(16);
                    if rng.next_u64() & 1 == 0 {
                        set.insert(k);
                    } else {
                        set.remove(&k);
                    }
                    if rng.below(97) == 0 {
                        // Simulated stall while (possibly) being someone's
                        // delegatee.
                        std::thread::sleep(std::time::Duration::from_millis(3));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = set.snapshot();
    assert_eq!(snap.len(), snap.keys().len() as u64);
    ebr::flush();
}

/// The node tree stays a valid chromatic tree after heavy concurrency.
#[test]
fn node_tree_invariants_after_stress() {
    let map = Arc::new(BatMap::<u64, ()>::new());
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let mut rng = Xorshift::new(t * 3 + 1);
                for _ in 0..2_500 {
                    let k = rng.below(1_024);
                    if rng.next_u64() & 1 == 0 {
                        map.insert(k, ());
                    } else {
                        map.remove(&k);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let guard = ebr::pin();
    map.node_tree().cleanup_everywhere(&guard);
    drop(guard);
    let shape = map
        .node_tree()
        .validate(true)
        .expect("chromatic invariants");
    assert_eq!(shape.keys as u64, map.len());
    ebr::flush();
}
