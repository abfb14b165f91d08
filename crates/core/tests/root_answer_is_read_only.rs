//! An update the root's version answers — an insert of a present key, a
//! remove of an absent one — is read-only: whatever tree it walks, it
//! counts one root answer and does no other protocol work. No other
//! `BatStats` counter moves, nothing is retired, nothing leaves or enters
//! the pool, and the map reads the same afterwards.
//!
//! One `#[test]` in this file, so that `ebr::stats()` (process-global) and
//! this thread's pool counters see no other test's work.

use cbat_core::{BatMap, SizeOnly, StatsSnapshot, LEAF_KEYS};

fn root_answer_moves_one_counter_and_retires_nothing_at<const B: usize>() {
    // Empty, one key, and deep enough that every step has a real sibling.
    for n in [0u64, 1, 10_000] {
        let map = BatMap::<u64, u64, SizeOnly, B>::new();
        for k in 0..n {
            map.insert(2 * k + 1, k);
        }
        let retired = ebr::stats().retired;
        let pool = ebr::pool::local_stats();
        // Present, absent, below and above every key.
        for k in [1, 2, 0, n, 2 * n + 1, u64::MAX] {
            let present = k % 2 == 1 && k < 2 * n;
            let before = map.stats.snapshot();
            if present {
                assert!(!map.insert(k, u64::MAX), "{n} keys: insert of present {k}");
            } else {
                assert!(!map.remove(&k), "{n} keys: remove of absent {k}");
            }
            assert_eq!(
                map.stats.snapshot().delta(&before),
                StatsSnapshot {
                    root_answers: 1,
                    ..StatsSnapshot::default()
                },
                "{n} keys, key {k}"
            );
        }
        assert_eq!(ebr::stats().retired, retired, "{n} keys");
        assert_eq!(ebr::pool::local_stats(), pool, "{n} keys");
        assert_eq!(map.len(), n);
        assert_eq!(map.rank(&u64::MAX), n);
        assert_eq!(
            map.get(&1),
            (n > 0).then_some(0),
            "a present key keeps its value"
        );
    }
}

#[test]
fn root_answer_moves_one_counter_and_retires_nothing() {
    root_answer_moves_one_counter_and_retires_nothing_at::<1>();
    root_answer_moves_one_counter_and_retires_nothing_at::<LEAF_KEYS>();
}
