//! `warm_up` is a hint: whatever tree it walks, it does no protocol work —
//! no `BatStats` counter moves, nothing is retired, nothing leaves or
//! enters the pool — and the map reads the same afterwards.
//!
//! One `#[test]` in this file, so that `ebr::stats()` (process-global) and
//! this thread's pool counters see no other test's work.

use cbat_core::propagate::warm_up;
use cbat_core::BatMap;
use chromatic::SentKey;

#[test]
fn warm_up_moves_no_counter_and_retires_nothing() {
    // Empty, one key, and deep enough that every step has a real sibling.
    for n in [0u64, 1, 10_000] {
        let map = BatMap::<u64, u64>::new();
        for k in 0..n {
            map.insert(2 * k + 1, k);
        }
        let core = map.stats.snapshot();
        let retired = ebr::stats().retired;
        let pool = ebr::pool::local_stats();
        {
            let guard = ebr::pin();
            // Present, absent, below and above every key.
            for k in [1, 2, 0, n, 2 * n + 1, u64::MAX] {
                warm_up(map.node_tree().entry(), &SentKey::Key(k), &guard);
            }
        }
        assert_eq!(map.stats.snapshot(), core, "{n} keys");
        assert_eq!(ebr::stats().retired, retired, "{n} keys");
        assert_eq!(ebr::pool::local_stats(), pool, "{n} keys");
        assert_eq!(map.len(), n);
        assert_eq!(map.rank(&u64::MAX), n);
    }
}
