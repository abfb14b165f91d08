//! Pool ledger: every block the tree takes from `ebr::pool` — nodes and
//! version records — goes back exactly once.
//!
//! The calling thread's pool counters are the ledger: a *hit* or a *miss*
//! is a block acquired, a *recycle* a block returned. A forgotten retire
//! (or a chain `Drop` never walks) leaves the ledger short; a double
//! dispose, or a node both disposed of and retired, overdraws it. One test,
//! so the file is its own process and nothing else touches this thread's
//! pool; single-threaded under the epoch lock, so every retired block is
//! freed here by the final flush.

use vcas::VcasSet;

/// Insert/remove churn over `0..1_000` (at most 1 000 live keys; a block
/// returned to a full free list spills to the pool's depot and is counted
/// all the same). Random keys make the removed leaf's sibling a leaf about
/// as often as an internal node, so both shapes of `remove` run. A
/// snapshot held over the middle of the run keeps superseded records on
/// their chains until the updates after its drop trim them.
fn churn(set: &VcasSet, hold_snapshot: bool) {
    const OPS: usize = 30_000;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut snap = None;
    for i in 0..OPS {
        if hold_snapshot && i == OPS / 2 {
            snap = Some(set.snapshot());
        }
        if i == OPS / 2 + 1_500 {
            snap = None;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x >> 8) % 1_000;
        if x & 1 == 0 {
            set.insert(k);
        } else {
            set.remove(k);
        }
    }
    assert!(snap.is_none());
    assert!(set.len_slow() > 256, "the churn must leave a real tree");
}

#[test]
fn every_pooled_block_goes_back_exactly_once() {
    let _epoch = ebr::own_the_global_epoch();
    let (hits0, misses0, recycled0) = ebr::pool::local_stats();
    for hold_snapshot in [false, true] {
        let set = VcasSet::new();
        churn(&set, hold_snapshot);
        drop(set);
    }
    // Nothing is pinned and no other thread exists: flush until the limbo
    // is empty.
    for _ in 0..16 {
        let stats = ebr::stats();
        if stats.freed == stats.retired {
            break;
        }
        ebr::flush();
    }
    let (hits1, misses1, recycled1) = ebr::pool::local_stats();
    let acquired = (hits1 - hits0) + (misses1 - misses0);
    assert!(
        hits1 > hits0 && acquired > 50_000,
        "the phases ran: {acquired}"
    );
    assert_eq!(
        acquired,
        recycled1 - recycled0,
        "blocks acquired and blocks returned must balance"
    );
}
