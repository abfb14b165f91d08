//! Node ledger: every node the tree allocates is reclaimed exactly once.
//!
//! A counting [`NodePlugin`] sees every allocation (`new_leaf` /
//! `new_internal`) and every reclamation (`on_reclaim`, which runs once per
//! node whether it was retired after a committed SCX, disposed of after an
//! aborted one, or freed by `Drop`). A forgotten retire leaves the ledger
//! short; a double dispose or a node both disposed of and retired overdraws
//! it. One test, so the file is its own process and nothing else allocates
//! `Ledger` nodes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use chromatic::{ChromaticTree, NodePlugin, SentKey};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static RECLAIMED: AtomicU64 = AtomicU64::new(0);

struct Ledger;

impl NodePlugin<u64, ()> for Ledger {
    fn new_leaf(_: &SentKey<u64>, _: Option<&()>) -> Self {
        ALLOCATED.fetch_add(1, Ordering::SeqCst);
        Ledger
    }
    fn new_internal(_: &SentKey<u64>) -> Self {
        ALLOCATED.fetch_add(1, Ordering::SeqCst);
        Ledger
    }
    fn on_reclaim(&self) {
        RECLAIMED.fetch_add(1, Ordering::SeqCst);
    }
}

type Tree = ChromaticTree<u64, (), Ledger>;

fn insert(tree: &Tree, k: u64) -> bool {
    tree.insert(k, (), &ebr::pin())
}

fn delete(tree: &Tree, k: u64) -> bool {
    tree.delete(&k, &ebr::pin())
}

/// `rebalance_cases.rs`'s insertion patterns, on one tree: together they
/// fire every [`chromatic::RebalanceKind`]. Returns the number of successful
/// inserts and deletes.
fn fire_every_rebalance_kind(tree: &Tree) -> (u64, u64) {
    let (mut inserts, mut deletes) = (0, 0);
    let mut insert = |k| inserts += insert(tree, k) as u64;
    let mut delete = |k| deletes += delete(tree, k) as u64;
    // Ascending: BLK, RB1, RootBlacken.
    for k in 0..8_192u64 {
        insert(k * 4);
    }
    // High, low, middle: inner grandchildren, RB2.
    let (mut lo, mut hi) = (1u64 << 21, 1u64 << 22);
    while lo + 1 < hi {
        insert(hi);
        insert(lo);
        insert((lo + hi) / 2);
        lo += 1 << 10;
        hi -= 1 << 10;
    }
    // Every other key, then every other survivor: W7, PUSH, W-far / W-near.
    let mut step = 2u64;
    while step <= 8_192 {
        let mut k = step / 2;
        while k < 8_192 {
            delete(k * 4);
            k += step;
        }
        step *= 2;
    }
    // Grow and shrink: weight reaches the root, RootNormalize.
    for round in 0..6u64 {
        for k in 0..512u64 {
            insert((1 << 30) + round * 10_000 + k);
        }
        for k in 0..512u64 {
            delete((1 << 30) + round * 10_000 + k);
        }
    }
    let steps = tree.stats.snapshot().rebalance_steps;
    assert!(
        steps.iter().all(|&n| n > 0),
        "a rebalancing kind never fired: {steps:?}"
    );
    (inserts, deletes)
}

/// Nodes a committed step of each [`chromatic::RebalanceKind`] allocates
/// (W-near, counted with W-far, allocates four as well).
const PATCH_SIZE: [u64; 8] = [3, 2, 3, 1, 2, 3, 4, 1];

/// Nodes allocated so far by attempts whose SCX then aborted: everything
/// allocated beyond the patches of the committed updates and steps.
fn allocated_by_aborted_attempts(tree: &Tree, inserts: u64, deletes: u64) -> u64 {
    let steps = tree.stats.snapshot().rebalance_steps;
    let committed = 5 // the sentinels
        + 3 * inserts
        + deletes
        + steps.iter().zip(PATCH_SIZE).map(|(n, size)| n * size).sum::<u64>();
    ALLOCATED.load(Ordering::SeqCst) - committed
}

/// Two threads on the same four keys until some SCX has aborted after its
/// patch was built (a failed LLX allocates nothing, so it would not do).
/// Returns the number of successful inserts and deletes.
fn contend_until_an_scx_aborts(tree: &Arc<Tree>, mut inserts: u64, mut deletes: u64) -> (u64, u64) {
    assert_eq!(allocated_by_aborted_attempts(tree, inserts, deletes), 0);
    for round in 0..400u64 {
        let go = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2u64)
            .map(|t| {
                let (tree, go) = (tree.clone(), go.clone());
                std::thread::spawn(move || {
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut x = (round * 2 + t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let (mut inserts, mut deletes) = (0, 0);
                    for _ in 0..5_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (1 << 40) + x % 4;
                        if x & (1 << 20) == 0 {
                            inserts += insert(&tree, k) as u64;
                        } else {
                            deletes += delete(&tree, k) as u64;
                        }
                    }
                    (inserts, deletes)
                })
            })
            .collect();
        go.store(true, Ordering::Release);
        for w in workers {
            let (i, d) = w.join().unwrap();
            inserts += i;
            deletes += d;
        }
        if allocated_by_aborted_attempts(tree, inserts, deletes) > 0 {
            return (inserts, deletes);
        }
    }
    panic!("no SCX aborted in 400 rounds of two threads on four keys");
}

#[test]
fn every_allocated_node_is_reclaimed_exactly_once() {
    let _serial = ebr::own_the_global_epoch();
    let tree = Arc::new(Tree::new());
    let (inserts, deletes) = fire_every_rebalance_kind(&tree);
    contend_until_an_scx_aborts(&tree, inserts, deletes);
    let guard = ebr::pin();
    tree.cleanup_everywhere(&guard);
    drop(guard);
    tree.validate(true).expect("valid at rest");

    drop(Arc::into_inner(tree).expect("the workers have exited"));
    // Nothing is pinned and every worker has exited: flush until the limbo
    // is empty.
    let allocated = ALLOCATED.load(Ordering::SeqCst);
    for _ in 0..16 {
        if RECLAIMED.load(Ordering::SeqCst) == allocated {
            break;
        }
        ebr::flush();
    }
    assert!(allocated > 100_000, "the phases ran: {allocated}");
    assert_eq!(
        RECLAIMED.load(Ordering::SeqCst),
        allocated,
        "allocations and reclamations must balance"
    );
}
