//! Node ledger: every node the tree allocates is reclaimed exactly once.
//!
//! A counting [`NodePlugin`] sees every allocation (`new_leaf` /
//! `new_internal`) and every reclamation (`on_reclaim`, which runs once per
//! node whether it was retired after a committed SCX, disposed of after an
//! aborted one, or freed by `Drop`). A forgotten retire leaves the ledger
//! short; a double dispose or a node both disposed of and retired overdraws
//! it. One test, so the file is its own process and nothing else allocates
//! `Ledger` nodes.
//!
//! The same phases run with one key per leaf and with leaves of up to
//! [`FAT`] keys. A fat leaf (two or more keys) is counted apart, and every
//! value is a `Tracked`, which counts its live copies: a fat leaf reclaimed
//! as a plain node would skip its entries' destructors (and return its
//! block to the wrong pool class), and the live count would stay above 0.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use chromatic::{ChromaticTree, NodePlugin, SentKey};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static RECLAIMED: AtomicU64 = AtomicU64::new(0);
static FAT_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FAT_RECLAIMED: AtomicU64 = AtomicU64::new(0);
/// `Tracked` values alive: created or cloned, and not yet dropped.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The leaf capacity of the fat-leaf phases.
const FAT: usize = 8;

/// A value that counts its live copies.
struct Tracked;

impl Tracked {
    fn new() -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Tracked
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new()
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Whether the node is a fat leaf.
struct Ledger {
    fat: bool,
}

impl NodePlugin<u64, Tracked> for Ledger {
    fn new_leaf(_: &SentKey<u64>, len: usize) -> Self {
        ALLOCATED.fetch_add(1, Ordering::SeqCst);
        let fat = len >= 2;
        FAT_ALLOCATED.fetch_add(fat as u64, Ordering::SeqCst);
        Ledger { fat }
    }
    fn new_internal(_: &SentKey<u64>) -> Self {
        ALLOCATED.fetch_add(1, Ordering::SeqCst);
        Ledger { fat: false }
    }
    fn on_reclaim(&self) {
        RECLAIMED.fetch_add(1, Ordering::SeqCst);
        FAT_RECLAIMED.fetch_add(self.fat as u64, Ordering::SeqCst);
    }
}

type Tree<const B: usize> = ChromaticTree<u64, Tracked, Ledger, B>;

fn insert<const B: usize>(tree: &Tree<B>, k: u64) -> bool {
    tree.insert(k, Tracked::new(), &ebr::pin())
}

fn delete<const B: usize>(tree: &Tree<B>, k: u64) -> bool {
    tree.delete(&k, &ebr::pin())
}

/// `rebalance_cases.rs`'s insertion patterns, on one tree: together they
/// fire every [`chromatic::RebalanceKind`] (with one key per leaf). Returns
/// the number of successful inserts and deletes.
fn fire_every_rebalance_kind<const B: usize>(tree: &Tree<B>) -> (u64, u64) {
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
        B > 1 || steps.iter().all(|&n| n > 0),
        "a rebalancing kind never fired: {steps:?}"
    );
    (inserts, deletes)
}

/// Nodes a committed step of each [`chromatic::RebalanceKind`] allocates
/// (W-near, counted with W-far, allocates four as well).
const PATCH_SIZE: [u64; 8] = [3, 2, 3, 1, 2, 3, 4, 1];

/// Nodes allocated so far by attempts whose SCX then aborted: everything
/// allocated beyond the patches of the committed updates and steps.
fn allocated_by_aborted_attempts(tree: &Tree<1>, inserts: u64, deletes: u64) -> u64 {
    let steps = tree.stats.snapshot().rebalance_steps;
    let committed = 5 // the sentinels
        + 3 * inserts
        + deletes
        + steps.iter().zip(PATCH_SIZE).map(|(n, size)| n * size).sum::<u64>();
    ALLOCATED.load(Ordering::SeqCst) - committed
}

/// Two threads on the same four keys for one round, seeded by `round`.
/// Returns the number of successful inserts and deletes.
fn contend<const B: usize>(tree: &Arc<Tree<B>>, round: u64) -> (u64, u64) {
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
    workers.into_iter().fold((0, 0), |(i, d), w| {
        let (wi, wd) = w.join().unwrap();
        (i + wi, d + wd)
    })
}

/// Two threads on the same four keys until some SCX has aborted after its
/// patch was built (a failed LLX allocates nothing, so it would not do).
fn contend_until_an_scx_aborts(tree: &Arc<Tree<1>>, mut inserts: u64, mut deletes: u64) {
    assert_eq!(allocated_by_aborted_attempts(tree, inserts, deletes), 0);
    for round in 0..400u64 {
        let (i, d) = contend(tree, round);
        inserts += i;
        deletes += d;
        if allocated_by_aborted_attempts(tree, inserts, deletes) > 0 {
            return;
        }
    }
    panic!("no SCX aborted in 400 rounds of two threads on four keys");
}

/// Drop `tree` and flush until every node allocated so far is reclaimed,
/// then check the ledger: every node, and every fat leaf, exactly once,
/// and no value left alive.
fn drop_and_balance<const B: usize>(tree: Arc<Tree<B>>) {
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
        "allocations and reclamations must balance (B = {B})"
    );
    assert_eq!(
        FAT_RECLAIMED.load(Ordering::SeqCst),
        FAT_ALLOCATED.load(Ordering::SeqCst),
        "every fat leaf is reclaimed exactly once (B = {B})"
    );
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "every entry of every reclaimed leaf is dropped (B = {B})"
    );
}

#[test]
fn every_allocated_node_is_reclaimed_exactly_once() {
    let _serial = ebr::own_the_global_epoch();
    let tree = Arc::new(Tree::<1>::new());
    let (inserts, deletes) = fire_every_rebalance_kind(&tree);
    contend_until_an_scx_aborts(&tree, inserts, deletes);
    drop_and_balance(tree);
    assert_eq!(
        FAT_ALLOCATED.load(Ordering::SeqCst),
        0,
        "B = 1 has no fat leaf"
    );

    // Fat leaves: the same phases, then contention on four keys of one
    // leaf, where most updates are one-node patches of the same node.
    let tree = Arc::new(Tree::<FAT>::new());
    fire_every_rebalance_kind(&tree);
    let failures = tree.stats.snapshot().scx_failures;
    for round in 0..16u64 {
        contend(&tree, round);
    }
    assert!(
        tree.stats.snapshot().scx_failures > failures,
        "updates of one leaf conflict"
    );
    assert!(
        FAT_ALLOCATED.load(Ordering::SeqCst) > 10_000,
        "fat leaves were made"
    );
    drop_and_balance(tree);
}
