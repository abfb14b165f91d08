//! Node ledger: every node the tree allocates is reclaimed exactly once.
//!
//! Three counts keep the ledger. A counting [`NodePlugin`] sees every
//! internal node's allocation (`new_internal`) and reclamation
//! (`on_reclaim`, which runs once per internal node whether it was retired
//! after a committed SCX, disposed of after an aborted one, or freed by
//! `Drop`). Leaves carry no plugin, so every value is a `Tracked`, which
//! counts its live copies: a leaf never reclaimed leaves its entries alive,
//! and one reclaimed twice, or as an internal node, drops them twice or not
//! at all. And in the single-threaded phases this thread's `ebr::pool`
//! counters see every block, sentinel leaves included: the blocks acquired
//! (hits and misses) must all come back (recycles). A forgotten retire
//! leaves a count short; a double dispose, or a node both disposed of and
//! retired, overdraws it. One test, so the file is its own process and
//! nothing else allocates `Ledger` nodes or touches this thread's pool.
//!
//! The same phases run with one key per leaf and with leaves of up to
//! [`FAT`] keys.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use chromatic::{ChromaticTree, NodePlugin, SentKey};

static INTERNAL_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static INTERNAL_RECLAIMED: AtomicU64 = AtomicU64::new(0);
/// Nodes the current phase's updates allocated, leaves and internal nodes
/// alike: the pool blocks each update acquired, on its own thread.
static NODES: AtomicU64 = AtomicU64::new(0);
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

struct Ledger;

impl NodePlugin<u64, Tracked> for Ledger {
    fn new_internal(_: &SentKey<u64>) -> Self {
        INTERNAL_ALLOCATED.fetch_add(1, Ordering::SeqCst);
        Ledger
    }
    fn on_reclaim(&self) {
        INTERNAL_RECLAIMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Blocks this thread has taken from its pool so far.
fn acquired() -> u64 {
    let (hits, misses, _) = ebr::pool::local_stats();
    hits + misses
}

/// Run one update, adding the nodes it allocated to [`NODES`].
fn counted(update: impl FnOnce() -> bool) -> bool {
    let before = acquired();
    let changed = update();
    NODES.fetch_add(acquired() - before, Ordering::SeqCst);
    changed
}

type Tree<const B: usize> = ChromaticTree<u64, Tracked, Ledger, B>;

fn insert<const B: usize>(tree: &Tree<B>, k: u64) -> bool {
    counted(|| tree.insert(k, Tracked::new(), &ebr::pin()))
}

fn delete<const B: usize>(tree: &Tree<B>, k: u64) -> bool {
    counted(|| tree.delete(&k, &ebr::pin()))
}

/// A fresh tree, with [`NODES`] counting from zero.
fn fresh_tree<const B: usize>() -> Arc<Tree<B>> {
    NODES.store(0, Ordering::SeqCst);
    Arc::new(Tree::new())
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

/// Nodes allocated so far by updates whose SCX then aborted: everything
/// the updates allocated beyond the patches of the committed updates and
/// steps.
fn allocated_by_aborted_attempts(tree: &Tree<1>, inserts: u64, deletes: u64) -> u64 {
    let steps = tree.stats.snapshot().rebalance_steps;
    let committed = 3 * inserts
        + deletes
        + steps
            .iter()
            .zip(PATCH_SIZE)
            .map(|(n, size)| n * size)
            .sum::<u64>();
    NODES.load(Ordering::SeqCst) - committed
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

/// Two threads on the same four keys of a fresh tree until some SCX has
/// aborted after its patch was built (a failed LLX allocates nothing, so
/// it would not do).
fn contend_until_an_scx_aborts() -> Arc<Tree<1>> {
    let tree = fresh_tree::<1>();
    let (mut inserts, mut deletes) = (0, 0);
    for round in 0..400u64 {
        let (i, d) = contend(&tree, round);
        inserts += i;
        deletes += d;
        if allocated_by_aborted_attempts(&tree, inserts, deletes) > 0 {
            return tree;
        }
    }
    panic!("no SCX aborted in 400 rounds of two threads on four keys");
}

/// Drop `tree` and flush until every retired node is reclaimed, then check
/// the ledger: every internal node exactly once, and no value left alive.
fn drop_and_balance<const B: usize>(tree: Arc<Tree<B>>) {
    let guard = ebr::pin();
    tree.cleanup_everywhere(&guard);
    drop(guard);
    tree.validate(true).expect("valid at rest");

    drop(Arc::into_inner(tree).expect("the workers have exited"));
    // Nothing is pinned and every worker has exited: flush until the limbo
    // is empty.
    for _ in 0..16 {
        let stats = ebr::stats();
        if stats.freed == stats.retired {
            break;
        }
        ebr::flush();
    }
    let stats = ebr::stats();
    assert_eq!(stats.freed, stats.retired, "the limbo drains (B = {B})");
    assert_eq!(
        INTERNAL_RECLAIMED.load(Ordering::SeqCst),
        INTERNAL_ALLOCATED.load(Ordering::SeqCst),
        "every internal node is reclaimed exactly once (B = {B})"
    );
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "every entry of every reclaimed leaf is dropped once (B = {B})"
    );
}

/// Every rebalancing pattern on a fresh tree, all on this thread, which
/// then gets back every pool block it handed out, sentinel leaves
/// included: what retires a node hands it to this thread's limbo, and the
/// flushes free it here. Before it, the limbo is empty, so no other
/// thread's garbage is freed here. `fired` sees the tree and the number of
/// successful inserts and deletes before it is dropped.
fn single_threaded<const B: usize>(fired: impl FnOnce(&Tree<B>, u64, u64)) {
    let (hits, misses, recycled) = ebr::pool::local_stats();
    let tree = fresh_tree::<B>();
    let (inserts, deletes) = fire_every_rebalance_kind(&tree);
    assert!(NODES.load(Ordering::SeqCst) > 10_000, "the phase ran");
    fired(&tree, inserts, deletes);
    drop_and_balance(tree);
    let (hits, misses, recycled) = {
        let (h, m, r) = ebr::pool::local_stats();
        (h - hits, m - misses, r - recycled)
    };
    assert_eq!(
        recycled,
        hits + misses,
        "every pool block goes back exactly once (B = {B})"
    );
}

#[test]
fn every_allocated_node_is_reclaimed_exactly_once() {
    let _serial = ebr::own_the_global_epoch();
    single_threaded::<1>(|tree, inserts, deletes| {
        assert_eq!(
            allocated_by_aborted_attempts(tree, inserts, deletes),
            0,
            "one thread aborts no SCX: every node is a committed patch's"
        );
    });
    drop_and_balance(contend_until_an_scx_aborts());

    // Fat leaves: the same phases, then contention on four keys of one
    // leaf, where most updates are one-node patches of the same node.
    single_threaded::<FAT>(|_, _, _| {});
    let tree = fresh_tree::<FAT>();
    for round in 0..16u64 {
        contend(&tree, round);
    }
    assert!(
        tree.stats.snapshot().scx_failures > 0,
        "updates of one leaf conflict"
    );
    drop_and_balance(tree);
}
