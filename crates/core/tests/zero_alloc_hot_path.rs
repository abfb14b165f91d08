//! Counting-global-allocator proof that in steady state the *entire*
//! update path — propagate, the structural node-tree modification
//! including rebalancing, **and** the versioned-edge publication of the
//! fanout tree and the VcasBST comparator (pooled nodes, pooled version
//! records, writer-driven version-list trimming) — touches the global
//! allocator **zero** times.
//!
//! After warm-up (thread-local scratch vectors at capacity, EBR bag
//! vectors recycled, `Node`/`Version`/`PropStatus` free-list pools
//! stocked), every object an update installs comes from the pool and
//! every retired object's memory flows back to it, so a measured window
//! of mixed inserts/removes — leaf patches, delete patches, BLK/RB/W
//! rebalancing steps, version refreshes, delegation statuses — performs
//! no heap allocation at all. The final window is the control: the same
//! churn on a freshly spawned thread, whose pools and scratch start empty,
//! does allocate — but its pool misses carve blocks from the pool's arena,
//! so no more 2 MiB chunks reach the allocator than those blocks need.
//!
//! This file deliberately holds a single `#[test]`: the libtest harness
//! runs tests of one binary on multiple threads, and any concurrent test
//! would pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbat_core::propagate::propagate;
use cbat_core::{BatMap, DelegationPolicy};
use chromatic::SentKey;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Counted requests of at least one of the pool arena's 2 MiB chunks.
static CHUNKS: AtomicU64 = AtomicU64::new(0);

/// The `ebr::pool` arena's chunk, and the piece a pool miss carves at most.
const CHUNK: u64 = 2 << 20;
const PIECE: u64 = 64 << 10;

fn count(l: Layout) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if l.size() as u64 >= CHUNK {
            CHUNKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l);
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l);
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count(l);
        unsafe { System.realloc(p, l, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_hot_paths_perform_zero_heap_allocations() {
    propagate_window();
    node_churn_window();
    // The edge-granular freeze words live inside the pooled nodes, never
    // on the heap.
    fanout_versioned_edge_window();
    vcas_window();
    cold_thread_allocates();
}

fn propagate_window() {
    // BAT-Del exercises the PropStatus pool as well as the version pool.
    let m = BatMap::<u64, u64>::with_policy(DelegationPolicy::Del);
    for k in 0..512u64 {
        m.insert(k, k);
    }

    // Warm-up: churn updates (stocks the pools and grows all scratch /
    // bag capacities), then run the exact loop we will measure.
    for round in 0..8u64 {
        for k in 0..256u64 {
            if (k + round).is_multiple_of(2) {
                m.remove(&k);
            } else {
                m.insert(k, k);
            }
        }
    }
    let entry = m.node_tree().entry();
    let key = SentKey::Key(300u64);
    for _ in 0..2000 {
        let guard = ebr::pin();
        propagate(entry, &key, DelegationPolicy::Del, &m.stats, &guard);
    }
    ebr::flush();

    // Measured window: pure steady-state propagates (the per-update hot
    // path minus the node-tree patch, which legitimately allocates nodes
    // when the key set changes). Each iteration installs and retires a
    // fresh version per node on the search path plus one PropStatus, and
    // crosses several EBR collection cycles — all served by the pools.
    let (h0, m0, _) = ebr::pool::local_stats();
    COUNTING.store(true, Ordering::SeqCst);
    for _ in 0..1000 {
        let guard = ebr::pin();
        propagate(entry, &key, DelegationPolicy::Del, &m.stats, &guard);
    }
    COUNTING.store(false, Ordering::SeqCst);
    let (h1, m1, _) = ebr::pool::local_stats();

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state propagate must not touch the global allocator"
    );
    assert!(
        h1 > h0,
        "window must be served by pool hits (hits {h0} -> {h1})"
    );
    assert_eq!(
        m1 - m0,
        0,
        "no pool miss may fall through to malloc in the window"
    );

    // Sanity: the map still works and the stats recorded the window.
    assert!(m.stats.snapshot().propagates >= 3000);
    assert!(m.contains(&300));
}

/// PR 2 window: a steady-state stretch of mixed inserts and removes —
/// node-tree patches *and* the rebalancing steps they trigger — must be
/// served entirely by the pools. The churn pattern removes and re-inserts
/// alternating halves of a fixed key range, so the tree's size is
/// stationary while every op commits a structural SCX (and the weight
/// violations it creates keep the BLK/RB/W fix-up cases firing).
fn node_churn_window() {
    let m = BatMap::<u64, u64>::with_policy(DelegationPolicy::Del);
    for k in 0..1024u64 {
        m.insert(k, k);
    }

    let churn = |round: u64| {
        for k in 0..500u64 {
            if (k + round).is_multiple_of(2) {
                m.remove(&k);
            } else {
                m.insert(k, k);
            }
        }
    };

    // Warm-up: run the exact loop we will measure until every pool class
    // (nodes, versions, statuses) and scratch buffer is at capacity.
    for round in 0..10u64 {
        churn(round);
    }
    ebr::flush();

    let rebalances0 = m.node_tree().stats.total_rebalances();
    let (h0, m0, _) = ebr::pool::local_stats();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    churn(10);
    churn(11);
    COUNTING.store(false, Ordering::SeqCst);
    let (h1, m1, _) = ebr::pool::local_stats();
    let rebalances1 = m.node_tree().stats.total_rebalances();

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state inserts/removes must not touch the global allocator"
    );
    assert!(
        rebalances1 > rebalances0,
        "churn window must exercise rebalancing steps"
    );
    assert!(
        h1 > h0,
        "window must be served by pool hits (hits {h0} -> {h1})"
    );
    assert_eq!(
        m1 - m0,
        0,
        "no pool miss may fall through to malloc in the window"
    );

    // Sanity: the set's contents match the churn parity we ended on
    // (round 11 removed odd keys below 500 and re-inserted even ones).
    assert!(m.contains(&0));
    assert!(!m.contains(&1));
    assert!(m.contains(&1000));
}

/// Steady-state churn on the fanout tree's versioned-edge update path.
/// Every update allocates
/// a pooled leaf copy plus a pooled version record, publishes through
/// LLX/SCX (immortal descriptors — no allocation; the per-thread scratch
/// vectors for freeze sets are at capacity after warm-up), retires the
/// replaced leaf, and trims the edge's version list back to one record;
/// with the pools warm, a measured window of mixed inserts and removes —
/// occasional split cascades included — must be served entirely from
/// free-list hits.
fn fanout_versioned_edge_window() {
    let s = fanout::FanoutSet::new();
    for k in 0..2048u64 {
        s.insert(k);
    }

    let churn = |round: u64| {
        for k in 0..512u64 {
            if (k + round).is_multiple_of(2) {
                s.remove(k);
            } else {
                s.insert(k);
            }
        }
    };

    // Warm-up: the exact loop we will measure, until the node and
    // version-record pool classes and all per-thread scratch are stocked.
    for round in 0..10u64 {
        churn(round);
    }
    ebr::flush();

    let (h0, m0, _) = ebr::pool::local_stats();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    churn(10);
    churn(11);
    COUNTING.store(false, Ordering::SeqCst);
    let (h1, m1, _) = ebr::pool::local_stats();

    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "steady-state versioned-edge updates must not touch the global allocator"
    );
    assert!(
        h1 > h0,
        "fanout window must be served by pool hits (hits {h0} -> {h1})"
    );
    assert_eq!(
        m1 - m0,
        0,
        "no fanout pool miss may fall through to malloc in the window"
    );

    // Sanity: contents match the parity round 11 ended on, and trimming
    // kept the version chains flat.
    assert!(s.contains(0));
    assert!(!s.contains(1));
    assert!(s.contains(2000));
    assert!(s.debug_max_version_chain() <= 2);
}

/// Steady-state churn on the VcasBST comparator: an insert allocates three
/// pooled nodes and three pooled version records, a remove a sibling copy
/// and its records, and each retires what it replaced — so with the pools
/// warm the comparator pays the global allocator nothing either, as the
/// trees it is measured against do.
fn vcas_window() {
    let s = vcas::VcasSet::new();
    for k in 0..1024u64 {
        s.insert(k * 7919 % 1024);
    }

    let churn = || {
        for k in 0..256u64 {
            assert!(s.remove(k));
            assert!(s.insert(k));
        }
    };

    // Warm-up: the exact loop we will measure, until the node and
    // version-record pool classes are stocked.
    for _ in 0..10 {
        churn();
    }
    ebr::flush();

    let (h0, m0, _) = ebr::pool::local_stats();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    churn();
    COUNTING.store(false, Ordering::SeqCst);
    let (h1, m1, _) = ebr::pool::local_stats();

    assert_eq!(
        ALLOCS.load(Ordering::SeqCst),
        0,
        "steady-state vcas updates must not touch the global allocator"
    );
    assert!(
        h1 > h0,
        "vcas window must be served by pool hits (hits {h0} -> {h1})"
    );
    assert_eq!(
        m1 - m0,
        0,
        "no vcas pool miss may fall through to malloc in the window"
    );
    assert_eq!(s.len_slow(), 1024);
    assert!(s.debug_max_version_chain() <= 2);
}

/// Control: the same churn loop on a freshly spawned thread — whose
/// thread-local pools and scratch start empty — hits the global allocator
/// again, proving the counter actually observes the update path. Its pool
/// misses refill from the depot or carve a piece from the arena, never
/// more than one 64 KiB piece a miss, so the 2 MiB chunks the allocator
/// sees are at most what those pieces need.
fn cold_thread_allocates() {
    let m = BatMap::<u64, u64>::new();
    for k in 0..256u64 {
        m.insert(k, k);
    }
    let misses = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let (_, m0, _) = ebr::pool::local_stats();
                ALLOCS.store(0, Ordering::SeqCst);
                CHUNKS.store(0, Ordering::SeqCst);
                COUNTING.store(true, Ordering::SeqCst);
                for k in 0..128u64 {
                    m.remove(&k);
                    m.insert(k, k);
                }
                COUNTING.store(false, Ordering::SeqCst);
                ebr::pool::local_stats().1 - m0
            })
            .join()
            .expect("cold churn thread")
    });
    assert!(misses > 0, "a cold thread's pools must miss");
    assert!(
        ALLOCS.load(Ordering::SeqCst) > 0,
        "a cold thread's scratch and free lists must reach the counted allocator"
    );
    assert!(
        CHUNKS.load(Ordering::SeqCst) <= (misses * PIECE).div_ceil(CHUNK),
        "{} chunk requests for {misses} pool misses: more than the carved pieces need",
        CHUNKS.load(Ordering::SeqCst)
    );
}
