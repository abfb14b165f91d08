//! Work ledger: exact counts of the work fixed op sequences do, compared
//! against the committed `work_ledger.txt`.
//!
//! Every row runs one deterministic, single-threaded op sequence on a fresh
//! set and records what it cost: the node tree's SCX and rebalancing counts
//! ([`chromatic::TreeSnapshot`]), the augmentation's work counters
//! ([`cbat_core::StatsSnapshot`]), the objects `ebr` retired and freed, this
//! thread's `ebr::pool` hits / misses / recycles, and this thread's calls
//! into the global allocator. Wall-clock noise cannot move any of these, so
//! "the same work" is a diff of this file, not a benchmark pair. The rows
//! cover `BatSet` with one key per leaf (`bat_b1`, the paper's tree) and
//! at the shipped leaf capacity, and FR-BST.
//!
//! A change that moves a row on purpose re-blesses the file and says why:
//!
//! ```text
//! CBAT_BLESS_LEDGER=1 cargo test -q -p cbat-core --test work_ledger
//! ```
//!
//! One `#[test]` in this file: the allocator count is per thread, but
//! `ebr::stats()` is process-global, and the test holds the global epoch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use cbat_core::{BatSet, DelegationPolicy, SizeOnly, LEAF_KEYS};

struct CountingAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the count is a
// thread-local `Cell` with a const initializer, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(p, l, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LEDGER: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_ledger.txt");

/// Everything a row records, by counter name, in a fixed order.
type Row = Vec<(&'static str, u64)>;

/// The process- and thread-wide counters a row takes deltas of.
struct Marks {
    retired: usize,
    freed: usize,
    pool: (u64, u64, u64),
    calls: u64,
}

impl Marks {
    fn now() -> Self {
        let e = ebr::stats();
        Marks {
            retired: e.retired,
            freed: e.freed,
            pool: ebr::pool::local_stats(),
            calls: CALLS.with(Cell::get),
        }
    }
}

/// The updates a row's op sequence calls, whatever `B` the set has.
trait Updates {
    fn insert(&self, k: u64) -> bool;
    fn remove(&self, k: u64) -> bool;
    fn len(&self) -> u64;
    fn tree(&self) -> chromatic::TreeSnapshot;
    fn stats(&self) -> cbat_core::StatsSnapshot;
}

impl<const B: usize> Updates for BatSet<u64, SizeOnly, B> {
    fn insert(&self, k: u64) -> bool {
        BatSet::insert(self, k)
    }
    fn remove(&self, k: u64) -> bool {
        BatSet::remove(self, &k)
    }
    fn len(&self) -> u64 {
        BatSet::len(self)
    }
    fn tree(&self) -> chromatic::TreeSnapshot {
        self.as_map().node_tree().stats.snapshot()
    }
    fn stats(&self) -> cbat_core::StatsSnapshot {
        BatSet::stats(self).snapshot()
    }
}

/// Run `ops` on `set` and record what it cost. Limbo is drained first and
/// after, so each row's frees are its own.
fn measure(set: &dyn Updates, ops: impl FnOnce(&dyn Updates)) -> Row {
    ebr::flush();
    let before = Marks::now();
    ops(set);
    ebr::flush();
    let after = Marks::now();
    let t = set.tree();
    let s = set.stats();
    let mut row = vec![
        ("len", set.len()),
        ("scx_commits", t.scx_commits),
        ("scx_failures", t.scx_failures),
    ];
    const KINDS: [&str; 8] = [
        "blk",
        "rb1",
        "rb2",
        "root_blacken",
        "w7",
        "push",
        "w_far_near",
        "root_normalize",
    ];
    row.extend(KINDS.into_iter().zip(t.rebalance_steps));
    row.extend([
        ("propagates", s.propagates),
        ("root_answers", s.root_answers),
        ("nodes_visited", s.nodes_visited),
        ("nil_fixes", s.nil_fixes),
        ("cas_attempts", s.cas_attempts),
        ("cas_failures", s.cas_failures),
        ("delegations", s.delegations),
        ("delegation_timeouts", s.delegation_timeouts),
        ("ebr_retired", (after.retired - before.retired) as u64),
        ("ebr_freed", (after.freed - before.freed) as u64),
        ("pool_hits", after.pool.0 - before.pool.0),
        ("pool_misses", after.pool.1 - before.pool.1),
        ("pool_recycled", after.pool.2 - before.pool.2),
        ("alloc_calls", after.calls - before.calls),
    ]);
    row
}

/// Sorted inserts, zigzag inserts, halving deletes, then grow-and-shrink
/// rounds at the top of the key space: with one key per leaf, together
/// they fire every `chromatic::RebalanceKind`.
fn rebalance_mix(set: &dyn Updates) {
    for k in 0..2_048u64 {
        set.insert(k * 4);
    }
    let (mut lo, mut hi) = (1u64 << 21, 1u64 << 22);
    while lo + 1 < hi {
        set.insert(hi);
        set.insert(lo);
        set.insert((lo + hi) / 2);
        lo += 1 << 12;
        hi -= 1 << 12;
    }
    let mut step = 2u64;
    while step <= 2_048 {
        let mut k = step / 2;
        while k < 2_048 {
            set.remove(k * 4);
            k += step;
        }
        step *= 2;
    }
    for round in 0..4u64 {
        for k in 0..256u64 {
            set.insert((1 << 30) + round * 10_000 + k);
        }
        for k in 0..256u64 {
            set.remove((1 << 30) + round * 10_000 + k);
        }
    }
}

/// Keys of the uniform rows: 2^15 of them, half present after the prefill.
const SPACE: u64 = 1 << 15;
const UNIFORM_OPS: u64 = 20_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Prefill half the keys in scattered order (a sorted prefill would make
/// FR-BST a list), then 2·10^4 uniform updates, half inserts.
fn uniform(set: &dyn Updates) {
    for i in 0..SPACE / 2 {
        // An odd multiplier permutes the key space.
        set.insert(i.wrapping_mul(0x9e37_79b9) % SPACE);
    }
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..UNIFORM_OPS {
        let r = xorshift(&mut x);
        let k = r % SPACE;
        if r & (1 << 40) == 0 {
            set.insert(k);
        } else {
            set.remove(k);
        }
    }
}

fn render(rows: &BTreeMap<String, Row>) -> String {
    let mut out = String::from(
        "# Exact work counts of crates/core/tests/work_ledger.rs's rows.\n\
         # Rewrite with CBAT_BLESS_LEDGER=1; a change says why in CHANGES.md.\n",
    );
    for (name, row) in rows {
        for (counter, value) in row {
            writeln!(out, "{name} {counter} {value}").unwrap();
        }
    }
    out
}

#[test]
fn work_matches_the_committed_ledger() {
    let _serial = ebr::own_the_global_epoch();
    let mut rows = BTreeMap::new();

    let set = BatSet::<u64, SizeOnly, 1>::with_policy(DelegationPolicy::EagerDel);
    let row = measure(&set, rebalance_mix);
    let steps = set.as_map().node_tree().stats.snapshot().rebalance_steps;
    assert!(
        steps.iter().all(|&n| n > 0),
        "a rebalancing kind never fired: {steps:?}"
    );
    rows.insert("bat_b1.rebalance".to_string(), row);

    let set = BatSet::<u64, SizeOnly, 1>::with_policy(DelegationPolicy::EagerDel);
    rows.insert("bat_b1.uniform".to_string(), measure(&set, uniform));

    let set = BatSet::<u64, SizeOnly, 1>::new_unbalanced();
    rows.insert("frbst.uniform".to_string(), measure(&set, uniform));

    // The shipped leaf capacity: the same sequences, far fewer splits.
    let shipped = format!("bat_b{LEAF_KEYS}");
    let set = BatSet::<u64>::with_policy(DelegationPolicy::EagerDel);
    rows.insert(format!("{shipped}.rebalance"), measure(&set, rebalance_mix));
    let set = BatSet::<u64>::with_policy(DelegationPolicy::EagerDel);
    rows.insert(format!("{shipped}.uniform"), measure(&set, uniform));

    let got = render(&rows);
    if std::env::var_os("CBAT_BLESS_LEDGER").is_some() {
        std::fs::write(LEDGER, &got).expect("write the ledger");
        return;
    }
    let want = std::fs::read_to_string(LEDGER).expect("the committed ledger");
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  ledger: {w}\n  now:    {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "work differs from {LEDGER} (bless with CBAT_BLESS_LEDGER=1 if on purpose):\n{}",
        diff.join("\n")
    );
}
