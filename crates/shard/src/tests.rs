//! Deterministic oracle tests for the sharded front-end: every shard
//! count × member combination must agree with single-structure semantics, both
//! sequentially and with the final state of a concurrent run (ISSUE 6's
//! "cross-shard rank/select/range_query agree with a single-tree oracle
//! under concurrent updates" acceptance criterion).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cbat_core::BatSet;
use fanout::{FanoutSet, FanoutSnapshot};
use vedge::SnapClock;

use super::{MemberSnap, Partition, ShardMember, ShardedSet};

const MAX_KEY: u64 = 4096;

/// Simple deterministic xorshift stream.
fn xs(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Drive `set` and a `BTreeSet` oracle through the same op stream and
/// compare every return value and every order statistic along the way.
fn sequential_oracle<S: ShardMember>(shards: usize) {
    let set = ShardedSet::<S>::new(shards);
    let mut oracle = BTreeSet::new();
    let mut x = 0x0BA7_0006_u64;
    for step in 0..2_000u64 {
        let k = xs(&mut x) % MAX_KEY;
        if xs(&mut x).is_multiple_of(3) {
            assert_eq!(set.remove(k), oracle.remove(&k), "remove({k})");
        } else {
            assert_eq!(set.insert(k), oracle.insert(k), "insert({k})");
        }
        if step % 97 == 0 {
            let snap = set.snapshot();
            assert_eq!(snap.len(), oracle.len() as u64);
            let probe = xs(&mut x) % MAX_KEY;
            assert_eq!(snap.contains(probe), oracle.contains(&probe));
            assert_eq!(
                snap.rank(probe),
                oracle.range(..=probe).count() as u64,
                "rank({probe})"
            );
            let i = if oracle.is_empty() {
                0
            } else {
                xs(&mut x) % oracle.len() as u64
            };
            assert_eq!(
                snap.select(i),
                oracle.iter().nth(i as usize).copied(),
                "select({i})"
            );
            assert_eq!(snap.select(oracle.len() as u64), None, "select past end");
            let (lo, hi) = (probe / 2, probe / 2 + MAX_KEY / 8);
            assert_eq!(
                snap.range_count(lo, hi),
                oracle.range(lo..=hi).count() as u64,
                "range_count({lo}, {hi})"
            );
            // The keys of [lo, hi], read back from the cut by position.
            let below = snap.rank(lo) - snap.contains(lo) as u64;
            let by_select: Vec<u64> = (below..below + snap.range_count(lo, hi))
                .map(|i| snap.select(i).expect("index below len"))
                .collect();
            assert_eq!(
                by_select,
                oracle.range(lo..=hi).copied().collect::<Vec<_>>(),
                "select over [{lo}, {hi}]"
            );
        }
    }
    ebr::flush();
}

#[test]
fn bat_forest_matches_oracle_sequentially() {
    for shards in [1, 3, 4] {
        sequential_oracle::<BatSet<u64>>(shards);
    }
}

#[test]
fn fanout_forest_matches_oracle_sequentially() {
    for shards in [1, 4] {
        sequential_oracle::<fanout::FanoutSet>(shards);
    }
}

/// `select` takes one of two routes through a cut: a one-shard forest
/// asks its member, more shards bisect the key domain. Each is checked at
/// *every* index `0..=len` on a cut that is held while the live forest is
/// churned, so the answers come from the members' subtree-count indexes,
/// cold and then warm.
#[test]
fn fanout_forest_select_matches_oracle_at_every_index() {
    for shards in [1, 3, 4] {
        let set = ShardedSet::<fanout::FanoutSet>::new(shards);
        let mut oracle = BTreeSet::new();
        let mut x = 0x5E1E_C700_u64 + shards as u64;
        // Keys past the churned range; `u64::MAX` is the far end of a
        // multi-shard cut's bisection.
        for k in [MAX_KEY + 7, u64::MAX] {
            assert_eq!(set.insert(k), oracle.insert(k));
        }
        for _ in 0..3_000 {
            let k = xs(&mut x) % MAX_KEY;
            if xs(&mut x).is_multiple_of(3) {
                assert_eq!(set.remove(k), oracle.remove(&k), "remove({k})");
            } else {
                assert_eq!(set.insert(k), oracle.insert(k), "insert({k})");
            }
        }
        let snap = set.snapshot();
        let frozen: Vec<u64> = oracle.iter().copied().collect();
        for &k in frozen.iter().step_by(2) {
            assert!(set.remove(k));
        }
        for _ in 0..1_000 {
            set.insert(xs(&mut x) % MAX_KEY);
        }
        assert_eq!(snap.len(), frozen.len() as u64, "x{shards}");
        for i in 0..=frozen.len() {
            assert_eq!(
                snap.select(i as u64),
                frozen.get(i).copied(),
                "x{shards}: select({i}) of {}",
                frozen.len()
            );
        }
        drop(snap);
        ebr::flush();
    }
}

/// Concurrent acceptance test: threads apply disjoint deterministic op
/// streams (so the final membership is interleaving-independent), then
/// the forest's order statistics are compared point by point against a
/// *single-tree* BAT oracle replaying the same streams.
fn concurrent_vs_single_tree<S: ShardMember>() {
    const THREADS: u64 = 4;
    const OPS: u64 = 3_000;
    let set = Arc::new(ShardedSet::<S>::new(4));
    let span = MAX_KEY / THREADS;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let set = Arc::clone(&set);
            scope.spawn(move || {
                let mut x = 0xD15C_0000 ^ (t + 1);
                for _ in 0..OPS {
                    let k = t * span + xs(&mut x) % span;
                    if xs(&mut x).is_multiple_of(3) {
                        set.remove(k);
                    } else {
                        set.insert(k);
                    }
                }
            });
        }
    });

    // Single-tree oracle: same streams, replayed sequentially (disjoint
    // key slices make the final state independent of thread order).
    let oracle = BatSet::<u64>::new();
    for t in 0..THREADS {
        let mut x = 0xD15C_0000 ^ (t + 1);
        for _ in 0..OPS {
            let k = t * span + xs(&mut x) % span;
            if xs(&mut x).is_multiple_of(3) {
                oracle.remove(&k);
            } else {
                oracle.insert(k);
            }
        }
    }

    let snap = set.snapshot();
    let n = oracle.len();
    assert_eq!(snap.len(), n);
    let mut x = 0x5EED_u64;
    for _ in 0..200 {
        let k = xs(&mut x) % (MAX_KEY + 32);
        assert_eq!(snap.contains(k), oracle.contains(&k), "contains({k})");
        assert_eq!(snap.rank(k), oracle.rank(&k), "rank({k})");
        let lo = k / 3;
        assert_eq!(
            snap.range_count(lo, k),
            oracle.range_count(&lo, &k),
            "range_count({lo}, {k})"
        );
    }
    for i in (0..n).step_by((n as usize / 64).max(1)) {
        assert_eq!(snap.select(i), oracle.select(i), "select({i})");
    }
    assert_eq!(snap.select(n), None);
    for k in 0..MAX_KEY {
        assert_eq!(snap.contains(k), oracle.contains(&k), "contains({k})");
    }
    drop(snap);
    ebr::flush();
}

#[test]
fn bat_forest_agrees_with_single_tree_under_concurrent_updates() {
    concurrent_vs_single_tree::<BatSet<u64>>();
}

#[test]
fn fanout_forest_agrees_with_single_tree_under_concurrent_updates() {
    concurrent_vs_single_tree::<fanout::FanoutSet>();
}

/// Mid-flight cut consistency: while writers churn, every snapshot must
/// be internally coherent — its size, rank, select and range views all
/// describe the same instant.
fn cuts_are_coherent_mid_flight<S: ShardMember>() {
    let set = Arc::new(ShardedSet::<S>::new(4));
    for k in (0..MAX_KEY).step_by(4) {
        set.insert(k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut x = 0xC07_0000 ^ (t + 1);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = xs(&mut x) % MAX_KEY;
                    if xs(&mut x) & 1 == 0 {
                        set.insert(k);
                    } else {
                        set.remove(k);
                    }
                }
            });
        }
        for _ in 0..40 {
            let snap = set.snapshot();
            let n = snap.len();
            assert_eq!(snap.rank(u64::MAX), n, "rank(MAX) != len");
            assert_eq!(snap.range_count(0, u64::MAX), n, "range_count != len");
            // Sampled positions, always with the last: each selected key
            // is in the cut, at its rank.
            for i in (0..n)
                .step_by((n as usize / 32).max(1))
                .chain(n.checked_sub(1))
            {
                let k = snap.select(i).expect("index below len");
                assert!(snap.contains(k), "select({i}) = {k} not in the cut");
                assert_eq!(snap.rank(k), i + 1, "rank(select({i}))");
            }
            assert_eq!(snap.select(n), None);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    ebr::flush();
}

#[test]
fn bat_forest_cuts_are_coherent_mid_flight() {
    cuts_are_coherent_mid_flight::<BatSet<u64>>();
}

#[test]
fn fanout_forest_cuts_are_coherent_mid_flight() {
    cuts_are_coherent_mid_flight::<fanout::FanoutSet>();
}

#[test]
fn partition_maps_cover_all_shards_and_respect_bounds() {
    for n in [1usize, 2, 3, 8] {
        let mut hit = vec![false; n];
        for k in 0..MAX_KEY {
            let s = Partition.shard_of(k, n);
            assert!(s < n, "mapped {k} out of range");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "left a shard empty over {n}");
        // Keys beyond any key range still map somewhere valid.
        assert!(Partition.shard_of(u64::MAX, n) < n);
    }
}

/// 512 fresh inserts over four shards: each publishes at least once on its
/// shard, and the forest's sum sees every one.
fn contention_sums_over_shards<S: ShardMember>() {
    let set = ShardedSet::<S>::new(4);
    for k in 0..512 {
        assert!(set.insert(k));
    }
    let (attempts, aborts, _) = set.contention();
    assert!(
        attempts >= 512,
        "{attempts} publication attempts for 512 inserts"
    );
    assert!(aborts <= attempts, "{aborts} aborts of {attempts} attempts");
    assert_eq!(set.len(), 512);
    ebr::flush();
}

#[test]
fn forest_contention_counters_aggregate_over_shards() {
    contention_sums_over_shards::<BatSet<u64>>();
    contention_sums_over_shards::<FanoutSet>();
}

/// A fanout member that counts the `select` and `rank` calls its
/// snapshots answer.
struct Counting {
    set: FanoutSet,
    selects: AtomicU64,
    ranks: AtomicU64,
}

struct CountingSnap<'a> {
    snap: FanoutSnapshot<'a>,
    member: &'a Counting,
}

impl ShardMember for Counting {
    type Snap<'a> = CountingSnap<'a>;
    const TIMESTAMP_EXACT: bool = true;

    fn new_in_forest(sync: &Arc<SnapClock>) -> Self {
        Counting {
            set: <FanoutSet as ShardMember>::new_in_forest(sync),
            selects: AtomicU64::new(0),
            ranks: AtomicU64::new(0),
        }
    }
    fn insert(&self, k: u64) -> bool {
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(k)
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(k)
    }
    fn len(&self) -> u64 {
        self.set.len_slow()
    }
    fn snapshot_at(&self, ts: u64) -> CountingSnap<'_> {
        CountingSnap {
            snap: self.set.snapshot_at(ts),
            member: self,
        }
    }
    fn version_token(&self) -> u64 {
        0
    }
    fn contention(&self) -> (u64, u64, u64) {
        <FanoutSet as ShardMember>::contention(&self.set)
    }
}

impl MemberSnap for CountingSnap<'_> {
    fn contains(&self, k: u64) -> bool {
        self.snap.contains(k)
    }
    fn len(&self) -> u64 {
        self.snap.len()
    }
    fn rank(&self, k: u64) -> u64 {
        self.member.ranks.fetch_add(1, Ordering::Relaxed);
        self.snap.rank(k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.snap.range_count(lo, hi)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.member.selects.fetch_add(1, Ordering::Relaxed);
        self.snap.select(i)
    }
    fn token(&self) -> u64 {
        0
    }
}

/// The route a served stat request takes: a one-shard cut answers
/// `select(i)` with exactly one member `select` and no `rank`, instead of
/// the up to 64 cross-shard ranks a multi-shard cut's bisection pays —
/// which never calls a member `select` at all.
#[test]
fn one_shard_select_asks_its_member_once() {
    for shards in [1, 4] {
        let set = ShardedSet::<Counting>::new(shards);
        for k in (0..MAX_KEY).step_by(3) {
            set.insert(k);
        }
        let snap = set.snapshot();
        let n = snap.len();
        let calls = || {
            set.shards().fold((0, 0), |(s, r), m| {
                (
                    s + m.selects.load(Ordering::Relaxed),
                    r + m.ranks.load(Ordering::Relaxed),
                )
            })
        };
        for i in [0, 1, n / 2, n - 1, n] {
            let (s0, r0) = calls();
            assert_eq!(snap.select(i), (i < n).then_some(3 * i), "x{shards}");
            let (s1, r1) = calls();
            if shards == 1 {
                assert_eq!((s1 - s0, r1 - r0), (1, 0), "select({i}) x1");
            } else {
                assert_eq!(s1 - s0, 0, "select({i}) x{shards} asked a member");
                assert_eq!(r1 > r0, i < n, "select({i}) x{shards} ranks");
            }
        }
        drop(snap);
        ebr::flush();
    }
}
