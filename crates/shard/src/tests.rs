//! Deterministic oracle tests for the sharded front-end: every policy ×
//! member combination must agree with single-structure semantics, both
//! sequentially and with the final state of a concurrent run (ISSUE 6's
//! "cross-shard rank/select/range_query agree with a single-tree oracle
//! under concurrent updates" acceptance criterion).

use std::collections::BTreeSet;
use std::sync::Arc;

use cbat_core::BatSet;

use super::{Partition, ShardMember, ShardedSet};

const MAX_KEY: u64 = 4096;

fn policies() -> [Partition; 2] {
    [Partition::Hash, Partition::Range { max_key: MAX_KEY }]
}

/// Simple deterministic xorshift stream.
fn xs(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Drive `set` and a `BTreeSet` oracle through the same op stream and
/// compare every return value and every order statistic along the way.
fn sequential_oracle<S: ShardMember>(shards: usize, partition: Partition) {
    let set = ShardedSet::<S>::new(shards, partition);
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
            assert_eq!(
                snap.range_collect(lo, hi),
                oracle.range(lo..=hi).copied().collect::<Vec<_>>(),
                "range_collect({lo}, {hi})"
            );
        }
    }
    ebr::flush();
}

#[test]
fn bat_forest_matches_oracle_sequentially() {
    for p in policies() {
        for shards in [1, 3, 4] {
            sequential_oracle::<BatSet<u64>>(shards, p);
        }
    }
}

#[test]
fn fanout_forest_matches_oracle_sequentially() {
    for p in policies() {
        for shards in [1, 4] {
            sequential_oracle::<fanout::FanoutSet>(shards, p);
        }
    }
}

/// `select` takes one of three routes through a cut: a one-shard forest
/// under any policy asks its member, range shards walk the size prefix
/// sums and ask one member, hashed shards bisect the key domain. Each is
/// checked at *every* index `0..=len` on a cut that is held
/// while the live forest is churned, so the answers come from the
/// members' subtree-count indexes, cold and then warm.
#[test]
fn fanout_forest_select_matches_oracle_at_every_index() {
    for (shards, partition) in [
        (1, Partition::Hash),
        (4, Partition::Hash),
        (4, Partition::Range { max_key: MAX_KEY }),
    ] {
        let set = ShardedSet::<fanout::FanoutSet>::new(shards, partition);
        let mut oracle = BTreeSet::new();
        let mut x = 0x5E1E_C700_u64 + shards as u64;
        // Keys past a range partition's `max_key` land in its last shard;
        // `u64::MAX` is the far end of a hashed cut's bisection.
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
        assert_eq!(snap.len(), frozen.len() as u64, "{partition:?} x{shards}");
        for i in 0..=frozen.len() {
            assert_eq!(
                snap.select(i as u64),
                frozen.get(i).copied(),
                "{partition:?} x{shards}: select({i}) of {}",
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
fn concurrent_vs_single_tree<S: ShardMember>(partition: Partition) {
    const THREADS: u64 = 4;
    const OPS: u64 = 3_000;
    let set = Arc::new(ShardedSet::<S>::new(4, partition));
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
    assert_eq!(
        snap.range_collect(0, u64::MAX),
        oracle
            .snapshot()
            .range_collect(&0, &u64::MAX)
            .into_iter()
            .map(|(k, ())| k)
            .collect::<Vec<_>>()
    );
    drop(snap);
    ebr::flush();
}

#[test]
fn bat_forest_agrees_with_single_tree_under_concurrent_updates() {
    for p in policies() {
        concurrent_vs_single_tree::<BatSet<u64>>(p);
    }
}

#[test]
fn fanout_forest_agrees_with_single_tree_under_concurrent_updates() {
    for p in policies() {
        concurrent_vs_single_tree::<fanout::FanoutSet>(p);
    }
}

/// Mid-flight cut consistency: while writers churn, every snapshot must
/// be internally coherent — its size, rank, select and range views all
/// describe the same instant.
fn cuts_are_coherent_mid_flight<S: ShardMember>(partition: Partition) {
    let set = Arc::new(ShardedSet::<S>::new(4, partition));
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
            let all = snap.range_collect(0, u64::MAX);
            assert_eq!(all.len() as u64, n, "collect length != len");
            assert!(all.windows(2).all(|w| w[0] < w[1]), "collect unsorted");
            if n > 0 {
                assert_eq!(snap.select(0), all.first().copied());
                assert_eq!(snap.select(n - 1), all.last().copied());
            }
            assert_eq!(snap.select(n), None);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    ebr::flush();
}

#[test]
fn bat_forest_cuts_are_coherent_mid_flight() {
    for p in policies() {
        cuts_are_coherent_mid_flight::<BatSet<u64>>(p);
    }
}

#[test]
fn fanout_forest_cuts_are_coherent_mid_flight() {
    for p in policies() {
        cuts_are_coherent_mid_flight::<fanout::FanoutSet>(p);
    }
}

#[test]
fn partition_maps_cover_all_shards_and_respect_bounds() {
    for n in [1usize, 2, 3, 8] {
        for p in policies() {
            let mut hit = vec![false; n];
            for k in 0..MAX_KEY {
                let s = p.shard_of(k, n);
                assert!(s < n, "{p:?} mapped {k} out of range");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "{p:?} left a shard empty over {n}");
            // Keys beyond the declared range still map somewhere valid.
            assert!(p.shard_of(u64::MAX, n) < n);
        }
        // Range partitioning is monotone: key order implies shard order.
        let p = Partition::Range { max_key: MAX_KEY };
        let mut prev = 0;
        for k in 0..MAX_KEY {
            let s = p.shard_of(k, n);
            assert!(s >= prev, "range partition not monotone at {k}");
            prev = s;
        }
    }
}

#[test]
fn range_partition_fans_out_to_overlapping_shards_only() {
    let p = Partition::Range { max_key: MAX_KEY };
    let n = 8;
    let span = MAX_KEY / n as u64;
    // An interval inside one span touches one shard.
    assert_eq!(p.shards_overlapping(10, span - 1, n), 0..=0);
    // An interval across one boundary touches two.
    assert_eq!(p.shards_overlapping(span - 1, span, n), 0..=1);
    // Hash must always fan out to all shards.
    assert_eq!(Partition::Hash.shards_overlapping(10, 11, n), 0..=n - 1);
}

#[test]
fn forest_contention_counters_aggregate_over_shards() {
    let set = ShardedSet::<BatSet<u64>>::new(4, Partition::Hash);
    for k in 0..512 {
        set.insert(k);
    }
    let (attempts, ..) = set.contention();
    assert!(attempts > 0, "updates must surface publication attempts");
    assert_eq!(set.len(), 512);
    ebr::flush();
}
