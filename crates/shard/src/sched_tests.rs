//! Deterministic-schedule exploration of the cross-shard cut (ISSUE 6's
//! snapshot-consistency satellite): a writer committing to two shards in
//! program order races a reader's forest snapshot, and the cut must be
//! all-or-nothing *per the shared clock* — if the later write is inside
//! the cut, the earlier one must be too, and the cut's size/rank/range
//! views must agree with each other. The two shards are hashed, and the
//! keys are picked so that each write lands on a different one. One
//! shared-clock timestamp is the fanout forest's cut.

use std::sync::Arc;

use fanout::FanoutSet;
use sched::{explore, ExploreConfig, Policy};

use super::{Partition, ShardMember, ShardedSet};

/// Schedules per policy of the cut race.
const CUT_RACE_SCHEDULES: usize = 30;

/// The smallest keys from `from` up that the forest's hash puts on shard
/// 0 and on shard 1 of two.
fn one_key_per_shard(from: u64) -> [u64; 2] {
    let first_on = |s| (from..).find(|&k| Partition.shard_of(k, 2) == s).unwrap();
    [first_on(0), first_on(1)]
}

/// One cut race over two hashed shards: each holds one base key; the
/// writer inserts `ka` (shard 0) and then `kb` (shard 1); the reader takes
/// one forest snapshot somewhere inside that window.
fn cut_race_body() {
    let bases = one_key_per_shard(1);
    let [ka, kb] = one_key_per_shard(bases[0].max(bases[1]) + 1);
    let set = Arc::new(ShardedSet::<FanoutSet>::new(2));
    for k in bases {
        set.insert(k);
    }
    // One key per shard, or the race below is a one-shard race.
    assert!(
        set.shards().all(|s| s.len() == 1),
        "base keys share a shard"
    );
    let writer = {
        let set = Arc::clone(&set);
        sched::spawn(move || {
            set.insert(ka); // shard 0: committed (and stamped) first
            set.insert(kb); // shard 1: committed strictly after ka
        })
    };
    let reader = {
        let set = Arc::clone(&set);
        sched::spawn(move || {
            let snap = set.snapshot();
            let a = snap.contains(ka);
            let b = snap.contains(kb);
            // The cut respects the writer's program order: clock stamps
            // are monotone, so seeing the later kb without the earlier ka
            // would be a torn cut.
            assert!(
                a || !b,
                "torn cut: kb visible without the earlier ka (a={a}, b={b})"
            );
            let n = snap.len();
            assert_eq!(n, 2 + a as u64 + b as u64, "len disagrees with contains");
            assert_eq!(snap.rank(u64::MAX), n, "rank(MAX) != len");
            assert_eq!(snap.range_count(0, u64::MAX), n, "range_count != len");
            let largest = [bases[0], bases[1], ka, kb]
                .into_iter()
                .filter(|&k| snap.contains(k))
                .max();
            assert_eq!(snap.select(n - 1), largest, "select(n - 1) != largest key");
        })
    };
    writer.join();
    reader.join();
    // Post-race: both writes landed, one on each shard; the forest agrees
    // with itself.
    assert!(
        set.shards().all(|s| s.len() == 2),
        "ka and kb share a shard"
    );
    let snap = set.snapshot();
    assert_eq!(snap.len(), 4);
    for k in [bases[0], bases[1], ka, kb] {
        assert!(snap.contains(k), "{k} missing after the race");
    }
}

#[test]
fn fanout_forest_cut_is_all_or_nothing() {
    for (policy, seed) in [
        (Policy::RandomWalk, 0x5AAD_0001),
        (Policy::Pct { depth: 3 }, 0x5AAD_0000),
    ] {
        let report = explore(
            &ExploreConfig {
                schedules: CUT_RACE_SCHEDULES,
                seed,
                max_steps: 3_000_000,
                policy,
            },
            cut_race_body,
        );
        report.assert_clean(&format!("fanout forest cut race under {policy:?}"));
    }
}
