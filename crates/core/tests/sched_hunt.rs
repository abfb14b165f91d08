//! sched-driven hunt for the ROADMAP's rare BAT reclamation race (one
//! livelock + one SIGSEGV on a null `BatNode` in `read_version →
//! VersionSlot::load`, `crates/core/src/refresh.rs`).
//!
//! Under the deterministic scheduler every shared-memory access of the
//! insert/remove/contains/rank mix is a preemption point, reclamation
//! poisoning (`ebr::pool`, debug builds) turns use-after-retire into loud
//! recognizable failures, the fence in `chromatic::Node`'s link accessors
//! turns the historical null/poisoned-child crash into a diagnostic panic
//! (`refresh.rs` fences the version pointers), and the scheduler's
//! step budget turns the historical livelock into a failed schedule with
//! a replayable trace. A reproduction therefore surfaces as a *seeded,
//! byte-replayable* failure instead of a once-in-430-runs SIGSEGV.
//!
//! The corpus is sized for CI; a long campaign raises `HUNT_SCHEDULES`
//! on a scratch copy.
//!
//! The hunt is only replayable if scheduled code is clock-free, so this
//! file also holds the check that `wait_for_delegatee`'s timeout is a
//! yield budget under `sched-test`, never a wall-clock read.
//!
//! It also holds the explored corpus for an update's root check, which
//! runs before the node tree is touched (`BatMap::insert`'s module doc):
//! two updates of one key race, and the one that changes nothing must, at
//! its return, see the root agree — it returns early only when its own
//! root read already shows its answer, and otherwise propagates the other
//! update there first. An insert raced against a remove of the same key
//! must leave the set as the order of their answers says.
//!
//! Every cell runs with one key per leaf (the paper's tree) and at the
//! shipped leaf capacity; the hunt and the races of one key also run at
//! [`SMALL_FAT`], where their few keys fill several leaves, so the
//! schedules interleave splits and rebalancing, not only one-node patches
//! of the one leaf the shipped capacity puts them in (at `SMALL_FAT`, an
//! insert of the race key into the full leaf 0, 2, 4, 6 splits it). Fat
//! leaves add a conflict of their own: two
//! updates of *different* keys of one leaf replace the same node, so one
//! SCX fails and retries. `same_leaf_race` races an insert and a remove of
//! two keys of one leaf, and `split_race` a splitting insert and a
//! one-node delete in the same full leaf.
#![cfg(feature = "sched-test")]

use std::sync::Arc;

use cbat_core::{BatSet, DelegationPolicy, SizeOnly, LEAF_KEYS};
use sched::{explore, run_random, ExploreConfig, Policy};

/// Key space of the hunt mix: small enough that every operation contends
/// on structure and version-tree state.
const KEY_SPACE: u64 = 24;

/// A fat-leaf capacity at which the cells' keys fill several leaves.
const SMALL_FAT: usize = 4;

/// One hunt scenario: three vthreads running a mixed workload whose op
/// streams derive from `opseed` (fixed per exploration; the schedule
/// supplies the interleaving diversity). The rank/len shares exercise the
/// `read_version` walk — the historical crash site — concurrently with
/// structural updates and version retirement. Ends with a version-tree
/// self-consistency oracle.
fn hunt_body<const B: usize>(opseed: u64) {
    let set = Arc::new(BatSet::<u64, SizeOnly, B>::with_policy(
        DelegationPolicy::None,
    ));
    for k in (0..KEY_SPACE).step_by(3) {
        set.insert(k);
    }
    let hs: Vec<_> = (0..3u64)
        .map(|t| {
            let set = set.clone();
            sched::spawn(move || {
                let mut x = opseed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..10 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEY_SPACE;
                    match x % 4 {
                        0 => {
                            set.insert(k);
                        }
                        1 => {
                            set.remove(&k);
                        }
                        2 => {
                            set.contains(&k);
                        }
                        _ => {
                            // The read_version-heavy path: a rank query
                            // reads the root version and walks the
                            // version tree.
                            set.rank(&k);
                        }
                    }
                }
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    // Post-race consistency: the version tree agrees with itself.
    let n = set.len();
    assert_eq!(
        set.range_count(&0, &(KEY_SPACE - 1)),
        n,
        "root size and range count diverged"
    );
    assert_eq!(set.rank(&(KEY_SPACE - 1)), n);
}

/// Schedules per cell and leaf size of the reclamation hunt.
const HUNT_SCHEDULES: usize = 30;

#[test]
fn bat_reclamation_hunt_under_explored_schedules() {
    let _serial = ebr::own_the_global_epoch();
    // Cells cross two op-stream seeds with the two policies, so a campaign
    // varies both the workload and the preemption shape.
    let mut explored = 0usize;
    for (opseed, policy, seed) in [
        (0x0BA7_0001u64, Policy::RandomWalk, 0x4017_0001u64),
        (0x0BA7_0001, Policy::Pct { depth: 3 }, 0x4017_0002),
        (0x0BA7_0002, Policy::RandomWalk, 0x4017_0003),
        (0x0BA7_0002, Policy::Pct { depth: 3 }, 0x4017_0004),
    ] {
        let cfg = ExploreConfig {
            schedules: HUNT_SCHEDULES,
            seed,
            max_steps: 3_000_000,
            policy,
        };
        let report = explore(&cfg, move || hunt_body::<1>(opseed));
        report.assert_clean("BAT reclamation hunt, one key per leaf");
        explored += report.schedules;
        let report = explore(&cfg, move || hunt_body::<SMALL_FAT>(opseed));
        report.assert_clean("BAT reclamation hunt, small fat leaves");
        explored += report.schedules;
        let report = explore(&cfg, move || hunt_body::<LEAF_KEYS>(opseed));
        report.assert_clean("BAT reclamation hunt, fat leaves");
        explored += report.schedules;
    }
    eprintln!(
        "sched hunt: {explored} schedules clean (poisoning + fences armed); \
         raise HUNT_SCHEDULES for a campaign"
    );
}

/// Two vthreads run the same update of `KEY` on a small tree: both insert
/// it (absent at the start) or both remove it (present at the start). One
/// of them changes the set; when either returns — the no-op above all,
/// which may have found the other's effect in the node tree before it
/// arrived at the root — the root must show `KEY`'s final state.
fn same_key_race<const B: usize>(policy: DelegationPolicy, inserts: bool) {
    const KEY: u64 = 3;
    let set = Arc::new(BatSet::<u64, SizeOnly, B>::with_policy(policy));
    for k in [0, 2, 4, 6] {
        set.insert(k);
    }
    if !inserts {
        set.insert(KEY);
    }
    let len_after = if inserts { 5 } else { 4 };
    let hs: Vec<_> = (0..2)
        .map(|_| {
            let set = set.clone();
            sched::spawn(move || {
                let changed = if inserts {
                    set.insert(KEY)
                } else {
                    set.remove(&KEY)
                };
                assert_eq!(set.contains(&KEY), inserts, "changed: {changed}");
                assert_eq!(set.len(), len_after, "changed: {changed}");
                changed
            })
        })
        .collect();
    let changed: usize = hs.into_iter().map(|h| h.join() as usize).sum();
    assert_eq!(changed, 1, "exactly one of the two updates changes the set");
}

/// Two vthreads race an insert and a remove of `KEY`, which starts present
/// or absent. At quiescence the set must be what the order the two return
/// values imply leaves: if both changed the set, the later one undid the
/// earlier, and the one that can change it from the start state always
/// does.
fn insert_remove_race<const B: usize>(policy: DelegationPolicy, present: bool) {
    const KEY: u64 = 3;
    let set = Arc::new(BatSet::<u64, SizeOnly, B>::with_policy(policy));
    for k in [0, 2, 4, 6] {
        set.insert(k);
    }
    if present {
        set.insert(KEY);
    }
    let spawn = |inserts: bool| {
        let set = set.clone();
        sched::spawn(move || {
            if inserts {
                set.insert(KEY)
            } else {
                set.remove(&KEY)
            }
        })
    };
    let (ins, rem) = (spawn(true), spawn(false));
    let (inserted, removed) = (ins.join(), rem.join());
    assert!(
        if present { removed } else { inserted },
        "the update that changes the start state must change it \
         (inserted: {inserted}, removed: {removed})"
    );
    let end = match (inserted, removed) {
        (true, false) => true,
        (false, true) => false,
        _ => present,
    };
    assert_eq!(
        set.contains(&KEY),
        end,
        "inserted: {inserted}, removed: {removed}"
    );
    assert_eq!(set.len(), 4 + end as u64);
}

/// Two vthreads race an insert of 3 and a remove of 5 on a set whose keys
/// (0, 2, 4, 6 and 5) share one leaf at the shipped capacity: each update
/// changes the set, both replace the same leaf, and the one whose SCX
/// loses retries on the other's leaf. Neither update may undo the other.
fn same_leaf_race(policy: DelegationPolicy) {
    let set = Arc::new(BatSet::<u64>::with_policy(policy));
    for k in [0, 2, 4, 5, 6] {
        set.insert(k);
    }
    let spawn = |inserts: bool| {
        let set = set.clone();
        sched::spawn(move || {
            let changed = if inserts {
                set.insert(3)
            } else {
                set.remove(&5)
            };
            assert!(
                if inserts {
                    set.contains(&3)
                } else {
                    !set.contains(&5)
                },
                "an update's effect is visible at its return"
            );
            changed
        })
    };
    let (ins, rem) = (spawn(true), spawn(false));
    assert!(ins.join() && rem.join(), "both updates change the set");
    assert_eq!(set.snapshot().keys(), vec![0, 2, 3, 4, 6]);
    assert_eq!(set.len(), 5);
}

/// A full leaf of the shipped capacity (keys 0, 2, …): an insert of 7
/// splits it under a new internal node while a remove of 4 replaces it by
/// a one-node patch. Whichever SCX commits second works on the first's
/// result, so both keys end as their updates left them.
fn split_race(policy: DelegationPolicy) {
    let set = Arc::new(BatSet::<u64>::with_policy(policy));
    let full: Vec<u64> = (0..LEAF_KEYS as u64).map(|i| 2 * i).collect();
    for &k in &full {
        set.insert(k);
    }
    assert_eq!(
        set.as_map()
            .node_tree()
            .validate(true)
            .expect("valid")
            .internal,
        1,
        "the keys fill one leaf, beside the sentinel leaf"
    );
    let spawn = |inserts: bool| {
        let set = set.clone();
        sched::spawn(move || {
            if inserts {
                let changed = set.insert(7);
                assert!(set.contains(&7), "the insert is visible at its return");
                changed
            } else {
                let changed = set.remove(&4);
                assert!(!set.contains(&4), "the remove is visible at its return");
                changed
            }
        })
    };
    let (ins, rem) = (spawn(true), spawn(false));
    assert!(ins.join() && rem.join(), "both updates change the set");
    let mut want: Vec<u64> = full.into_iter().filter(|&k| k != 4).collect();
    want.push(7);
    want.sort_unstable();
    assert_eq!(set.snapshot().keys(), want);
    set.as_map()
        .node_tree()
        .validate(false)
        .expect("valid after the race");
}

#[test]
fn no_op_update_sees_root_agree_under_explored_schedules() {
    let _serial = ebr::own_the_global_epoch();
    let mut explored = 0usize;
    for (i, (inserts, policy, sched_policy)) in [
        (true, DelegationPolicy::None, Policy::RandomWalk),
        (true, DelegationPolicy::EagerDel, Policy::Pct { depth: 2 }),
        (false, DelegationPolicy::None, Policy::RandomWalk),
        (false, DelegationPolicy::EagerDel, Policy::Pct { depth: 2 }),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = ExploreConfig {
            schedules: NO_OP_SCHEDULES,
            seed: 0x0A0B_0001 + i as u64,
            max_steps: 1_000_000,
            policy: sched_policy,
        };
        let what = if inserts {
            "two inserts of one key"
        } else {
            "two removes of one key"
        };
        let report = explore(&cfg, move || same_key_race::<1>(policy, inserts));
        report.assert_clean(what);
        explored += report.schedules;
        let report = explore(&cfg, move || same_key_race::<SMALL_FAT>(policy, inserts));
        report.assert_clean(&format!("{what}, small fat leaves"));
        explored += report.schedules;
        let report = explore(&cfg, move || same_key_race::<LEAF_KEYS>(policy, inserts));
        report.assert_clean(&format!("{what}, fat leaves"));
        explored += report.schedules;
    }
    for (i, (present, policy, sched_policy)) in [
        (false, DelegationPolicy::None, Policy::RandomWalk),
        (true, DelegationPolicy::EagerDel, Policy::Pct { depth: 2 }),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = ExploreConfig {
            schedules: NO_OP_SCHEDULES,
            seed: 0x0A0B_0101 + i as u64,
            max_steps: 1_000_000,
            policy: sched_policy,
        };
        let what = if present {
            "an insert and a remove of a present key"
        } else {
            "an insert and a remove of an absent key"
        };
        let report = explore(&cfg, move || insert_remove_race::<1>(policy, present));
        report.assert_clean(what);
        explored += report.schedules;
        let report = explore(&cfg, move || {
            insert_remove_race::<SMALL_FAT>(policy, present)
        });
        report.assert_clean(&format!("{what}, small fat leaves"));
        explored += report.schedules;
        let report = explore(&cfg, move || {
            insert_remove_race::<LEAF_KEYS>(policy, present)
        });
        report.assert_clean(&format!("{what}, fat leaves"));
        explored += report.schedules;
    }
    eprintln!("no-op root check: {explored} schedules clean");
}

/// The conflicts fat leaves add: two keys of one leaf, and a split racing
/// a one-node delete in the same leaf.
#[test]
fn same_leaf_updates_under_explored_schedules() {
    let _serial = ebr::own_the_global_epoch();
    let mut explored = 0usize;
    for (i, (policy, sched_policy)) in [
        (DelegationPolicy::None, Policy::RandomWalk),
        (DelegationPolicy::EagerDel, Policy::Pct { depth: 2 }),
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = ExploreConfig {
            schedules: NO_OP_SCHEDULES,
            seed: 0x0A0B_0201 + i as u64,
            max_steps: 1_000_000,
            policy: sched_policy,
        };
        let report = explore(&cfg, move || same_leaf_race(policy));
        report.assert_clean("an insert and a remove of two keys of one leaf");
        explored += report.schedules;
        let report = explore(&cfg, move || split_race(policy));
        report.assert_clean("a splitting insert and a one-node delete in one leaf");
        explored += report.schedules;
    }
    eprintln!("same-leaf updates: {explored} schedules clean");
}

/// Schedules per cell of the no-op and same-leaf corpora.
const NO_OP_SCHEDULES: usize = 100;

#[test]
fn delegation_timeout_is_deterministic_yield_budget() {
    let _serial = ebr::own_the_global_epoch();
    // With the wall-clock deadline modeled as a yield budget
    // (`SCHED_WAIT_YIELD_BUDGET`), a schedule is a pure function of its seed. Any
    // Instant::now() left on a scheduled path would make these traces
    // diverge (the timeout would fire at host-dependent moments).
    fn body<const B: usize>() {
        let set = Arc::new(BatSet::<u64, SizeOnly, B>::with_policy(
            DelegationPolicy::Del,
        ));
        set.insert(1_000);
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                let set = set.clone();
                sched::spawn(move || {
                    // Same-key contention so refreshes collide, delegation
                    // triggers, and the yield-budget timeout path runs.
                    for i in 0..6u64 {
                        let k = (t + i) % 2;
                        if i % 2 == 0 {
                            set.insert(k);
                        } else {
                            set.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let snap = set.snapshot();
        assert_eq!(snap.len(), snap.keys().len() as u64);
    }
    fn twice(body: fn()) {
        let a = run_random(0xD37E_2217, 3_000_000, body);
        assert!(a.failure.is_none(), "run 1 failed: {:?}", a.failure);
        let b = run_random(0xD37E_2217, 3_000_000, body);
        assert!(b.failure.is_none(), "run 2 failed: {:?}", b.failure);
        assert_eq!(
            a.trace.render(),
            b.trace.render(),
            "schedule must be a pure function of the seed (wall clock leaked?)"
        );
        assert_eq!(a.steps, b.steps);
    }
    twice(body::<1>);
    twice(body::<LEAF_KEYS>);
}
