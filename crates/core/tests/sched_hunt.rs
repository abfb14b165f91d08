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
//! The default corpus is sized for CI; set `CBAT_SCHED_HUNT_SCHEDULES`
//! for long campaigns.
//!
//! The hunt is only replayable if scheduled code is clock-free, so this
//! file also holds the check that `wait_for_delegatee`'s timeout is a
//! yield budget under `sched-test`, never a wall-clock read.
#![cfg(feature = "sched-test")]

use std::sync::Arc;

use cbat_core::{BatSet, DelegationPolicy};
use sched::{explore, run_random, ExploreConfig, Policy};

/// Key space of the hunt mix: small enough that every operation contends
/// on structure and version-tree state.
const KEY_SPACE: u64 = 24;

/// One hunt scenario: three vthreads running a mixed workload whose op
/// streams derive from `opseed` (fixed per exploration; the schedule
/// supplies the interleaving diversity). The rank/len shares exercise the
/// `read_version` walk — the historical crash site — concurrently with
/// structural updates and version retirement. Ends with a version-tree
/// self-consistency oracle.
fn hunt_body(opseed: u64) {
    let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::None));
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

#[test]
fn bat_reclamation_hunt_under_explored_schedules() {
    let _serial = ebr::own_the_global_epoch();
    let budget: usize = std::env::var("CBAT_SCHED_HUNT_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    // Split the budget across op-stream seeds and the two policies, so a
    // campaign varies both the workload and the preemption shape.
    let per_cell = (budget / 4).max(1);
    let mut explored = 0usize;
    for (opseed, policy, seed) in [
        (0x0BA7_0001u64, Policy::RandomWalk, 0x4017_0001u64),
        (0x0BA7_0001, Policy::Pct { depth: 3 }, 0x4017_0002),
        (0x0BA7_0002, Policy::RandomWalk, 0x4017_0003),
        (0x0BA7_0002, Policy::Pct { depth: 3 }, 0x4017_0004),
    ] {
        let cfg = ExploreConfig {
            schedules: per_cell,
            seed,
            max_steps: 3_000_000,
            policy,
            stop_on_failure: true,
        };
        let report = explore(&cfg, move || hunt_body(opseed));
        report.assert_clean("BAT reclamation hunt");
        explored += report.schedules;
    }
    eprintln!(
        "sched hunt: {explored} schedules clean (poisoning + fences armed); \
         scale with CBAT_SCHED_HUNT_SCHEDULES"
    );
}

#[test]
fn delegation_timeout_is_deterministic_yield_budget() {
    let _serial = ebr::own_the_global_epoch();
    // With the wall-clock deadline modeled as a yield budget
    // (`SCHED_WAIT_YIELD_BUDGET`), a schedule is a pure function of its seed. Any
    // Instant::now() left on a scheduled path would make these traces
    // diverge (the timeout would fire at host-dependent moments).
    fn body() {
        let set = Arc::new(BatSet::<u64>::with_policy(DelegationPolicy::Del));
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
