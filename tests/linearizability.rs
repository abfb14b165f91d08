//! Per-key linearizability of point operations, across structures.
//!
//! The checker and history recorder live in `workloads::linearize` (they
//! were extracted from this file so any `BenchSet` adapter can run under
//! them); this suite drives the real structures through the bench
//! adapters: BAT under two delegation policies, the fanout tree and the
//! unaugmented chromatic tree. The adapters' BAT holds one key per leaf, as
//! the paper's does; `FatLeaves` runs the same histories on the shipped
//! `BatSet`, where all 8 hot keys share one leaf.
//!
//! Histories are recorded on a hot 8-key space by 6 threads, so nearly
//! every operation contends; each per-key sub-history is then checked
//! against sequential boolean-set semantics.
//!
//! A sharded forest has no row of its own: its point op on `k` is the
//! member's op on the shard `Partition::shard_of(k)` picks, a pure
//! function of `k`, so each of its per-key histories is a history of one
//! fanout member, which the rows below check. `shard`'s
//! `sequential_oracle` checks the routing.

use bench::{BatAdapter, ChromaticAdapter, FanoutAdapter};
use cbat::{BatSet, DelegationPolicy};
use workloads::linearize::assert_point_ops_linearizable;
use workloads::BenchSet;

/// The shipped `BatSet` (leaves of up to `LEAF_KEYS` keys).
struct FatLeaves(BatSet<u64>);

impl BenchSet for FatLeaves {
    fn insert(&self, k: u64) -> bool {
        self.0.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.0.remove(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.0.contains(&k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.0.range_count(&lo, &hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.0.rank(&k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.0.select(i)
    }
    fn name(&self) -> &'static str {
        "BAT, fat leaves"
    }
}

fn check(set: &dyn BenchSet, what: &str) {
    assert_point_ops_linearizable(set, 6, 8, 40, 0x0BA7_05E7, what);
    ebr::flush();
}

#[test]
fn point_ops_linearizable_bat() {
    check(&BatAdapter::plain(), "BAT (no delegation)");
}

#[test]
fn point_ops_linearizable_eager_del() {
    check(&BatAdapter::eager(), "BAT-EagerDel");
}

#[test]
fn point_ops_linearizable_bat_fat_leaves() {
    check(
        &FatLeaves(BatSet::with_policy(DelegationPolicy::None)),
        "BAT, fat leaves (no delegation)",
    );
}

#[test]
fn point_ops_linearizable_eager_del_fat_leaves() {
    check(
        &FatLeaves(BatSet::with_policy(DelegationPolicy::EagerDel)),
        "BAT-EagerDel, fat leaves",
    );
}

#[test]
fn point_ops_linearizable_fanout_per_edge() {
    check(&FanoutAdapter::new(), "fanout (per-edge publication)");
}

#[test]
fn point_ops_linearizable_chromatic() {
    check(&ChromaticAdapter::new(), "chromatic (unaugmented)");
}
