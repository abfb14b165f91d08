//! Per-key linearizability of point operations, across structures.
//!
//! The checker and history recorder live in `workloads::linearize` (they
//! were extracted from this file so any `BenchSet` adapter can run under
//! them); this suite drives the real structures through the bench
//! adapters: BAT under two delegation policies, the fanout tree, the
//! unaugmented chromatic tree and the two sharded forests.
//!
//! Histories are recorded on a hot 8-key space by 6 threads, so nearly
//! every operation contends; each per-key sub-history is then checked
//! against sequential boolean-set semantics.

use bench::{BatAdapter, ChromaticAdapter, FanoutAdapter, ShardedBatAdapter, ShardedFanoutAdapter};
use workloads::linearize::assert_point_ops_linearizable;
use workloads::BenchSet;

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
fn point_ops_linearizable_fanout_per_edge() {
    check(&FanoutAdapter::new(), "fanout (per-edge publication)");
}

#[test]
fn point_ops_linearizable_chromatic() {
    check(&ChromaticAdapter::new(), "chromatic (unaugmented)");
}

#[test]
fn point_ops_linearizable_sharded_bat() {
    // An 8-key hot space over 4 hash shards: several keys share a shard,
    // so the history exercises both in-shard contention and cross-shard
    // routing.
    check(&ShardedBatAdapter::new(4), "sharded BAT forest (hash)");
}

#[test]
fn point_ops_linearizable_sharded_fanout() {
    check(
        &ShardedFanoutAdapter::new(4),
        "sharded fanout forest (hash)",
    );
}
