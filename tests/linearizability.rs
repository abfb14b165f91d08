//! Per-key linearizability of point operations, across structures.
//!
//! The checker and history recorder live in `workloads::linearize` (they
//! were extracted from this file so any `BenchSet` adapter can run under
//! them); this suite drives the real structures through the bench
//! adapters: BAT under two delegation policies, the fanout tree and the
//! unaugmented chromatic tree.
//!
//! Histories are recorded on a hot 8-key space by 6 threads, so nearly
//! every operation contends; each per-key sub-history is then checked
//! against sequential boolean-set semantics.
//!
//! A sharded forest has no row of its own: its point op on `k` is the
//! member's op on the shard `Partition::shard_of(k)` picks, a pure
//! function of `k`, so each of its per-key histories is a history of one
//! BAT or fanout member, which the rows below check. `shard`'s
//! `sequential_oracle` checks the routing.

use bench::{BatAdapter, ChromaticAdapter, FanoutAdapter};
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
