//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each one
//! should move. `BENCHMARK.json` at the repo root is `--manifest` output,
//! so the table here and the file there cannot drift apart.

use std::fmt::Write as _;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_260_926;
/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bat-update",
        why: "2 threads on one BatSet, 50% insert / 50% remove over 2^20 keys, 2^19 present: the paper's update-heavy case; only core/chromatic/ebr work, queries and the serving stack are idle",
    },
    Workload {
        name: "bat-analytics",
        why: "same BatSet and threads, 20% updates, 20% contains, 60% rank/select/range_count: the reason augmentation exists; an update gain bought with costlier versions shows as query cost here",
    },
    Workload {
        name: "served-point",
        why: "run_serve over the shipped 1-shard fanout forest, 1 client x window 16, point requests only, paced at 20000 req/s then open: rings, hand-off and shard routing dominate, core is idle",
    },
    Workload {
        name: "served-mixed",
        why: "same forest with the shipped 15% stat / 5% range mix, paced at 500 req/s then open: snapshot leases, cross-shard queries and version chains dominate, and classes couple in the window",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Only what every workload has can be end-to-end: the driver reads each
/// of these from every run of every workload and takes one bound per name
/// (`README.md`, "The driver's contract"). `point_p50_ns` is the update
/// call on `bat-*` and the point class on `served-*`.
///
/// A bound is three times the widest spread (IQR / median over ten seeds)
/// the metric shows on any workload in either set of `AA.json`, rounded up
/// to the next 0.05 and kept within 0.10 ..= 0.25.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "point_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `card` = single-thread timing of the layer's public call, `ctr` =
    /// delta of the layer's public counters, `run` = read off the
    /// workload's own run, `calc` = computed from other metrics.
    pub kind: &'static str,
    /// The end-to-end metric@workload this one should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    layer: &'static str,
    unit: &'static str,
    better: Better,
    kind: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        layer,
        unit,
        better,
        kind,
        moves,
    }
}

use Better::{Higher, Lower};

// One row per metric reads better than what rustfmt makes of it.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 58] = [
    // serve
    pl("serve.ring_push_pop_ns", "serve", "ns", Lower, "card", "point_p50_ns@served-point"),
    pl("serve.lease_renew_ns", "serve", "ns", Lower, "card", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("serve.lease_renewals_per_s", "serve", "1/s", Higher, "run", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("serve.point_p99_ns", "serve", "ns", Lower, "run", "ungated tail of point_p50_ns@served-*"),
    pl("serve.point_p999_ns", "serve", "ns", Lower, "run", "ungated tail of point_p50_ns@served-*"),
    pl("serve.stat_p99_ns", "serve", "ns", Lower, "run", "ungated tail of stat_p50_ns@served-mixed"),
    pl("serve.range_p50_ns", "serve", "ns", Lower, "run", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("serve.range_p99_ns", "serve", "ns", Lower, "run", "ungated tail of stat_p50_ns@served-mixed"),
    pl("serve.open_point_p50_ns", "serve", "ns", Lower, "run", "ops_per_s@served-*"),
    pl("serve.rejected_share", "serve", "ratio", Lower, "run", "failed_share"),
    pl("serve.sent_share", "serve", "ratio", Higher, "run", "validity of point_p50_ns@served-*"),
    pl("serve.point_residual_ns", "serve", "ns", Lower, "calc", "point_p50_ns@served-*"),
    pl("serve.stat_residual_ns", "serve", "ns", Lower, "calc", "stat_p50_ns, ops_per_s@served-mixed"),
    // shard
    pl("shard.route_ns", "shard", "ns", Lower, "card", "point_p50_ns@served-point"),
    pl("shard.point_op_ns", "shard", "ns", Lower, "card", "point_p50_ns, ops_per_s@served-point"),
    pl("shard.snapshot_at_ns", "shard", "ns", Lower, "card", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("shard.snap_rank_ns", "shard", "ns", Lower, "card", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("shard.snap_select_ns", "shard", "ns", Lower, "card", "stat_p50_ns, ops_per_s@served-mixed"),
    pl("shard.snap_range_count_ns", "shard", "ns", Lower, "card", "ops_per_s@served-mixed"),
    pl("shard.scx_abort_share", "shard", "ratio", Lower, "ctr", "ops_per_s@served-*"),
    // fanout / vedge
    pl("fanout.update_ns", "fanout", "ns", Lower, "card", "ops_per_s, point_p50_ns@served-point"),
    pl("fanout.contains_ns", "fanout", "ns", Lower, "card", "ops_per_s, point_p50_ns@served-point"),
    pl("fanout.retry_share", "fanout", "ratio", Lower, "ctr", "ops_per_s@served-point"),
    pl("vedge.max_version_chain", "vedge", "count", Lower, "run", "stat_p50_ns, ops_per_s@served-mixed, rss_peak_mb"),
    pl("vedge.register_ns", "vedge", "ns", Lower, "card", "stat_p50_ns, ops_per_s@served-mixed"),
    // core
    pl("core.insert_ns", "core", "ns", Lower, "card", "point_p50_ns@bat-*"),
    pl("core.remove_ns", "core", "ns", Lower, "card", "point_p50_ns@bat-*"),
    pl("core.contains_ns", "core", "ns", Lower, "card", "ops_per_s@bat-analytics"),
    pl("core.rank_ns", "core", "ns", Lower, "card", "query_p50_ns, ops_per_s@bat-analytics"),
    pl("core.select_ns", "core", "ns", Lower, "card", "query_p50_ns, ops_per_s@bat-analytics"),
    pl("core.range_count_ns", "core", "ns", Lower, "card", "query_p50_ns, ops_per_s@bat-analytics"),
    pl("core.snapshot_ns", "core", "ns", Lower, "card", "query_p50_ns, ops_per_s@bat-analytics"),
    pl("core.update_p999_ns", "core", "ns", Lower, "run", "ungated tail of point_p50_ns@bat-*"),
    pl("core.query_p99_ns", "core", "ns", Lower, "run", "ungated tail of query_p50_ns@bat-analytics"),
    pl("core.propagates_per_update", "core", "count", Lower, "ctr", "ops_per_s@bat-update"),
    pl("core.nodes_per_propagate", "core", "count", Lower, "ctr", "ops_per_s, point_p50_ns@bat-update"),
    pl("core.cas_per_propagate", "core", "count", Lower, "ctr", "ops_per_s, point_p50_ns@bat-update"),
    pl("core.nil_fixes_per_propagate", "core", "count", Lower, "ctr", "ops_per_s@bat-update, query_p50_ns, ops_per_s@bat-analytics"),
    pl("core.cas_fail_share", "core", "ratio", Lower, "ctr", "ops_per_s, update_p99_ns@bat-update"),
    pl("core.delegation_share", "core", "ratio", Higher, "ctr", "ops_per_s, update_p99_ns@bat-update"),
    pl("core.delegation_timeouts", "core", "count", Lower, "ctr", "update_p99_ns@bat-update"),
    pl("core.augment_overhead_ns", "core", "ns", Lower, "calc", "point_p50_ns@bat-update"),
    // chromatic, frbst
    pl("chromatic.update_ns", "chromatic", "ns", Lower, "card", "floor under point_p50_ns@bat-update"),
    pl("chromatic.contains_ns", "chromatic", "ns", Lower, "card", "floor under core.contains_ns"),
    pl("frbst.update_ns", "frbst", "ns", Lower, "card", "none: the paper's comparison base"),
    // ebr + pool
    pl("ebr.pin_ns", "ebr", "ns", Lower, "card", "point_p50_ns, ops_per_s on all four"),
    pl("ebr.retired_per_op", "ebr", "count", Lower, "ctr", "ops_per_s, rss_peak_mb"),
    pl("ebr.unreclaimed_end", "ebr", "count", Lower, "ctr", "rss_peak_mb"),
    pl("ebr.epoch_advances_per_s", "ebr", "1/s", Higher, "ctr", "rss_peak_mb"),
    pl("ebr.pool_hit_share", "ebr", "ratio", Higher, "ctr", "ops_per_s, rss_peak_mb"),
    // process
    pl("alloc.calls_per_op", "process", "count", Lower, "card", "point_p50_ns"),
    pl("alloc.bytes_per_op", "process", "B", Lower, "card", "point_p50_ns, rss_peak_mb"),
    pl("mem.bytes_per_key", "process", "B", Lower, "run", "rss_peak_mb"),
    pl("trace.overhead_share", "process", "ratio", Lower, "run", "none: cost of the benchmark's own spans"),
    // End-to-end by nature, but defined on some workloads only, never
    // non-zero, or not steady enough to carry a bound: reported ungated
    // under the names the issue gave them.
    pl("query_p50_ns", "core", "ns", Lower, "run", "ops_per_s@bat-analytics"),
    pl("stat_p50_ns", "serve", "ns", Lower, "run", "ops_per_s@served-mixed"),
    pl("update_p99_ns", "core", "ns", Lower, "run", "ungated tail of point_p50_ns@bat-update"),
    pl("failed_share", "process", "ratio", Lower, "run", "must stay 0 on every workload"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}
