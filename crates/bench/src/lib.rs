//! # bench — the `BenchSet` adapters and the `repro` binary
//!
//! Adapters implement [`workloads::BenchSet`] for every structure in the
//! comparison (paper Table 1), so one harness drives them all. Their
//! users are `repro` (`src/bin/repro.rs`: the paper's tables and figures
//! as CSV), this crate's tests and the root linearizability suite.
//!
//! | adapter | paper line | augmented | balanced |
//! |---|---|---|---|
//! | [`BatAdapter`] (None/Del/EagerDel) | BAT / BAT-Del / BAT-EagerDel | yes | yes |
//! | [`FrAdapter`] | FR-BST | yes | no |
//! | [`VcasAdapter`] | VcasBST | no | no |
//! | [`FanoutAdapter`] | VerlibBTree | no | yes |
//! | [`ShardedBatAdapter`] / [`ShardedFanoutAdapter`] | (forests of BAT / VerlibBTree* shards) | yes / no | yes |
//! | [`ChromaticAdapter`] | (ablation: unaugmented chromatic; update-only, not in [`full_lineup`]) | no | yes |

use std::sync::atomic::{AtomicI64, Ordering};

use cbat_core::{BatSet, DelegationPolicy, SizeOnly};
use chromatic::ChromaticSet;
use fanout::FanoutSet;
use frbst::FrSet;
use shard::{ShardMember, ShardedSet};
use vcas::VcasSet;
use workloads::BenchSet;

/// Default delegation timeout used by the benchmark variants (keeps every
/// variant non-blocking, per §5's timeout note).
pub fn timeout() -> std::time::Duration {
    std::time::Duration::from_millis(2)
}

/// BAT under a chosen propagate variant.
pub struct BatAdapter {
    set: BatSet<u64, SizeOnly>,
    name: &'static str,
}

impl BatAdapter {
    /// Plain BAT (double refresh, no delegation).
    pub fn plain() -> Self {
        BatAdapter {
            set: BatSet::with_policy(DelegationPolicy::None),
            name: "BAT",
        }
    }

    /// BAT-Del (delegate after a failed double refresh).
    pub fn del() -> Self {
        BatAdapter {
            set: BatSet::with_policy(DelegationPolicy::Del { timeout: timeout() }),
            name: "BAT-Del",
        }
    }

    /// BAT-EagerDel (delegate after a single failed refresh).
    pub fn eager() -> Self {
        BatAdapter {
            set: BatSet::with_policy(DelegationPolicy::EagerDel { timeout: timeout() }),
            name: "BAT-EagerDel",
        }
    }

    /// The wrapped set (for stats).
    pub fn inner(&self) -> &BatSet<u64, SizeOnly> {
        &self.set
    }
}

impl BenchSet for BatAdapter {
    fn insert(&self, k: u64) -> bool {
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(&k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.set.range_count(&lo, &hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.set.rank(&k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.set.select(i)
    }
    fn size_hint(&self) -> u64 {
        self.set.len()
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

/// FR-BST (unbalanced augmented baseline).
pub struct FrAdapter {
    set: FrSet<u64>,
}

impl FrAdapter {
    pub fn new() -> Self {
        FrAdapter { set: FrSet::new() }
    }

    /// The wrapped set (for stats).
    pub fn inner(&self) -> &FrSet<u64> {
        &self.set
    }
}

impl Default for FrAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchSet for FrAdapter {
    fn insert(&self, k: u64) -> bool {
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(&k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.set.range_count(&lo, &hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.set.rank(&k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.set.select(i)
    }
    fn size_hint(&self) -> u64 {
        self.set.len()
    }
    fn name(&self) -> &'static str {
        "FR-BST"
    }
}

/// VcasBST-style baseline (unaugmented, O(range) snapshot queries).
pub struct VcasAdapter {
    set: VcasSet,
    approx_size: AtomicI64,
}

impl VcasAdapter {
    pub fn new() -> Self {
        VcasAdapter {
            set: VcasSet::new(),
            approx_size: AtomicI64::new(0),
        }
    }
}

impl Default for VcasAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchSet for VcasAdapter {
    fn insert(&self, k: u64) -> bool {
        let ok = self.set.insert(k);
        if ok {
            self.approx_size.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
    fn remove(&self, k: u64) -> bool {
        let ok = self.set.remove(k);
        if ok {
            self.approx_size.fetch_sub(1, Ordering::Relaxed);
        }
        ok
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.set.snapshot().range_count(lo, hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.set.snapshot().rank(k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        // Unaugmented: select must scan (Θ(i)).
        let snap = self.set.snapshot();
        snap.range_collect(0, u64::MAX - 2)
            .into_iter()
            .nth(i as usize)
    }
    fn size_hint(&self) -> u64 {
        self.approx_size.load(Ordering::Relaxed).max(0) as u64
    }
    fn name(&self) -> &'static str {
        "VcasBST"
    }
}

/// Higher-fanout snapshot baseline (VerlibBTree stand-in).
pub struct FanoutAdapter {
    set: FanoutSet,
    approx_size: AtomicI64,
}

impl FanoutAdapter {
    pub fn new() -> Self {
        FanoutAdapter {
            set: FanoutSet::new(),
            approx_size: AtomicI64::new(0),
        }
    }
}

impl Default for FanoutAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchSet for FanoutAdapter {
    fn insert(&self, k: u64) -> bool {
        let ok = self.set.insert(k);
        if ok {
            self.approx_size.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
    fn remove(&self, k: u64) -> bool {
        let ok = self.set.remove(k);
        if ok {
            self.approx_size.fetch_sub(1, Ordering::Relaxed);
        }
        ok
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.set.snapshot().range_count(lo, hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.set.snapshot().rank(k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        let snap = self.set.snapshot();
        snap.range_collect(0, u64::MAX).into_iter().nth(i as usize)
    }
    fn size_hint(&self) -> u64 {
        self.approx_size.load(Ordering::Relaxed).max(0) as u64
    }
    fn name(&self) -> &'static str {
        "VerlibBTree*"
    }
}

/// The sharded front-end over any forest member (`crates/shard`): point
/// ops route to one shard, order statistics decompose across the forest,
/// and every query runs on one shared-clock consistent cut. The adapter
/// keeps its own approximate size counter so `select` arguments never
/// pay a cross-shard size sum per op.
pub struct ShardedAdapter<S: ShardMember> {
    set: ShardedSet<S>,
    approx_size: AtomicI64,
    name: &'static str,
}

impl<S: ShardMember> ShardedAdapter<S> {
    fn with_name(shards: usize, name: &'static str) -> Self {
        ShardedAdapter {
            set: ShardedSet::new(shards),
            approx_size: AtomicI64::new(0),
            name,
        }
    }
}

/// The BAT forest front-end.
pub type ShardedBatAdapter = ShardedAdapter<BatSet<u64, SizeOnly>>;

impl ShardedBatAdapter {
    pub fn new(shards: usize) -> Self {
        Self::with_name(shards, "ShardedBAT")
    }
}

/// The fanout forest front-end.
pub type ShardedFanoutAdapter = ShardedAdapter<FanoutSet>;

impl ShardedFanoutAdapter {
    pub fn new(shards: usize) -> Self {
        Self::with_name(shards, "ShardedFanout")
    }
}

impl<S: ShardMember> BenchSet for ShardedAdapter<S> {
    fn insert(&self, k: u64) -> bool {
        let ok = self.set.insert(k);
        if ok {
            self.approx_size.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }
    fn remove(&self, k: u64) -> bool {
        let ok = self.set.remove(k);
        if ok {
            self.approx_size.fetch_sub(1, Ordering::Relaxed);
        }
        ok
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.set.range_count(lo, hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.set.rank(k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.set.select(i)
    }
    fn size_hint(&self) -> u64 {
        self.approx_size.load(Ordering::Relaxed).max(0) as u64
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

/// Unaugmented chromatic tree — the augmentation-overhead ablation (A2).
/// Only point operations are meaningful; ordered queries are not supported
/// (that inability is BAT's raison d'être), so the ablation runs an
/// update-only mix and a query panics: silently returning a wrong count
/// would corrupt an experiment, a loud abort cannot. It is not in
/// [`full_lineup`]; `repro`'s `ablation-augment` builds it by name.
pub struct ChromaticAdapter {
    set: ChromaticSet<u64>,
}

impl ChromaticAdapter {
    pub fn new() -> Self {
        ChromaticAdapter {
            set: ChromaticSet::new(),
        }
    }
}

impl Default for ChromaticAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchSet for ChromaticAdapter {
    fn insert(&self, k: u64) -> bool {
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.set.contains(&k)
    }
    fn range_count(&self, _lo: u64, _hi: u64) -> u64 {
        unimplemented!("unaugmented chromatic tree: update-only ablation")
    }
    fn rank(&self, _k: u64) -> u64 {
        unimplemented!("unaugmented chromatic tree: update-only ablation")
    }
    fn select(&self, _i: u64) -> Option<u64> {
        unimplemented!("unaugmented chromatic tree: update-only ablation")
    }
    fn size_hint(&self) -> u64 {
        0
    }
    fn name(&self) -> &'static str {
        "Chromatic (unaugmented)"
    }
}

/// Builds one fresh adapter.
pub type MkSet = fn() -> Box<dyn BenchSet>;

/// Every adapter that answers every query, under the name its `name()`
/// returns, in the order that makes the two paper lineups contiguous runs.
static ADAPTERS: [(&str, MkSet); 8] = [
    ("BAT", || Box::new(BatAdapter::plain())),
    ("BAT-Del", || Box::new(BatAdapter::del())),
    ("BAT-EagerDel", || Box::new(BatAdapter::eager())),
    ("FR-BST", || Box::new(FrAdapter::new())),
    ("VcasBST", || Box::new(VcasAdapter::new())),
    ("VerlibBTree*", || Box::new(FanoutAdapter::new())),
    ("ShardedBAT", || Box::new(ShardedBatAdapter::new(4))),
    ("ShardedFanout", || Box::new(ShardedFanoutAdapter::new(4))),
];

/// The propagate variants against FR-BST (Fig. 5a/5b).
pub fn variants() -> &'static [(&'static str, MkSet)] {
    &ADAPTERS[..4]
}

/// The full comparison lineup used by Figs. 6–10.
pub fn lineup() -> &'static [(&'static str, MkSet)] {
    &ADAPTERS[2..6]
}

/// Every adapter that answers every query: the paper lineups and both
/// sharded forests (not the update-only [`ChromaticAdapter`]).
pub fn full_lineup() -> &'static [(&'static str, MkSet)] {
    &ADAPTERS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(set: &dyn BenchSet) {
        assert!(set.insert(10));
        assert!(set.insert(20));
        assert!(!set.insert(10));
        assert!(set.contains(10));
        assert!(!set.contains(15));
        assert_eq!(set.range_count(0, 100), 2);
        assert_eq!(set.rank(10), 1);
        assert!(set.remove(10));
        assert_eq!(set.range_count(0, 100), 1);
    }

    #[test]
    fn all_adapters_agree_on_semantics() {
        exercise(&BatAdapter::plain());
        exercise(&BatAdapter::del());
        exercise(&BatAdapter::eager());
        exercise(&FrAdapter::new());
        exercise(&VcasAdapter::new());
        exercise(&FanoutAdapter::new());
        for shards in [1, 4] {
            exercise(&ShardedBatAdapter::new(shards));
            exercise(&ShardedFanoutAdapter::new(shards));
        }
    }

    #[test]
    fn harness_drives_every_adapter() {
        let mut cfg = workloads::RunConfig::new(2, 2_000);
        cfg.duration = std::time::Duration::from_millis(40);
        cfg.mix = workloads::OpMix::percent(25, 25, 25, 25);
        cfg.query = workloads::QueryKind::RangeCount { size: 100 };
        for (name, mk) in lineup() {
            let r = workloads::run(mk().as_ref(), &cfg);
            assert!(r.total_ops > 0, "{name} did no work");
        }
        ebr::flush();
    }

    #[test]
    fn chromatic_ablation_updates_only() {
        let s = ChromaticAdapter::new();
        let mut cfg = workloads::RunConfig::new(2, 2_000);
        cfg.duration = std::time::Duration::from_millis(30);
        cfg.mix = workloads::OpMix::percent(50, 50, 0, 0);
        let r = workloads::run(&s, &cfg);
        assert!(r.total_ops > 0);
    }

    #[test]
    fn query_mixes_run_on_every_adapter_without_panicking() {
        use workloads::{KeyDist, QueryKind};
        // Every adapter `full_lineup()` lists runs the query share of a mix.
        // The skewed and sorted streams are the key distributions `repro`
        // draws besides uniform (sorted runs unprefilled, as Fig. 5b does).
        for (query, dist) in [
            (QueryKind::RangeCount { size: 64 }, KeyDist::Uniform),
            (QueryKind::Rank, KeyDist::Uniform),
            (QueryKind::Select, KeyDist::Uniform),
            (QueryKind::Rank, KeyDist::Zipf(0.95)),
            (QueryKind::Select, KeyDist::Sorted),
        ] {
            let mut cfg = workloads::RunConfig::new(2, 2_000);
            cfg.duration = std::time::Duration::from_millis(20);
            cfg.mix = workloads::OpMix::percent(10, 10, 40, 40);
            cfg.query = query;
            cfg.dist = dist;
            cfg.prefill = dist != KeyDist::Sorted;
            for (name, mk) in full_lineup() {
                let set = mk();
                assert_eq!(set.name(), *name);
                let r = workloads::run(set.as_ref(), &cfg);
                assert!(r.total_ops > 0, "{name} did no work under {dist:?}");
                assert!(r.ops[3] > 0, "{name} ran no queries under {dist:?}");
            }
            ebr::flush();
        }
    }
}
