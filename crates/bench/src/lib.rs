//! # bench — the `BenchSet` adapters and the `repro` binary
//!
//! Adapters implement [`workloads::BenchSet`] for every structure in the
//! comparison (paper Table 1), so one harness drives them all. Each one
//! passes every call straight through to one structure a figure runs and
//! keeps no state of its own. Their users are `repro` (`src/bin/repro.rs`:
//! the paper's tables and figures as CSV), this crate's tests and the root
//! linearizability suite.
//!
//! | adapter | paper line | augmented | balanced |
//! |---|---|---|---|
//! | [`BatAdapter`] (`plain`/`del`/`eager`) | BAT / BAT-Del / BAT-EagerDel | yes | yes |
//! | [`BatAdapter::fr`] | FR-BST | yes | no |
//! | [`VcasAdapter`] | VcasBST | no | no |
//! | [`FanoutAdapter`] | VerlibBTree | no | yes |
//! | [`ChromaticAdapter`] | (ablation: unaugmented chromatic; update-only, not in [`ADAPTERS`]) | no | yes |

use cbat_core::{BatSet, DelegationPolicy, SizeOnly};
use chromatic::ChromaticSet;
use fanout::FanoutSet;
use vcas::VcasSet;
use workloads::BenchSet;

/// BAT under a chosen propagate variant, or FR-BST (the same tree without
/// rebalancing, propagating without delegation). Both hold one key per
/// leaf, as the paper's figures do.
pub struct BatAdapter {
    set: BatSet<u64, SizeOnly, 1>,
    name: &'static str,
}

impl BatAdapter {
    fn balanced(policy: DelegationPolicy) -> Self {
        BatAdapter {
            set: BatSet::with_policy(policy),
            name: policy.name(),
        }
    }

    /// Plain BAT (double refresh, no delegation).
    pub fn plain() -> Self {
        Self::balanced(DelegationPolicy::None)
    }

    /// BAT-Del (delegate after a failed double refresh).
    pub fn del() -> Self {
        Self::balanced(DelegationPolicy::Del)
    }

    /// BAT-EagerDel (delegate after a single failed refresh).
    pub fn eager() -> Self {
        Self::balanced(DelegationPolicy::EagerDel)
    }

    /// FR-BST, the unbalanced augmented baseline.
    pub fn fr() -> Self {
        BatAdapter {
            set: BatSet::new_unbalanced(),
            name: "FR-BST",
        }
    }

    /// The wrapped set (for stats).
    pub fn inner(&self) -> &BatSet<u64, SizeOnly, 1> {
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
    fn name(&self) -> &'static str {
        self.name
    }
}

/// VcasBST-style baseline (unaugmented, O(range) snapshot queries).
pub struct VcasAdapter {
    set: VcasSet,
}

impl VcasAdapter {
    pub fn new() -> Self {
        VcasAdapter {
            set: VcasSet::new(),
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
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(k)
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
    fn name(&self) -> &'static str {
        "VcasBST"
    }
}

/// Higher-fanout snapshot baseline (VerlibBTree stand-in).
pub struct FanoutAdapter {
    set: FanoutSet,
}

impl FanoutAdapter {
    pub fn new() -> Self {
        FanoutAdapter {
            set: FanoutSet::new(),
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
        self.set.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.set.remove(k)
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
    fn name(&self) -> &'static str {
        "VerlibBTree*"
    }
}

/// Unaugmented chromatic tree — the augmentation-overhead ablation (A2).
/// Only point operations are meaningful; ordered queries are not supported
/// (that inability is BAT's raison d'être), so the ablation runs an
/// update-only mix and a query panics: silently returning a wrong count
/// would corrupt an experiment, a loud abort cannot. It is not in
/// [`ADAPTERS`]; `repro`'s `ablation-augment` builds it by name.
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
    fn name(&self) -> &'static str {
        "Chromatic (unaugmented)"
    }
}

/// Builds one fresh adapter.
pub type MkSet = fn() -> Box<dyn BenchSet>;

/// Every adapter that answers every query (not the update-only
/// [`ChromaticAdapter`]), under the name its `name()` returns, in the
/// order that makes the two paper lineups contiguous runs.
pub static ADAPTERS: [(&str, MkSet); 6] = [
    ("BAT", || Box::new(BatAdapter::plain())),
    ("BAT-Del", || Box::new(BatAdapter::del())),
    ("BAT-EagerDel", || Box::new(BatAdapter::eager())),
    ("FR-BST", || Box::new(BatAdapter::fr())),
    ("VcasBST", || Box::new(VcasAdapter::new())),
    ("VerlibBTree*", || Box::new(FanoutAdapter::new())),
];

/// The propagate variants against FR-BST (Fig. 5a/5b).
pub fn variants() -> &'static [(&'static str, MkSet)] {
    &ADAPTERS[..4]
}

/// The full comparison lineup used by Figs. 6–10.
pub fn lineup() -> &'static [(&'static str, MkSet)] {
    &ADAPTERS[2..]
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
        assert_eq!(set.select(1), Some(20));
        assert!(set.remove(10));
        assert_eq!(set.range_count(0, 100), 1);
    }

    #[test]
    fn all_adapters_agree_on_semantics() {
        for (_, mk) in &ADAPTERS {
            exercise(mk().as_ref());
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
        // Every adapter `ADAPTERS` lists runs the query share of a mix.
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
            for (name, mk) in &ADAPTERS {
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
