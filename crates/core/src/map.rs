//! The public BAT API: [`BatMap`] and [`BatSet`].
//!
//! `Insert`/`Delete` run the chromatic-tree update (with Definition 1's
//! version initialization applied to every allocated node via the plugin),
//! then call `Propagate` — even when the update did not change the set
//! (paper Fig. 3 lines 13–24 and the discussion of unsuccessful updates).
//! Queries take a [`Snapshot`] and run sequential algorithms on it.

use chromatic::{ChromaticTree, SentKey};

use crate::augment::{Augmentation, SizeOnly};
use crate::propagate::{propagate, warm_up, DelegationPolicy};
use crate::refresh::read_version;
use crate::snapshot::Snapshot;
use crate::stats::BatStats;
use crate::version::VersionSlot;

/// A lock-free balanced augmented ordered map (the paper's BAT), generic
/// over keys, values and the augmentation function.
///
/// The same type also embodies **FR-BST** (the unbalanced augmented
/// baseline \[13\]): constructed with [`BatMap::new_unbalanced`], the node
/// tree skips all rebalancing and degenerates to the lock-free BST of
/// Ellen et al. \[11\] — which is exactly the structure FR augment. FR-BST
/// propagates without delegation, the one configuration the paper
/// evaluates (Fig. 5); delegation is a policy of the balanced tree only.
pub struct BatMap<K, V, A = SizeOnly>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    pub(crate) tree: ChromaticTree<K, V, VersionSlot<K, V, A>>,
    policy: DelegationPolicy,
    /// Work counters (§7 statistics).
    pub stats: BatStats,
}

impl<K, V, A> BatMap<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Balanced BAT with the paper's best-performing variant
    /// (BAT-EagerDel) and a small delegation timeout, making the
    /// implementation non-blocking end to end.
    pub fn new() -> Self {
        Self::with_options(
            true,
            DelegationPolicy::EagerDel {
                timeout: std::time::Duration::from_millis(2),
            },
        )
    }

    /// Balanced BAT with an explicit delegation policy.
    pub fn with_policy(policy: DelegationPolicy) -> Self {
        Self::with_options(true, policy)
    }

    /// FR-BST: the unbalanced augmented baseline of \[13\].
    pub fn new_unbalanced() -> Self {
        Self::with_options(false, DelegationPolicy::None)
    }

    fn with_options(balanced: bool, policy: DelegationPolicy) -> Self {
        let map = BatMap {
            tree: ChromaticTree::with_balance(balanced),
            policy,
            stats: BatStats::default(),
        };
        // Initialize the entry's version so queries never observe nil
        // (Definition 1 leaves internal nodes nil; one recursive refresh
        // builds the empty version tree).
        let guard = ebr::pin();
        read_version(map.tree.entry(), &map.stats.local(), &guard);
        map
    }

    /// This map's propagate variant.
    pub fn policy(&self) -> DelegationPolicy {
        self.policy
    }

    /// Insert `k → v`. Returns `true` iff `k` was absent. Linearizes at
    /// the operation's arrival point at the root (§4.1).
    pub fn insert(&self, k: K, v: V) -> bool {
        let guard = ebr::pin();
        let key = SentKey::Key(k.clone());
        warm_up(self.tree.entry(), &key, &guard);
        let changed = self.tree.insert(k, v, &guard);
        propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        changed
    }

    /// Remove `k`. Returns `true` iff it was present. Note that even a
    /// failed delete must propagate (a concurrent delete of the same key
    /// may not have reached the root yet — §4's pseudocode discussion).
    pub fn remove(&self, k: &K) -> bool {
        let guard = ebr::pin();
        let key = SentKey::Key(k.clone());
        warm_up(self.tree.entry(), &key, &guard);
        let changed = self.tree.delete(k, &guard);
        propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        changed
    }

    /// Take an atomic snapshot of the whole set: one read of the root's
    /// version pointer (the query linearization point).
    pub fn snapshot(&self) -> Snapshot<K, V, A> {
        let guard = ebr::pin();
        let root = read_version(self.tree.entry(), &self.stats.local(), &guard);
        Snapshot::new(root, guard)
    }

    /// The map's *current* root version pointer as an opaque token —
    /// what [`Snapshot::version_token`] would return for a snapshot
    /// taken now. Comparing it against a held snapshot's token tells
    /// whether any update committed since that snapshot was taken; the
    /// `shard` crate's cross-shard cut validates its double-collect
    /// with exactly this check.
    pub fn version_token(&self) -> u64 {
        let guard = ebr::pin();
        read_version(self.tree.entry(), &self.stats.local(), &guard)
    }

    /// `Find(k)`: BST search on the version tree (paper Fig. 3).
    pub fn contains(&self, k: &K) -> bool {
        self.snapshot().contains(k)
    }

    /// Point lookup through a snapshot.
    pub fn get(&self, k: &K) -> Option<V> {
        self.snapshot().get(k)
    }

    /// Number of keys — O(1) via the root version's size field.
    pub fn len(&self) -> u64 {
        self.snapshot().len()
    }

    /// True if the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of keys ≤ `k` (order-statistic rank query, O(log n)).
    pub fn rank(&self, k: &K) -> u64 {
        self.snapshot().rank(k)
    }

    /// The `i`-th smallest key (0-indexed) and its value (select query).
    pub fn select(&self, i: u64) -> Option<(K, V)> {
        self.snapshot().select(i)
    }

    /// Number of keys in `[lo, hi]` (counting range query, O(log n)).
    pub fn range_count(&self, lo: &K, hi: &K) -> u64 {
        self.snapshot().range_count(lo, hi)
    }

    /// Augmentation aggregate over `[lo, hi]` (O(log n) combines).
    pub fn range_aggregate(&self, lo: &K, hi: &K) -> A::Value {
        self.snapshot().range_aggregate(lo, hi)
    }

    /// Materialize the pairs in `[lo, hi]`.
    pub fn range_collect(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.snapshot().range_collect(lo, hi)
    }

    /// The whole-set aggregate, O(1).
    pub fn aggregate(&self) -> A::Value {
        self.snapshot().aggregate()
    }

    /// Access the underlying node tree (validation, statistics, tests).
    pub fn node_tree(&self) -> &ChromaticTree<K, V, VersionSlot<K, V, A>> {
        &self.tree
    }
}

impl<K, V, A> Default for BatMap<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    fn default() -> Self {
        Self::new()
    }
}

/// A lock-free balanced augmented ordered **set** (values are `()`).
pub struct BatSet<K, A = SizeOnly>
where
    K: Ord + Clone + Send + Sync + 'static,
    A: Augmentation<K, ()>,
{
    map: BatMap<K, (), A>,
}

impl<K, A> BatSet<K, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    A: Augmentation<K, ()>,
{
    /// Balanced, BAT-EagerDel (see [`BatMap::new`]).
    pub fn new() -> Self {
        BatSet { map: BatMap::new() }
    }

    /// Explicit variant selection.
    pub fn with_policy(policy: DelegationPolicy) -> Self {
        BatSet {
            map: BatMap::with_policy(policy),
        }
    }

    /// FR-BST configuration.
    pub fn new_unbalanced() -> Self {
        BatSet {
            map: BatMap::new_unbalanced(),
        }
    }

    /// Insert `k`; `true` iff newly added.
    pub fn insert(&self, k: K) -> bool {
        self.map.insert(k, ())
    }

    /// Remove `k`; `true` iff present.
    pub fn remove(&self, k: &K) -> bool {
        self.map.remove(k)
    }

    /// Membership via snapshot search.
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains(k)
    }

    /// Set size, O(1).
    pub fn len(&self) -> u64 {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Keys ≤ `k`.
    pub fn rank(&self, k: &K) -> u64 {
        self.map.rank(k)
    }

    /// `i`-th smallest key.
    pub fn select(&self, i: u64) -> Option<K> {
        self.map.select(i).map(|(k, _)| k)
    }

    /// Keys in `[lo, hi]`.
    pub fn range_count(&self, lo: &K, hi: &K) -> u64 {
        self.map.range_count(lo, hi)
    }

    /// Snapshot of the set.
    pub fn snapshot(&self) -> Snapshot<K, (), A> {
        self.map.snapshot()
    }

    /// Current root version token (see [`BatMap::version_token`]).
    pub fn version_token(&self) -> u64 {
        self.map.version_token()
    }

    /// The underlying map.
    pub fn as_map(&self) -> &BatMap<K, (), A> {
        &self.map
    }

    /// The striped work counters of the underlying map (per-thread
    /// cache-padded stripes; see [`crate::stats::BatStats`]).
    pub fn stats(&self) -> &BatStats {
        &self.map.stats
    }
}

impl<K, A> Default for BatSet<K, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    A: Augmentation<K, ()>,
{
    fn default() -> Self {
        Self::new()
    }
}
