//! The public BAT API: [`BatMap`] and [`BatSet`].
//!
//! `Insert`/`Delete` run the chromatic-tree update (with Definition 1's
//! version initialization applied to every allocated node via the plugin:
//! a new internal node starts nil, a new leaf is born as its own version),
//! then call `Propagate`, which carries the update to the root: an
//! effective update linearizes when it *arrives* there (§4.1). Queries
//! take a [`Snapshot`] and run sequential algorithms on it; `Find`
//! linearizes at its one read of the root's version.
//!
//! ## No-op updates
//!
//! Fig. 3 (lines 13–24) propagates after *every* update, even one that
//! changed nothing — an insert of a present key, a remove of an absent one
//! — because such a no-op may have observed, in the node tree, an
//! effective update that has not yet arrived at the root, and must not
//! return before that update is linearized. Here a no-op first reads the
//! root's version under its own guard and runs `Find`'s descent on it:
//!
//! * **The root agrees** (the key present for an insert, absent for a
//!   remove): the no-op returns without propagating, and linearizes at that
//!   root read, exactly as `Find` would. That read lies inside the call, and
//!   the state it shows gives the answer the call returns. Nothing else
//!   waits on the skipped propagate: the no-op changed no node, and every
//!   effective update carries itself to the root.
//! * **The root disagrees**: an effective update is in the node tree but not
//!   yet at the root — the case Fig. 3's propagate exists for — and the
//!   no-op propagates as the paper's does.
//!
//! The node tree is searched first and the root second, so an effective
//! update never pays the version descent. The root check runs on lines
//! [`warm_up`] has already prefetched. [`BatStats`] counts the two branches
//! apart (`propagates` and `root_answers`).

use chromatic::{ChromaticTree, SentKey};
use ebr::Guard;

use crate::augment::{Augmentation, SizeOnly};
use crate::propagate::{propagate, warm_up, DelegationPolicy};
use crate::refresh::read_version;
use crate::snapshot::{find_leaf, Snapshot};
use crate::stats::{BatStats, Counter};
use crate::version::{Version, VersionSlot};

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
    /// (BAT-EagerDel), whose delegation waits time out after
    /// [`DELEGATION_TIMEOUT`](crate::propagate::DELEGATION_TIMEOUT), making
    /// the implementation non-blocking end to end.
    pub fn new() -> Self {
        Self::with_options(true, DelegationPolicy::EagerDel)
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

    /// Insert `k → v`. Returns `true` iff `k` was absent (a present key
    /// keeps its value). An insert that adds `k` linearizes at its arrival
    /// point at the root (§4.1). One that finds `k` present and reads a root
    /// version that shows `k` linearizes at that read, as `Find` does;
    /// otherwise it propagates first, as every update does in Fig. 3 (see
    /// the module doc).
    pub fn insert(&self, k: K, v: V) -> bool {
        let guard = ebr::pin();
        let key = SentKey::Key(k.clone());
        warm_up(self.tree.entry(), &key, &guard);
        let changed = self.tree.insert(k, v, &guard);
        if changed || !self.root_agrees(&key, true, &guard) {
            propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        }
        changed
    }

    /// Remove `k`. Returns `true` iff it was present. Linearizes as
    /// [`BatMap::insert`] does: a remove that finds `k` absent returns at
    /// once only if the root's version already lacks `k`; otherwise a
    /// concurrent remove of `k` may not have reached the root yet, and it
    /// propagates first (§4's pseudocode discussion).
    pub fn remove(&self, k: &K) -> bool {
        let guard = ebr::pin();
        let key = SentKey::Key(k.clone());
        warm_up(self.tree.entry(), &key, &guard);
        let changed = self.tree.delete(k, &guard);
        if changed || !self.root_agrees(&key, false, &guard) {
            propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        }
        changed
    }

    /// The root check of a no-op update: does the root's current version
    /// hold `key` iff `present`? If so, counts a root answer — the no-op's
    /// linearization point is this read (see the module doc).
    fn root_agrees(&self, key: &SentKey<K>, present: bool, guard: &Guard) -> bool {
        let k = key.as_key().expect("updates name real keys");
        let h = self.stats.local();
        let root = read_version(self.tree.entry(), &h, guard);
        // SAFETY: `root` was the entry's version during `guard`'s pin, so it
        // is retired, if at all, after the pin began.
        // guard: `guard`, held by the calling update until it returns.
        let root = unsafe { Version::<K, V, A>::from_raw(root) };
        let agrees = find_leaf(root, k).is_some() == present;
        if agrees {
            Counter::RootAnswers.bump(&h);
        }
        agrees
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
