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
//! ## Leaf capacity
//!
//! Both types take the node tree's leaf capacity `B` as a const generic
//! and default to [`LEAF_KEYS`]. A leaf of up to `B` sorted keys is still
//! its own version — its size is its length, its aggregate the fold of
//! `A::leaf` over its entries — so most effective updates replace one
//! leaf and then refresh a path some levels shorter than with one key per
//! leaf (`chromatic::ChromaticTree`'s module doc has the patch shapes).
//! `B = 1` is the paper's tree exactly: FR-BST (`new_unbalanced` in the
//! `frbst` crate) and the paper's figures use it.
//!
//! ## No-op updates
//!
//! Fig. 3 (lines 13–24) propagates after *every* update, even one that
//! changed nothing — an insert of a present key, a remove of an absent one
//! — because such a no-op may have observed, in the node tree, an
//! effective update that has not yet arrived at the root, and must not
//! return before that update is linearized. Here every update first reads
//! the root's version under its own guard and runs `Find`'s descent on it,
//! before it touches the node tree:
//!
//! * **The root answers** (the key present for an insert, absent for a
//!   remove): the update returns `false` without touching the node tree or
//!   propagating, and linearizes at that root read, exactly as `Find`
//!   would. That read lies inside the call, and the state it shows gives
//!   the answer the call returns. Nothing else waits on the skipped
//!   propagate: the update changed no node, and every effective update
//!   carries itself to the root.
//! * **Otherwise** the update runs on the node tree and then propagates,
//!   whatever the node tree said. If it changed nothing there, an effective
//!   update is in the node tree but not yet at the root — the case Fig. 3's
//!   propagate exists for — and the propagate carries it there, as the
//!   paper's no-op does.
//!
//! That one walk also warms the node path the rest of the update reads.
//! Each version names the node it was built for (a prefetch hint, see
//! [`Version`]), so the descent prefetches the nodes the chromatic search,
//! and then the propagate's refreshes, chase. It prefetches nothing off
//! the path: with fat leaves that measured as noise (README, "Overlapped
//! misses"). [`BatStats`] counts the two branches apart (`propagates` and
//! `root_answers`).

use chromatic::{ChromaticTree, SentKey};
use ebr::Guard;

use crate::augment::{Augmentation, SizeOnly};
use crate::propagate::{propagate, DelegationPolicy};
use crate::refresh::read_version;
use crate::snapshot::{find_leaf, Snapshot};
use crate::stats::{BatStats, Counter};
use crate::version::{Version, VersionSlot};

/// The leaf capacity [`BatMap`] and [`BatSet`] ship with: the most keys
/// one leaf holds. With `u64` keys and no values a leaf of 16 fills three
/// cache lines: its 64-byte node, then its 16 entries. Chosen over 4 and 8
/// by the benchmark's `bat-update` and `bat-analytics` (README, "Fat
/// leaves").
pub const LEAF_KEYS: usize = 16;

/// A lock-free balanced augmented ordered map (the paper's BAT), generic
/// over keys, values, the augmentation function and the leaf capacity `B`
/// (the paper's one key per leaf is `B = 1`; see [`LEAF_KEYS`]).
///
/// The same type also embodies **FR-BST** (the unbalanced augmented
/// baseline \[13\]): constructed with [`BatMap::new_unbalanced`], the node
/// tree skips all rebalancing and degenerates to the lock-free BST of
/// Ellen et al. \[11\] — which is exactly the structure FR augment. FR-BST
/// propagates without delegation, the one configuration the paper
/// evaluates (Fig. 5); delegation is a policy of the balanced tree only.
pub struct BatMap<K, V, A = SizeOnly, const B: usize = LEAF_KEYS>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    pub(crate) tree: ChromaticTree<K, V, VersionSlot<K, V, A>, B>,
    policy: DelegationPolicy,
    /// Work counters (§7 statistics).
    pub stats: BatStats,
}

impl<K, V, A, const B: usize> BatMap<K, V, A, B>
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
    /// keeps its value). An insert whose root check finds `k` already in the
    /// root's version returns `false` and linearizes at that read, as `Find`
    /// does. Every other insert runs on the node tree and then propagates,
    /// as every update does in Fig. 3: one that adds `k` linearizes at its
    /// arrival point at the root (§4.1), and one that finds `k` present
    /// first carries the insert that put it there to the root (see the
    /// module doc).
    pub fn insert(&self, k: K, v: V) -> bool {
        let guard = ebr::pin();
        if self.root_answers(&k, true, &guard) {
            return false;
        }
        let key = SentKey::Key(k.clone());
        let changed = self.tree.insert(k, v, &guard);
        propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        changed
    }

    /// Remove `k`. Returns `true` iff it was present. Linearizes as
    /// [`BatMap::insert`] does: a remove whose root check finds `k` absent
    /// returns at once; otherwise it removes `k` from the node tree and
    /// propagates, even if `k` was gone already — a concurrent remove of
    /// `k` may not have reached the root yet (§4's pseudocode discussion).
    pub fn remove(&self, k: &K) -> bool {
        let guard = ebr::pin();
        if self.root_answers(k, false, &guard) {
            return false;
        }
        let key = SentKey::Key(k.clone());
        let changed = self.tree.delete(k, &guard);
        propagate(self.tree.entry(), &key, self.policy, &self.stats, &guard);
        changed
    }

    /// An update's root check, its one walk before the node tree: does the
    /// root's current version hold `k` iff `present`? If so, counts a root
    /// answer — the no-op's linearization point is this read (see the
    /// module doc). It is `Find`'s descent, which also prefetches each
    /// on-path version's node: the lines the node-tree search chases next.
    fn root_answers(&self, k: &K, present: bool, guard: &Guard) -> bool {
        let h = self.stats.local();
        let root = read_version(self.tree.entry(), &h, guard);
        // SAFETY: `root` was the entry's version during `guard`'s pin, so it
        // is retired, if at all, after the pin began.
        // guard: `guard`, held by the calling update until it returns.
        let root = unsafe { Version::<K, V, A>::from_raw(root) };
        let answers = find_leaf(root, k, Version::prefetch_node).is_some() == present;
        if answers {
            Counter::RootAnswers.bump(&h);
        }
        answers
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
    pub fn node_tree(&self) -> &ChromaticTree<K, V, VersionSlot<K, V, A>, B> {
        &self.tree
    }
}

impl<K, V, A, const B: usize> Default for BatMap<K, V, A, B>
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
pub struct BatSet<K, A = SizeOnly, const B: usize = LEAF_KEYS>
where
    K: Ord + Clone + Send + Sync + 'static,
    A: Augmentation<K, ()>,
{
    map: BatMap<K, (), A, B>,
}

impl<K, A, const B: usize> BatSet<K, A, B>
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
    pub fn as_map(&self) -> &BatMap<K, (), A, B> {
        &self.map
    }

    /// The striped work counters of the underlying map (per-thread
    /// cache-padded stripes; see [`crate::stats::BatStats`]).
    pub fn stats(&self) -> &BatStats {
        &self.map.stats
    }
}

impl<K, A, const B: usize> Default for BatSet<K, A, B>
where
    K: Ord + Clone + Send + Sync + 'static,
    A: Augmentation<K, ()>,
{
    fn default() -> Self {
        Self::new()
    }
}
