//! A plain (unaugmented) concurrent ordered set/map facade over the
//! chromatic tree. This is the "fastest unaugmented balanced tree we
//! build" — the ablation baseline quantifying BAT's augmentation overhead.

use ebr::Guard;

use crate::tree::ChromaticTree;

/// A lock-free balanced ordered map without augmentation.
///
/// Unlike BAT, it supports only point operations efficiently; ordered
/// queries require a full traversal (no snapshots, no augmented values).
pub struct ChromaticMap<K, V> {
    tree: ChromaticTree<K, V, ()>,
}

impl<K, V> ChromaticMap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Create an empty map.
    pub fn new() -> Self {
        ChromaticMap {
            tree: ChromaticTree::new(),
        }
    }

    /// Insert `k → v`. Returns `true` if `k` was absent.
    pub fn insert(&self, k: K, v: V) -> bool {
        let guard = ebr::pin();
        self.tree.insert(k, v, &guard)
    }

    /// Remove `k`. Returns `true` if it was present.
    pub fn remove(&self, k: &K) -> bool {
        let guard = ebr::pin();
        self.tree.delete(k, &guard)
    }

    /// Membership test.
    pub fn contains(&self, k: &K) -> bool {
        let guard = ebr::pin();
        self.tree.contains(k, &guard)
    }

    /// Point lookup.
    pub fn get(&self, k: &K) -> Option<V> {
        let guard = ebr::pin();
        self.tree.get(k, &guard)
    }

    /// Access the underlying tree (validation, statistics).
    pub fn tree(&self) -> &ChromaticTree<K, V, ()> {
        &self.tree
    }
}

/// A lock-free balanced ordered set without augmentation.
pub struct ChromaticSet<K> {
    map: ChromaticMap<K, ()>,
}

impl<K> ChromaticSet<K>
where
    K: Ord + Clone + Send + Sync,
{
    /// Create an empty set.
    pub fn new() -> Self {
        ChromaticSet {
            map: ChromaticMap::new(),
        }
    }

    /// Insert `k`; `true` if newly added.
    pub fn insert(&self, k: K) -> bool {
        self.map.insert(k, ())
    }

    /// Remove `k`; `true` if it was present.
    pub fn remove(&self, k: &K) -> bool {
        self.map.remove(k)
    }

    /// Membership test.
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains(k)
    }

    /// Access the underlying tree (validation, statistics).
    pub fn tree(&self) -> &ChromaticTree<K, (), ()> {
        self.map.tree()
    }

    /// Snapshot-free key scan (quiescent use only).
    pub fn collect_keys(&self) -> Vec<K>
    where
        K: std::fmt::Debug,
    {
        self.map.tree().collect_keys()
    }
}

impl<K, V> Default for ChromaticMap<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K> Default for ChromaticSet<K>
where
    K: Ord + Clone + Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience alias used throughout the benches.
pub type U64Set = ChromaticSet<u64>;

/// Run `f` under an EBR guard (helper for embedding in workloads).
pub fn with_guard<R>(f: impl FnOnce(&Guard) -> R) -> R {
    let guard = ebr::pin();
    f(&guard)
}
