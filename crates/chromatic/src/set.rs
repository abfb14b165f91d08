//! A plain (unaugmented) concurrent ordered set over the chromatic tree.
//! This is the "fastest unaugmented balanced tree we build" — the
//! ablation baseline quantifying BAT's augmentation overhead.

use crate::tree::ChromaticTree;

/// A lock-free balanced ordered set without augmentation.
///
/// Unlike BAT, it supports only point operations efficiently; ordered
/// queries require a full traversal (no snapshots, no augmented values).
pub struct ChromaticSet<K> {
    tree: ChromaticTree<K, (), ()>,
}

impl<K> ChromaticSet<K>
where
    K: Ord + Clone + Send + Sync,
{
    /// Create an empty set.
    pub fn new() -> Self {
        ChromaticSet {
            tree: ChromaticTree::new(),
        }
    }

    /// Insert `k`; `true` if newly added.
    pub fn insert(&self, k: K) -> bool {
        let guard = ebr::pin();
        self.tree.insert(k, (), &guard)
    }

    /// Remove `k`; `true` if it was present.
    pub fn remove(&self, k: &K) -> bool {
        let guard = ebr::pin();
        self.tree.delete(k, &guard)
    }

    /// Membership test.
    pub fn contains(&self, k: &K) -> bool {
        let guard = ebr::pin();
        self.tree.contains(k, &guard)
    }

    /// Access the underlying tree (validation, statistics).
    pub fn tree(&self) -> &ChromaticTree<K, (), ()> {
        &self.tree
    }

    /// Snapshot-free key scan (quiescent use only).
    pub fn collect_keys(&self) -> Vec<K>
    where
        K: std::fmt::Debug,
    {
        self.tree.collect_keys()
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
