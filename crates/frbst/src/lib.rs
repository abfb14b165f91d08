//! # frbst — the lock-free unbalanced augmented BST of Fatourou & Ruppert
//!
//! FR-BST (DISC 2024 \[13\]) is the paper's principal augmented baseline:
//! the same versioning/propagation scheme as BAT, applied to the
//! *unbalanced* lock-free leaf-oriented BST of Ellen, Fatourou, Helga and
//! Ruppert \[11\] instead of a chromatic tree.
//!
//! Implementation note: our chromatic substrate with rebalancing disabled
//! and all weights pinned to 1 *is* the \[11\] BST — inserts and deletes use
//! the identical patch-replacing SCXs (paper Fig. 2), and the balancing
//! steps are simply never taken (§3.1 describes the chromatic tree as
//! exactly this BST plus decoupled rebalancing). So FR-BST here is one
//! constructor, [`FrSet::new`]: a `cbat_core::BatSet` built by
//! `BatSet::new_unbalanced`, which propagates without delegation — the
//! configuration the paper evaluates (Fig. 5's FR-BST rows). It keeps one
//! key per leaf (`B = 1`), as \[11\]'s BST does, while `BatSet`'s default
//! leaves hold up to `cbat_core::LEAF_KEYS`.
//!
//! ## Example
//!
//! ```
//! use frbst::FrSet;
//!
//! let s = FrSet::new();
//! s.insert(2);
//! s.insert(9);
//! assert_eq!(s.len(), 2);
//! assert_eq!(s.rank(&5), 1);
//! ```

use std::ops::Deref;

use cbat_core::{BatSet, SizeOnly};

/// The FR-BST set; dereferences to the unbalanced one-key-leaf [`BatSet`]
/// it is.
pub struct FrSet<K>(BatSet<K, SizeOnly, 1>)
where
    K: Ord + Clone + Send + Sync + 'static;

impl<K> FrSet<K>
where
    K: Ord + Clone + Send + Sync + 'static,
{
    /// Empty FR-BST set.
    pub fn new() -> Self {
        FrSet(BatSet::new_unbalanced())
    }
}

impl<K> Deref for FrSet<K>
where
    K: Ord + Clone + Send + Sync + 'static,
{
    type Target = BatSet<K, SizeOnly, 1>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<K> Default for FrSet<K>
where
    K: Ord + Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_set_semantics() {
        let s = FrSet::new();
        assert!(s.insert(5u64));
        assert!(!s.insert(5));
        assert!(s.contains(&5));
        assert_eq!(s.len(), 1);
        assert!(s.remove(&5));
        assert!(!s.remove(&5));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn never_rebalances() {
        let s = FrSet::new();
        for k in 0..2000u64 {
            s.insert(k);
        }
        assert_eq!(
            s.as_map().node_tree().stats.total_rebalances(),
            0,
            "FR-BST must never rotate"
        );
        // Sorted insertion into an unbalanced tree produces a long spine.
        let shape = s
            .as_map()
            .node_tree()
            .validate(false)
            .expect("structurally valid");
        assert!(
            shape.height >= 1000,
            "expected a degenerate spine, height = {}",
            shape.height
        );
    }

    #[test]
    fn order_statistics_match_balanced() {
        let fr = FrSet::new();
        let bat = cbat_core::BatSet::<u64>::new();
        let mut x = 99u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 500;
            if x & 1 == 0 {
                assert_eq!(fr.insert(k), bat.insert(k));
            } else {
                assert_eq!(fr.remove(&k), bat.remove(&k));
            }
        }
        assert_eq!(fr.len(), bat.len());
        for probe in [0u64, 100, 250, 499] {
            assert_eq!(fr.rank(&probe), bat.rank(&probe), "rank {probe}");
        }
        for i in 0..fr.len().min(20) {
            assert_eq!(fr.select(i), bat.select(i), "select {i}");
        }
    }

    #[test]
    fn concurrent_updates_converge() {
        let s = Arc::new(FrSet::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.insert(t * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 500);
        ebr::flush();
    }

    #[test]
    fn range_queries_on_snapshot() {
        let s = FrSet::new();
        for k in 0..100u64 {
            s.insert(k);
        }
        assert_eq!(s.range_count(&10, &19), 10);
        let snap = s.snapshot();
        assert_eq!(snap.range_collect(&5, &7).len(), 3);
    }
}
