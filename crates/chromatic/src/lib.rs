//! # chromatic — lock-free chromatic binary search trees
//!
//! A from-scratch Rust implementation of the lock-free chromatic tree of
//! Brown, Ellen and Ruppert (PPoPP 2014) \[7\], the balanced node-tree
//! substrate of the CBAT paper (PPoPP 2026). Chromatic trees (Nurmi &
//! Soisalon-Soininen \[26\]) are relaxed red-black trees that decouple
//! rebalancing from updates, which makes them amenable to lock-free
//! implementation: every update and every rebalancing step replaces one
//! small *patch* of nodes by a freshly allocated patch using one SCX —
//! \[7\]'s *tree update template* on the LLX/SCX primitives of \[6\]. The
//! template is written once, as [`ChromaticTree`]'s crate-private
//! `replace_patch` (`tree.rs`): the one SCX in the crate, and the one place
//! that decides which nodes a commit retires and an abort disposes of.
//!
//! The tree is parameterized by a [`node::NodePlugin`] so the augmentation
//! layer (crate `cbat-core`) can hang a version pointer off every internal
//! node and apply the paper's Version Initialization Rules (Definition 1)
//! at node construction time — without this crate knowing anything about
//! versions. A leaf carries its entries instead ([`node`]).
//!
//! ## Example
//!
//! ```
//! use chromatic::ChromaticSet;
//!
//! let set = ChromaticSet::new();
//! assert!(set.insert(3));
//! assert!(set.insert(1));
//! assert!(!set.insert(3));
//! assert!(set.contains(&1));
//! assert!(set.remove(&3));
//! assert!(!set.contains(&3));
//! ```

pub mod key;
pub mod node;
pub mod rebalance;
pub mod set;
pub mod tree;
pub mod validate;

pub use key::SentKey;
pub use node::{ChildSnap, Internal, Leaf, Node, NodePlugin};
pub use set::ChromaticSet;
pub use tree::{ChromaticTree, RebalanceKind, TreeSnapshot, TreeStats};
pub use validate::{Invalid, TreeShape};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_validates() {
        let set = ChromaticSet::<u64>::new();
        let shape = set.tree().validate(true).expect("valid");
        assert_eq!(shape.keys, 0);
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let set = ChromaticSet::new();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(set.insert(k), "first insert of {k}");
            assert!(set.contains(&k));
        }
        assert!(!set.insert(5));
        assert!(set.remove(&5));
        assert!(!set.remove(&5));
        assert!(!set.contains(&5));
        for k in [1u64, 9, 3, 7] {
            assert!(set.contains(&k));
        }
        set.tree().validate(true).expect("valid after ops");
    }

    #[test]
    fn sequential_oracle_small() {
        use std::collections::BTreeSet;
        let set = ChromaticSet::new();
        let mut oracle = BTreeSet::new();
        // Deterministic pseudo-random op sequence.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 64;
            if x & (1 << 40) != 0 {
                assert_eq!(set.insert(k), oracle.insert(k), "insert {k}");
            } else {
                assert_eq!(set.remove(&k), oracle.remove(&k), "remove {k}");
            }
        }
        let keys = set.collect_keys();
        let expect: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(keys, expect);
        set.tree().validate(true).expect("valid");
    }

    #[test]
    fn sorted_insertions_stay_balanced() {
        let set = ChromaticSet::new();
        const N: u64 = 4096;
        for k in 0..N {
            set.insert(k);
        }
        let shape = set.tree().validate(true).expect("valid");
        assert_eq!(shape.keys, N as usize);
        // log2(4097) ≈ 12; chromatic height bound 2·log2 + 2 ≈ 28.
        assert!(
            shape.height <= 28,
            "height {} too large for {N} sorted keys",
            shape.height
        );
    }

    #[test]
    fn reverse_sorted_and_delete_all() {
        let set = ChromaticSet::new();
        const N: u64 = 2048;
        for k in (0..N).rev() {
            set.insert(k);
        }
        set.tree().validate(true).expect("valid after inserts");
        for k in 0..N {
            assert!(set.remove(&k), "remove {k}");
        }
        let shape = set.tree().validate(true).expect("valid after deletes");
        assert_eq!(shape.keys, 0);
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        use std::sync::Arc;
        let set = Arc::new(ChromaticSet::new());
        const THREADS: u64 = 8;
        const PER: u64 = 2_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let set = set.clone();
                std::thread::spawn(move || {
                    let base = t * PER;
                    for k in base..base + PER {
                        assert!(set.insert(k));
                    }
                    // Delete the odd half again.
                    for k in (base..base + PER).filter(|k| k % 2 == 1) {
                        assert!(set.remove(&k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = ebr::pin();
        set.tree().cleanup_everywhere(&guard);
        drop(guard);
        let shape = set.tree().validate(true).expect("valid after stress");
        assert_eq!(shape.keys, (THREADS * PER / 2) as usize);
        let keys = set.collect_keys();
        assert!(keys.iter().all(|k| k % 2 == 0));
        ebr::flush();
    }

    #[test]
    fn concurrent_same_keys_contention() {
        use std::sync::Arc;
        let set = Arc::new(ChromaticSet::new());
        const THREADS: usize = 8;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let set = set.clone();
                std::thread::spawn(move || {
                    let mut x = 0xdeadbeefu64.wrapping_mul(t as u64 + 1) | 1;
                    for _ in 0..3_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 128;
                        if x & 1 == 0 {
                            set.insert(k);
                        } else {
                            set.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = ebr::pin();
        set.tree().cleanup_everywhere(&guard);
        drop(guard);
        set.tree().validate(true).expect("valid after contention");
        ebr::flush();
    }

    #[test]
    fn rebalance_stats_populated() {
        let set = ChromaticSet::new();
        for k in 0..512u64 {
            set.insert(k);
        }
        assert!(
            set.tree().stats.total_rebalances() > 0,
            "sorted insertion must trigger rebalancing"
        );
    }
}
