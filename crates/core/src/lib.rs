//! # cbat-core — Concurrent Balanced Augmented Trees
//!
//! A from-scratch Rust implementation of **BAT**, the first lock-free
//! balanced augmented search tree supporting generic augmentation
//! functions (Wrench, Singh, Roh, Fatourou, Jayanti, Ruppert, Wei —
//! PPoPP 2026), together with its delegation-optimized variants
//! **BAT-Del** and **BAT-EagerDel** (§5) and the unbalanced augmented
//! baseline **FR-BST** (Fatourou & Ruppert, DISC 2024).
//!
//! ## What augmentation buys you
//!
//! An ordinary concurrent ordered set answers point queries fast, but
//! aggregate/order-statistic/range queries cost Ω(keys-in-range) even
//! with snapshots. BAT maintains *supplementary fields* (subtree sizes
//! plus any user-defined associative aggregation) in a multiversioned
//! side structure — the *version tree* — so those queries take O(log n):
//!
//! * [`BatMap::rank`] — number of keys ≤ k, one descent;
//! * [`BatMap::select`] — i-th smallest key, one descent;
//! * [`BatMap::range_count`] / [`BatMap::range_aggregate`] — one walk down
//!   both boundary paths, stepped in turn below where they part;
//! * [`BatMap::len`] / [`BatMap::aggregate`] — O(1);
//! * [`BatMap::snapshot`] — an atomic snapshot of the whole set for free.
//!
//! ## How it works (paper §4)
//!
//! Updates run on a lock-free chromatic tree (crate `chromatic`, after
//! \[7\]). Every internal node carries a pointer to an immutable
//! [`version::Version`] holding its supplementary fields; newly created
//! internal nodes start with *nil* versions (Definition 1, rule 3), which
//! exempts fresh rotation patches from consistency obligations until their
//! values are recomputed on demand. A leaf is born as its own version
//! (rules 1–2): its entries never change, so it is all a version of it
//! would hold, and an internal version points to a leaf child as the leaf
//! node itself ([`version::VersionRef`]). A leaf holds up to `B` sorted
//! keys ([`LEAF_KEYS`] by default; `B = 1` is the paper's tree). After
//! each update, `Propagate` carries the change to the root with
//! cooperative double-refreshes; an update
//! linearizes when it *arrives at the root*. Queries linearize when they
//! read the root's version — obtaining a frozen snapshot on which purely
//! sequential query code runs. A no-op update (an insert of a present
//! key, a remove of an absent one) whose answer the root's version already
//! gives linearizes at that read too, and skips its propagate (see
//! [`map`]).
//!
//! ## Example
//!
//! ```
//! use cbat_core::BatSet;
//!
//! let set: BatSet<u64> = BatSet::new();
//! for k in [30, 10, 50, 20, 40] {
//!     set.insert(k);
//! }
//! assert_eq!(set.len(), 5);
//! assert_eq!(set.rank(&30), 3);          // keys ≤ 30: {10, 20, 30}
//! assert_eq!(set.select(0), Some(10));   // smallest
//! assert_eq!(set.range_count(&15, &45), 3); // {20, 30, 40}
//! ```

pub mod augment;
pub mod interval;
pub mod map;
pub mod propagate;
pub mod queries;
pub mod refresh;
pub mod snapshot;
pub mod stats;
pub mod version;

pub use augment::{Augmentation, MinMax, MinMaxAug, PairAug, SizeOnly, SumAug};
pub use interval::IntervalMap;
pub use map::{BatMap, BatSet, LEAF_KEYS};
pub use propagate::DelegationPolicy;
pub use snapshot::Snapshot;
pub use stats::{BatStats, StatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn policies() -> Vec<DelegationPolicy> {
        vec![
            DelegationPolicy::None,
            DelegationPolicy::Del,
            DelegationPolicy::EagerDel,
        ]
    }

    #[test]
    fn empty_map_queries() {
        let m = BatMap::<u64, u64>::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert!(!m.contains(&1));
        assert_eq!(m.rank(&100), 0);
        assert_eq!(m.select(0), None);
        assert_eq!(m.range_count(&0, &100), 0);
    }

    #[test]
    fn sequential_inserts_reflected_in_queries() {
        for policy in policies() {
            let m = BatMap::<u64, u64>::with_policy(policy);
            for k in 0..100u64 {
                assert!(m.insert(k, k * 3), "{} insert {k}", policy.name());
            }
            assert_eq!(m.len(), 100);
            assert_eq!(m.rank(&49), 50);
            assert_eq!(m.select(10), Some((10, 30)));
            assert_eq!(m.range_count(&10, &19), 10);
            assert_eq!(m.get(&42), Some(126));
            m.node_tree().validate(true).expect("valid");
        }
    }

    #[test]
    fn deletes_propagate_to_sizes() {
        for policy in policies() {
            let m = BatMap::<u64, ()>::with_policy(policy);
            for k in 0..64u64 {
                m.insert(k, ());
            }
            for k in (0..64u64).step_by(2) {
                assert!(m.remove(&k), "{} remove {k}", policy.name());
            }
            assert_eq!(m.len(), 32, "{}", policy.name());
            assert_eq!(m.rank(&63), 32);
            assert_eq!(m.select(0), Some((1, ())));
            assert!(!m.contains(&0));
            assert!(m.contains(&1));
        }
    }

    #[test]
    fn failed_updates_return_false_but_propagate() {
        let m = BatMap::<u64, ()>::new();
        assert!(m.insert(5, ()));
        assert!(!m.insert(5, ()));
        assert!(!m.remove(&7));
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn unbalanced_variant_matches_balanced_semantics() {
        let bal = BatMap::<u64, u64>::new();
        let unb = BatMap::<u64, u64>::new_unbalanced();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 200;
            if x & 1 == 0 {
                assert_eq!(bal.insert(k, k), unb.insert(k, k), "insert {k}");
            } else {
                assert_eq!(bal.remove(&k), unb.remove(&k), "remove {k}");
            }
            assert_eq!(bal.len(), unb.len());
        }
        assert_eq!(bal.snapshot().keys(), unb.snapshot().keys());
        assert!(unb.node_tree().stats.total_rebalances() == 0);
    }

    #[test]
    fn snapshot_is_immutable_under_updates() {
        let m = BatMap::<u64, ()>::new();
        for k in 0..50u64 {
            m.insert(k, ());
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 50);
        for k in 50..80u64 {
            m.insert(k, ());
        }
        for k in 0..10u64 {
            m.remove(&k);
        }
        // The old snapshot is frozen.
        assert_eq!(snap.len(), 50);
        assert!(snap.contains(&0));
        assert!(!snap.contains(&79));
        // A fresh snapshot sees the new state.
        let snap2 = m.snapshot();
        assert_eq!(snap2.len(), 70);
        assert!(!snap2.contains(&0));
        assert!(snap2.contains(&79));
    }

    #[test]
    fn sum_augmentation_range_queries() {
        let m = BatMap::<u64, u64, SumAug>::new();
        for k in 1..=100u64 {
            m.insert(k, k);
        }
        assert_eq!(m.aggregate(), 5050);
        assert_eq!(m.range_aggregate(&1, &10), 55);
        assert_eq!(m.range_aggregate(&50, &50), 50);
        assert_eq!(m.range_aggregate(&101, &200), 0);
        m.remove(&100);
        assert_eq!(m.aggregate(), 4950);
    }

    #[test]
    fn minmax_augmentation() {
        let m = BatMap::<u64, u64, MinMaxAug>::new();
        m.insert(5, 50);
        m.insert(1, 99);
        m.insert(9, 10);
        assert_eq!(m.aggregate(), Some((10, 99)));
        assert_eq!(m.range_aggregate(&1, &5), Some((50, 99)));
        m.remove(&1);
        assert_eq!(m.aggregate(), Some((10, 50)));
    }

    #[test]
    fn rank_select_inverse() {
        let m = BatMap::<u64, ()>::new();
        let keys: Vec<u64> = (0..200).map(|i| i * 7 % 1000).collect();
        for &k in &keys {
            m.insert(k, ());
        }
        let n = m.len();
        for i in 0..n {
            let (k, _) = m.select(i).expect("select in range");
            assert_eq!(m.rank(&k), i + 1, "rank(select({i}))");
        }
    }

    #[test]
    fn concurrent_disjoint_writers_all_policies() {
        for policy in policies() {
            let m = Arc::new(BatMap::<u64, u64>::with_policy(policy));
            const THREADS: u64 = 8;
            const PER: u64 = 800;
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let m = m.clone();
                    std::thread::spawn(move || {
                        let base = t * PER;
                        for k in base..base + PER {
                            assert!(m.insert(k, k));
                        }
                        for k in (base..base + PER).filter(|k| k % 4 == 0) {
                            assert!(m.remove(&k));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let expect = THREADS * PER - THREADS * PER / 4;
            assert_eq!(m.len(), expect, "{}", policy.name());
            // Root size must equal a full traversal count.
            let snap = m.snapshot();
            assert_eq!(snap.keys().len() as u64, expect, "{}", policy.name());
            ebr::flush();
        }
    }

    #[test]
    fn concurrent_contended_sizes_converge() {
        for policy in policies() {
            let m = Arc::new(BatMap::<u64, ()>::with_policy(policy));
            const THREADS: usize = 8;
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let m = m.clone();
                    std::thread::spawn(move || {
                        let mut x = 0xabcdef12u64.wrapping_mul(t as u64 + 1) | 1;
                        for _ in 0..1500 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let k = x % 64;
                            if x & 2 == 0 {
                                m.insert(k, ());
                            } else {
                                m.remove(&k);
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            // Quiescent: the root's size equals the actual leaf count.
            let snap = m.snapshot();
            assert_eq!(
                snap.len(),
                snap.keys().len() as u64,
                "{}: size must match leaves",
                policy.name()
            );
            ebr::flush();
        }
    }

    #[test]
    fn snapshot_sees_acked_inserts() {
        // Linearizability smoke test: an insert acknowledged before a
        // snapshot is taken must be visible in that snapshot.
        let m = Arc::new(BatMap::<u64, ()>::new());
        let m2 = m.clone();
        let writer = std::thread::spawn(move || {
            for k in 0..2000u64 {
                m2.insert(k, ());
            }
        });
        let mut last_seen = 0u64;
        loop {
            let snap = m.snapshot();
            let n = snap.len();
            assert!(n >= last_seen, "snapshot sizes must be monotone");
            // Everything the snapshot reports as size must be searchable.
            if n > 0 {
                let (max_k, _) = snap.select(n - 1).unwrap();
                assert_eq!(snap.rank(&max_k), n);
            }
            last_seen = n;
            if n == 2000 {
                break;
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
    }

    #[test]
    fn delegation_stats_record_activity() {
        let m = Arc::new(BatMap::<u64, ()>::with_policy(DelegationPolicy::EagerDel));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1200u64 {
                        let k = (t * 131 + i * 7) % 64;
                        if i % 2 == 0 {
                            m.insert(k, ());
                        } else {
                            m.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats.snapshot();
        assert_eq!(s.propagates + s.root_answers, 8 * 1200);
        assert!(s.cas_attempts > 0);
        ebr::flush();
    }
}
