//! A leaf is its own version (Definition 1, rules 1–2), so it must live as
//! long as a version does. Between a remove's unlink of its leaf and its
//! propagate's arrival at the root, the root's version still names the
//! leaf, and a snapshot taken then reaches it — from a pin that began after
//! the unlink retired the leaf, which the leaf's first grace period does
//! not wait for. So a published leaf waits one more grace period
//! (`NodePlugin::LEAVES_OUTLIVE_UNLINK`), the schedule §6 gives a node's
//! final version.
//!
//! The test builds that interleaving step by step, with a remove split
//! into its two halves (`ChromaticTree::delete`, then `propagate`), and
//! checks that the snapshot still answers from the removed leaves after
//! their first grace period has passed. A leaf recycled too early reads
//! `ebr::pool`'s poison in a debug build and trips the version tree's leaf
//! fence, or comes back as a reused block holding another key. One test:
//! it asserts on the process-global epoch, so it holds
//! `ebr::own_the_global_epoch()` and is its own process.

use std::sync::Barrier;

use cbat_core::propagate::{propagate, DelegationPolicy};
use cbat_core::{BatMap, SizeOnly, LEAF_KEYS};
use chromatic::SentKey;

const KEYS: u64 = 512;

/// The keys the snapshot keeps and the other thread removes.
fn removed() -> impl Iterator<Item = u64> {
    (0..KEYS).step_by(4)
}

fn a_snapshot_keeps_reading_the_leaves_a_remove_unlinked_at<const B: usize>() {
    let map = BatMap::<u64, u64, SizeOnly, B>::new();
    for k in 0..KEYS {
        assert!(map.insert(k, k * 10));
    }
    ebr::flush();

    let unlinked = Barrier::new(2);
    let snapshot_taken = Barrier::new(2);
    let (snap, pinned_at) = std::thread::scope(|s| {
        let remover = s.spawn(|| {
            // One pin across both halves of the removes, as `BatMap::remove`
            // holds: the epoch can move at most one step past it.
            let guard = ebr::pin();
            let pinned_at = ebr::stats().epoch;
            for k in removed() {
                assert!(map.node_tree().delete(&k, &guard));
            }
            // Step the epoch past the pin, so that the snapshot below pins
            // after the first leaves' retire.
            ebr::collect();
            assert_eq!(ebr::stats().epoch, pinned_at + 1);
            unlinked.wait();
            snapshot_taken.wait();
            for k in removed() {
                let key = SentKey::Key(k);
                let entry = map.node_tree().entry();
                propagate(entry, &key, DelegationPolicy::EagerDel, &map.stats, &guard);
            }
            drop(guard);
            // Churn the pool the freed blocks go back to, and end the
            // leaves' first grace period.
            for round in 0..4u64 {
                for k in KEYS..2 * KEYS {
                    map.insert(k, round);
                }
                for k in KEYS..2 * KEYS {
                    map.remove(&k);
                }
                ebr::flush();
            }
            pinned_at
        });
        unlinked.wait();
        let snap = map.snapshot();
        for k in removed() {
            assert!(snap.contains(&k), "the root's version still names {k}");
        }
        snapshot_taken.wait();
        (snap, remover.join().unwrap())
    });

    assert!(
        ebr::stats().epoch >= pinned_at + 2,
        "the first leaves' first grace period ended under the snapshot"
    );
    for k in removed() {
        assert!(!map.contains(&k), "{k} was removed");
        assert_eq!(snap.get(&k), Some(k * 10), "get({k})");
        assert_eq!(snap.rank(&k), k + 1, "rank({k})");
        assert_eq!(snap.select(k), Some((k, k * 10)), "select({k})");
        assert_eq!(
            snap.range_count(&k, &(k + 1)),
            2,
            "range_count({k}, {})",
            k + 1
        );
    }
    assert_eq!(snap.len(), KEYS);
    assert_eq!(snap.range_count(&0, &KEYS), KEYS);
    drop(snap);
    assert_eq!(map.len(), KEYS - removed().count() as u64);
    ebr::flush();
}

#[test]
fn a_snapshot_keeps_reading_the_leaves_a_remove_unlinked() {
    let _serial = ebr::own_the_global_epoch();
    a_snapshot_keeps_reading_the_leaves_a_remove_unlinked_at::<1>();
    a_snapshot_keeps_reading_the_leaves_a_remove_unlinked_at::<LEAF_KEYS>();
}
