//! The version tree mirrors the node tree (paper Fig. 4a): after
//! quiescence, walking both in lockstep must show identical keys and
//! correct size fields at every level (Invariant 24 / Corollary 25). Every
//! leaf the version tree reaches *is* the node tree's leaf (a leaf is born
//! as its own version, Definition 1 rules 1–2), so the only `Version`
//! objects are the internal nodes' — one each, and each names its own node
//! in its prefetch hint. A leaf's size is its key count and its aggregate
//! the fold of its entries (here a sum). Every test runs with one key per
//! leaf and at the shipped leaf capacity, and the ones whose keys fill
//! only a few shipped leaves also at [`SMALL_FAT`].

use cbat_core::version::{Version, VersionRef, VersionSlot};
use cbat_core::{BatMap, SumAug, LEAF_KEYS};
use chromatic::Node;

type N = Node<u64, u64, VersionSlot<u64, u64, SumAug>>;
type R<'g> = VersionRef<'g, u64, u64, SumAug>;
type Map<const B: usize> = BatMap<u64, u64, SumAug, B>;

/// A fat-leaf capacity small enough that a few hundred keys span many
/// leaves.
const SMALL_FAT: usize = 4;

/// Internal nodes of the node tree below `node`, the sentinels' included.
fn internal_nodes(node: &N, guard: &ebr::Guard) -> u64 {
    if node.is_leaf() {
        return 0;
    }
    1 + internal_nodes(node.left(guard), guard) + internal_nodes(node.right(guard), guard)
}

/// Walk node- and version-trees together; check key equality, leaf
/// identity and the size invariant `size = left.size + right.size` (and
/// the same for the sum); count the `Version` objects reached into
/// `versions`; return the key count.
fn check_mirror(node: &N, version: R<'_>, guard: &ebr::Guard, versions: &mut u64) -> u64 {
    assert_eq!(node.key(), version.key(), "node/version key mismatch");
    let v = match version {
        VersionRef::Leaf(leaf) => {
            assert!(
                std::ptr::eq(leaf, node),
                "the version tree reaches the node tree's own leaf"
            );
            let len = node.len() as u64;
            assert_eq!(version.size(), len, "a leaf's size is its length");
            let sum = node.entries().iter().map(|(_, v)| v).sum::<u64>();
            assert_eq!(*version.aug(), sum, "a leaf's aggregate is the fold");
            return len;
        }
        VersionRef::Internal(v) => v,
    };
    assert!(!node.is_leaf(), "leaf node with internal version");
    assert!(
        std::ptr::eq(v.node_hint(), node),
        "a version's node hint names the node it was built for"
    );
    let (nl, nr) = (node.left(guard), node.right(guard));
    assert_eq!(
        (v.left().is_leaf(), v.right().is_leaf()),
        (nl.is_leaf(), nr.is_leaf()),
        "the leaf bits folded into the hint's word mark exactly the leaf children"
    );
    *versions += 1;
    let l = check_mirror(nl, v.left(), guard, versions);
    let r = check_mirror(nr, v.right(), guard, versions);
    assert_eq!(v.size, l + r, "Invariant 24: size = left.size + right.size");
    assert_eq!(
        v.aug,
        *v.left().aug() + *v.right().aug(),
        "aggregate combines"
    );
    v.size
}

fn assert_mirrors<const B: usize>(map: &Map<B>) {
    let guard = ebr::pin();
    let entry = map.node_tree().entry();
    let vroot_raw = entry.plugin().load();
    assert_ne!(vroot_raw, 0, "entry version must be non-nil");
    let vroot = unsafe { Version::from_raw(vroot_raw) };
    let mut versions = 0;
    let total = check_mirror(entry, VersionRef::Internal(vroot), &guard, &mut versions);
    assert_eq!(total, map.len(), "root size equals reported len");
    assert_eq!(
        map.node_tree().validate(false).expect("valid").keys as u64,
        total
    );
    assert_eq!(
        versions,
        internal_nodes(entry, &guard),
        "one Version per internal node, none for leaves"
    );
    drop(guard);
}

fn sequential_ops<const B: usize>() {
    let m = Map::<B>::new();
    assert_mirrors(&m);
    for k in 0..500u64 {
        m.insert(k, k);
    }
    assert_mirrors(&m);
    let internal = m.node_tree().validate(true).expect("valid").internal;
    assert!(
        internal > 3,
        "500 keys split into several leaves: {internal}"
    );
    for k in (0..500u64).step_by(3) {
        m.remove(&k);
    }
    assert_mirrors(&m);
}

#[test]
fn mirror_after_sequential_ops() {
    sequential_ops::<1>();
    sequential_ops::<SMALL_FAT>();
    sequential_ops::<LEAF_KEYS>();
}

fn rotation_heavy_ops<const B: usize>() {
    let m = Map::<B>::new();
    // Sorted runs maximize rotations and nil-version patches.
    for k in 0..2_000u64 {
        m.insert(k, k);
    }
    for k in (2_000..4_000u64).rev() {
        m.insert(k, k);
    }
    assert_mirrors(&m);
    assert!(
        m.node_tree().stats.total_rebalances() > 0,
        "the runs rebalance"
    );
}

#[test]
fn mirror_after_rotation_heavy_ops() {
    rotation_heavy_ops::<1>();
    rotation_heavy_ops::<LEAF_KEYS>();
}

/// One-node patches only: inserts that fill leaves without splitting and
/// deletes that leave every leaf a key.
#[test]
fn mirror_after_one_node_patches() {
    let m = Map::<LEAF_KEYS>::new();
    for k in 0..LEAF_KEYS as u64 / 2 {
        m.insert(k * 2, k);
    }
    let before = m.node_tree().stats.snapshot();
    for k in 0..LEAF_KEYS as u64 / 2 {
        m.insert(k * 2 + 1, k);
        assert_mirrors(&m);
    }
    m.remove(&0);
    assert_mirrors(&m);
    let after = m.node_tree().stats.snapshot();
    assert_eq!(
        after.scx_commits - before.scx_commits,
        LEAF_KEYS as u64 / 2 + 1,
        "one SCX per update"
    );
    assert_eq!(after.rebalance_steps, before.rebalance_steps);
}

fn concurrent_stress<const B: usize>() {
    use std::sync::Arc;
    let m = Arc::new(Map::<B>::new());
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let m = m.clone();
            std::thread::spawn(move || {
                let mut x = t * 31 + 1;
                for _ in 0..3_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 512;
                    if x & 1 == 0 {
                        m.insert(k, k);
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
    // Quiescent now. Note: node versions may be *stale mid-tree* only if
    // no operation's propagate covered them — but every propagate runs to
    // the root before returning, so after joining all threads, the whole
    // root-reachable version tree is consistent.
    assert_mirrors(&m);
    ebr::flush();
}

#[test]
fn mirror_after_concurrent_stress() {
    concurrent_stress::<1>();
    concurrent_stress::<SMALL_FAT>();
    concurrent_stress::<LEAF_KEYS>();
}
