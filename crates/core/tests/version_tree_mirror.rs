//! The version tree mirrors the node tree (paper Fig. 4a): after
//! quiescence, walking both in lockstep must show identical keys and
//! correct size fields at every level (Invariant 24 / Corollary 25). Every
//! leaf the version tree reaches *is* the node tree's leaf (a leaf is born
//! as its own version, Definition 1 rules 1–2), so the only `Version`
//! objects are the internal nodes' — one each, and each names its own node
//! in its prefetch hint.

use cbat_core::version::{Version, VersionRef, VersionSlot};
use cbat_core::{BatMap, SizeOnly};
use chromatic::Node;

type N = Node<u64, u64, VersionSlot<u64, u64, SizeOnly>>;
type R<'g> = VersionRef<'g, u64, u64, SizeOnly>;

/// Internal nodes of the node tree below `node`, the sentinels' included.
fn internal_nodes(node: &N, guard: &ebr::Guard) -> u64 {
    if node.is_leaf() {
        return 0;
    }
    1 + internal_nodes(node.left(guard), guard) + internal_nodes(node.right(guard), guard)
}

/// Walk node- and version-trees together; check key equality, leaf
/// identity and the size invariant `size = left.size + right.size`; count
/// the `Version` objects reached into `versions`; return the leaf count.
fn check_mirror(node: &N, version: R<'_>, guard: &ebr::Guard, versions: &mut u64) -> u64 {
    assert_eq!(node.key(), version.key(), "node/version key mismatch");
    let v = match version {
        VersionRef::Leaf(leaf) => {
            assert!(
                std::ptr::eq(leaf, node),
                "the version tree reaches the node tree's own leaf"
            );
            let expect = if node.key().as_key().is_some() { 1 } else { 0 };
            assert_eq!(version.size(), expect, "leaf size rule (Definition 1)");
            return expect;
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
    v.size
}

fn assert_mirrors(map: &BatMap<u64, u64, SizeOnly>) {
    let guard = ebr::pin();
    let entry = map.node_tree().entry();
    let vroot_raw = entry.plugin.load();
    assert_ne!(vroot_raw, 0, "entry version must be non-nil");
    let vroot = unsafe { Version::from_raw(vroot_raw) };
    let mut versions = 0;
    let total = check_mirror(entry, VersionRef::Internal(vroot), &guard, &mut versions);
    assert_eq!(total, map.len(), "root size equals reported len");
    assert_eq!(
        versions,
        internal_nodes(entry, &guard),
        "one Version per internal node, none for leaves"
    );
    drop(guard);
}

#[test]
fn mirror_after_sequential_ops() {
    let m = BatMap::<u64, u64, SizeOnly>::new();
    assert_mirrors(&m);
    for k in 0..500u64 {
        m.insert(k, k);
    }
    assert_mirrors(&m);
    for k in (0..500u64).step_by(3) {
        m.remove(&k);
    }
    assert_mirrors(&m);
}

#[test]
fn mirror_after_rotation_heavy_ops() {
    let m = BatMap::<u64, u64, SizeOnly>::new();
    // Sorted runs maximize rotations and nil-version patches.
    for k in 0..2_000u64 {
        m.insert(k, k);
    }
    for k in (2_000..4_000u64).rev() {
        m.insert(k, k);
    }
    assert_mirrors(&m);
}

#[test]
fn mirror_after_concurrent_stress() {
    use std::sync::Arc;
    let m = Arc::new(BatMap::<u64, u64, SizeOnly>::new());
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
