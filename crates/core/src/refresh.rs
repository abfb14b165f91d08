//! `ReadVersion` / `RefreshNil` / `Refresh` (paper Fig. 3 lines 49–69 and
//! Fig. 12).
//!
//! Per §5 (and §6, which needs the same split for reclamation), recursive
//! nil-fixing refreshes and top-level refreshes are separate functions:
//!
//! * [`refresh_nil`] CASes a version pointer **only** nil → non-nil;
//! * [`refresh_top`] begins with [`read_version`] (which fixes nil) and so
//!   CASes **only** non-nil → non-nil.
//!
//! This guarantees a top-level refresh can never fail because of a
//! recursive refresh, which would make delegation unsound (a propagate may
//! recursively refresh nodes outside its own search path).

use chromatic::Node;
use ebr::Guard;

use crate::augment::Augmentation;
use crate::stats::{Counter, StatsLocal};
use crate::version::{dispose_version, Version, VersionRef, VersionSlot};

/// A node of the augmented tree: a chromatic node whose plugin — on an
/// internal node; a leaf is its own version — is the version pointer.
pub type BatNode<K, V, A> = Node<K, V, VersionSlot<K, V, A>>;

/// Debug fence for the version pointer a [`VersionSlot`] returns, the
/// companion of the one `chromatic::Node`'s link accessors run: a slot read
/// out of a recycled node hands back [`ebr::pool`]'s `0xDD…` poison — odd,
/// so the alignment test catches it — which the next `Version::from_raw`
/// would fault on far from the cause.
#[inline]
pub(crate) fn fence_version_ptr(v: u64, node: u64) {
    if cfg!(debug_assertions) && !v.is_multiple_of(8) {
        panic!(
            "BAT reclamation fence: version pointer {v:#x} of node {node:#x} \
             is poisoned/misaligned (ebr epoch {}, thread {}) — node read \
             after reclamation?",
            ebr::stats().epoch,
            ebr::thread_id(),
        );
    }
}

/// Result of a top-level refresh (paper Fig. 12 `Refresh`).
pub struct RefreshOutcome {
    /// Whether the CAS installed our new version.
    pub success: bool,
    /// On success: the replaced version, to be retired when the propagate
    /// reaches the root (§6 `toRetire` rule). 0 otherwise.
    pub replaced: u64,
    /// On failure: the `PropStatus` of the propagate whose refresh beat us
    /// (0 if unavailable) — the delegation target.
    pub blocker: u64,
    /// What stood for the left/right child in this refresh — a version, or
    /// a leaf node (for BAT-EagerDel's stability check, Fig. 14 line 24,
    /// which compares them with the children's current versions).
    pub vl: u64,
    pub vr: u64,
}

/// `ReadVersion` (Fig. 12): return `x.version`, first fixing it if nil.
pub fn read_version<K, V, A>(x: &BatNode<K, V, A>, h: &StatsLocal<'_>, guard: &Guard) -> u64
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let v = x.plugin().load();
    if v != 0 {
        fence_version_ptr(v, x.as_raw());
        return v;
    }
    refresh_nil(x, h, guard);
    let v = x.plugin().load();
    debug_assert_ne!(v, 0, "refresh_nil leaves a non-nil version");
    v
}

/// What stands for the child `link` (`Node::left` or `Node::right`) names
/// in the version tree: the leaf itself for a leaf child (a leaf is its own
/// version), else the child's version, read consistently with the link —
/// re-check the link after obtaining the version (Fig. 12 lines 19–22).
fn child_version<'g, K, V, A>(
    x: &'g BatNode<K, V, A>,
    link: impl Fn(&'g BatNode<K, V, A>, &'g Guard) -> &'g BatNode<K, V, A>,
    h: &StatsLocal<'_>,
    guard: &'g Guard,
) -> VersionRef<'g, K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    loop {
        let child = link(x, guard);
        if child.is_leaf() {
            return VersionRef::Leaf(child);
        }
        let v = read_version(child, h, guard);
        if std::ptr::eq(link(x, guard), child) {
            // SAFETY: `read_version` returned it under `guard`'s pin.
            return VersionRef::Internal(unsafe { Version::from_raw(v) });
        }
    }
}

/// The version `node` stands for right now: the node itself if it is a
/// leaf, else its slot (0 = nil). What BAT-EagerDel's stability check
/// compares with a refresh's [`RefreshOutcome::vl`] / `vr`.
#[inline]
pub(crate) fn current_version<K, V, A>(node: &BatNode<K, V, A>) -> u64
where
    A: Augmentation<K, V>,
{
    if node.is_leaf() {
        node.as_raw()
    } else {
        node.plugin().load()
    }
}

/// `RefreshNil` (Fig. 12): recursively compute and install a version for a
/// node born with a nil pointer (a new internal node from a patch). The
/// CAS only moves nil → non-nil; a failure means someone else already
/// fixed it, so the loser's version is dropped unpublished.
///
/// Kept out of line: inlined into [`read_version`], the recursion's register
/// saves land on its non-nil path too, which a propagate takes ~44 times.
#[inline(never)]
pub fn refresh_nil<K, V, A>(x: &BatNode<K, V, A>, h: &StatsLocal<'_>, guard: &Guard)
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    debug_assert!(
        !x.is_leaf(),
        "a leaf is born as its own version and is never nil (Obs. 13)"
    );
    Counter::NilFixes.bump(h);
    let vl = child_version(x, BatNode::left, h, guard);
    let vr = child_version(x, BatNode::right, h, guard);
    let new = Version::<K, V, A>::combine(x.key(), x.as_raw(), vl, vr, 0) as u64;
    Counter::CasAttempts.bump(h);
    if x.plugin().cas(0, new).is_err() {
        // SAFETY: another thread fixed the nil pointer first, so `new` was
        // never published.
        unsafe { dispose_version::<K, V, A>(new) };
    }
}

/// Top-level `Refresh` (Fig. 12 lines 30–48): install a new version for
/// `x` computed from its children's versions; `status` is the calling
/// propagate's `PropStatus` (0 for the plain, non-delegating variant).
pub fn refresh_top<K, V, A>(
    x: &BatNode<K, V, A>,
    status: u64,
    h: &StatsLocal<'_>,
    guard: &Guard,
) -> RefreshOutcome
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let old = read_version(x, h, guard);
    let (l, r) = (
        child_version(x, BatNode::left, h, guard),
        child_version(x, BatNode::right, h, guard),
    );
    let new = Version::<K, V, A>::combine(x.key(), x.as_raw(), l, r, status) as u64;
    let (vl, vr) = (l.as_raw(), r.as_raw());
    Counter::CasAttempts.bump(h);
    match x.plugin().cas(old, new) {
        Ok(()) => RefreshOutcome {
            success: true,
            replaced: old,
            blocker: 0,
            vl,
            vr,
        },
        Err(current) => {
            // SAFETY: the CAS failed, so `new` was never published.
            unsafe { dispose_version::<K, V, A>(new) };
            Counter::CasFailures.bump(h);
            // The version that beat us carries its creator's PropStatus;
            // that is the operation a delegating propagate waits on.
            // SAFETY: `current` was `x`'s version during `guard`'s pin, so
            // it is retired, if at all, after the pin began.
            let blocker = unsafe { Version::<K, V, A>::from_raw(current) }.status;
            RefreshOutcome {
                success: false,
                replaced: 0,
                blocker,
                vl,
                vr,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::SizeOnly;
    use crate::stats::BatStats;
    use chromatic::ChromaticTree;

    type Tree = ChromaticTree<u64, u64, VersionSlot<u64, u64, SizeOnly>>;

    fn entry_version_size(tree: &Tree, stats: &BatStats, guard: &Guard) -> u64 {
        let v = read_version(tree.entry(), &stats.local(), guard);
        unsafe { Version::<u64, u64, SizeOnly>::from_raw(v) }.size
    }

    #[test]
    fn refresh_nil_initializes_whole_version_tree() {
        let tree = Tree::new();
        let stats = BatStats::default();
        let guard = ebr::pin();
        // Fresh tree: entry's version is nil (rule 3); fixing it computes
        // size 0 (all leaves are sentinels).
        assert_eq!(entry_version_size(&tree, &stats, &guard), 0);
        drop(guard);
    }

    #[test]
    fn refresh_top_reflects_inserts() {
        let tree = Tree::new();
        let stats = BatStats::default();
        let guard = ebr::pin();
        let _ = read_version(tree.entry(), &stats.local(), &guard); // initialize
        for k in [10u64, 20, 30] {
            assert!(tree.insert(k, k * 10, &guard));
        }
        // Without propagation, the root's version is stale (size 0) —
        // that's expected: information flows only via refreshes.
        // Refresh bottom-up manually by refreshing the entry: a refresh of
        // the entry reads its children's *current* versions, which are
        // stale too, except where patches created fresh leaves (each its
        // own version).
        // A full propagate is exercised in propagate.rs tests; here we
        // check refresh_top's CAS mechanics only.
        let r1 = refresh_top(tree.entry(), 0, &stats.local(), &guard);
        assert!(r1.success);
        assert_ne!(r1.replaced, 0);
        unsafe {
            ebr::pool::retire_pooled(&guard, r1.replaced as *mut Version<u64, u64, SizeOnly>)
        };
        let r2 = refresh_top(tree.entry(), 0, &stats.local(), &guard);
        assert!(r2.success, "uncontended refresh succeeds");
        unsafe {
            ebr::pool::retire_pooled(&guard, r2.replaced as *mut Version<u64, u64, SizeOnly>)
        };
        drop(guard);
        ebr::flush();
    }

    #[test]
    fn failed_refresh_reports_blocker_status() {
        let tree = Tree::new();
        let stats = BatStats::default();
        let guard = ebr::pin();
        let _ = read_version(tree.entry(), &stats.local(), &guard);
        // Simulate a racing refresh by doing one with a fake status in
        // between: refresh A reads old, refresh B installs, A's CAS fails.
        let old = read_version(tree.entry(), &stats.local(), &guard);
        let ps = crate::version::PropStatus::alloc() as u64;
        let rb = refresh_top(tree.entry(), ps, &stats.local(), &guard);
        assert!(rb.success);
        unsafe {
            ebr::pool::retire_pooled(&guard, rb.replaced as *mut Version<u64, u64, SizeOnly>)
        };
        // Now a stale CAS from `old` must fail and report `ps`.
        let h = stats.local();
        let (l, r) = (
            child_version(tree.entry(), BatNode::left, &h, &guard),
            child_version(tree.entry(), BatNode::right, &h, &guard),
        );
        assert_eq!((l.as_raw(), r.as_raw()), (rb.vl, rb.vr));
        let new = Version::<u64, u64, SizeOnly>::combine(
            tree.entry().key(),
            tree.entry().as_raw(),
            l,
            r,
            0,
        ) as u64;
        match tree.entry().plugin().cas(old, new) {
            Ok(()) => panic!("stale CAS must fail"),
            Err(cur) => {
                let v = unsafe { Version::<u64, u64, SizeOnly>::from_raw(cur) };
                assert_eq!(v.status, ps, "blocker is the winning propagate");
                unsafe { dispose_version::<u64, u64, SizeOnly>(new) };
            }
        }
        unsafe { ebr::pool::dispose_pooled(ps as *mut crate::version::PropStatus) };
        drop(guard);
    }
}
