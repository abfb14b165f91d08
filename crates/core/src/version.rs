//! Version objects, the version-pointer node plugin, and `PropStatus`.
//!
//! Each internal node points to a [`Version`] storing its supplementary
//! fields (paper Fig. 3: key, size, child-version pointers — extended here
//! with the generic augmentation value). A leaf is born as its own version
//! (Definition 1, rules 1–2): its entries are immutable, its size is the
//! number of keys it holds (0 for a sentinel) and its augmentation value is
//! the fold of `A::leaf` over its entries (`A::sentinel()` for none), so an
//! internal version points to a leaf child as the leaf node itself, and
//! [`VersionRef`] reads either kind. The versions of
//! a snapshot and the leaves they name form an immutable BST (the *version
//! tree*) mirroring the node tree (Fig. 4a). Queries read the root's
//! version and run sequential algorithms on the frozen version tree.
//!
//! [`PropStatus`] is the delegation handshake object of §5 / Fig. 11: each
//! `Propagate` owns one; every version records the `PropStatus` of the
//! propagate whose refresh created it, so a failed refresher can find the
//! operation that beat it and delegate.

use std::borrow::Cow;
use std::marker::PhantomData;

use sched::atomic::{AtomicBool, AtomicU64, Ordering};

use chromatic::{NodePlugin, SentKey};

use crate::augment::Augmentation;
use crate::refresh::BatNode;

/// Delegation status of one `Propagate` call (paper Fig. 11).
pub struct PropStatus {
    /// Set when the owning propagate has reached the root (or delegated
    /// transitively and its delegatee finished).
    pub done: AtomicBool,
    /// If the owner delegated, the `PropStatus` it waits on (else null).
    pub delegatee: AtomicU64, // *const PropStatus
}

impl PropStatus {
    pub fn new() -> Self {
        PropStatus {
            done: AtomicBool::new(false),
            delegatee: AtomicU64::new(0),
        }
    }

    /// Allocate a fresh status for a starting propagate, recycling memory
    /// from the EBR free-list pool when available.
    pub fn alloc() -> *mut PropStatus {
        ebr::pool::alloc_pooled(PropStatus::new())
    }

    /// Retire a status allocated with [`PropStatus::alloc`]; its memory
    /// returns to the pool after the grace period.
    ///
    /// # Safety
    /// As for [`ebr::pool::retire_pooled`].
    pub unsafe fn retire(guard: &ebr::Guard, ptr: *mut PropStatus) {
        unsafe { ebr::pool::retire_pooled(guard, ptr) };
    }
}

impl Default for PropStatus {
    fn default() -> Self {
        Self::new()
    }
}

/// Bit of [`Version`]'s `node` word set when `left` names a leaf node.
const LEFT_LEAF: u64 = 1;
/// Bit of [`Version`]'s `node` word set when `right` names a leaf node.
const RIGHT_LEAF: u64 = 2;
/// Bit of [`Version`]'s `node` word set when `left` names a leaf of two or
/// more keys (a `chromatic::FatLeaf`, which spans more than one line).
const LEFT_FAT: u64 = 4;
/// As [`LEFT_FAT`], for `right`.
const RIGHT_FAT: u64 = 8;
/// Every tag bit of the `node` word (pool blocks are line-aligned).
const TAGS: u64 = LEFT_LEAF | RIGHT_LEAF | LEFT_FAT | RIGHT_FAT;

/// What a prefetch of a fat leaf covers: a full leaf at the shipped
/// capacity, [`crate::LEAF_KEYS`] (three lines for `BatSet<u64>`). A
/// version does not know its tree's `B`; at another capacity the span is
/// still only a hint.
type ShippedLeaf<K, V, A> = chromatic::FatLeaf<K, V, VersionSlot<K, V, A>, { crate::LEAF_KEYS }>;

/// One immutable version of an internal node's supplementary fields.
///
/// `left`/`right` point to what stands for each child in the version tree:
/// a child version, or — for a leaf child — the leaf node itself, since a
/// leaf is born as its own version (Definition 1, rules 1–2: a leaf's key
/// and value never change, and its size and augmentation value follow from
/// them). Two bits say which, in the low bits of the `node` word, and two
/// more which leaf children hold two or more keys; the child pointers stay
/// untagged, so the debug fences' alignment test still tells
/// poison from a pointer. A version is thus the root of an entire immutable
/// snapshot of its subtree.
///
/// The rest of `node` is the address of the node the version was built for
/// (nodes are 8-byte aligned): a prefetch hint, never dereferenced — the
/// node may be unlinked and reused since, at the cost of one wasted
/// [`ebr::prefetch`], which never faults. An update's root check
/// prefetches each on-path node through it (see [`crate::map`]). The tags
/// tell a descent's `prefetch_children` what each child is, so it fetches
/// a version's line, a one-key leaf's node, or every line of a fat leaf.
pub struct Version<K, V, A: Augmentation<K, V>> {
    /// Key of the node this version was created for.
    pub key: SentKey<K>,
    /// Number of real keys in the subtree (the paper's `size` field).
    pub size: u64,
    /// The generic augmentation value.
    pub aug: A::Value,
    /// The children: `*const Version`, or `*const BatNode` for a leaf.
    left: u64,
    right: u64,
    /// The PropStatus of the propagate that installed this version (null
    /// for versions made by recursive nil-refreshes or plain propagates).
    pub status: u64, // *const PropStatus
    /// `*const BatNode` of the node this version was built for, a hint
    /// only, | the [`TAGS`]: which children are leaf nodes, and which are
    /// fat ones.
    node: u64,
    _value: PhantomData<V>,
}

impl<K, V, A> Version<K, V, A>
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Version for the internal node `node` with key `key`, combining what
    /// stands for its two children (refresh, Fig. 3 line 67 / Fig. 12 l. 44).
    pub fn combine(
        key: &SentKey<K>,
        node: u64,
        l: VersionRef<'_, K, V, A>,
        r: VersionRef<'_, K, V, A>,
        status: u64,
    ) -> *mut Self {
        debug_assert_eq!(node & TAGS, 0, "nodes are aligned");
        let tags = |v: &VersionRef<'_, K, V, A>, leaf, fat| match v {
            VersionRef::Leaf(n) if n.len() >= 2 => leaf | fat,
            VersionRef::Leaf(_) => leaf,
            VersionRef::Internal(_) => 0,
        };
        ebr::pool::alloc_pooled(Version {
            key: key.clone(),
            size: l.size() + r.size(),
            aug: A::combine(&l.aug(), &r.aug()),
            left: l.as_raw(),
            right: r.as_raw(),
            status,
            node: node | tags(&l, LEFT_LEAF, LEFT_FAT) | tags(&r, RIGHT_LEAF, RIGHT_FAT),
            _value: PhantomData,
        })
    }
}

impl<K, V, A: Augmentation<K, V>> Version<K, V, A> {
    /// Dereference a raw version pointer.
    ///
    /// # Safety
    /// `raw` non-null and epoch-protected.
    #[inline]
    pub unsafe fn from_raw<'g>(raw: u64) -> &'g Self {
        debug_assert_ne!(raw, 0);
        // SAFETY: the caller's contract.
        // guard: the caller's pin (`# Safety`).
        unsafe { &*(raw as *const Self) }
    }

    /// What stands for the left child.
    #[inline]
    pub fn left(&self) -> VersionRef<'_, K, V, A> {
        // SAFETY: versions are immutable, and one is retired only once it
        // is unreachable from the entry's current version (§6) — so all
        // that a version reachable at some moment of a pin points to was
        // un-retired at that moment, and the pin that protects `self`
        // protects its children. A leaf child is no exception: it is
        // reclaimed a grace period after nothing reachable names it
        // (`NodePlugin::LEAVES_OUTLIVE_UNLINK`), as a version is.
        // guard: the one `&self` was obtained under.
        unsafe { VersionRef::from_raw(self.left, self.node & LEFT_LEAF != 0) }
    }

    /// What stands for the right child.
    #[inline]
    pub fn right(&self) -> VersionRef<'_, K, V, A> {
        // SAFETY: as for `left`.
        // guard: the one `&self` was obtained under.
        unsafe { VersionRef::from_raw(self.right, self.node & RIGHT_LEAF != 0) }
    }

    /// The node this version was built for: a hint, never to be
    /// dereferenced (see the type's doc).
    #[inline]
    pub fn node_hint(&self) -> *const BatNode<K, V, A> {
        (self.node & !TAGS) as *const BatNode<K, V, A>
    }

    /// Ask the cache for the node this version was built for.
    #[inline(always)]
    pub(crate) fn prefetch_node(&self) {
        ebr::prefetch::<BatNode<K, V, A>>(self.node_hint() as u64);
    }

    /// Ask the cache for both children before a descent decides which one
    /// it follows: the turn then waits on a line already in flight, and
    /// `select`'s read of the left child's size overlaps the fetch of the
    /// right one. A fat leaf's entries follow its node, so its prefetch
    /// covers every line of a full leaf. A prefetch never faults and reads
    /// nothing the program sees; see [`ebr::prefetch`].
    #[inline(always)]
    pub(crate) fn prefetch_children(&self) {
        let prefetch = |raw, leaf, fat| {
            if self.node & fat != 0 {
                ebr::prefetch::<ShippedLeaf<K, V, A>>(raw);
            } else if self.node & leaf != 0 {
                ebr::prefetch::<BatNode<K, V, A>>(raw);
            } else {
                ebr::prefetch::<Self>(raw);
            }
        };
        prefetch(self.left, LEFT_LEAF, LEFT_FAT);
        prefetch(self.right, RIGHT_LEAF, RIGHT_FAT);
    }
}

/// A vertex of the version tree as a reader meets it: an internal
/// [`Version`], or a leaf node, which is its own version (Definition 1,
/// rules 1–2). Queries step through these, so a walk keeps the shape it
/// had over a tree of versions alone, and finishes inside the leaf it
/// ends at (`BatNode::entry`, `BatNode::search_leaf`).
pub enum VersionRef<'g, K, V, A: Augmentation<K, V>> {
    /// A leaf: its size is its key count and its value the fold of
    /// `A::leaf` over its entries; size 0 and `A::sentinel()` for a
    /// sentinel.
    Leaf(&'g BatNode<K, V, A>),
    /// An internal node's version.
    Internal(&'g Version<K, V, A>),
}

impl<K, V, A: Augmentation<K, V>> Clone for VersionRef<'_, K, V, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V, A: Augmentation<K, V>> Copy for VersionRef<'_, K, V, A> {}

impl<'g, K, V, A: Augmentation<K, V>> VersionRef<'g, K, V, A> {
    /// Dereference a child pointer of a version.
    ///
    /// # Safety
    /// `raw` non-null and epoch-protected; `leaf` says whether it names a
    /// leaf node or a version.
    #[inline]
    pub(crate) unsafe fn from_raw(raw: u64, leaf: bool) -> Self {
        if !leaf {
            // SAFETY: the caller's contract.
            // guard: the caller's pin (`# Safety`).
            return VersionRef::Internal(unsafe { Version::from_raw(raw) });
        }
        // SAFETY: the caller's contract.
        // guard: the caller's pin (`# Safety`).
        let node = unsafe { &*(raw as *const BatNode<K, V, A>) };
        fence_leaf(node);
        VersionRef::Leaf(node)
    }

    /// True for a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self, VersionRef::Leaf(_))
    }

    /// The key of the node this stands for.
    #[inline]
    pub fn key(&self) -> &'g SentKey<K> {
        match *self {
            VersionRef::Leaf(node) => node.key(),
            VersionRef::Internal(v) => &v.key,
        }
    }

    /// Number of real keys below (the paper's `size` field).
    #[inline]
    pub fn size(&self) -> u64 {
        match *self {
            VersionRef::Leaf(node) => node.len() as u64,
            VersionRef::Internal(v) => v.size,
        }
    }

    /// The augmentation value: stored by a version, computed for a leaf.
    #[inline]
    pub fn aug(&self) -> Cow<'g, A::Value> {
        match *self {
            VersionRef::Leaf(node) => Cow::Owned(leaf_aug(node, 0..node.len())),
            VersionRef::Internal(v) => Cow::Borrowed(&v.aug),
        }
    }

    /// The leaf node, for a walk that finishes inside it.
    #[inline]
    pub fn leaf(&self) -> Option<&'g BatNode<K, V, A>> {
        match *self {
            VersionRef::Leaf(node) => Some(node),
            VersionRef::Internal(_) => None,
        }
    }

    /// The address this stands at: a leaf node's, or a version's.
    #[inline]
    pub fn as_raw(&self) -> u64 {
        match *self {
            VersionRef::Leaf(node) => node.as_raw(),
            VersionRef::Internal(v) => v as *const Version<K, V, A> as u64,
        }
    }
}

/// The augmentation value of a leaf's entries `range`: the fold of
/// `A::leaf` over them in key order, `A::sentinel()` for none. At most
/// `B − 1` combines; `SizeOnly`'s value is `()`, so its fold is free.
#[inline]
pub(crate) fn leaf_aug<K, V, A: Augmentation<K, V>>(
    node: &BatNode<K, V, A>,
    range: std::ops::Range<usize>,
) -> A::Value {
    range
        .map(|i| {
            let (k, v) = node.entry(i);
            A::leaf(k, v)
        })
        .reduce(|acc, x| A::combine(&acc, &x))
        .unwrap_or_else(A::sentinel)
}

/// Debug fence for a leaf reached through a version, the companion of
/// [`crate::refresh::fence_version_ptr`]: a leaf reclaimed while a snapshot
/// could still reach it reads [`ebr::pool`]'s `0xDD…` poison, or a reused
/// block, as a node with a left link.
#[inline]
fn fence_leaf<K, V, A: Augmentation<K, V>>(node: &BatNode<K, V, A>) {
    if cfg!(debug_assertions) && !node.is_leaf() {
        panic!(
            "BAT reclamation fence: leaf {:#x} named by a version is not a \
             leaf (ebr epoch {}, thread {}) — leaf reclaimed while a \
             snapshot could reach it?",
            node.as_raw(),
            ebr::stats().epoch,
            ebr::thread_id(),
        );
    }
}

/// The per-node plugin BAT hangs off every chromatic-tree node: one atomic
/// version pointer, kept *outside* the LLX/SCX record (§4) and mutated
/// directly with CAS. Only internal nodes fill it: a leaf is its own
/// version.
pub struct VersionSlot<K, V, A: Augmentation<K, V>> {
    /// `*const Version`, or 0 = nil ("supplementary fields missing"; for
    /// a leaf, always).
    version: AtomicU64,
    _marker: std::marker::PhantomData<(K, V, A)>,
}

impl<K, V, A: Augmentation<K, V>> VersionSlot<K, V, A> {
    /// Current version pointer (0 = nil).
    #[inline]
    pub fn load(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// CAS the version pointer. Returns the prior value on failure.
    #[inline]
    pub fn cas(&self, old: u64, new: u64) -> Result<(), u64> {
        self.version
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    fn nil() -> Self {
        VersionSlot {
            version: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, V, A> NodePlugin<K, V> for VersionSlot<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    fn new_leaf(_key: &SentKey<K>, _len: usize) -> Self {
        // Definition 1, rules 1–2: a leaf is born as its own version (see
        // `VersionRef::Leaf`), so its slot stays empty.
        Self::nil()
    }

    fn new_internal(_key: &SentKey<K>) -> Self {
        // Definition 1, rule 3: internal nodes are born with nil versions.
        Self::nil()
    }

    fn on_reclaim(&self) {
        // §6: the final version stored in a node can no longer change once
        // the node is freed, and no newly started query can reach it — so
        // it is retired right before the node's memory goes away.
        let v = self.version.load(Ordering::Acquire);
        if v != 0 {
            // SAFETY: the node is being freed, so its slot can no longer
            // change and `v` is its final version: unreachable for new
            // queries, retired exactly once, here.
            unsafe { ebr::pool::retire_pooled_unpinned(v as *mut Version<K, V, A>) };
        }
    }

    // §6 gives a node's final version one grace period more than the node;
    // a leaf, being its own version, takes that period itself.
    const LEAVES_OUTLIVE_UNLINK: bool = true;
}

/// Drop a version that was never published (failed refresh CAS), returning
/// its memory straight to the pool with no grace period.
///
/// # Safety
/// `raw` must have been created by this thread and never installed.
pub unsafe fn dispose_version<K, V, A>(raw: u64)
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    // SAFETY: the caller's contract; versions come from `alloc_pooled`.
    unsafe { ebr::pool::dispose_pooled(raw as *mut Version<K, V, A>) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{MinMaxAug, PairAug, SizeOnly, SumAug};

    type Ver = Version<u64, u64, SizeOnly>;
    type Leaf = BatNode<u64, u64, SizeOnly>;

    fn leaf<A: Augmentation<u64, u64>>(
        key: SentKey<u64>,
        value: Option<u64>,
    ) -> &'static BatNode<u64, u64, A> {
        // SAFETY: fresh from the pool; each test disposes of it.
        unsafe { &*BatNode::new_leaf(key, 1, value) }
    }

    fn dispose<T>(x: &T) {
        // SAFETY: never published; not used afterwards.
        unsafe { ebr::pool::dispose_pooled(x as *const T as *mut T) };
    }

    /// `ebr::pool` carves blocks of at most 64 bytes at a power-of-two
    /// stride from line-aligned pieces, so each of these objects occupies
    /// one cache line: what an update's root check fetches per object, and what a query
    /// pays per version it reads.
    #[test]
    fn hot_objects_fit_in_64_bytes() {
        use std::mem::{size_of, MaybeUninit};
        fn pooled_addr<T>() -> u64 {
            let p = ebr::pool::alloc_pooled(MaybeUninit::<T>::uninit());
            unsafe { ebr::pool::dispose_pooled(p) };
            p as u64
        }
        type Node = crate::refresh::BatNode<u64, (), SizeOnly>;
        assert!(size_of::<Version<u64, (), SizeOnly>>() <= 64);
        assert!(size_of::<Version<u64, u64, SumAug>>() <= 64);
        assert!(size_of::<Node>() <= 64);
        assert_eq!(pooled_addr::<Version<u64, (), SizeOnly>>() % 64, 0);
        assert_eq!(pooled_addr::<Version<u64, u64, SumAug>>() % 64, 0);
        assert_eq!(pooled_addr::<Node>() % 64, 0);
        // The sizes README's table lists (stride: the next power of two up
        // to 64 bytes, the next multiple of 64 above).
        assert_eq!(size_of::<Version<u64, (), SizeOnly>>(), 56);
        assert_eq!(size_of::<Version<u64, u64, SumAug>>(), 64);
        assert_eq!(size_of::<Version<u64, u64, MinMaxAug>>(), 80);
        assert_eq!(
            size_of::<Version<u64, u64, PairAug<SumAug, MinMaxAug>>>(),
            88
        );
        // A `BatSet<u64>` fat leaf at the shipped capacity: its 64-byte
        // node, then 16 entries of 8 bytes, exactly three lines (stride
        // 192).
        type Fat = ShippedLeaf<u64, (), SizeOnly>;
        assert_eq!(crate::LEAF_KEYS, 16);
        assert_eq!(size_of::<Fat>(), 192);
        assert_eq!(pooled_addr::<Fat>() % 64, 0);
    }

    #[test]
    fn leaf_versions_have_size_one() {
        let node = leaf::<SizeOnly>(SentKey::Key(7), Some(70));
        let v = VersionRef::Leaf(node);
        assert_eq!(v.size(), 1);
        assert_eq!(v.key(), &SentKey::Key(7));
        assert_eq!(node.entry(0), (&7, &70));
        assert!(v.is_leaf());
        assert_eq!(v.as_raw(), node.as_raw(), "a leaf is its own version");
        assert_eq!(node.plugin.load(), 0, "a leaf's slot stays empty");
        let sum = VersionRef::<u64, u64, SumAug>::Leaf(leaf(SentKey::Key(7), Some(70)));
        assert_eq!(*sum.aug(), 70, "A::leaf(key, value)");
        dispose(node);
        if let VersionRef::Leaf(n) = sum {
            dispose(n);
        }
    }

    /// A fat leaf is its own version too: its size is its length and its
    /// aggregate the in-order fold of its entries.
    #[test]
    fn fat_leaf_versions_fold_their_entries() {
        type L = BatNode<u64, u64, SumAug>;
        let node = unsafe { &*L::new_leaf_of::<8>(4, 1, |i| (i as u64 * 2, 10 + i as u64)) };
        let v = VersionRef::Leaf(node);
        assert_eq!(v.size(), 4);
        assert_eq!(*v.aug(), 10 + 11 + 12 + 13);
        assert_eq!(v.key(), &SentKey::Key(0));
        assert_eq!(leaf_aug(node, 1..3), 11 + 12);
        assert_eq!(leaf_aug(node, 2..2), 0, "an empty run is the sentinel");
        let inner = Version::<u64, u64, SumAug>::combine(&SentKey::Key(9), 0x1000, v, v, 0);
        let inner = unsafe { &*inner };
        assert_eq!((inner.size, inner.aug), (8, 2 * 46));
        assert!(inner.left().is_leaf() && inner.right().is_leaf());
        // The tags `prefetch_children` reads: every leaf child has its leaf
        // bit, and exactly the leaves of two or more keys their fat bit;
        // the hint still names the node.
        let one = VersionRef::Leaf(leaf::<SumAug>(SentKey::Key(20), Some(5)));
        let sentinel = VersionRef::Leaf(leaf::<SumAug>(SentKey::Inf1, None));
        let within = VersionRef::Internal(inner);
        for (l, r, node, tags) in [
            (v, v, 0x1000, LEFT_LEAF | LEFT_FAT | RIGHT_LEAF | RIGHT_FAT),
            (v, one, 0x2000, LEFT_LEAF | LEFT_FAT | RIGHT_LEAF),
            (one, v, 0x3000, LEFT_LEAF | RIGHT_LEAF | RIGHT_FAT),
            (within, sentinel, 0x4000, RIGHT_LEAF),
            (sentinel, within, 0x5000, LEFT_LEAF),
        ] {
            let c = Version::<u64, u64, SumAug>::combine(&SentKey::Key(9), node, l, r, 0);
            let c = unsafe { &*c };
            assert_eq!(c.node & TAGS, tags, "tags of the version at {node:#x}");
            assert_eq!(c.node_hint() as u64, node);
            unsafe { dispose_version::<u64, u64, SumAug>(c as *const _ as u64) };
        }
        for x in [one, sentinel] {
            if let VersionRef::Leaf(n) = x {
                dispose(n);
            }
        }
        unsafe { dispose_version::<u64, u64, SumAug>(inner as *const _ as u64) };
        unsafe {
            ebr::pool::dispose_pooled(
                node as *const L
                    as *mut chromatic::FatLeaf<u64, u64, VersionSlot<u64, u64, SumAug>, 8>,
            )
        };
    }

    #[test]
    fn sentinel_versions_have_size_zero() {
        let node = leaf::<SizeOnly>(SentKey::Inf1, None);
        let v = VersionRef::Leaf(node);
        assert_eq!(v.size(), 0);
        assert!(node.is_empty());
        assert!(v.is_leaf());
        let sum = VersionRef::<u64, u64, SumAug>::Leaf(leaf(SentKey::Inf2, None));
        assert_eq!(*sum.aug(), 0, "A::sentinel()");
        dispose(node);
        if let VersionRef::Leaf(n) = sum {
            dispose(n);
        }
    }

    #[test]
    fn combine_sums_sizes() {
        let (a, b) = (
            leaf(SentKey::Key(1), Some(10)),
            leaf(SentKey::Key(2), Some(20)),
        );
        // Stand-in node addresses: a hint is never dereferenced.
        let (inner_node, c_node) = (0x1000, 0x2000);
        let inner = Ver::combine(
            &SentKey::Key(2),
            inner_node,
            VersionRef::Leaf(a),
            VersionRef::Leaf(b),
            0,
        );
        let inner = unsafe { &*inner };
        let c = Ver::combine(
            &SentKey::Key(3),
            c_node,
            VersionRef::Internal(inner),
            VersionRef::Leaf(leaf(SentKey::Inf1, None)),
            0,
        );
        let c = unsafe { &*c };
        assert_eq!(c.size, 2);
        // The leaf bits share the hint's word and do not show in it.
        assert_eq!(inner.node_hint() as u64, inner_node);
        assert_eq!(c.node_hint() as u64, c_node);
        let VersionRef::Internal(l) = c.left() else {
            panic!("an internal child reads back as a version");
        };
        assert!(std::ptr::eq(l, inner));
        assert!(std::ptr::eq(l.left().as_raw() as *const Leaf, a));
        assert!(l.right().is_leaf() && c.right().is_leaf());
        assert_eq!(l.left().key(), &SentKey::Key(1));
        assert_eq!(c.right().size(), 0);
        let VersionRef::Leaf(sentinel) = c.right() else {
            panic!("a leaf child reads back as a leaf");
        };
        for x in [a, b, sentinel] {
            dispose(x);
        }
        unsafe {
            dispose_version::<u64, u64, SizeOnly>(c as *const _ as u64);
            dispose_version::<u64, u64, SizeOnly>(inner as *const _ as u64);
        }
    }

    #[test]
    fn slot_cas_semantics() {
        let slot = <VersionSlot<u64, u64, SizeOnly> as NodePlugin<u64, u64>>::new_internal(
            &SentKey::Key(5),
        );
        assert_eq!(slot.load(), 0, "internal slots start nil (rule 3)");
        let (a, b) = (
            leaf(SentKey::Key(5), Some(50)),
            leaf(SentKey::Key(6), Some(60)),
        );
        let pair = |l, r| {
            Ver::combine(
                &SentKey::Key(6),
                0,
                VersionRef::Leaf(l),
                VersionRef::Leaf(r),
                0,
            )
        };
        let v = pair(a, b) as u64;
        assert!(slot.cas(0, v).is_ok());
        assert_eq!(slot.load(), v);
        let w = pair(b, a) as u64;
        assert_eq!(slot.cas(0, w), Err(v), "stale CAS reports current");
        assert!(slot.cas(v, w).is_ok());
        unsafe {
            dispose_version::<u64, u64, SizeOnly>(v);
            // w now owned by slot; reclaim via the plugin hook.
        }
        slot.on_reclaim();
        ebr::flush();
        ebr::flush();
        dispose(a);
        dispose(b);
    }
}
