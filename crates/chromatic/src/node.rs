//! Tree nodes and the augmentation plugin interface.
//!
//! A [`Node`] is an LLX/SCX *record*: its mutable fields are the two child
//! pointers; the key, the weight and everything past them are immutable
//! after construction. `Node` is the `#[repr(C)]` head every node starts
//! with — the record header, the links, the key, the weight and the entry
//! count — and the node's pool block goes on with what its kind holds:
//!
//! * a **leaf** ([`Leaf`]): its entries in key order, up to `B` of them
//!   (the tree's capacity, a const generic of [`crate::ChromaticTree`]); a
//!   sentinel leaf holds none. Its `key` is its smallest key (a sentinel
//!   leaf's is `∞₁` / `∞₂`). Every leaf has this one format, whatever its
//!   length, is read as one slice ([`Node::entries`]) and is built by one
//!   allocation path (`Node::new_leaf_from` for a real leaf,
//!   `Node::new_sentinel_leaf` for a sentinel).
//! * an **internal node**: the plugin ([`Node::plugin`]), whatever
//!   per-node state an augmentation layer needs — for BAT the version
//!   pointer, which the paper explicitly keeps *outside* the LLX/SCX
//!   record so augmentation does not interfere with chromatic tree
//!   operations (§4). A leaf has none: under BAT it is its own version.
//!
//! The kind is the links': a leaf's are null, an internal node's never are
//! ([`Node::is_leaf`]).

use std::marker::PhantomData;
use std::mem::MaybeUninit;

use sched::atomic::{AtomicU64, Ordering};

use ebr::Guard;
use llxscx::{Linked, Llx, RecordHeader};

use crate::key::SentKey;

/// Per-internal-node augmentation state plus the hooks the paper's
/// Definition 1 ("Version Initialization Rules") requires at
/// node-allocation time.
///
/// The unaugmented tree uses `()`; BAT uses a version-pointer slot. Only
/// internal nodes carry one: under rules 1–2 a BAT leaf is born as its own
/// version — its immutable entries are all a version of it would hold —
/// and [`NodePlugin::LEAVES_OUTLIVE_UNLINK`] gives it the lifetime a
/// version needs.
pub trait NodePlugin<K, V>: Sized + Send + Sync {
    /// Plugin state for a newly created internal node
    /// (Definition 1, rule 3: version starts `nil`).
    fn new_internal(key: &SentKey<K>) -> Self;

    /// Called exactly once per internal node when the node's memory is
    /// about to be reclaimed (both for published nodes after their epoch
    /// grace period and for patch nodes whose SCX failed). For BAT this
    /// retires the node's final version (§6).
    fn on_reclaim(&self);

    /// Whether a published leaf waits one more grace period, after the one
    /// that follows its unlinking, before its memory is reclaimed. A plugin
    /// sets it when readers can reach a leaf through a structure of its own
    /// that still names the leaf after the node tree has dropped it — BAT's
    /// version tree, in which a leaf is its own version, until the removing
    /// update's propagate arrives at the root. A leaf that was never
    /// published is reclaimed at once either way.
    const LEAVES_OUTLIVE_UNLINK: bool = false;
}

impl<K, V> NodePlugin<K, V> for () {
    #[inline]
    fn new_internal(_: &SentKey<K>) -> Self {}
    #[inline]
    fn on_reclaim(&self) {}
}

/// A chromatic tree node's head, which every node starts with.
///
/// Leaves have null child pointers and are followed by their entries;
/// internal nodes route searches and are followed by the plugin `P`.
/// `weight` encodes color: 0 = red, 1 = black, ≥ 2 = overweight. A leaf's
/// `key` is its smallest key (a sentinel leaf's is `∞₁` / `∞₂`).
#[repr(C)]
pub struct Node<K, V, P> {
    /// LLX/SCX coordination word + finalized flag.
    pub header: RecordHeader,
    left: AtomicU64,
    right: AtomicU64,
    key: SentKey<K>,
    weight: u32,
    /// A leaf's entry count: 0 for a sentinel leaf and every internal
    /// node. It fits in the head's padding.
    len: u16,
    /// What follows the head: `(K, V)` entries, or a `P`.
    _body: PhantomData<(V, P)>,
}

/// The check every followed link passes before it is dereferenced: null
/// always, and in debug builds alignment too — which also rejects a word
/// read out of a recycled block, since [`ebr::pool`]'s `0xDD…` poison is
/// odd. Armed for ROADMAP's "Rare memory bug in the BAT hot path" (one
/// SIGSEGV at `0x30`, a null node reached through a child link): the next
/// occurrence dies here, with the link, its holder (0 when the value came
/// through [`Node::from_raw`]), the epoch and the thread.
#[inline]
fn fence_node_ptr(raw: u64, parent: u64) {
    if raw == 0 || (cfg!(debug_assertions) && !raw.is_multiple_of(8)) {
        fence_failed(raw, parent);
    }
}

#[cold]
#[inline(never)]
fn fence_failed(raw: u64, parent: u64) -> ! {
    panic!(
        "reclamation fence: link {raw:#x} of node {parent:#x} is \
         null/poisoned/misaligned (ebr epoch {}, thread {}) — a leaf's \
         link followed, or a node read after reclamation",
        ebr::stats().epoch,
        ebr::thread_id(),
    );
}

/// An internal node: the head, then the plugin. What a prefetch of an
/// internal node covers.
#[repr(C)]
pub struct Internal<K, V, P> {
    node: Node<K, V, P>,
    plugin: P,
}

/// A leaf of capacity `B`: the head, with the smallest key as its `key`,
/// followed in the same pool block by its entries in key order. `B` sets
/// the block's size, so a tree's leaves have a pool class of their own
/// (`B = 64`, `u64` keys and no values: nine lines; `B = 1`: one). A leaf
/// is built by cloning slices of entries straight into its block
/// ([`Node::new_leaf_from`]) and read as one slice ([`Node::entries`]).
/// Every reclaim goes through `reclaim_node`, which picks the class by the
/// node's kind.
#[repr(C)]
pub struct Leaf<K, V, P, const B: usize> {
    node: Node<K, V, P>,
    entries: [MaybeUninit<(K, V)>; B],
}

impl<K, V, P, const B: usize> Drop for Leaf<K, V, P, B> {
    fn drop(&mut self) {
        for e in &mut self.entries[..self.node.len as usize] {
            // SAFETY: the first `len` entries were written at construction
            // and are dropped once, here.
            unsafe { e.assume_init_drop() };
        }
    }
}

/// Where a [`Leaf`]'s entries start, past its head: the same for every
/// `B`, since `#[repr(C)]` places a field by the ones before it alone.
#[inline(always)]
fn entries_offset<K, V, P>() -> usize {
    std::mem::offset_of!(Leaf<K, V, P, 1>, entries)
}

/// Where an internal node's plugin starts, past its head.
#[inline(always)]
fn plugin_offset<K, V, P>() -> usize {
    std::mem::offset_of!(Internal<K, V, P>, plugin)
}

/// Atomic snapshot of a node's mutable fields, as returned by [`Node::llx`].
pub type ChildSnap = (u64, u64);

impl<K, V, P> Node<K, V, P> {
    /// A fresh head: unfrozen, with the given links.
    fn head(key: SentKey<K>, weight: u32, left: u64, right: u64, len: u16) -> Self {
        Node {
            header: RecordHeader::new(),
            left: AtomicU64::new(left),
            right: AtomicU64::new(right),
            key,
            weight,
            len,
            _body: PhantomData,
        }
    }
}

impl<K: Ord + Clone, V: Clone, P: NodePlugin<K, V>> Node<K, V, P> {
    /// Allocate a real leaf of capacity `B` whose entries are `parts` one
    /// after the other (1 to `B` in all, in strictly increasing key order),
    /// cloned slice by slice straight into its pool block; its key is the
    /// first entry's. An insert passes a leaf's prefix, the new entry and
    /// the suffix; a delete the prefix and the suffix past the key; a split
    /// each half.
    pub fn new_leaf_from<const B: usize>(weight: u32, parts: &[&[(K, V)]]) -> *mut Self {
        let (first, _) = parts
            .iter()
            .find_map(|part| part.first())
            .expect("a real leaf holds 1 to B keys");
        Self::alloc_leaf::<B>(SentKey::Key(first.clone()), weight, parts)
    }

    /// Allocate a sentinel leaf (`key` is `∞₁` or `∞₂`) of capacity `B`:
    /// a leaf of no entries.
    pub fn new_sentinel_leaf<const B: usize>(key: SentKey<K>, weight: u32) -> *mut Self {
        Self::alloc_leaf::<B>(key, weight, &[])
    }

    /// The one leaf constructor: a [`Leaf`] of capacity `B` keyed `key`
    /// whose entries are `parts` one after the other. Memory comes from the
    /// EBR free-list pool, so steady-state update patches recycle the nodes
    /// they retire instead of round-tripping the global allocator.
    fn alloc_leaf<const B: usize>(key: SentKey<K>, weight: u32, parts: &[&[(K, V)]]) -> *mut Self {
        const { assert!(B <= u16::MAX as usize, "a leaf's length fits its u16") };
        let len: usize = parts.iter().map(|part| part.len()).sum();
        // Not debug-only: the copies below would run past the block.
        assert!(len <= B, "a leaf holds at most B keys");
        debug_assert_eq!(key.is_sentinel(), len == 0, "only a sentinel is empty");
        let leaf = ebr::pool::alloc_pooled(MaybeUninit::<Leaf<K, V, P, B>>::uninit())
            as *mut Leaf<K, V, P, B>;
        // SAFETY: `leaf` is this call's block, of `Leaf`'s layout; its
        // entry slots are `MaybeUninit`, so a reference to them may span
        // the block's uninitialized bytes.
        // guard: none needed, nothing else can reach the block yet.
        let entries = unsafe { &mut (*leaf).entries };
        let mut at = 0;
        for part in parts {
            entries[at..at + part.len()].write_clone_of_slice(part);
            at += part.len();
        }
        // SAFETY: as above; the head's slot is written once, here, and the
        // block is a whole `Leaf` from now on.
        unsafe { (&raw mut (*leaf).node).write(Self::head(key, weight, 0, 0, len as u16)) };
        // `#[repr(C)]` puts the head at the block's start.
        leaf as *mut Self
    }

    /// Allocate an internal node with the given children and a fresh
    /// plugin (pool-backed, like a leaf).
    pub fn new_internal(key: SentKey<K>, weight: u32, left: u64, right: u64) -> *mut Self {
        debug_assert!(left != 0 && right != 0, "internal node requires children");
        let plugin = P::new_internal(&key);
        let node = Self::head(key, weight, left, right, 0);
        // `#[repr(C)]` puts the head at the block's start.
        ebr::pool::alloc_pooled(Internal { node, plugin }) as *mut Self
    }

    /// Copy this node with a new weight; children taken from an LLX
    /// snapshot (internal) or entries cloned (leaf, into a leaf of
    /// capacity `B`).
    pub fn copy_with_weight<const B: usize>(&self, weight: u32, snap: ChildSnap) -> *mut Self {
        if self.is_leaf() {
            Self::alloc_leaf::<B>(self.key.clone(), weight, &[self.entries()])
        } else {
            Self::new_internal(self.key.clone(), weight, snap.0, snap.1)
        }
    }
}

impl<K, V, P> Node<K, V, P> {
    /// The node's (sentinel-extended) key.
    #[inline]
    pub fn key(&self) -> &SentKey<K> {
        &self.key
    }

    /// The node's weight (0 = red, 1 = black, ≥2 = overweight).
    #[inline]
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// How many keys this leaf holds: 0 for a sentinel leaf (and for an
    /// internal node).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a leaf that holds no key: a sentinel leaf (or an internal
    /// node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf's entries in key order, as one slice of its block — what a
    /// search, a fold or a copy of a leaf reads; empty for a sentinel leaf
    /// and for an internal node.
    #[inline]
    pub fn entries(&self) -> &[(K, V)] {
        let first = (self.as_raw() as usize + entries_offset::<K, V, P>()) as *const (K, V);
        // SAFETY: a leaf was allocated as a `Leaf` (`alloc_leaf`), whose
        // first `len` entries follow at `entries_offset` and never change
        // while the node is live; an internal node's `len` is 0, and its
        // block, a pool block of at least one line, is line-aligned, so the
        // address is aligned for `(K, V)` either way. The address comes
        // from the block's exposed provenance (`as_raw`), not from `&self`,
        // which spans the head alone.
        // guard: the node is borrowed, so the caller's pin keeps it live.
        unsafe { std::slice::from_raw_parts(first, self.len()) }
    }

    /// An internal node's plugin. Panics on a leaf, which has none.
    #[inline]
    pub fn plugin(&self) -> &P {
        assert!(!self.is_leaf(), "a leaf has no plugin");
        let plugin = (self.as_raw() as usize + plugin_offset::<K, V, P>()) as *const P;
        // SAFETY: an internal node was allocated as an `Internal`
        // (`new_internal`), whose plugin follows at `plugin_offset` for as
        // long as the node is live; the address comes from the block's
        // exposed provenance, as in `entries`.
        // guard: the node is borrowed, so the caller's pin keeps it live.
        unsafe { &*plugin }
    }

    /// True if this node is a leaf (no children).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left.load(Ordering::Acquire) == 0
    }

    /// True if this node carries a sentinel key.
    #[inline]
    pub fn is_sentinel(&self) -> bool {
        self.key.is_sentinel()
    }

    /// Current left child (raw). 0 for leaves.
    #[inline]
    pub fn left_raw(&self) -> u64 {
        self.left.load(Ordering::Acquire)
    }

    /// Current right child (raw). 0 for leaves.
    #[inline]
    pub fn right_raw(&self) -> u64 {
        self.right.load(Ordering::Acquire)
    }

    /// The raw left-child field, for SCX targeting.
    #[inline]
    pub(crate) fn left_field(&self) -> *const AtomicU64 {
        &self.left
    }

    /// The raw right-child field, for SCX targeting.
    #[inline]
    pub(crate) fn right_field(&self) -> *const AtomicU64 {
        &self.right
    }

    /// Follow the left link. Panics on a leaf (null link).
    ///
    /// This, [`Node::right`] and [`Node::child_toward`] are the one way to
    /// follow a tree link. The result borrows the guard, so it cannot
    /// outlive the pin:
    ///
    /// ```compile_fail
    /// use chromatic::{Node, SentKey};
    /// let leaf = Node::<u64, (), ()>::new_sentinel_leaf::<1>(SentKey::Inf1, 1) as u64;
    /// let node = unsafe { &*Node::<u64, (), ()>::new_internal(SentKey::Key(1), 1, leaf, leaf) };
    /// let guard = ebr::pin();
    /// let child = node.left(&guard);
    /// drop(guard); // error[E0505]: `guard` is still borrowed by `child`
    /// child.key();
    /// ```
    #[inline]
    pub fn left<'g>(&'g self, guard: &'g Guard) -> &'g Self {
        Self::follow(self.left_raw(), self, guard)
    }

    /// Follow the right link; see [`Node::left`].
    #[inline]
    pub fn right<'g>(&'g self, guard: &'g Guard) -> &'g Self {
        Self::follow(self.right_raw(), self, guard)
    }

    #[inline]
    fn follow<'g>(raw: u64, parent: &'g Self, _guard: &'g Guard) -> &'g Self {
        fence_node_ptr(raw, parent.as_raw());
        // SAFETY: a link read from a node reached under this pin names a
        // node retired, if at all, after the pin began. A node is retired
        // only after the SCX that unlinks it, after every ancestor the same
        // SCX removes, and a finalized node's links never change — so a
        // child retired before the pin would make `parent` retired before
        // it too, which it was not (induction from the entry, which is
        // never retired). EBR keeps such a node allocated until `_guard`
        // drops; the fence rules out null.
        unsafe { &*(raw as *const Self) }
    }

    /// Dereference a raw link that did not come straight off a node: a
    /// value from an LLX snapshot or a scratch stack. Fenced like a
    /// followed link.
    ///
    /// # Safety
    /// `raw` must have been read, under `guard`'s pin, from a node of this
    /// tree reached under the same pin.
    #[inline]
    pub unsafe fn from_raw(raw: u64, _guard: &Guard) -> &Self {
        fence_node_ptr(raw, 0);
        // SAFETY: the caller's contract is `follow`'s argument.
        unsafe { &*(raw as *const Self) }
    }

    /// This node as a raw pointer value.
    #[inline]
    pub fn as_raw(&self) -> u64 {
        self as *const Self as u64
    }

    /// LLX this node, returning an atomic snapshot of its child pointers.
    #[inline]
    pub fn llx(&self) -> Llx<ChildSnap> {
        llxscx::llx(&self.header, || {
            (
                self.left.load(Ordering::Acquire),
                self.right.load(Ordering::Acquire),
            )
        })
    }

    /// Build a [`Linked`] entry for SCX from an LLX result.
    #[inline]
    pub(crate) fn linked(&self, info: llxscx::InfoTag) -> Linked {
        Linked {
            header: &self.header,
            info,
        }
    }

    /// True once removed from the tree.
    #[inline]
    pub fn is_finalized(&self) -> bool {
        self.header.is_finalized()
    }
}

/// Reclamation entry point for a published node, once nothing reachable
/// from the node tree names it: reclaims it — or, for a leaf whose plugin
/// sets [`NodePlugin::LEAVES_OUTLIVE_UNLINK`], retires it again, so that it
/// is reclaimed one grace period later.
///
/// # Safety
/// `ptr` must be a published node of a tree of leaf capacity `B`, allocated
/// by one of [`Node`]'s constructors, that no thread pinning from now on
/// can reach through the node tree, freed exactly once.
pub(crate) unsafe fn free_node<K, V, P: NodePlugin<K, V>, const B: usize>(ptr: *mut u8) {
    // SAFETY: the caller's contract: `ptr` is a live node whose links no
    // longer change. (A plugin that does not opt in never reads it here.)
    // guard: none needed, the node is unreachable through the tree.
    if P::LEAVES_OUTLIVE_UNLINK && unsafe { &*(ptr as *const Node<K, V, P>) }.is_leaf() {
        // SAFETY: the caller's contract, and the plugin's: whatever else
        // names the leaf stops doing so for threads that pin after this
        // call, so one more grace period covers every reader.
        unsafe { ebr::retire_unpinned_with(ptr, reclaim_node::<K, V, P, B>) };
    } else {
        // SAFETY: the caller's contract.
        unsafe { reclaim_node::<K, V, P, B>(ptr) };
    }
}

/// Drops the node in place and returns its memory to the reclaiming
/// thread's free-list pool, in the class of its kind: a leaf as the
/// [`Leaf`] of capacity `B` it was allocated as, with its entries; an
/// internal node after its plugin's hook has run.
///
/// # Safety
/// `ptr` must be a node of a tree of leaf capacity `B`, allocated by one of
/// [`Node`]'s constructors, that no thread can reach, reclaimed exactly
/// once.
unsafe fn reclaim_node<K, V, P: NodePlugin<K, V>, const B: usize>(ptr: *mut u8) {
    // SAFETY: the caller's contract — `ptr` is a live pool allocation that
    // nothing else can reach, so the hook may read it and the pool may drop
    // and recycle it, once, as the type it was allocated as: a leaf is a
    // `Leaf` of this tree's `B`, any other node an `Internal`.
    // guard: none needed, the node is unreachable.
    unsafe {
        if (*(ptr as *const Node<K, V, P>)).is_leaf() {
            ebr::pool::dispose_pooled(ptr as *mut Leaf<K, V, P, B>);
        } else {
            let internal = ptr as *mut Internal<K, V, P>;
            (*internal).plugin.on_reclaim();
            ebr::pool::dispose_pooled(internal);
        }
    }
}

/// Retire a node through EBR with the plugin-aware destructor.
///
/// # Safety
/// As for [`ebr::Guard::retire_with`].
pub(crate) unsafe fn retire_node<K, V, P, const B: usize>(guard: &ebr::Guard, raw: u64)
where
    P: NodePlugin<K, V>,
{
    // SAFETY: the caller's contract is `retire_with`'s, and `free_node`'s
    // holds once the grace period has made the unlinked node unreachable.
    unsafe { guard.retire_with(raw as *mut u8, free_node::<K, V, P, B>) };
}

/// Immediately dispose of a node that was never published (failed SCX).
///
/// # Safety
/// `raw` must point to a node of a tree of leaf capacity `B` created by
/// this thread that no other thread has ever seen.
pub(crate) unsafe fn dispose_unpublished<K, V, P, const B: usize>(raw: u64)
where
    P: NodePlugin<K, V>,
{
    // SAFETY: never published (the caller's contract), hence unreachable.
    unsafe { reclaim_node::<K, V, P, B>(raw as *mut u8) };
}

impl<K: Ord, V, P> Node<K, V, P> {
    /// Binary search of the leaf's keys for `k`, as
    /// [`slice::binary_search`]: `Ok(i)` if entry `i` holds it, else
    /// `Err(i)` with `i` the number of keys below `k`. A sentinel leaf
    /// holds none.
    #[inline]
    pub fn search_leaf(&self, k: &K) -> Result<usize, usize> {
        self.entries().binary_search_by(|(e, _)| e.cmp(k))
    }

    /// Follow the link a search for the sentinel-extended key takes
    /// (leaf-oriented rule: left iff `key < self.key`); see [`Node::left`].
    #[inline]
    pub fn child_toward<'g>(&'g self, key: &SentKey<K>, guard: &'g Guard) -> &'g Self {
        if key < &self.key {
            self.left(guard)
        } else {
            self.right(guard)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type N = Node<u64, (), ()>;

    fn one(k: u64) -> *mut N {
        N::new_leaf_from::<1>(1, &[&[(k, ())]])
    }

    #[test]
    fn leaf_roundtrip() {
        let _g = ebr::pin();
        let leaf = unsafe { &*one(5) };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.key(), &SentKey::Key(5));
        assert_eq!((leaf.weight(), leaf.entries()), (1, &[(5, ())][..]));
        assert!(!leaf.is_finalized());
        unsafe { dispose_unpublished::<u64, (), (), 1>(leaf.as_raw()) };
    }

    /// A leaf's entries read back in order, a search finds each and places
    /// the absent ones, a copy is the same leaf again, a one-key leaf is a
    /// leaf of the same format, and reclaiming drops every entry
    /// (`String`s, so a leak or a double drop shows under Miri and ASan).
    #[test]
    fn fat_leaf_roundtrip() {
        type S = Node<u64, String, ()>;
        let _g = ebr::pin();
        let keys = [3u64, 5, 9];
        let entries = keys.map(|k| (k, format!("v{k}")));
        let leaf = S::new_leaf_from::<8>(2, &[&entries]);
        let leaf = unsafe { &*leaf };
        assert!(leaf.is_leaf() && !leaf.is_sentinel());
        assert_eq!((leaf.len(), leaf.weight()), (3, 2));
        assert_eq!(leaf.key(), &SentKey::Key(3), "a leaf's key is its smallest");
        assert_eq!(leaf.entries(), entries);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(leaf.search_leaf(k), Ok(i));
        }
        assert_eq!(leaf.search_leaf(&0), Err(0));
        assert_eq!(leaf.search_leaf(&4), Err(1));
        assert_eq!(leaf.search_leaf(&10), Err(3));
        let copy = unsafe { &*leaf.copy_with_weight::<8>(1, (0, 0)) };
        assert_eq!((copy.entries(), copy.weight()), (&entries[..], 1));
        let single = unsafe { &*S::new_leaf_from::<8>(1, &[&[], &[(7, "v7".to_string())]]) };
        assert_eq!(single.entries(), [(7, "v7".to_string())]);
        assert_eq!(single.search_leaf(&7), Ok(0));
        let sentinel = unsafe { &*S::new_sentinel_leaf::<8>(SentKey::Inf1, 1) };
        assert!(sentinel.is_empty() && sentinel.entries().is_empty());
        assert_eq!(sentinel.search_leaf(&7), Err(0));
        let sentinel_copy = unsafe { &*sentinel.copy_with_weight::<8>(3, (0, 0)) };
        assert_eq!(
            (sentinel_copy.key(), sentinel_copy.weight()),
            (&SentKey::Inf1, 3)
        );
        for n in [leaf, copy, single, sentinel, sentinel_copy] {
            unsafe { dispose_unpublished::<u64, String, (), 8>(n.as_raw()) };
        }
    }

    /// `new_leaf_from` clones its parts in order into one block, whatever
    /// their lengths (an insert's three, a delete's two, a copy's one),
    /// and `entries` reads them back as one slice, a run of one entry
    /// included.
    #[test]
    fn leaves_build_from_slices() {
        type S = Node<u64, String, ()>;
        let _g = ebr::pin();
        let e = |k: u64| (k, format!("v{k}"));
        let old = [e(1), e(3), e(5), e(7)];
        let new = [e(4)];
        let inserted = unsafe { &*S::new_leaf_from::<8>(3, &[&old[..2], &new, &old[2..]]) };
        assert_eq!(inserted.entries(), [e(1), e(3), e(4), e(5), e(7)]);
        assert_eq!((inserted.len(), inserted.weight()), (5, 3));
        assert_eq!(inserted.key(), &SentKey::Key(1));
        let deleted = inserted.entries();
        let deleted = unsafe { &*S::new_leaf_from::<8>(1, &[&deleted[..2], &deleted[3..]]) };
        assert_eq!(deleted.entries(), old);
        let full = unsafe { &*S::new_leaf_from::<5>(1, &[&[], inserted.entries(), &[]]) };
        assert_eq!(full.entries(), inserted.entries(), "a leaf at its capacity");
        let one = unsafe { &*S::new_leaf_from::<8>(2, &[&[], &[], &new]) };
        assert_eq!((one.entries(), one.weight()), (&new[..], 2));
        assert_eq!(one.key(), &SentKey::Key(4));
        for n in [inserted, deleted, one] {
            unsafe { dispose_unpublished::<u64, String, (), 8>(n.as_raw()) };
        }
        unsafe { dispose_unpublished::<u64, String, (), 5>(full.as_raw()) };
    }

    #[test]
    fn internal_routes_search() {
        let _g = ebr::pin();
        let (l, r) = (one(1), one(9));
        let n = N::new_internal(SentKey::Key(5), 1, l as u64, r as u64);
        let n = unsafe { &*n };
        assert!(!n.is_leaf() && n.entries().is_empty());
        let toward = |k| n.child_toward(&SentKey::Key(k), &_g).as_raw();
        assert_eq!(toward(3), l as u64);
        assert_eq!(toward(5), r as u64); // ties go right
        assert_eq!(toward(7), r as u64);
        unsafe {
            dispose_unpublished::<u64, (), (), 1>(l as u64);
            dispose_unpublished::<u64, (), (), 1>(r as u64);
            dispose_unpublished::<u64, (), (), 1>(n.as_raw());
        }
    }

    /// An internal node whose left link was overwritten with `link`, as a
    /// read after reclamation would find it (leaked: the tests panic).
    fn internal_with_left_link(link: u64) -> &'static N {
        let n = unsafe { &*N::new_internal(SentKey::Key(5), 1, one(1) as u64, one(9) as u64) };
        unsafe { (*n.left_field()).store(link, Ordering::Release) };
        n
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reclamation fence")]
    fn poisoned_link_trips_the_fence() {
        let poison = u64::from_ne_bytes([ebr::pool::POISON_BYTE; 8]);
        internal_with_left_link(poison).child_toward(&SentKey::Key(3), &ebr::pin());
    }

    #[test]
    #[should_panic(expected = "reclamation fence")]
    fn null_link_trips_the_fence() {
        internal_with_left_link(0).left(&ebr::pin());
    }

    #[test]
    #[should_panic(expected = "a leaf has no plugin")]
    fn a_leaf_has_no_plugin() {
        unsafe { &*one(1) }.plugin();
    }

    #[test]
    fn plugin_reclaim_hook_runs() {
        use std::sync::atomic::AtomicUsize;
        static RECLAIMS: AtomicUsize = AtomicUsize::new(0);
        struct Counting(u64);
        impl NodePlugin<u64, ()> for Counting {
            fn new_internal(_: &SentKey<u64>) -> Self {
                Counting(7)
            }
            fn on_reclaim(&self) {
                RECLAIMS.fetch_add(1, Ordering::SeqCst);
            }
        }
        type C = Node<u64, (), Counting>;
        let before = RECLAIMS.load(Ordering::SeqCst);
        let leaf = |k| C::new_leaf_from::<1>(1, &[&[(k, ())]]) as u64;
        let (l, r) = (leaf(1), leaf(9));
        let n = unsafe { &*C::new_internal(SentKey::Key(5), 1, l, r) };
        assert_eq!(
            n.plugin().0,
            7,
            "an internal node's plugin follows its head"
        );
        unsafe {
            dispose_unpublished::<u64, (), Counting, 1>(l);
            dispose_unpublished::<u64, (), Counting, 1>(r);
        }
        assert_eq!(RECLAIMS.load(Ordering::SeqCst), before, "leaves have none");
        unsafe { dispose_unpublished::<u64, (), Counting, 1>(n.as_raw()) };
        assert_eq!(RECLAIMS.load(Ordering::SeqCst), before + 1);
    }
}
