//! Tree nodes and the augmentation plugin interface.
//!
//! A [`Node`] is an LLX/SCX *record*: its mutable fields are the two child
//! pointers; key, weight, value and a leaf's entries are immutable after
//! construction. A leaf holds up to `B` sorted keys (the tree's capacity,
//! a const generic of [`crate::ChromaticTree`]): a leaf of one key is a
//! plain `Node` whose `key` / `value` are that entry, and a leaf of two or
//! more is a [`FatLeaf`], a `Node` followed by its entries in the same pool
//! block. The entry count says which, so a reader needs no `B`. The
//! `plugin` slot carries whatever per-node state an augmentation layer
//! needs — for BAT it is the `version` pointer, which the paper explicitly
//! keeps *outside* the LLX/SCX record so augmentation does not interfere
//! with chromatic tree operations (§4).

use std::mem::MaybeUninit;

use sched::atomic::{AtomicU64, Ordering};

use ebr::Guard;
use llxscx::{Linked, Llx, RecordHeader};

use crate::key::SentKey;

/// Per-node augmentation state plus the hooks the paper's Definition 1
/// ("Version Initialization Rules") requires at node-allocation time.
///
/// The unaugmented tree uses `()`; BAT uses a version-pointer slot, which
/// only internal nodes fill: under rules 1–2 a BAT leaf is born as its own
/// version — its immutable key and value are all a version of it would
/// hold — and [`NodePlugin::LEAVES_OUTLIVE_UNLINK`] gives it the lifetime
/// a version needs.
pub trait NodePlugin<K, V>: Sized + Send + Sync {
    /// Plugin state for a newly created leaf with the given (smallest) key
    /// holding `len` keys (Definition 1, rules 1–2: a real leaf, or a
    /// sentinel leaf with `len` 0).
    fn new_leaf(key: &SentKey<K>, len: usize) -> Self;

    /// Plugin state for a newly created internal node
    /// (Definition 1, rule 3: version starts `nil`).
    fn new_internal(key: &SentKey<K>) -> Self;

    /// Called exactly once per node when the node's memory is about to be
    /// reclaimed (both for published nodes after their epoch grace period
    /// and for patch nodes whose SCX failed). For BAT this retires the
    /// node's final version (§6).
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
    fn new_leaf(_: &SentKey<K>, _: usize) -> Self {}
    #[inline]
    fn new_internal(_: &SentKey<K>) -> Self {}
    #[inline]
    fn on_reclaim(&self) {}
}

/// A chromatic tree node.
///
/// Leaves have null child pointers and carry their entries; internal nodes
/// route searches only. `weight` encodes color: 0 = red, 1 = black, ≥ 2 =
/// overweight. A leaf's `key` is its smallest key (a sentinel leaf's is
/// `∞₁` / `∞₂`).
pub struct Node<K, V, P> {
    /// LLX/SCX coordination word + finalized flag.
    pub header: RecordHeader,
    left: AtomicU64,
    right: AtomicU64,
    key: SentKey<K>,
    weight: u32,
    /// A leaf's entry count: 0 for a sentinel leaf (and every internal
    /// node), 1 for a leaf whose entry is `key` / `value`, ≥ 2 for a
    /// [`FatLeaf`]. It fits in the node's padding: a `BatSet<u64>` node
    /// is 64 bytes with it.
    len: u16,
    /// A one-entry leaf's value; `None` for every other node.
    value: Option<V>,
    /// Augmentation slot (e.g. BAT's version pointer). Not part of the
    /// LLX/SCX record; mutated directly with CAS by the augmentation layer.
    pub plugin: P,
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

/// Atomic snapshot of a node's mutable fields, as returned by [`Node::llx`].
pub type ChildSnap = (u64, u64);

/// A leaf of two or more keys: the node, with its smallest key as `key` and
/// no `value`, followed in the same pool block by its entries in key order.
/// `B` is the tree's leaf capacity and sets the block's size, so the
/// leaf has a pool class of its own (`B = 64`, `u64` keys and no values:
/// nine lines). A leaf is built by cloning slices of entries straight
/// into its block ([`Node::new_leaf_from`]) and read as one slice
/// ([`Node::fat_entries`]).
/// Every reclaim goes through `reclaim_node`, which picks the class by
/// the entry count; freeing a fat leaf as a `Node` would strand its
/// entries and return its block to the wrong class.
#[repr(C)]
pub struct FatLeaf<K, V, P, const B: usize> {
    node: Node<K, V, P>,
    entries: [MaybeUninit<(K, V)>; B],
}

impl<K, V, P, const B: usize> Drop for FatLeaf<K, V, P, B> {
    fn drop(&mut self) {
        for e in &mut self.entries[..self.node.len as usize] {
            // SAFETY: the first `len` entries were written at construction
            // and are dropped once, here.
            unsafe { e.assume_init_drop() };
        }
    }
}

/// Where a [`FatLeaf`]'s entries start, past its node: the same for every
/// `B`, since `#[repr(C)]` places a field by the ones before it alone.
#[inline(always)]
fn entries_offset<K, V, P>() -> usize {
    std::mem::offset_of!(FatLeaf<K, V, P, 1>, entries)
}

impl<K: Ord + Clone, V: Clone, P: NodePlugin<K, V>> Node<K, V, P> {
    /// Allocate a leaf of at most one entry: `key` with `Some(value)`, or a
    /// sentinel key with `None` (weight defaults to 1 for fresh leaves;
    /// deletes pass explicit weights when copying). Memory comes from the
    /// EBR free-list pool, so steady-state update patches recycle the nodes
    /// they retire instead of round-tripping the global allocator.
    pub fn new_leaf(key: SentKey<K>, weight: u32, value: Option<V>) -> *mut Self {
        debug_assert_eq!(
            key.is_sentinel(),
            value.is_none(),
            "a real leaf has a value"
        );
        let len = value.is_some() as u16;
        let plugin = P::new_leaf(&key, len as usize);
        ebr::pool::alloc_pooled(Node {
            header: RecordHeader::new(),
            left: AtomicU64::new(0),
            right: AtomicU64::new(0),
            key,
            weight,
            len,
            value,
            plugin,
        })
    }

    /// Allocate a leaf of capacity `B` whose entries are `parts` one after
    /// the other (1 to `B` in all, in strictly increasing key order): a
    /// plain node for one entry, else a [`FatLeaf`] whose entries are
    /// cloned slice by slice straight into its pool block. An insert passes
    /// a leaf's prefix, the new entry and the suffix; a delete the prefix
    /// and the suffix past the key; a split each half.
    pub fn new_leaf_from<const B: usize>(weight: u32, parts: &[&[(K, V)]]) -> *mut Self {
        const { assert!(B <= u16::MAX as usize, "a leaf's length fits its u16") };
        let len: usize = parts.iter().map(|part| part.len()).sum();
        // Not debug-only: an empty leaf would read its key out of an
        // unwritten slot below.
        assert!((1..=B).contains(&len), "a real leaf holds 1 to B keys");
        if len == 1 {
            let (k, v) = parts
                .iter()
                .find_map(|part| part.first())
                .expect("one entry");
            return Self::new_leaf(SentKey::Key(k.clone()), weight, Some(v.clone()));
        }
        let leaf = ebr::pool::alloc_pooled(MaybeUninit::<FatLeaf<K, V, P, B>>::uninit())
            as *mut FatLeaf<K, V, P, B>;
        // SAFETY: `leaf` is this call's block, of `FatLeaf`'s layout; its
        // entry slots are `MaybeUninit`, so a reference to them may span
        // the block's uninitialized bytes.
        // guard: none needed, nothing else can reach the block yet.
        let entries = unsafe { &mut (*leaf).entries };
        let mut at = 0;
        for part in parts {
            entries[at..at + part.len()].write_clone_of_slice(part);
            at += part.len();
        }
        // SAFETY: `len >= 2`, so entry 0 was written above.
        let key = SentKey::Key(unsafe { entries[0].assume_init_ref() }.0.clone());
        let plugin = P::new_leaf(&key, len);
        // SAFETY: as above; the node's slot is written once, here, and the
        // block is a whole `FatLeaf` from now on.
        unsafe {
            (&raw mut (*leaf).node).write(Node {
                header: RecordHeader::new(),
                left: AtomicU64::new(0),
                right: AtomicU64::new(0),
                key,
                weight,
                len: len as u16,
                value: None,
                plugin,
            })
        };
        // `#[repr(C)]` puts the node at the block's start.
        leaf as *mut Self
    }

    /// Allocate an internal node with the given children (pool-backed,
    /// like [`Node::new_leaf`]).
    pub fn new_internal(key: SentKey<K>, weight: u32, left: u64, right: u64) -> *mut Self {
        debug_assert!(left != 0 && right != 0, "internal node requires children");
        let plugin = P::new_internal(&key);
        ebr::pool::alloc_pooled(Node {
            header: RecordHeader::new(),
            left: AtomicU64::new(left),
            right: AtomicU64::new(right),
            key,
            weight,
            len: 0,
            value: None,
            plugin,
        })
    }

    /// Copy this node with a new weight; children taken from an LLX
    /// snapshot (internal) or entries cloned (leaf, into a leaf of
    /// capacity `B`).
    pub fn copy_with_weight<const B: usize>(&self, weight: u32, snap: ChildSnap) -> *mut Self {
        if !self.is_leaf() {
            Self::new_internal(self.key.clone(), weight, snap.0, snap.1)
        } else if self.len <= 1 {
            Self::new_leaf(self.key.clone(), weight, self.value.clone())
        } else {
            Self::new_leaf_from::<B>(weight, &[self.fat_entries()])
        }
    }

    /// The leaf's `i`-th entry, cloned.
    #[inline]
    pub fn cloned_entry(&self, i: usize) -> (K, V) {
        let (k, v) = self.entry(i);
        (k.clone(), v.clone())
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

    /// The leaf's `i`-th entry in key order, `i < self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> (&K, &V) {
        if self.len == 1 && i == 0 {
            let (SentKey::Key(k), Some(v)) = (&self.key, &self.value) else {
                unreachable!("a one-entry leaf is its key and value");
            };
            return (k, v);
        }
        let (k, v) = &self.fat_entries()[i];
        (k, v)
    }

    /// A [`FatLeaf`]'s entries in key order, as one slice of its block —
    /// what a search, a fold or a copy of a leaf reads; empty for every
    /// node of fewer than two entries (a one-entry leaf's entry is its
    /// `key` and `value`: [`Node::entry`] reads both kinds).
    #[inline]
    pub fn fat_entries(&self) -> &[(K, V)] {
        if self.len < 2 {
            return &[];
        }
        let first = (self.as_raw() as usize + entries_offset::<K, V, P>()) as *const (K, V);
        // SAFETY: a node of two or more entries was allocated as a
        // `FatLeaf` (`new_leaf_from`), whose first `len` entries follow at
        // `entries_offset` and never change while the node is live; the
        // address comes from the block's exposed provenance (`as_raw`),
        // not from `&self`, which spans the node alone.
        // guard: the node is borrowed, so the caller's pin keeps it live.
        unsafe { std::slice::from_raw_parts(first, self.len()) }
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
    /// let leaf = Node::<u64, (), ()>::new_leaf(SentKey::Key(1), 1, None) as u64;
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
/// `ptr` must be a published `Node` allocated by [`Node::new_leaf`] /
/// [`Node::new_leaf_from::<B>`] / [`Node::new_internal`] that no thread
/// pinning from now on can reach through the node tree, freed exactly once.
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

/// Runs the plugin hook, drops the node in place and returns its memory to
/// the reclaiming thread's free-list pool — a [`FatLeaf`]'s to its own
/// class, with its entries.
///
/// # Safety
/// `ptr` must be a `Node` allocated by [`Node::new_leaf`] /
/// [`Node::new_leaf_from::<B>`] / [`Node::new_internal`] that no thread can
/// reach, reclaimed exactly once.
unsafe fn reclaim_node<K, V, P: NodePlugin<K, V>, const B: usize>(ptr: *mut u8) {
    let node = ptr as *mut Node<K, V, P>;
    // SAFETY: the caller's contract — `node` is a live pool allocation that
    // nothing else can reach, so the hook may read it and the pool may drop
    // and recycle it, once, as the type it was allocated as: a node of two
    // or more entries is a `FatLeaf` of this tree's `B`.
    // guard: none needed, the node is unreachable.
    unsafe {
        (*node).plugin.on_reclaim();
        if (*node).len >= 2 {
            debug_assert!((*node).len() <= B, "a leaf over its tree's capacity");
            ebr::pool::dispose_pooled(ptr as *mut FatLeaf<K, V, P, B>);
        } else {
            ebr::pool::dispose_pooled(node);
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
/// `raw` must point to a node created by this thread that no other thread
/// has ever seen.
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
        if self.len == 1 {
            return match self.key.as_key().map(|own| own.cmp(k)) {
                Some(std::cmp::Ordering::Less) => Err(1),
                Some(std::cmp::Ordering::Equal) => Ok(0),
                _ => Err(0),
            };
        }
        self.fat_entries().binary_search_by(|(e, _)| e.cmp(k))
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

    #[test]
    fn leaf_roundtrip() {
        let _g = ebr::pin();
        let leaf = N::new_leaf(SentKey::Key(5), 1, Some(()));
        let leaf = unsafe { &*leaf };
        assert!(leaf.is_leaf());
        assert_eq!(leaf.key(), &SentKey::Key(5));
        assert_eq!(leaf.weight(), 1);
        assert!(!leaf.is_finalized());
        unsafe { dispose_unpublished::<u64, (), (), 1>(leaf.as_raw()) };
    }

    /// A leaf of several keys is a `FatLeaf`: its entries read back in
    /// order, a search finds each and places the absent ones, a copy is a
    /// fat leaf again, and reclaiming drops every entry (`String`s, so a
    /// leak or a double drop shows under Miri and ASan).
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
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(leaf.entry(i), (k, &format!("v{k}")));
            assert_eq!(leaf.search_leaf(k), Ok(i));
        }
        assert_eq!(leaf.search_leaf(&0), Err(0));
        assert_eq!(leaf.search_leaf(&4), Err(1));
        assert_eq!(leaf.search_leaf(&10), Err(3));
        let copy = unsafe { &*leaf.copy_with_weight::<8>(1, (0, 0)) };
        assert_eq!((copy.len(), copy.weight()), (3, 1));
        assert_eq!(copy.entry(2), (&9, &"v9".to_string()));
        let single = unsafe { &*S::new_leaf_from::<8>(1, &[&[], &[(7, "v7".to_string())]]) };
        assert_eq!(
            (single.len(), single.entry(0)),
            (1, (&7, &"v7".to_string()))
        );
        let sentinel = unsafe { &*S::new_leaf(SentKey::Inf1, 1, None) };
        assert!(sentinel.is_empty());
        assert_eq!(sentinel.search_leaf(&7), Err(0));
        for n in [leaf, copy, single, sentinel] {
            unsafe { dispose_unpublished::<u64, String, (), 8>(n.as_raw()) };
        }
    }

    /// `new_leaf_from` clones its parts in order into one block, whatever
    /// their lengths (an insert's three, a delete's two, a copy's one),
    /// and `fat_entries` reads them back as one slice; a run of one entry
    /// is a plain node, whose slice is empty.
    #[test]
    fn leaves_build_from_slices() {
        type S = Node<u64, String, ()>;
        let _g = ebr::pin();
        let e = |k: u64| (k, format!("v{k}"));
        let old = [e(1), e(3), e(5), e(7)];
        let new = [e(4)];
        let inserted = unsafe { &*S::new_leaf_from::<8>(3, &[&old[..2], &new, &old[2..]]) };
        assert_eq!(inserted.fat_entries(), [e(1), e(3), e(4), e(5), e(7)]);
        assert_eq!((inserted.len(), inserted.weight()), (5, 3));
        assert_eq!(inserted.key(), &SentKey::Key(1));
        let deleted = inserted.fat_entries();
        let deleted = unsafe { &*S::new_leaf_from::<8>(1, &[&deleted[..2], &deleted[3..]]) };
        assert_eq!(deleted.fat_entries(), old);
        let full = unsafe { &*S::new_leaf_from::<5>(1, &[&[], inserted.fat_entries(), &[]]) };
        assert_eq!(
            full.fat_entries(),
            inserted.fat_entries(),
            "a leaf at its capacity"
        );
        let one = unsafe { &*S::new_leaf_from::<8>(2, &[&[], &[], &new]) };
        assert_eq!(
            (one.len(), one.entry(0), one.weight()),
            (1, (&4, &e(4).1), 2)
        );
        assert!(
            one.fat_entries().is_empty(),
            "a one-key leaf is a plain node"
        );
        for n in [inserted, deleted, one] {
            unsafe { dispose_unpublished::<u64, String, (), 8>(n.as_raw()) };
        }
        unsafe { dispose_unpublished::<u64, String, (), 5>(full.as_raw()) };
    }

    #[test]
    fn internal_routes_search() {
        let _g = ebr::pin();
        let l = N::new_leaf(SentKey::Key(1), 1, Some(()));
        let r = N::new_leaf(SentKey::Key(9), 1, Some(()));
        let n = N::new_internal(SentKey::Key(5), 1, l as u64, r as u64);
        let n = unsafe { &*n };
        assert!(!n.is_leaf());
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
        let l = N::new_leaf(SentKey::Key(1), 1, Some(())) as u64;
        let r = N::new_leaf(SentKey::Key(9), 1, Some(())) as u64;
        let n = unsafe { &*N::new_internal(SentKey::Key(5), 1, l, r) };
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
    fn plugin_reclaim_hook_runs() {
        use std::sync::atomic::AtomicUsize;
        static RECLAIMS: AtomicUsize = AtomicUsize::new(0);
        struct Counting;
        impl NodePlugin<u64, ()> for Counting {
            fn new_leaf(_: &SentKey<u64>, _: usize) -> Self {
                Counting
            }
            fn new_internal(_: &SentKey<u64>) -> Self {
                Counting
            }
            fn on_reclaim(&self) {
                RECLAIMS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = RECLAIMS.load(Ordering::SeqCst);
        let leaf = Node::<u64, (), Counting>::new_leaf(SentKey::Key(1), 1, Some(()));
        unsafe { dispose_unpublished::<u64, (), Counting, 1>(leaf as u64) };
        assert_eq!(RECLAIMS.load(Ordering::SeqCst), before + 1);
    }
}
