//! Version objects, the version-pointer node plugin, and `PropStatus`.
//!
//! Each node points to a [`Version`] storing its supplementary fields
//! (paper Fig. 3: key, size, child-version pointers — extended here with
//! the generic augmentation value and, for leaves, the user value). The
//! versions of a snapshot form an immutable BST (the *version tree*)
//! mirroring the node tree (Fig. 4a). Queries read the root's version and
//! run sequential algorithms on the frozen version tree.
//!
//! [`PropStatus`] is the delegation handshake object of §5 / Fig. 11: each
//! `Propagate` owns one; every version records the `PropStatus` of the
//! propagate whose refresh created it, so a failed refresher can find the
//! operation that beat it and delegate.

use sched::atomic::{AtomicBool, AtomicU64, Ordering};

use chromatic::{NodePlugin, SentKey};

use crate::augment::Augmentation;

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

/// One immutable version of a node's supplementary fields.
///
/// `left`/`right` point to child versions (null for leaf versions), so a
/// version is the root of an entire immutable snapshot of its subtree.
pub struct Version<K, V, A: Augmentation<K, V>> {
    /// Key of the node this version was created for.
    pub key: SentKey<K>,
    /// Number of real keys in the subtree (the paper's `size` field).
    pub size: u64,
    /// The generic augmentation value.
    pub aug: A::Value,
    /// Leaf payload (real leaves only), so snapshots can answer `get`.
    pub value: Option<V>,
    /// Child versions (null for leaves).
    pub left: u64, // *const Version
    pub right: u64, // *const Version
    /// The PropStatus of the propagate that installed this version (null
    /// for versions made by recursive nil-refreshes or plain propagates).
    pub status: u64, // *const PropStatus
}

impl<K, V, A> Version<K, V, A>
where
    K: Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Version for a real leaf (Definition 1, rule 1): size 1.
    pub fn for_leaf(key: &K, value: &V) -> *mut Self {
        ebr::pool::alloc_pooled(Version {
            key: SentKey::Key(key.clone()),
            size: 1,
            aug: A::leaf(key, value),
            value: Some(value.clone()),
            left: 0,
            right: 0,
            status: 0,
        })
    }

    /// Version for a sentinel leaf (Definition 1, rule 2): size 0.
    pub fn for_sentinel(key: &SentKey<K>) -> *mut Self {
        ebr::pool::alloc_pooled(Version {
            key: key.clone(),
            size: 0,
            aug: A::sentinel(),
            value: None,
            left: 0,
            right: 0,
            status: 0,
        })
    }

    /// Version for an internal node, combining two child versions
    /// (refresh, Fig. 3 line 67 / Fig. 12 line 44).
    ///
    /// # Safety
    /// `vl`/`vr` must point to versions protected by the current epoch.
    pub unsafe fn combine(key: &SentKey<K>, vl: u64, vr: u64, status: u64) -> *mut Self {
        // SAFETY: the caller's contract, for both.
        // guard: the caller's pin (`# Safety`); no reference escapes.
        let (l, r) = unsafe { (&*(vl as *const Self), &*(vr as *const Self)) };
        ebr::pool::alloc_pooled(Version {
            key: key.clone(),
            size: l.size + r.size,
            aug: A::combine(&l.aug, &r.aug),
            value: None,
            left: vl,
            right: vr,
            status,
        })
    }

    /// True for leaf versions.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.left == 0
    }

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

    /// Left child version (panics on leaves in debug).
    #[inline]
    pub fn left_version(&self) -> &Self {
        // SAFETY: versions are immutable, and one is retired only once it
        // is unreachable from the entry's current version (§6) — so all
        // that a version reachable at some moment of a pin points to was
        // un-retired at that moment, and the pin that protects `self`
        // protects its children.
        // guard: the one `&self` was obtained under.
        unsafe { Self::from_raw(self.left) }
    }

    /// Right child version.
    #[inline]
    pub fn right_version(&self) -> &Self {
        // SAFETY: as for `left_version`.
        // guard: the one `&self` was obtained under.
        unsafe { Self::from_raw(self.right) }
    }
}

/// The per-node plugin BAT hangs off every chromatic-tree node: one atomic
/// version pointer, kept *outside* the LLX/SCX record (§4) and mutated
/// directly with CAS.
pub struct VersionSlot<K, V, A: Augmentation<K, V>> {
    /// `*const Version`, or 0 = nil ("supplementary fields missing").
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
}

impl<K, V, A> NodePlugin<K, V> for VersionSlot<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    fn new_leaf(key: &SentKey<K>, value: Option<&V>) -> Self {
        // Definition 1, rules 1–2: leaves are born with a version.
        let v = match (key.as_key(), value) {
            (Some(k), Some(val)) => Version::<K, V, A>::for_leaf(k, val),
            _ => Version::<K, V, A>::for_sentinel(key),
        };
        VersionSlot {
            version: AtomicU64::new(v as u64),
            _marker: std::marker::PhantomData,
        }
    }

    fn new_internal(_key: &SentKey<K>) -> Self {
        // Definition 1, rule 3: internal nodes are born with nil versions.
        VersionSlot {
            version: AtomicU64::new(0),
            _marker: std::marker::PhantomData,
        }
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
    use crate::augment::SizeOnly;

    type Ver = Version<u64, u64, SizeOnly>;

    /// `ebr::pool` carves blocks of at most 64 bytes at a power-of-two
    /// stride from line-aligned pieces, so each of these objects occupies
    /// one cache line: what `warm_up` fetches per object, and what a query
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
        assert!(size_of::<Node>() <= 64);
        assert_eq!(pooled_addr::<Version<u64, (), SizeOnly>>() % 64, 0);
        assert_eq!(pooled_addr::<Node>() % 64, 0);
    }

    #[test]
    fn leaf_versions_have_size_one() {
        let v = Ver::for_leaf(&7, &70);
        let v = unsafe { &*v };
        assert_eq!(v.size, 1);
        assert_eq!(v.key, SentKey::Key(7));
        assert_eq!(v.value, Some(70));
        assert!(v.is_leaf());
        unsafe { dispose_version::<u64, u64, SizeOnly>(v as *const _ as u64) };
    }

    #[test]
    fn sentinel_versions_have_size_zero() {
        let v = Ver::for_sentinel(&SentKey::Inf1);
        let v = unsafe { &*v };
        assert_eq!(v.size, 0);
        assert!(v.is_leaf());
        unsafe { dispose_version::<u64, u64, SizeOnly>(v as *const _ as u64) };
    }

    #[test]
    fn combine_sums_sizes() {
        let a = Ver::for_leaf(&1, &10) as u64;
        let b = Ver::for_leaf(&2, &20) as u64;
        let c = unsafe { Ver::combine(&SentKey::Key(2), a, b, 0) };
        let c = unsafe { &*c };
        assert_eq!(c.size, 2);
        assert!(!c.is_leaf());
        assert_eq!(c.left_version().key, SentKey::Key(1));
        unsafe {
            dispose_version::<u64, u64, SizeOnly>(c as *const _ as u64);
            dispose_version::<u64, u64, SizeOnly>(a);
            dispose_version::<u64, u64, SizeOnly>(b);
        }
    }

    #[test]
    fn slot_cas_semantics() {
        let slot = <VersionSlot<u64, u64, SizeOnly> as NodePlugin<u64, u64>>::new_internal(
            &SentKey::Key(5),
        );
        assert_eq!(slot.load(), 0, "internal slots start nil (rule 3)");
        let v = Ver::for_leaf(&5, &50) as u64;
        assert!(slot.cas(0, v).is_ok());
        assert_eq!(slot.load(), v);
        let w = Ver::for_leaf(&6, &60) as u64;
        assert_eq!(slot.cas(0, w), Err(v), "stale CAS reports current");
        assert!(slot.cas(v, w).is_ok());
        unsafe {
            dispose_version::<u64, u64, SizeOnly>(v);
            // w now owned by slot; reclaim via the plugin hook.
        }
        slot.on_reclaim();
        ebr::flush();
        ebr::flush();
    }
}
