//! The lock-free chromatic tree: search, insert, delete.
//!
//! Leaf-oriented BST per Brown–Ellen–Ruppert (PPoPP 2014) \[7\]: the set's
//! keys live in the leaves; internal nodes only route searches. Every
//! update replaces a small *patch* of nodes with a patch of freshly
//! allocated nodes via one SCX (paper Fig. 2), finalizing the removed
//! nodes. Rebalancing (in [`crate::rebalance`]) works the same way.

use sched::atomic::Ordering;
use std::marker::PhantomData;

use ebr::{Guard, Striped};
use llxscx::Llx;

use crate::key::SentKey;
use crate::node::{dispose_unpublished, retire_node, Node, NodePlugin};

/// Operation counters, matching the paper's §7 work statistics: one
/// [`Striped`] whose stripes hold [`COMMITS`], [`FAILURES`] and then one
/// counter per [`RebalanceKind`] from [`STEPS`] on.
#[derive(Default)]
pub struct TreeStats(Striped<{ STEPS + 8 }>);

pub(crate) const COMMITS: usize = 0;
pub(crate) const FAILURES: usize = 1;
pub(crate) const STEPS: usize = 2;

/// A plain-data snapshot of [`TreeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TreeSnapshot {
    /// Committed SCXs (insert + delete + rebalance steps).
    pub scx_commits: u64,
    /// SCX attempts that aborted or whose LLX phase failed.
    pub scx_failures: u64,
    /// Committed rebalancing steps, by kind (indexes of [`RebalanceKind`]).
    pub rebalance_steps: [u64; 8],
}

/// Kinds of rebalancing step, named as in the paper / \[7\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceKind {
    /// Red-red, red uncle: recolor and push the violation up.
    Blk = 0,
    /// Red-red, outer grandchild: single rotation.
    Rb1 = 1,
    /// Red-red, inner grandchild: double rotation.
    Rb2 = 2,
    /// Red-red at the real root: blacken.
    RootBlacken = 3,
    /// Overweight, red sibling: rotate the sibling up.
    W7 = 4,
    /// Overweight, black sibling with no red nephew: push weight up.
    Push = 5,
    /// Overweight, far nephew red: single rotation.
    WFar = 6,
    /// Overweight at the real root: reset weight to 1. (Shares a counter
    /// slot with the near-nephew double rotation; see `WNear`.)
    RootNormalize = 7,
}

/// Overweight, near nephew red: double rotation (counted with `WFar`).
pub const W_NEAR: RebalanceKind = RebalanceKind::WFar;

impl TreeStats {
    /// Count one event in `slot` of the calling thread's stripe.
    #[inline]
    pub(crate) fn bump(&self, slot: usize) {
        self.0.local().add(slot, 1);
    }

    /// Copy out current values, summed over all thread stripes.
    pub fn snapshot(&self) -> TreeSnapshot {
        let sums = self.0.sum();
        let mut rebalance_steps = [0; 8];
        rebalance_steps.copy_from_slice(&sums[STEPS..]);
        TreeSnapshot {
            scx_commits: sums[COMMITS],
            scx_failures: sums[FAILURES],
            rebalance_steps,
        }
    }

    /// Total committed rebalancing steps.
    pub fn total_rebalances(&self) -> u64 {
        self.snapshot().rebalance_steps.iter().sum()
    }
}

/// A lock-free chromatic (balanced, leaf-oriented) binary search tree.
///
/// `P` is the augmentation plugin (use `()` for the plain tree; BAT plugs a
/// version-pointer slot in).
pub struct ChromaticTree<K, V, P: NodePlugin<K, V>> {
    entry: u64, // *mut Node — the immutable sentinel root (key ∞₂)
    /// Whether rebalancing runs. With `false`, all nodes get weight 1 and
    /// `cleanup` is skipped: the tree degenerates to the *unbalanced*
    /// lock-free leaf-oriented BST of Ellen et al. \[11\] — exactly the node
    /// tree FR-BST \[13\] augments. (Updates use the same patches either
    /// way; balancing is the only difference, per §3.1.)
    balanced: bool,
    /// Work counters (used by the §7 statistics experiments).
    pub stats: TreeStats,
    _marker: PhantomData<(K, V, P)>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, P: NodePlugin<K, V>> Send for ChromaticTree<K, V, P> {}
unsafe impl<K: Send + Sync, V: Send + Sync, P: NodePlugin<K, V>> Sync for ChromaticTree<K, V, P> {}

/// Outcome of an insert or delete on the node tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Whether the set changed (`CTInsert` / `CTDelete` return value).
    pub changed: bool,
}

pub(crate) type NodeRef<'g, K, V, P> = &'g Node<K, V, P>;

impl<K, V, P> ChromaticTree<K, V, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    /// Create an empty tree: the two sentinel levels of \[7\].
    ///
    /// ```text
    ///        entry(∞₂,w1)
    ///        /          \
    ///   inf1(∞₁,w1)   leaf(∞₂,w1)
    ///    /      \
    /// leaf(∞₁) leaf(∞₁)     ← left slot is the real tree's root position
    /// ```
    pub fn new() -> Self {
        Self::with_balance(true)
    }

    /// Create an empty *unbalanced* tree (the \[11\] BST, FR-BST's substrate).
    pub fn new_unbalanced() -> Self {
        Self::with_balance(false)
    }

    /// Create an empty tree, choosing whether rebalancing runs.
    pub fn with_balance(balanced: bool) -> Self {
        let real_slot = Node::<K, V, P>::new_leaf(SentKey::Inf1, 1, None) as u64;
        let inf1_right = Node::<K, V, P>::new_leaf(SentKey::Inf1, 1, None) as u64;
        let inf1 = Node::<K, V, P>::new_internal(SentKey::Inf1, 1, real_slot, inf1_right) as u64;
        let inf2_leaf = Node::<K, V, P>::new_leaf(SentKey::Inf2, 1, None) as u64;
        let entry = Node::<K, V, P>::new_internal(SentKey::Inf2, 1, inf1, inf2_leaf) as u64;
        ChromaticTree {
            entry,
            balanced,
            stats: TreeStats::default(),
            _marker: PhantomData,
        }
    }

    /// Whether this instance rebalances (true = chromatic, false = \[11\]).
    #[inline]
    pub fn is_balanced(&self) -> bool {
        self.balanced
    }

    /// Install a pre-built real tree under the sentinels, replacing the
    /// empty placeholder leaf. Used by bulk construction.
    ///
    /// # Safety
    /// May only be called before the tree is shared with other threads,
    /// and only once, on a freshly constructed empty tree. `new_root` must
    /// be the root of a well-formed leaf-oriented subtree whose rightmost
    /// leaf carries the ∞₁ sentinel key.
    pub unsafe fn replace_real_root(&self, new_root: u64, guard: &Guard) {
        let inf1 = self.entry().left(guard);
        let old = inf1.left_raw();
        // SAFETY: the tree is unshared (caller's contract), so the store
        // races with nothing and `old`, the placeholder leaf `with_balance`
        // allocated, is unreachable once it is overwritten.
        unsafe {
            (*inf1.left_field()).store(new_root, Ordering::Release);
            dispose_unpublished::<K, V, P>(old);
        }
    }

    /// The immutable entry (sentinel root) node. BAT's `Propagate` starts
    /// here; its version always reflects the whole set.
    #[inline]
    pub fn entry(&self) -> &Node<K, V, P> {
        // SAFETY: allocated in `with_balance`, never unlinked, freed only by
        // `Drop` — the entry lives exactly as long as `self`.
        // guard: none needed, the tree owns the entry.
        unsafe { &*(self.entry as *const Node<K, V, P>) }
    }

    /// True iff `n` is one of the two fixed sentinel *nodes* (the entry and
    /// its left child). Note this is an identity test: real-tree nodes on
    /// the rightmost spine legitimately carry the key ∞₁, so keys cannot
    /// distinguish sentinels.
    #[inline]
    pub fn is_sentinel_node(&self, n: &Node<K, V, P>) -> bool {
        let raw = n.as_raw();
        raw == self.entry || raw == self.entry().left_raw()
    }

    /// Search for `k`, returning `(grandparent, parent, leaf)`.
    /// The leaf is where `k` lives if present. The grandparent always
    /// exists because the sentinel structure is two levels deep.
    #[allow(clippy::type_complexity)]
    pub(crate) fn search<'g>(
        &'g self,
        k: &K,
        guard: &'g Guard,
    ) -> (
        NodeRef<'g, K, V, P>,
        NodeRef<'g, K, V, P>,
        NodeRef<'g, K, V, P>,
    ) {
        let toward = |n: NodeRef<'g, K, V, P>| {
            if n.key().goes_left(k) {
                n.left(guard)
            } else {
                n.right(guard)
            }
        };
        let mut gp = self.entry();
        let mut p = gp.left(guard); // inf1 node
        let mut l = toward(p);
        while !l.is_leaf() {
            gp = p;
            p = l;
            l = toward(l);
        }
        (gp, p, l)
    }

    /// Linearizable membership test on the *node tree* (the unaugmented
    /// tree's `Find`; BAT's `Find` instead searches the version tree).
    pub fn contains(&self, k: &K, guard: &Guard) -> bool {
        let (_, _, l) = self.search(k, guard);
        l.key().as_key() == Some(k)
    }

    /// Look up the value stored with `k` in the node tree.
    pub fn get(&self, k: &K, guard: &Guard) -> Option<V> {
        let (_, _, l) = self.search(k, guard);
        if l.key().as_key() == Some(k) {
            l.value().cloned()
        } else {
            None
        }
    }

    /// `CTInsert(k)` (paper §3.1 / Fig. 2 left): add a leaf with `k`,
    /// then fix any balance violation. Returns `changed = false` if `k`
    /// was already present.
    pub fn insert(&self, k: K, v: V, guard: &Guard) -> UpdateOutcome {
        loop {
            let (_gp, p, l) = self.search(&k, guard);
            if l.key().as_key() == Some(&k) {
                return UpdateOutcome { changed: false };
            }
            let Llx::Ok {
                info: pinfo,
                snapshot: psnap,
            } = p.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };
            // Validate the search result is still current.
            if p.child_for(&k, psnap) != l.as_raw() {
                continue;
            }
            let Llx::Ok {
                info: linfo,
                snapshot: _lsnap,
            } = l.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };

            // Build the replacement patch: internal node with two leaves.
            debug_assert!(l.weight() >= 1, "leaf weight invariant");
            let new_weight = if !self.balanced || self.is_sentinel_node(p) {
                1
            } else {
                l.weight() - 1
            };
            let new_leaf = Node::<K, V, P>::new_leaf(SentKey::Key(k.clone()), 1, Some(v.clone()));
            let leaf_copy = Node::<K, V, P>::new_leaf(l.key().clone(), 1, l.value().cloned());
            let kk = SentKey::Key(k.clone());
            let (lc, rc, ikey) = if kk < *l.key() {
                (new_leaf as u64, leaf_copy as u64, l.key().clone())
            } else {
                (leaf_copy as u64, new_leaf as u64, kk.clone())
            };
            let internal = Node::<K, V, P>::new_internal(ikey, new_weight, lc, rc) as u64;

            let ok = unsafe {
                llxscx::scx(
                    &[p.linked(pinfo), l.linked(linfo)],
                    0b10, // finalize l
                    p.field_for(&k),
                    l.as_raw(),
                    internal,
                )
            };
            if ok {
                self.stats.bump(COMMITS);
                unsafe { retire_node::<K, V, P>(guard, l.as_raw()) };
                let violation = (new_weight == 0 && p.weight() == 0) || new_weight >= 2;
                if self.balanced && violation {
                    self.cleanup(&SentKey::Key(k), guard);
                }
                return UpdateOutcome { changed: true };
            }
            self.stats.bump(FAILURES);
            unsafe {
                dispose_unpublished::<K, V, P>(internal);
                dispose_unpublished::<K, V, P>(new_leaf as u64);
                dispose_unpublished::<K, V, P>(leaf_copy as u64);
            }
        }
    }

    /// `CTDelete(k)` (paper §3.1 / Fig. 2 right): remove the leaf with `k`
    /// and its parent, replacing them with a copy of the sibling carrying
    /// the combined weight; then fix any overweight violation.
    pub fn delete(&self, k: &K, guard: &Guard) -> UpdateOutcome {
        loop {
            let (gp, p, l) = self.search(k, guard);
            if l.key().as_key() != Some(k) {
                return UpdateOutcome { changed: false };
            }
            let Llx::Ok {
                info: gpinfo,
                snapshot: gpsnap,
            } = gp.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };
            if gp.child_for(k, gpsnap) != p.as_raw() {
                continue;
            }
            let Llx::Ok {
                info: pinfo,
                snapshot: psnap,
            } = p.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };
            if p.child_for(k, psnap) != l.as_raw() {
                continue;
            }
            let l_is_left = psnap.0 == l.as_raw();
            let s_raw = if l_is_left { psnap.1 } else { psnap.0 };
            // SAFETY: a link from `p`'s LLX snapshot, taken under `guard`.
            let s = unsafe { Node::<K, V, P>::from_raw(s_raw, guard) };
            let Llx::Ok {
                info: sinfo,
                snapshot: ssnap,
            } = s.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };
            let Llx::Ok {
                info: linfo,
                snapshot: _,
            } = l.llx()
            else {
                self.stats.bump(FAILURES);
                continue;
            };

            let new_weight = if !self.balanced || self.is_sentinel_node(gp) {
                1
            } else {
                p.weight() + s.weight()
            };
            let s_copy = s.copy_with_weight(new_weight, ssnap) as u64;

            // V ordered patch-root-first, then children left-to-right.
            let (va, vb) = if l_is_left {
                (l.linked(linfo), s.linked(sinfo))
            } else {
                (s.linked(sinfo), l.linked(linfo))
            };
            let ok = unsafe {
                llxscx::scx(
                    &[gp.linked(gpinfo), p.linked(pinfo), va, vb],
                    0b1110, // finalize p and both children
                    gp.field_for(k),
                    p.as_raw(),
                    s_copy,
                )
            };
            if ok {
                self.stats.bump(COMMITS);
                unsafe {
                    retire_node::<K, V, P>(guard, p.as_raw());
                    retire_node::<K, V, P>(guard, l.as_raw());
                    retire_node::<K, V, P>(guard, s.as_raw());
                }
                if self.balanced && new_weight >= 2 && !self.is_sentinel_node(gp) {
                    self.cleanup(&SentKey::Key(k.clone()), guard);
                }
                return UpdateOutcome { changed: true };
            }
            self.stats.bump(FAILURES);
            unsafe { dispose_unpublished::<K, V, P>(s_copy) };
        }
    }
}

impl<K, V, P> Default for ChromaticTree<K, V, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P: NodePlugin<K, V>> Drop for ChromaticTree<K, V, P> {
    fn drop(&mut self) {
        // Free all reachable nodes.
        fn walk<K, V, P>(raw: u64, free: &mut dyn FnMut(u64)) {
            // SAFETY: `drop` has `&mut self`, so nothing else reads or
            // retires a node; every reachable node is live and visited once.
            // guard: none needed, exclusive access.
            let node = unsafe { &*(raw as *const Node<K, V, P>) };
            if !node.is_leaf() {
                walk::<K, V, P>(node.left_raw(), free);
                walk::<K, V, P>(node.right_raw(), free);
            }
            free(raw);
        }
        walk::<K, V, P>(self.entry, &mut |raw| unsafe {
            // Plugin hooks may retire versions; run through the normal path.
            crate::node::free_node::<K, V, P>(raw as *mut u8);
        });
    }
}
