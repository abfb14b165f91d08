//! The lock-free chromatic tree: search, insert, delete.
//!
//! Leaf-oriented BST per Brown–Ellen–Ruppert (PPoPP 2014) \[7\]: the set's
//! keys live in the leaves; internal nodes only route searches. The tree
//! changes in one way only, \[7\]'s *tree update template*: LLX a short
//! sequence of nodes, build a patch of freshly allocated nodes, and issue
//! one SCX that swings one child link to the patch and finalizes the nodes
//! it replaces (paper Fig. 2). `ChromaticTree::replace_patch` is that
//! template; `insert`, `delete` and every rebalancing step (in
//! [`crate::rebalance`]) commit through it and nowhere else.
//!
//! ## Leaves of up to `B` keys
//!
//! A leaf holds up to `B` sorted keys (`B` a const generic; `B = 1` is
//! \[7\]'s tree, one key per leaf). Every leaf has one format, whatever
//! its length: a node head followed by its entries, in a pool block sized
//! for `B` of them and read as one slice ([`Node::entries`]); a sentinel
//! leaf holds none. An update takes one of two patch shapes, both runs of
//! the same template:
//!
//! * **One-node patch**: an insert into a real leaf with room, or a delete
//!   from a leaf of two or more keys, replaces the leaf by a copy with the
//!   key added or dropped, at the leaf's weight: `v = [p, l]`,
//!   `fresh = [l']`. No internal node is born and no weight moves, so it
//!   creates no violation and runs no cleanup.
//! * **\[7\]'s shapes otherwise.** An insert into a full leaf splits
//!   its `B + 1` keys in half under a new internal node keyed by the right
//!   half's first key, at \[7\]'s weight rule; an insert into a sentinel
//!   leaf (which never holds a real key) adds a one-key leaf beside it the
//!   same way; a delete of a leaf's last key removes the leaf and its
//!   parent. Leaves never merge: a key set never has more leaves than it
//!   has with `B = 1`, so the height bound is no worse.

use std::marker::PhantomData;

use ebr::{Guard, Striped};
use llxscx::{InfoTag, Llx};

use crate::key::SentKey;
use crate::node::{dispose_unpublished, retire_node, ChildSnap, Node, NodePlugin};

/// Operation counters, matching the paper's §7 work statistics: one
/// [`Striped`] whose stripes hold `COMMITS`, `FAILURES` and then one
/// counter per [`RebalanceKind`] from `STEPS` on.
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
    /// SCX attempts that aborted or whose LLX phase failed, in updates and
    /// rebalancing steps alike.
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
    /// Overweight at the real root: reset weight to 1.
    RootNormalize = 7,
}

/// Overweight, near nephew red: double rotation. Not a kind of its own: it
/// is counted in [`RebalanceKind::WFar`]'s slot.
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
pub struct ChromaticTree<K, V, P: NodePlugin<K, V>, const B: usize = 1> {
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

// SAFETY: `entry` is a raw link only so that nodes can be shared;
// the nodes behind it hold `K`, `V` and `P` (`Send + Sync`, the last by
// `NodePlugin`'s bound), are read through atomics under an EBR pin, and
// change only through LLX/SCX.
unsafe impl<K: Send + Sync, V: Send + Sync, P: NodePlugin<K, V>, const B: usize> Send
    for ChromaticTree<K, V, P, B>
{
}
// SAFETY: as for `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync, P: NodePlugin<K, V>, const B: usize> Sync
    for ChromaticTree<K, V, P, B>
{
}

pub(crate) type NodeRef<'g, K, V, P> = &'g Node<K, V, P>;

/// A load-linked node: the node and the tag its LLX returned.
pub(crate) type Loaded<'g, K, V, P> = (NodeRef<'g, K, V, P>, InfoTag);

/// The longest `V` any patch load-links: W-far / W-near's parent, patch
/// root, both its children and one nephew.
const MAX_LINKED: usize = 5;

/// `(a, b)` if `a` belongs on the left, `(b, a)` otherwise: how a mirrored
/// case puts its on-path and off-path parts in left-to-right order.
#[inline]
pub(crate) fn in_order<T>(a_left: bool, a: T, b: T) -> (T, T) {
    if a_left {
        (a, b)
    } else {
        (b, a)
    }
}

/// `parts` read as one run and cut before its `at`-th item: a split's two
/// halves, each still a list of slices.
fn cut_at<T>(parts: [&[T]; 3], mut at: usize) -> ([&[T]; 3], [&[T]; 3]) {
    let (mut lo, mut hi): ([&[T]; 3], [&[T]; 3]) = ([&[]; 3], [&[]; 3]);
    for (i, part) in parts.into_iter().enumerate() {
        (lo[i], hi[i]) = part.split_at(at.min(part.len()));
        at -= lo[i].len();
    }
    (lo, hi)
}

impl<K, V, P, const B: usize> ChromaticTree<K, V, P, B>
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

    /// Create an empty tree, choosing whether rebalancing runs.
    pub fn with_balance(balanced: bool) -> Self {
        const {
            assert!(
                B >= 1 && B <= u16::MAX as usize,
                "a leaf holds 1 to 65 535 keys"
            )
        };
        let sentinel = |key| Node::<K, V, P>::new_sentinel_leaf::<B>(key, 1) as u64;
        let (real_slot, inf1_right) = (sentinel(SentKey::Inf1), sentinel(SentKey::Inf1));
        let inf1 = Node::<K, V, P>::new_internal(SentKey::Inf1, 1, real_slot, inf1_right) as u64;
        let inf2_leaf = sentinel(SentKey::Inf2);
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
        l.search_leaf(k).is_ok()
    }

    /// LLX `n`. `None` — counted in [`TreeSnapshot::scx_failures`] — if an
    /// SCX is in flight on `n` or it is finalized; the caller re-searches.
    #[inline]
    pub(crate) fn llx<'g>(
        &self,
        n: NodeRef<'g, K, V, P>,
    ) -> Option<(Loaded<'g, K, V, P>, ChildSnap)> {
        match n.llx() {
            Llx::Ok { info, snapshot } => Some(((n, info), snapshot)),
            _ => {
                self.stats.bump(FAILURES);
                None
            }
        }
    }

    /// LLX `parent` and check that the link a search followed out of it —
    /// its left one iff `left` — still names `child`. `None` if the LLX
    /// failed or the link has moved on; the caller re-searches.
    #[inline]
    pub(crate) fn llx_link<'g>(
        &self,
        parent: NodeRef<'g, K, V, P>,
        left: bool,
        child: NodeRef<'g, K, V, P>,
    ) -> Option<(Loaded<'g, K, V, P>, ChildSnap)> {
        let (loaded, snap) = self.llx(parent)?;
        let (link, _) = in_order(left, snap.0, snap.1);
        (link == child.as_raw()).then_some((loaded, snap))
    }

    /// The tree update template of \[7\] (paper Fig. 2), the one way this
    /// tree changes: one SCX swings a link of `v[0]` from `v[1]` to
    /// `fresh[0]` and finalizes `v[1..]`.
    ///
    /// `v` is the attempt's load-linked sequence in freeze order: the
    /// parent whose link is swung (its left one iff `left`, as
    /// [`ChromaticTree::llx_link`] validated it), then every node the
    /// patch replaces, patch root first, children left to right. `fresh`
    /// is every node this attempt allocated, patch root first. Everything
    /// else follows from the two: the finalize mask is all of `v` but
    /// `v[0]`, a commit retires exactly `v[1..]`, an abort disposes of
    /// exactly `fresh`. Returns whether the SCX committed.
    pub(crate) fn replace_patch(
        &self,
        left: bool,
        v: &[Loaded<'_, K, V, P>],
        fresh: &[u64],
        guard: &Guard,
    ) -> bool {
        debug_assert!((2..=MAX_LINKED).contains(&v.len()) && !fresh.is_empty());
        let (parent, parent_info) = v[0];
        let mut linked = [parent.linked(parent_info); MAX_LINKED];
        for (slot, &(n, info)) in linked[1..].iter_mut().zip(&v[1..]) {
            *slot = n.linked(info);
        }
        let field = if left {
            parent.left_field()
        } else {
            parent.right_field()
        };
        // SAFETY: every node of `v` was reached and load-linked under
        // `guard`'s pin, so it is live and its tag is this attempt's LLX
        // result; `field` is a link of `v[0]` and `v[1]` the value
        // `llx_link` found in it; `fresh[0]` is a new allocation, so the
        // value never recurs; `v` is in traversal order.
        let committed = unsafe {
            llxscx::scx(
                &linked[..v.len()],
                (1 << v.len()) - 2,
                field,
                v[1].0.as_raw(),
                fresh[0],
            )
        };
        if committed {
            self.stats.bump(COMMITS);
            for &(n, _) in &v[1..] {
                // SAFETY: the committed SCX unlinked `n` and finalized it,
                // so no later SCX can link or retire it again, and it was
                // retired by nobody before: this is its one retirement.
                unsafe { retire_node::<K, V, P, B>(guard, n.as_raw()) };
            }
        } else {
            self.stats.bump(FAILURES);
            for &n in fresh {
                // SAFETY: this attempt allocated `n` and the aborted SCX
                // stored it nowhere, so no other thread has seen it.
                unsafe { dispose_unpublished::<K, V, P, B>(n) };
            }
        }
        committed
    }

    /// `CTInsert(k)` (paper §3.1 / Fig. 2 left): add `k` to its leaf —
    /// a one-node patch while the leaf has room, else a split under a new
    /// internal node — then fix any balance violation. Returns `false` if
    /// `k` was already present.
    pub fn insert(&self, k: K, v: V, guard: &Guard) -> bool {
        let entry = (k, v);
        let k = &entry.0;
        loop {
            let (_gp, p, l) = self.search(k, guard);
            let Err(pos) = l.search_leaf(k) else {
                return false;
            };
            let l_left = p.key().goes_left(k);
            let Some((p_ll, _)) = self.llx_link(p, l_left, l) else {
                continue;
            };
            let Some((l_ll, _)) = self.llx(l) else {
                continue;
            };
            // `l`'s entries with `entry` at `pos`, as three slices.
            let old = l.entries();
            let merged = [&old[..pos], std::slice::from_ref(&entry), &old[pos..]];
            let len = l.len() + 1;

            if !l.is_sentinel() && len <= B {
                // One-node patch: the leaf with `k` added, at its weight.
                let l_new = Node::<K, V, P>::new_leaf_from::<B>(l.weight(), &merged) as u64;
                if self.replace_patch(l_left, &[p_ll, l_ll], &[l_new], guard) {
                    return true;
                }
                continue;
            }

            // Build the replacement patch: internal node with two leaves.
            debug_assert!(l.weight() >= 1, "leaf weight invariant");
            let new_weight = if !self.balanced || self.is_sentinel_node(p) {
                1
            } else {
                l.weight() - 1
            };
            let (lc, rc, ikey) = if l.is_sentinel() {
                // A sentinel leaf keeps its key and gains a one-key sibling.
                let new_leaf = Node::<K, V, P>::new_leaf_from::<B>(1, &merged);
                let leaf_copy = Node::<K, V, P>::new_sentinel_leaf::<B>(l.key().clone(), 1);
                (new_leaf as u64, leaf_copy as u64, l.key().clone())
            } else {
                // Split the `B + 1` keys in half; the right half's first
                // key routes.
                let (lo, hi) = cut_at(merged, len / 2);
                let left = Node::<K, V, P>::new_leaf_from::<B>(1, &lo);
                let right = Node::<K, V, P>::new_leaf_from::<B>(1, &hi);
                // SAFETY: `right` is this attempt's fresh allocation.
                // guard: none needed, nothing else can reach it yet.
                let ikey = unsafe { &*right }.key().clone();
                (left as u64, right as u64, ikey)
            };
            let internal = Node::<K, V, P>::new_internal(ikey, new_weight, lc, rc) as u64;

            let fresh = [internal, lc, rc];
            if self.replace_patch(l_left, &[p_ll, l_ll], &fresh, guard) {
                let violation = (new_weight == 0 && p.weight() == 0) || new_weight >= 2;
                if self.balanced && violation {
                    self.cleanup(&SentKey::Key(entry.0), guard);
                }
                return true;
            }
        }
    }

    /// `CTDelete(k)` (paper §3.1 / Fig. 2 right): drop `k` from a leaf of
    /// two or more keys with a one-node patch; or remove `k`'s one-key leaf
    /// and its parent, replacing them with a copy of the sibling carrying
    /// the combined weight, then fix any overweight violation. Returns
    /// `false` if `k` was absent.
    pub fn delete(&self, k: &K, guard: &Guard) -> bool {
        loop {
            let (gp, p, l) = self.search(k, guard);
            let Ok(pos) = l.search_leaf(k) else {
                return false;
            };
            if l.len() >= 2 {
                // One-node patch: the leaf without `k`, at its weight.
                let l_left = p.key().goes_left(k);
                let Some((p_ll, _)) = self.llx_link(p, l_left, l) else {
                    continue;
                };
                let Some((l_ll, _)) = self.llx(l) else {
                    continue;
                };
                let old = l.entries();
                let kept = [&old[..pos], &old[pos + 1..]];
                let l_new = Node::<K, V, P>::new_leaf_from::<B>(l.weight(), &kept);
                if self.replace_patch(l_left, &[p_ll, l_ll], &[l_new as u64], guard) {
                    return true;
                }
                continue;
            }
            let p_left = gp.key().goes_left(k);
            let Some((gp_ll, _)) = self.llx_link(gp, p_left, p) else {
                continue;
            };
            let l_left = p.key().goes_left(k);
            let Some((p_ll, psnap)) = self.llx_link(p, l_left, l) else {
                continue;
            };
            let (_, s_raw) = in_order(l_left, psnap.0, psnap.1);
            // SAFETY: a link from `p`'s LLX snapshot, taken under `guard`.
            let s = unsafe { Node::<K, V, P>::from_raw(s_raw, guard) };
            let Some((s_ll, ssnap)) = self.llx(s) else {
                continue;
            };
            let Some((l_ll, _)) = self.llx(l) else {
                continue;
            };

            let new_weight = if !self.balanced || self.is_sentinel_node(gp) {
                1
            } else {
                p.weight() + s.weight()
            };
            let s_copy = s.copy_with_weight::<B>(new_weight, ssnap) as u64;

            let (a_ll, b_ll) = in_order(l_left, l_ll, s_ll);
            if self.replace_patch(p_left, &[gp_ll, p_ll, a_ll, b_ll], &[s_copy], guard) {
                if self.balanced && new_weight >= 2 && !self.is_sentinel_node(gp) {
                    self.cleanup(&SentKey::Key(k.clone()), guard);
                }
                return true;
            }
        }
    }
}

impl<K, V, P, const B: usize> Default for ChromaticTree<K, V, P, B>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, P: NodePlugin<K, V>, const B: usize> Drop for ChromaticTree<K, V, P, B> {
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
        // SAFETY: `walk` hands over each reachable node once, after its
        // children, and with `&mut self` nothing else can reach it through
        // the tree. (This is the normal free path, not an immediate dispose:
        // plugin hooks may retire versions, and a leaf that outlives its
        // unlinking waits a grace period for snapshots still reading it.)
        walk::<K, V, P>(self.entry, &mut |raw| unsafe {
            crate::node::free_node::<K, V, P, B>(raw as *mut u8);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static RECLAIMS: AtomicUsize = AtomicUsize::new(0);

    struct Counting;

    impl NodePlugin<u64, ()> for Counting {
        fn new_internal(_: &SentKey<u64>) -> Self {
            Counting
        }
        fn on_reclaim(&self) {
            RECLAIMS.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A split's cut lands at every place of the merged run: inside a
    /// slice, between two, and at either end.
    #[test]
    fn cut_at_splits_a_run_of_slices() {
        let run = [1, 2, 3, 4, 5, 6];
        let parts = [&run[..2], &run[2..3], &run[3..]];
        for at in 0..=run.len() {
            let (lo, hi) = cut_at(parts, at);
            assert_eq!(lo.concat(), run[..at], "before {at}");
            assert_eq!(hi.concat(), run[at..], "from {at}");
        }
    }

    /// The abort arm of the template: stale tags make the SCX fail, and the
    /// failure disposes of the attempt's fresh nodes and of nothing else —
    /// counted by the internal node's plugin hook and, for all three, by
    /// this thread's pool, which gets their blocks back at once.
    #[test]
    fn stale_tags_abort_and_dispose_of_exactly_the_fresh_nodes() {
        type N = Node<u64, (), Counting>;
        // Unbalanced, so the shape is known: entry → ∞₁ → a{20}: (10, 20).
        let tree = ChromaticTree::<u64, (), Counting>::with_balance(false);
        // The pin also keeps what the inserts retire out of `RECLAIMS`.
        let guard = ebr::pin();
        assert!(tree.insert(20, (), &guard));
        assert!(tree.insert(10, (), &guard));

        let (_, p, l) = tree.search(&10, &guard);
        let l_left = p.key().goes_left(&10);
        let (p_ll, _) = tree.llx_link(p, l_left, l).expect("quiescent");
        let (l_ll, _) = tree.llx(l).expect("quiescent");
        // Interfere under the same parent: 25 replaces `p`'s other child,
        // which changes `p` (so its tag is stale) and leaves `l` alone.
        assert!(tree.insert(25, (), &guard));
        assert!(!p.is_finalized() && !l.is_finalized());

        let a = N::new_leaf_from::<1>(1, &[&[(5, ())]]) as u64;
        let b = N::new_leaf_from::<1>(1, &[&[(10, ())]]) as u64;
        let top = N::new_internal(SentKey::Key(10), 1, a, b) as u64;
        let reclaims = RECLAIMS.load(Ordering::SeqCst);
        let (_, _, recycled) = ebr::pool::local_stats();
        let before = tree.stats.snapshot();
        assert!(!tree.replace_patch(l_left, &[p_ll, l_ll], &[top, a, b], &guard));
        assert_eq!(RECLAIMS.load(Ordering::SeqCst), reclaims + 1);
        assert_eq!(ebr::pool::local_stats().2, recycled + 3);
        let after = tree.stats.snapshot();
        assert_eq!(after.scx_failures, before.scx_failures + 1);
        assert_eq!(after.scx_commits, before.scx_commits);
        assert!(
            !p.is_finalized() && !l.is_finalized(),
            "no node of V is finalized"
        );
        assert_eq!(p.left(&guard).as_raw(), l.as_raw(), "the link did not move");
    }
}
