//! Rebalancing: violation detection and the chromatic tree's fix-up steps.
//!
//! A chromatic tree allows two kinds of *violation* (Nurmi &
//! Soisalon-Soininen \[26\]):
//!
//! * **red-red**: a weight-0 node whose parent also has weight 0;
//! * **overweight**: a node of weight ≥ 2 (benign at the real root).
//!
//! Every violation is created adjacent to an insert/delete and is repaired
//! by [`ChromaticTree::cleanup`], which re-walks the search path for the
//! update's key from the entry node, fixing the first violation it meets
//! until the path is clean. Each fix is one run of the tree update template
//! (`ChromaticTree::replace_patch`; like the RB1 rotation in the paper's
//! Fig. 1) and preserves the *weighted path invariant*: every root-to-leaf
//! path inside the real tree has the same total weight. The case analysis
//! is the weighted generalization of the red-black fix-ups. Mirrored cases
//! are written once, in terms of the search path's side (`oriented`).

use ebr::Guard;

use crate::key::SentKey;
use crate::node::{Node, NodePlugin};
use crate::tree::{in_order, ChromaticTree, Loaded, NodeRef, RebalanceKind, STEPS, W_NEAR};

/// Build an internal node whose search-path child sits on `path_left`'s
/// side: `oriented(k, w, on, off, true)` puts `on` left, `off` right.
#[inline]
fn oriented<K, V, P>(key: SentKey<K>, w: u32, on_path: u64, off_path: u64, path_left: bool) -> u64
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    let (left, right) = in_order(path_left, on_path, off_path);
    Node::<K, V, P>::new_internal(key, w, left, right) as u64
}

impl<K, V, P, const B: usize> ChromaticTree<K, V, P, B>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    /// True if `child` (with parent `parent`) violates a balance property.
    #[inline]
    pub(crate) fn is_violation(parent: &Node<K, V, P>, child: &Node<K, V, P>) -> bool {
        (child.weight() == 0 && parent.weight() == 0) || child.weight() >= 2
    }

    /// Walk from the entry toward `key`, fixing the first violation found,
    /// until the whole path is violation-free (paper §3.1: each update
    /// fixes the one violation it may create before returning).
    pub fn cleanup(&self, key: &SentKey<K>, guard: &Guard) {
        'restart: loop {
            let mut ggp: Option<NodeRef<K, V, P>> = None;
            let mut gp: Option<NodeRef<K, V, P>> = None;
            let mut p = self.entry();
            let mut l = p.left(guard);
            loop {
                if Self::is_violation(p, l) {
                    self.try_fix(ggp, gp, p, l, key, guard);
                    continue 'restart;
                }
                if l.is_leaf() {
                    return;
                }
                let next = l.child_toward(key, guard);
                ggp = gp;
                gp = Some(p);
                p = l;
                l = next;
            }
        }
    }

    /// Attempt one fix-up step for the violation at `l` (child of `p`).
    /// `Some(())` if its SCX committed, `None` on interference (an LLX
    /// failed, a link had moved on, or the SCX aborted); the caller
    /// re-descends either way.
    fn try_fix(
        &self,
        ggp: Option<NodeRef<K, V, P>>,
        gp: Option<NodeRef<K, V, P>>,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> Option<()> {
        if l.weight() >= 2 {
            if self.is_sentinel_node(p) {
                self.fix_root_normalize(p, l, key, guard)
            } else {
                let gp = gp.expect("overweight below real node has grandparent");
                self.fix_overweight(gp, p, l, key, guard)
            }
        } else {
            // Red-red: p is red, hence not a sentinel, hence gp exists.
            debug_assert!(l.weight() == 0 && p.weight() == 0);
            let gp = gp.expect("red parent has a grandparent");
            if self.is_sentinel_node(gp) {
                self.fix_root_blacken(gp, p, key, guard)
            } else {
                let ggp = ggp.expect("real grandparent has a parent");
                self.fix_redred(ggp, gp, p, l, key, guard)
            }
        }
    }

    /// Commit one rebalancing step of `kind` through the update template
    /// and count it.
    fn step(
        &self,
        kind: RebalanceKind,
        left: bool,
        v: &[Loaded<'_, K, V, P>],
        fresh: &[u64],
        guard: &Guard,
    ) -> Option<()> {
        self.replace_patch(left, v, fresh, guard)
            .then(|| self.stats.bump(STEPS + kind as usize))
    }

    /// Overweight at the real root: replace it with a weight-1 copy. All
    /// real-tree path sums change uniformly, so the invariant is kept.
    fn fix_root_normalize(
        &self,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> Option<()> {
        let l_left = key < p.key();
        let (p_ll, _) = self.llx_link(p, l_left, l)?;
        let (l_ll, lsnap) = self.llx(l)?;
        let l_new = l.copy_with_weight::<B>(1, lsnap) as u64;
        self.step(
            RebalanceKind::RootNormalize,
            l_left,
            &[p_ll, l_ll],
            &[l_new],
            guard,
        )
    }

    /// Red-red where the red parent is the real root: blacken it.
    fn fix_root_blacken(
        &self,
        gp: NodeRef<K, V, P>,
        p: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> Option<()> {
        let p_left = key < gp.key();
        let (gp_ll, _) = self.llx_link(gp, p_left, p)?;
        let (p_ll, psnap) = self.llx(p)?;
        let p_new = p.copy_with_weight::<B>(1, psnap) as u64;
        self.step(
            RebalanceKind::RootBlacken,
            p_left,
            &[gp_ll, p_ll],
            &[p_new],
            guard,
        )
    }

    /// Red-red with a real grandparent: BLK / RB1 / RB2.
    fn fix_redred(
        &self,
        ggp: NodeRef<K, V, P>,
        gp: NodeRef<K, V, P>,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> Option<()> {
        let gp_left = key < ggp.key();
        let (ggp_ll, _) = self.llx_link(ggp, gp_left, gp)?;
        let p_left = key < gp.key();
        let (gp_ll, gpsnap) = self.llx_link(gp, p_left, p)?;
        let l_left = key < p.key();
        let (p_ll, psnap) = self.llx_link(p, l_left, l)?;
        let (_, uncle_raw) = in_order(p_left, gpsnap.0, gpsnap.1);
        // SAFETY: a link from `gp`'s LLX snapshot, taken under `guard`.
        let uncle = unsafe { Node::<K, V, P>::from_raw(uncle_raw, guard) };
        debug_assert!(gp.weight() >= 1, "red-red under red gp caught earlier");

        if uncle.weight() == 0 {
            // BLK: recolor p and uncle to weight 1, decrement gp.
            let (u_ll, usnap) = self.llx(uncle)?;
            let p_new = p.copy_with_weight::<B>(1, psnap) as u64;
            let u_new = uncle.copy_with_weight::<B>(1, usnap) as u64;
            let gp_new =
                oriented::<K, V, P>(gp.key().clone(), gp.weight() - 1, p_new, u_new, p_left);
            let (a_ll, b_ll) = in_order(p_left, p_ll, u_ll);
            self.step(
                RebalanceKind::Blk,
                gp_left,
                &[ggp_ll, gp_ll, a_ll, b_ll],
                &[gp_new, p_new, u_new],
                guard,
            )
        } else if p_left == l_left {
            // RB1: single rotation (outer grandchild). Canonical LL:
            //   top p'{w=gp.w}: left = l, right = gp'{w=0}: (β, uncle).
            let (_, beta) = in_order(p_left, psnap.0, psnap.1);
            let gp_new = oriented::<K, V, P>(gp.key().clone(), 0, beta, uncle_raw, p_left);
            let top = oriented::<K, V, P>(p.key().clone(), gp.weight(), l.as_raw(), gp_new, p_left);
            self.step(
                RebalanceKind::Rb1,
                gp_left,
                &[ggp_ll, gp_ll, p_ll],
                &[top, gp_new],
                guard,
            )
        } else {
            // RB2: double rotation (inner grandchild). l is internal (red).
            let (l_ll, lsnap) = self.llx(l)?;
            // Canonical LR (p left of gp, l right of p):
            //   top l'{w=gp.w}: left p'{0}: (p.left, l.left),
            //                   right gp'{0}: (l.right, uncle).
            let (p_outer, _) = in_order(p_left, psnap.0, psnap.1);
            let (l_toward_p, l_toward_gp) = in_order(p_left, lsnap.0, lsnap.1);
            let p_new = oriented::<K, V, P>(p.key().clone(), 0, p_outer, l_toward_p, p_left);
            let gp_new = oriented::<K, V, P>(gp.key().clone(), 0, l_toward_gp, uncle_raw, p_left);
            let top = oriented::<K, V, P>(l.key().clone(), gp.weight(), p_new, gp_new, p_left);
            self.step(
                RebalanceKind::Rb2,
                gp_left,
                &[ggp_ll, gp_ll, p_ll, l_ll],
                &[top, p_new, gp_new],
                guard,
            )
        }
    }

    /// Overweight at `l` below a real parent: W7 / PUSH / W-far / W-near.
    fn fix_overweight(
        &self,
        gp: NodeRef<K, V, P>,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> Option<()> {
        let p_left = key < gp.key();
        let (gp_ll, _) = self.llx_link(gp, p_left, p)?;
        let l_left = key < p.key();
        let (p_ll, psnap) = self.llx_link(p, l_left, l)?;
        let (_, s_raw) = in_order(l_left, psnap.0, psnap.1);
        // SAFETY: a link from `p`'s LLX snapshot, taken under `guard`.
        let s = unsafe { Node::<K, V, P>::from_raw(s_raw, guard) };
        let (s_ll, ssnap) = self.llx(s)?;
        // The nephews (null when `s` is a leaf), the one next to `l` first.
        let (near_raw, far_raw) = in_order(l_left, ssnap.0, ssnap.1);

        if s.weight() == 0 {
            // W7: rotate the red sibling above p; l stays overweight but
            // gains a black-ish parent, enabling the other cases next pass.
            debug_assert!(!s.is_leaf(), "red leaves cannot exist");
            let p_new = oriented::<K, V, P>(p.key().clone(), 0, l.as_raw(), near_raw, l_left);
            let top = oriented::<K, V, P>(s.key().clone(), p.weight(), p_new, far_raw, l_left);
            return self.step(
                RebalanceKind::W7,
                p_left,
                &[gp_ll, p_ll, s_ll],
                &[top, p_new],
                guard,
            );
        }

        // Black-or-overweight sibling: look at the nephews.
        // SAFETY: a non-null link from `s`'s LLX snapshot, taken under
        // `guard` (for both nephews).
        let red =
            |raw: u64| raw != 0 && unsafe { Node::<K, V, P>::from_raw(raw, guard) }.weight() == 0;
        let (near_red, far_red) = (red(near_raw), red(far_raw));

        if s.weight() == 1 && s.is_leaf() {
            // Impossible under the weighted-path invariant (the leaf
            // path would be shorter than l's); interference must have
            // changed the tree under us. Re-descend.
            debug_assert!(false, "overweight node with weight-1 leaf sibling");
            return None;
        }

        let (l_ll, lsnap) = self.llx(l)?;
        let (a_ll, b_ll) = in_order(l_left, l_ll, s_ll);
        if s.weight() >= 2 || (!near_red && !far_red) {
            // PUSH: move one weight unit from both children to p.
            let l_new = l.copy_with_weight::<B>(l.weight() - 1, lsnap) as u64;
            let s_new = s.copy_with_weight::<B>(s.weight() - 1, ssnap) as u64;
            let p_new = oriented::<K, V, P>(p.key().clone(), p.weight() + 1, l_new, s_new, l_left);
            self.step(
                RebalanceKind::Push,
                p_left,
                &[gp_ll, p_ll, a_ll, b_ll],
                &[p_new, l_new, s_new],
                guard,
            )
        } else if far_red {
            // W-far: single rotation toward l; far nephew absorbs black.
            // SAFETY: as for `far_red` above, which found it non-null.
            let far = unsafe { Node::<K, V, P>::from_raw(far_raw, guard) };
            let (far_ll, fsnap) = self.llx(far)?;
            let l_new = l.copy_with_weight::<B>(l.weight() - 1, lsnap) as u64;
            let far_new = far.copy_with_weight::<B>(1, fsnap) as u64;
            let p_new = oriented::<K, V, P>(p.key().clone(), 1, l_new, near_raw, l_left);
            let top = oriented::<K, V, P>(s.key().clone(), p.weight(), p_new, far_new, l_left);
            self.step(
                RebalanceKind::WFar,
                p_left,
                &[gp_ll, p_ll, a_ll, b_ll, far_ll],
                &[top, p_new, l_new, far_new],
                guard,
            )
        } else {
            // W-near: double rotation; near nephew becomes the patch root.
            // SAFETY: as for `near_red` above, which found it non-null.
            let near = unsafe { Node::<K, V, P>::from_raw(near_raw, guard) };
            debug_assert!(!near.is_leaf(), "red leaves cannot exist");
            let (near_ll, nsnap) = self.llx(near)?;
            let l_new = l.copy_with_weight::<B>(l.weight() - 1, lsnap) as u64;
            // Canonical (l left, s right, near = s.left):
            //   top n'{w_p}: left p'{1}: (l', n.left),
            //                right s'{1}: (n.right, s.right=far).
            let (n_toward_p, n_toward_s) = in_order(l_left, nsnap.0, nsnap.1);
            let p_new = oriented::<K, V, P>(p.key().clone(), 1, l_new, n_toward_p, l_left);
            let s_new = oriented::<K, V, P>(s.key().clone(), 1, n_toward_s, far_raw, l_left);
            let top = oriented::<K, V, P>(near.key().clone(), p.weight(), p_new, s_new, l_left);
            self.step(
                W_NEAR,
                p_left,
                &[gp_ll, p_ll, a_ll, b_ll, near_ll],
                &[top, p_new, s_new, l_new],
                guard,
            )
        }
    }
}
