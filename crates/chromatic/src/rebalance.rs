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
//! until the path is clean. Each fix is one patch-replacing SCX (like the
//! RB1 rotation in the paper's Fig. 1) and preserves the *weighted path
//! invariant*: every root-to-leaf path inside the real tree has the same
//! total weight. The case analysis is the weighted generalization of the
//! red-black fix-ups.

use ebr::Guard;
use llxscx::Llx;

use crate::key::SentKey;
use crate::node::{dispose_unpublished, retire_node, ChildSnap, Node, NodePlugin};
use crate::tree::{ChromaticTree, NodeRef, RebalanceKind, COMMITS, STEPS, W_NEAR};

/// Convenience: LLX a node, returning `None` on interference/finalized.
#[inline]
fn try_llx<K, V, P>(n: &Node<K, V, P>) -> Option<(llxscx::InfoTag, ChildSnap)> {
    match n.llx() {
        Llx::Ok { info, snapshot } => Some((info, snapshot)),
        _ => None,
    }
}

/// Build an internal node whose search-path child sits on `path_left`'s
/// side: `oriented(k, w, on, off, true)` puts `on` left, `off` right.
#[inline]
fn oriented<K, V, P>(key: SentKey<K>, w: u32, on_path: u64, off_path: u64, path_left: bool) -> u64
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    if path_left {
        Node::<K, V, P>::new_internal(key, w, on_path, off_path) as u64
    } else {
        Node::<K, V, P>::new_internal(key, w, off_path, on_path) as u64
    }
}

impl<K, V, P> ChromaticTree<K, V, P>
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
    /// Returns `true` if an SCX committed; `false` means interference (the
    /// caller re-descends either way).
    fn try_fix(
        &self,
        ggp: Option<NodeRef<K, V, P>>,
        gp: Option<NodeRef<K, V, P>>,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> bool {
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

    /// Overweight at the real root: replace it with a weight-1 copy. All
    /// real-tree path sums change uniformly, so the invariant is kept.
    fn fix_root_normalize(
        &self,
        p: NodeRef<K, V, P>,
        l: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> bool {
        let Some((pinfo, psnap)) = try_llx(p) else {
            return false;
        };
        if p.child_for_sent(key, psnap) != l.as_raw() {
            return false;
        }
        let Some((linfo, lsnap)) = try_llx(l) else {
            return false;
        };
        let l_new = l.copy_with_weight(1, lsnap) as u64;
        let ok = unsafe {
            llxscx::scx(
                &[p.linked(pinfo), l.linked(linfo)],
                0b10,
                p.field_for_sent(key),
                l.as_raw(),
                l_new,
            )
        };
        if ok {
            self.finish(RebalanceKind::RootNormalize, &[l], guard)
        } else {
            unsafe { dispose_unpublished::<K, V, P>(l_new) };
            false
        }
    }

    /// Red-red where the red parent is the real root: blacken it.
    fn fix_root_blacken(
        &self,
        gp: NodeRef<K, V, P>,
        p: NodeRef<K, V, P>,
        key: &SentKey<K>,
        guard: &Guard,
    ) -> bool {
        let Some((gpinfo, gpsnap)) = try_llx(gp) else {
            return false;
        };
        if gp.child_for_sent(key, gpsnap) != p.as_raw() {
            return false;
        }
        let Some((pinfo, psnap)) = try_llx(p) else {
            return false;
        };
        let p_new = p.copy_with_weight(1, psnap) as u64;
        let ok = unsafe {
            llxscx::scx(
                &[gp.linked(gpinfo), p.linked(pinfo)],
                0b10,
                gp.field_for_sent(key),
                p.as_raw(),
                p_new,
            )
        };
        if ok {
            self.finish(RebalanceKind::RootBlacken, &[p], guard)
        } else {
            unsafe { dispose_unpublished::<K, V, P>(p_new) };
            false
        }
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
    ) -> bool {
        let Some((ggpinfo, ggpsnap)) = try_llx(ggp) else {
            return false;
        };
        if ggp.child_for_sent(key, ggpsnap) != gp.as_raw() {
            return false;
        }
        let Some((gpinfo, gpsnap)) = try_llx(gp) else {
            return false;
        };
        if gp.child_for_sent(key, gpsnap) != p.as_raw() {
            return false;
        }
        let Some((pinfo, psnap)) = try_llx(p) else {
            return false;
        };
        if p.child_for_sent(key, psnap) != l.as_raw() {
            return false;
        }
        let p_left = gpsnap.0 == p.as_raw();
        let l_left = psnap.0 == l.as_raw();
        let uncle_raw = if p_left { gpsnap.1 } else { gpsnap.0 };
        // SAFETY: a link from `gp`'s LLX snapshot, taken under `guard`.
        let uncle = unsafe { Node::<K, V, P>::from_raw(uncle_raw, guard) };
        debug_assert!(gp.weight() >= 1, "red-red under red gp caught earlier");

        if uncle.weight() == 0 {
            // BLK: recolor p and uncle to weight 1, decrement gp.
            let Some((uinfo, usnap)) = try_llx(uncle) else {
                return false;
            };
            let p_new = p.copy_with_weight(1, psnap) as u64;
            let u_new = uncle.copy_with_weight(1, usnap) as u64;
            let gp_new =
                oriented::<K, V, P>(gp.key().clone(), gp.weight() - 1, p_new, u_new, p_left);
            let (ca, cb) = if p_left {
                (p.linked(pinfo), uncle.linked(uinfo))
            } else {
                (uncle.linked(uinfo), p.linked(pinfo))
            };
            let ok = unsafe {
                llxscx::scx(
                    &[ggp.linked(ggpinfo), gp.linked(gpinfo), ca, cb],
                    0b1110,
                    ggp.field_for_sent(key),
                    gp.as_raw(),
                    gp_new,
                )
            };
            if ok {
                self.finish(RebalanceKind::Blk, &[gp, p, uncle], guard)
            } else {
                unsafe {
                    dispose_unpublished::<K, V, P>(gp_new);
                    dispose_unpublished::<K, V, P>(p_new);
                    dispose_unpublished::<K, V, P>(u_new);
                }
                false
            }
        } else if p_left == l_left {
            // RB1: single rotation (outer grandchild). Canonical LL:
            //   top p'{w=gp.w}: left = l, right = gp'{w=0}: (β, uncle).
            let beta = if p_left { psnap.1 } else { psnap.0 };
            let gp_new = oriented::<K, V, P>(gp.key().clone(), 0, beta, uncle_raw, p_left);
            let top = oriented::<K, V, P>(p.key().clone(), gp.weight(), l.as_raw(), gp_new, p_left);
            let ok = unsafe {
                llxscx::scx(
                    &[ggp.linked(ggpinfo), gp.linked(gpinfo), p.linked(pinfo)],
                    0b110,
                    ggp.field_for_sent(key),
                    gp.as_raw(),
                    top,
                )
            };
            if ok {
                self.finish(RebalanceKind::Rb1, &[gp, p], guard)
            } else {
                unsafe {
                    dispose_unpublished::<K, V, P>(top);
                    dispose_unpublished::<K, V, P>(gp_new);
                }
                false
            }
        } else {
            // RB2: double rotation (inner grandchild). l is internal (red).
            let Some((linfo, lsnap)) = try_llx(l) else {
                return false;
            };
            // Canonical LR (p left of gp, l right of p):
            //   top l'{w=gp.w}: left p'{0}: (p.left, l.left),
            //                   right gp'{0}: (l.right, uncle).
            let (p_new, gp_new) = if p_left {
                let p_new =
                    Node::<K, V, P>::new_internal(p.key().clone(), 0, psnap.0, lsnap.0) as u64;
                let gp_new =
                    Node::<K, V, P>::new_internal(gp.key().clone(), 0, lsnap.1, uncle_raw) as u64;
                (p_new, gp_new)
            } else {
                // Mirror RL: top l': left gp'{0}: (uncle, l.left),
                //                    right p'{0}: (l.right, p.right).
                let gp_new =
                    Node::<K, V, P>::new_internal(gp.key().clone(), 0, uncle_raw, lsnap.0) as u64;
                let p_new =
                    Node::<K, V, P>::new_internal(p.key().clone(), 0, lsnap.1, psnap.1) as u64;
                (p_new, gp_new)
            };
            let top = if p_left {
                Node::<K, V, P>::new_internal(l.key().clone(), gp.weight(), p_new, gp_new) as u64
            } else {
                Node::<K, V, P>::new_internal(l.key().clone(), gp.weight(), gp_new, p_new) as u64
            };
            let ok = unsafe {
                llxscx::scx(
                    &[
                        ggp.linked(ggpinfo),
                        gp.linked(gpinfo),
                        p.linked(pinfo),
                        l.linked(linfo),
                    ],
                    0b1110,
                    ggp.field_for_sent(key),
                    gp.as_raw(),
                    top,
                )
            };
            if ok {
                self.finish(RebalanceKind::Rb2, &[gp, p, l], guard)
            } else {
                unsafe {
                    dispose_unpublished::<K, V, P>(top);
                    dispose_unpublished::<K, V, P>(p_new);
                    dispose_unpublished::<K, V, P>(gp_new);
                }
                false
            }
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
    ) -> bool {
        let Some((gpinfo, gpsnap)) = try_llx(gp) else {
            return false;
        };
        if gp.child_for_sent(key, gpsnap) != p.as_raw() {
            return false;
        }
        let Some((pinfo, psnap)) = try_llx(p) else {
            return false;
        };
        if p.child_for_sent(key, psnap) != l.as_raw() {
            return false;
        }
        let l_left = psnap.0 == l.as_raw();
        let s_raw = if l_left { psnap.1 } else { psnap.0 };
        // SAFETY: a link from `p`'s LLX snapshot, taken under `guard`.
        let s = unsafe { Node::<K, V, P>::from_raw(s_raw, guard) };
        let Some((sinfo, ssnap)) = try_llx(s) else {
            return false;
        };

        if s.weight() == 0 {
            // W7: rotate the red sibling above p; l stays overweight but
            // gains a black-ish parent, enabling the other cases next pass.
            debug_assert!(!s.is_leaf(), "red leaves cannot exist");
            let (near, far) = if l_left {
                (ssnap.0, ssnap.1)
            } else {
                (ssnap.1, ssnap.0)
            };
            let p_new = oriented::<K, V, P>(p.key().clone(), 0, l.as_raw(), near, l_left);
            let top = oriented::<K, V, P>(s.key().clone(), p.weight(), p_new, far, l_left);
            let ok = unsafe {
                llxscx::scx(
                    &[gp.linked(gpinfo), p.linked(pinfo), s.linked(sinfo)],
                    0b110,
                    gp.field_for_sent(key),
                    p.as_raw(),
                    top,
                )
            };
            if ok {
                self.finish(RebalanceKind::W7, &[p, s], guard)
            } else {
                unsafe {
                    dispose_unpublished::<K, V, P>(top);
                    dispose_unpublished::<K, V, P>(p_new);
                }
                false
            }
        } else {
            // Black-or-overweight sibling: look at the nephews.
            let (near_raw, far_raw) = if s.is_leaf() {
                (0, 0)
            } else if l_left {
                (ssnap.0, ssnap.1)
            } else {
                (ssnap.1, ssnap.0)
            };
            // SAFETY (both): a non-null link from `s`'s LLX snapshot, taken
            // under `guard`.
            let red = |raw: u64| {
                raw != 0 && unsafe { Node::<K, V, P>::from_raw(raw, guard) }.weight() == 0
            };
            let (near_red, far_red) = (red(near_raw), red(far_raw));

            if s.weight() == 1 && s.is_leaf() {
                // Impossible under the weighted-path invariant (the leaf
                // path would be shorter than l's); interference must have
                // changed the tree under us. Re-descend.
                debug_assert!(false, "overweight node with weight-1 leaf sibling");
                return false;
            }

            if s.weight() >= 2 || (!near_red && !far_red) {
                // PUSH: move one weight unit from both children to p.
                let Some((linfo, lsnap)) = try_llx(l) else {
                    return false;
                };
                let l_new = l.copy_with_weight(l.weight() - 1, lsnap) as u64;
                let s_new = s.copy_with_weight(s.weight() - 1, ssnap) as u64;
                let p_new =
                    oriented::<K, V, P>(p.key().clone(), p.weight() + 1, l_new, s_new, l_left);
                let (ca, cb) = if l_left {
                    (l.linked(linfo), s.linked(sinfo))
                } else {
                    (s.linked(sinfo), l.linked(linfo))
                };
                let ok = unsafe {
                    llxscx::scx(
                        &[gp.linked(gpinfo), p.linked(pinfo), ca, cb],
                        0b1110,
                        gp.field_for_sent(key),
                        p.as_raw(),
                        p_new,
                    )
                };
                if ok {
                    self.finish(RebalanceKind::Push, &[p, l, s], guard)
                } else {
                    unsafe {
                        dispose_unpublished::<K, V, P>(p_new);
                        dispose_unpublished::<K, V, P>(l_new);
                        dispose_unpublished::<K, V, P>(s_new);
                    }
                    false
                }
            } else if far_red {
                // W-far: single rotation toward l; far nephew absorbs black.
                // SAFETY: as for `far_red` above, which found it non-null.
                let far = unsafe { Node::<K, V, P>::from_raw(far_raw, guard) };
                let Some((linfo, lsnap)) = try_llx(l) else {
                    return false;
                };
                let Some((finfo, fsnap)) = try_llx(far) else {
                    return false;
                };
                let l_new = l.copy_with_weight(l.weight() - 1, lsnap) as u64;
                let far_new = far.copy_with_weight(1, fsnap) as u64;
                let p_new = oriented::<K, V, P>(p.key().clone(), 1, l_new, near_raw, l_left);
                let top = oriented::<K, V, P>(s.key().clone(), p.weight(), p_new, far_new, l_left);
                let (ca, cb) = if l_left {
                    (l.linked(linfo), s.linked(sinfo))
                } else {
                    (s.linked(sinfo), l.linked(linfo))
                };
                let ok = unsafe {
                    llxscx::scx(
                        &[
                            gp.linked(gpinfo),
                            p.linked(pinfo),
                            ca,
                            cb,
                            far.linked(finfo),
                        ],
                        0b11110,
                        gp.field_for_sent(key),
                        p.as_raw(),
                        top,
                    )
                };
                if ok {
                    self.finish(RebalanceKind::WFar, &[p, l, s, far], guard)
                } else {
                    unsafe {
                        dispose_unpublished::<K, V, P>(top);
                        dispose_unpublished::<K, V, P>(p_new);
                        dispose_unpublished::<K, V, P>(l_new);
                        dispose_unpublished::<K, V, P>(far_new);
                    }
                    false
                }
            } else {
                // W-near: double rotation; near nephew becomes the patch root.
                // SAFETY: as for `near_red` above, which found it non-null.
                let near = unsafe { Node::<K, V, P>::from_raw(near_raw, guard) };
                debug_assert!(!near.is_leaf(), "red leaves cannot exist");
                let Some((linfo, lsnap)) = try_llx(l) else {
                    return false;
                };
                let Some((ninfo, nsnap)) = try_llx(near) else {
                    return false;
                };
                let l_new = l.copy_with_weight(l.weight() - 1, lsnap) as u64;
                // Canonical (l left, s right, near = s.left):
                //   top n'{w_p}: left p'{1}: (l', n.left),
                //                right s'{1}: (n.right, s.right=far).
                let (p_new, s_new) = if l_left {
                    let p_new =
                        Node::<K, V, P>::new_internal(p.key().clone(), 1, l_new, nsnap.0) as u64;
                    let s_new =
                        Node::<K, V, P>::new_internal(s.key().clone(), 1, nsnap.1, far_raw) as u64;
                    (p_new, s_new)
                } else {
                    // Mirror: s left, near = s.right:
                    //   top n'{w_p}: left s'{1}: (s.left=far, n.left),
                    //                right p'{1}: (n.right, l').
                    let s_new =
                        Node::<K, V, P>::new_internal(s.key().clone(), 1, far_raw, nsnap.0) as u64;
                    let p_new =
                        Node::<K, V, P>::new_internal(p.key().clone(), 1, nsnap.1, l_new) as u64;
                    (p_new, s_new)
                };
                let top = if l_left {
                    Node::<K, V, P>::new_internal(near.key().clone(), p.weight(), p_new, s_new)
                        as u64
                } else {
                    Node::<K, V, P>::new_internal(near.key().clone(), p.weight(), s_new, p_new)
                        as u64
                };
                let (ca, cb) = if l_left {
                    (l.linked(linfo), s.linked(sinfo))
                } else {
                    (s.linked(sinfo), l.linked(linfo))
                };
                let ok = unsafe {
                    llxscx::scx(
                        &[
                            gp.linked(gpinfo),
                            p.linked(pinfo),
                            ca,
                            cb,
                            near.linked(ninfo),
                        ],
                        0b11110,
                        gp.field_for_sent(key),
                        p.as_raw(),
                        top,
                    )
                };
                if ok {
                    self.finish(W_NEAR, &[p, l, s, near], guard)
                } else {
                    unsafe {
                        dispose_unpublished::<K, V, P>(top);
                        dispose_unpublished::<K, V, P>(p_new);
                        dispose_unpublished::<K, V, P>(s_new);
                        dispose_unpublished::<K, V, P>(l_new);
                    }
                    false
                }
            }
        }
    }

    /// Record a committed rebalancing step and retire the removed nodes.
    fn finish(&self, kind: RebalanceKind, removed: &[NodeRef<K, V, P>], guard: &Guard) -> bool {
        self.stats.bump(COMMITS);
        self.stats.bump(STEPS + kind as usize);
        for n in removed {
            unsafe { retire_node::<K, V, P>(guard, n.as_raw()) };
        }
        true
    }
}
