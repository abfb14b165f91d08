//! Structural invariant checkers, used by tests and by downstream crates'
//! property tests. Each pins once and walks the tree non-atomically: memory
//! safe at any time, but the answer only means something while the tree is
//! quiescent (no concurrent updates).

use ebr::Guard;

use crate::key::SentKey;
use crate::node::{Node, NodePlugin};
use crate::tree::ChromaticTree;

/// A leaf's invariants: a sentinel leaf holds no key, a real leaf 1 to `B`
/// in strictly increasing order, the first of them its key, and all of
/// them in `[lower, upper)`, the range its ancestors route to it. Out of
/// line, so that `validate`'s recursion keeps a small frame on a
/// degenerate (unbalanced) spine.
#[inline(never)]
fn check_leaf<K, V, P, const B: usize>(
    node: &Node<K, V, P>,
    lower: Option<&SentKey<K>>,
    upper: Option<&SentKey<K>>,
) -> Result<(), Invalid>
where
    K: Ord + Clone + std::fmt::Debug,
{
    // The leaf's key (its first) against its ancestors' bounds.
    if let Some(lo) = lower {
        if node.key() < lo {
            return Err(Invalid::BstOrder(format!(
                "leaf {:?} below lower bound {:?}",
                node.key(),
                lo
            )));
        }
    }
    if let Some(hi) = upper {
        if node.key() >= hi {
            return Err(Invalid::BstOrder(format!(
                "leaf {:?} at/above upper bound {:?}",
                node.key(),
                hi
            )));
        }
    }
    let len = node.len();
    if node.is_sentinel() {
        return match len {
            0 => Ok(()),
            _ => Err(Invalid::LeafLen(format!("sentinel leaf holds {len} keys"))),
        };
    }
    if !(1..=B).contains(&len) {
        return Err(Invalid::LeafLen(format!(
            "leaf {:?} holds {len} keys, not 1 to {B}",
            node.key()
        )));
    }
    let entries = node.entries();
    if node.key().as_key() != Some(&entries[0].0) {
        return Err(Invalid::LeafLen(format!(
            "leaf key {:?} is not its first entry {:?}",
            node.key(),
            entries[0].0
        )));
    }
    for pair in entries.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(Invalid::BstOrder(format!(
                "leaf keys {:?} and {:?} out of order",
                pair[0].0, pair[1].0
            )));
        }
    }
    // The last key below the upper bound (its first is checked above).
    if let (Some(hi), Some((last, _))) = (upper, entries.last()) {
        if &SentKey::Key(last.clone()) >= hi {
            return Err(Invalid::BstOrder(format!(
                "leaf key {last:?} at/above upper bound {hi:?}"
            )));
        }
    }
    Ok(())
}

/// A violation report from [`ChromaticTree::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invalid {
    /// A leaf key fell outside the range implied by its ancestors, or a
    /// leaf's keys are out of order.
    BstOrder(String),
    /// A real leaf holds no key or more than the tree's `B`, a sentinel
    /// leaf holds one, or a leaf's key is not its smallest entry's.
    LeafLen(String),
    /// Two real-tree root-to-leaf paths have different weight sums.
    WeightedPath { first: u64, other: u64 },
    /// An internal node has weight 0 and a weight-0 child.
    RedRed,
    /// A non-root node has weight ≥ 2.
    Overweight,
    /// A leaf has weight 0.
    RedLeaf,
    /// Tree height exceeds the chromatic bound for its size.
    TooTall { height: usize, leaves: usize },
}

/// Summary statistics of a quiescent tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of real (non-sentinel) keys.
    pub keys: usize,
    /// Height of the real tree (edges from real root to deepest leaf).
    pub height: usize,
    /// Total weight along the leftmost real path.
    pub weighted_height: u64,
    /// Number of internal nodes in the real tree.
    pub internal: usize,
}

impl<K, V, P, const B: usize> ChromaticTree<K, V, P, B>
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug,
    V: Clone + Send + Sync,
    P: NodePlugin<K, V>,
{
    /// The root of the real tree (left child of the ∞₁ sentinel node).
    fn real_root<'g>(&'g self, guard: &'g Guard) -> &'g Node<K, V, P> {
        self.entry().left(guard).left(guard)
    }

    /// Check every structural invariant; must be quiescent. `strict`
    /// additionally requires zero balance violations (run
    /// [`ChromaticTree::cleanup_everywhere`] first if updates just ran).
    pub fn validate(&self, strict: bool) -> Result<TreeShape, Invalid> {
        let guard = &ebr::pin();
        let root = self.real_root(guard);
        let mut leaves = 0usize;
        let mut internal = 0usize;
        let mut path_weight: Option<u64> = None;
        let mut max_depth = 0usize;

        // DFS with (node, lower, upper, weight_sum, depth, parent_weight).
        #[allow(clippy::too_many_arguments)]
        fn dfs<K, V, P, const B: usize>(
            node: &Node<K, V, P>,
            lower: Option<&SentKey<K>>,
            upper: Option<&SentKey<K>>,
            wsum: u64,
            depth: usize,
            parent_weight: u32,
            strict: bool,
            check_paths: bool,
            leaves: &mut usize,
            internal: &mut usize,
            path_weight: &mut Option<u64>,
            max_depth: &mut usize,
            is_root: bool,
            guard: &Guard,
        ) -> Result<(), Invalid>
        where
            K: Ord + Clone + Send + Sync + std::fmt::Debug,
            V: Clone + Send + Sync,
            P: NodePlugin<K, V>,
        {
            let w = node.weight() as u64;
            if strict {
                if node.weight() == 0 && parent_weight == 0 {
                    return Err(Invalid::RedRed);
                }
                if node.weight() >= 2 && !is_root {
                    return Err(Invalid::Overweight);
                }
            }
            if node.is_leaf() {
                if node.weight() == 0 {
                    return Err(Invalid::RedLeaf);
                }
                *leaves += 1;
                *max_depth = (*max_depth).max(depth);
                let total = wsum + w;
                match *path_weight {
                    None => *path_weight = Some(total),
                    Some(first) if first != total && check_paths => {
                        return Err(Invalid::WeightedPath {
                            first,
                            other: total,
                        })
                    }
                    _ => {}
                }
                check_leaf::<K, V, P, B>(node, lower, upper)?;
                return Ok(());
            }
            *internal += 1;
            dfs::<K, V, P, B>(
                node.left(guard),
                lower,
                Some(node.key()),
                wsum + w,
                depth + 1,
                node.weight(),
                strict,
                check_paths,
                leaves,
                internal,
                path_weight,
                max_depth,
                false,
                guard,
            )?;
            dfs::<K, V, P, B>(
                node.right(guard),
                Some(node.key()),
                upper,
                wsum + w,
                depth + 1,
                node.weight(),
                strict,
                check_paths,
                leaves,
                internal,
                path_weight,
                max_depth,
                false,
                guard,
            )
        }

        dfs::<K, V, P, B>(
            root,
            None,
            None,
            0,
            0,
            1, // parent is the ∞₁ sentinel, weight 1
            strict,
            self.is_balanced(),
            &mut leaves,
            &mut internal,
            &mut path_weight,
            &mut max_depth,
            true,
            guard,
        )?;

        // Real keys = leaves minus the one ∞₁-keyed rightmost leaf (present
        // in every nonempty tree shape) — count directly instead.
        let keys = self.collect_keys().len();

        if strict && self.is_balanced() && keys >= 4 {
            // Chromatic/red-black height bound: height ≤ 2·log2(leaves) + 2.
            let bound = 2 * (usize::BITS - leaves.leading_zeros()) as usize + 2;
            if max_depth > bound {
                return Err(Invalid::TooTall {
                    height: max_depth,
                    leaves,
                });
            }
        }

        Ok(TreeShape {
            keys,
            height: max_depth,
            weighted_height: path_weight.unwrap_or(0),
            internal,
        })
    }

    /// Collect all real keys in order (quiescent only).
    pub fn collect_keys(&self) -> Vec<K> {
        let mut out = Vec::new();
        fn walk<K, V, P>(node: &Node<K, V, P>, out: &mut Vec<K>, guard: &Guard)
        where
            K: Ord + Clone + Send + Sync,
            V: Clone + Send + Sync,
            P: NodePlugin<K, V>,
        {
            if node.is_leaf() {
                out.extend(node.entries().iter().map(|(k, _)| k.clone()));
                return;
            }
            walk(node.left(guard), out, guard);
            walk(node.right(guard), out, guard);
        }
        let guard = &ebr::pin();
        walk(self.real_root(guard), &mut out, guard);
        out
    }

    /// Sweep the whole tree repairing every balance violation (quiescent
    /// helper for tests: concurrent executions may leave violations pending
    /// when an updater is preempted mid-cleanup; real executions fix them
    /// on the fly).
    pub fn cleanup_everywhere(&self, guard: &Guard) {
        loop {
            // Find a leaf under the first (DFS) violation and clean toward it.
            let mut target: Option<SentKey<K>> = None;
            {
                fn find<K, V, P>(
                    node: &Node<K, V, P>,
                    parent_w: u32,
                    is_root: bool,
                    guard: &Guard,
                ) -> Option<SentKey<K>>
                where
                    K: Ord + Clone + Send + Sync,
                    V: Clone + Send + Sync,
                    P: NodePlugin<K, V>,
                {
                    let violated =
                        (node.weight() == 0 && parent_w == 0) || (node.weight() >= 2 && !is_root);
                    if violated {
                        // Leftmost leaf key under this node routes to it.
                        let mut cur = node;
                        while !cur.is_leaf() {
                            cur = cur.left(guard);
                        }
                        return Some(cur.key().clone());
                    }
                    if node.is_leaf() {
                        return None;
                    }
                    find(node.left(guard), node.weight(), false, guard)
                        .or_else(|| find(node.right(guard), node.weight(), false, guard))
                }
                let root = self.real_root(guard);
                if !root.is_leaf() || root.weight() >= 2 {
                    target = find(root, 1, true, guard);
                }
            }
            match target {
                Some(key) => self.cleanup(&key, guard),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod negative_tests {
    //! The validators must actually *catch* broken trees — build invalid
    //! shapes by hand and confirm each check fires.

    use crate::key::SentKey;
    use crate::node::{dispose_unpublished, Node};
    use crate::tree::ChromaticTree;
    use crate::validate::Invalid;

    type N = Node<u64, (), ()>;

    /// Swap in a hand-built real tree, run validate, restore, and clean up.
    fn with_root(
        make: impl FnOnce() -> u64,
        check: impl FnOnce(Result<crate::validate::TreeShape, Invalid>),
    ) {
        with_fat_root::<1, 1>(make, check)
    }

    /// [`with_root`] for a tree of leaf capacity `B` whose hand-built leaves
    /// were allocated at capacity `A`.
    fn with_fat_root<const B: usize, const A: usize>(
        make: impl FnOnce() -> u64,
        check: impl FnOnce(Result<crate::validate::TreeShape, Invalid>),
    ) {
        let tree = ChromaticTree::<u64, (), (), B>::new();
        let root = make();
        let guard = &ebr::pin();
        let inf1 = tree.entry().left(guard);
        let placeholder = inf1.left_raw();
        unsafe { (*inf1.left_field()).store(root, sched::atomic::Ordering::Release) };
        check(tree.validate(true));
        // Restore the placeholder so Drop walks a sane structure, and free
        // the hand-built nodes manually.
        fn free_rec<const A: usize>(n: &N, guard: &ebr::Guard) {
            if !n.is_leaf() {
                free_rec::<A>(n.left(guard), guard);
                free_rec::<A>(n.right(guard), guard);
            }
            unsafe { dispose_unpublished::<u64, (), (), A>(n.as_raw()) };
        }
        let built = inf1.left(guard);
        unsafe { (*inf1.left_field()).store(placeholder, sched::atomic::Ordering::Release) };
        free_rec::<A>(built, guard);
    }

    /// A leaf of `keys`, in the given order, at capacity 8.
    fn fat(keys: &[u64]) -> u64 {
        let entries: Vec<_> = keys.iter().map(|&k| (k, ())).collect();
        N::new_leaf_from::<8>(1, &[&entries]) as u64
    }

    #[test]
    fn accepts_valid_fat_leaves() {
        with_fat_root::<8, 8>(
            || internal(5, 1, fat(&[1, 2, 4]), fat(&[5, 7])),
            |r| assert_eq!(r.expect("valid").keys, 5),
        );
    }

    #[test]
    fn catches_keys_out_of_order_within_a_leaf() {
        with_fat_root::<8, 8>(
            || internal(5, 1, fat(&[1, 3, 2]), fat(&[5, 7])),
            |r| assert!(matches!(r, Err(Invalid::BstOrder(_))), "{r:?}"),
        );
    }

    #[test]
    fn catches_a_leaf_key_across_its_bound() {
        // 6 belongs right of the routing key 5.
        with_fat_root::<8, 8>(
            || internal(5, 1, fat(&[1, 2, 6]), fat(&[7, 8])),
            |r| assert!(matches!(r, Err(Invalid::BstOrder(_))), "{r:?}"),
        );
    }

    #[test]
    fn catches_a_leaf_over_capacity() {
        with_fat_root::<4, 8>(
            || internal(9, 1, fat(&[1, 2, 3, 4, 5]), fat(&[9, 10])),
            |r| assert!(matches!(r, Err(Invalid::LeafLen(_))), "{r:?}"),
        );
    }

    fn leaf(k: u64, w: u32) -> u64 {
        N::new_leaf_from::<1>(w, &[&[(k, ())]]) as u64
    }

    fn inf_leaf(w: u32) -> u64 {
        N::new_sentinel_leaf::<1>(SentKey::Inf1, w) as u64
    }

    fn internal(k: u64, w: u32, l: u64, r: u64) -> u64 {
        N::new_internal(SentKey::Key(k), w, l, r) as u64
    }

    #[test]
    fn catches_bst_violation() {
        with_root(
            || internal(5, 1, leaf(9, 1), inf_leaf(1)), // 9 in left subtree of 5!
            |r| assert!(matches!(r, Err(Invalid::BstOrder(_))), "{r:?}"),
        );
    }

    #[test]
    fn catches_unequal_weighted_paths() {
        with_root(
            || {
                // Left path 1+1+1 = 3, right path 1+1 = 2, no other
                // violation present.
                let deep = internal(2, 1, leaf(1, 1), leaf(2, 1));
                internal(5, 1, deep, inf_leaf(1))
            },
            |r| assert!(matches!(r, Err(Invalid::WeightedPath { .. })), "{r:?}"),
        );
    }

    #[test]
    fn catches_red_red() {
        // root(w1) -> red internal -> red internal.
        with_root(
            || {
                let rr = internal(2, 0, leaf(1, 2), leaf(2, 2));
                let red = internal(3, 0, rr, leaf(3, 2));
                internal(4, 1, red, inf_leaf(2))
            },
            |r| assert!(matches!(r, Err(Invalid::RedRed)), "{r:?}"),
        );
    }

    #[test]
    fn catches_overweight() {
        with_root(
            || {
                let ow = internal(2, 2, leaf(1, 1), leaf(2, 1)); // non-root w2
                internal(3, 1, ow, inf_leaf(4))
            },
            |r| assert!(matches!(r, Err(Invalid::Overweight)), "{r:?}"),
        );
    }

    #[test]
    fn catches_red_leaf() {
        with_root(
            || internal(5, 1, leaf(1, 0), inf_leaf(1)),
            |r| assert!(matches!(r, Err(Invalid::RedLeaf)), "{r:?}"),
        );
    }

    #[test]
    fn accepts_valid_hand_built_tree() {
        with_root(
            || {
                let l = internal(2, 1, leaf(1, 1), leaf(2, 1));
                let r = internal(9, 1, leaf(5, 1), inf_leaf(1));
                internal(5, 1, l, r)
            },
            |r| {
                let shape = r.expect("valid tree accepted");
                assert_eq!(shape.keys, 3);
            },
        );
    }
}
