//! Snapshots and sequential queries on the version tree.
//!
//! A query reads the root's version pointer once and thereby obtains an
//! immutable snapshot of the entire version tree (§3.2): any sequential
//! BST algorithm runs on it unmodified. This module implements the
//! paper's query set — `Find`, rank, select, range count — plus generic
//! range aggregation and ordered iteration.
//!
//! At 2^19 keys each step of a descent is a dependent cache miss, so the
//! descents keep two in flight instead of one: every internal version's two
//! children — versions, or leaf nodes, each its own version — are
//! prefetched before the descent branches, and a range query
//! walks its two boundary paths in one loop, one step of each in turn (see
//! [`Snapshot::range_count`]). This is sequential code over one snapshot:
//! the linearization point stays the root read, every version it
//! dereferences is reachable from that root under the snapshot's guard,
//! and a prefetch is a hint that never faults.
//!
//! A [`Snapshot`] owns an epoch guard: the versions it references are
//! protected from reclamation for as long as it lives (this is precisely
//! the "long-running query" behaviour of EBR the paper describes in §6).

use std::borrow::Cow;
use std::cmp::Ordering as Ord_;
use std::ops::Range;

use chromatic::SentKey;

use crate::augment::Augmentation;
use crate::refresh::BatNode;
use crate::version::{leaf_aug, Version, VersionRef};

/// An immutable snapshot of the set, as of the moment it was taken (its
/// linearization point is the read of the root's version pointer).
pub struct Snapshot<K, V, A: Augmentation<K, V>> {
    root: u64, // *const Version
    _guard: ebr::Guard,
    _marker: std::marker::PhantomData<(K, V, A)>,
}

/// Compare a real key against a version's (sentinel-extended) key.
#[inline]
fn cmp_key<K: Ord>(k: &K, vkey: &SentKey<K>) -> Ord_ {
    match vkey {
        SentKey::Key(vk) => k.cmp(vk),
        // Real keys sort below both sentinels.
        SentKey::Inf1 | SentKey::Inf2 => Ord_::Less,
    }
}

/// The number of `leaf`'s keys below `k` (`inclusive`: at most `k`): where
/// a rank descent finishes inside the leaf it ends at.
#[inline]
fn keys_below<K: Ord, V, A: Augmentation<K, V>>(
    leaf: &BatNode<K, V, A>,
    k: &K,
    inclusive: bool,
) -> usize {
    match leaf.search_leaf(k) {
        Ok(i) => i + inclusive as usize,
        Err(i) => i,
    }
}

/// One piece of a range query's answer: a whole subtree, or the run of a
/// boundary leaf's entries that lies inside the range.
enum Piece<'v, K, V, A: Augmentation<K, V>> {
    Tree(VersionRef<'v, K, V, A>),
    Run(&'v BatNode<K, V, A>, Range<usize>),
}

impl<'v, K, V, A> Piece<'v, K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// The run of `leaf`'s entries inside `[lo, hi]`, if any.
    fn run(leaf: &'v BatNode<K, V, A>, lo: &K, hi: &K) -> Option<Self> {
        let range = keys_below(leaf, lo, false)..keys_below(leaf, hi, true);
        (!range.is_empty()).then_some(Piece::Run(leaf, range))
    }

    fn size(&self) -> u64 {
        match self {
            Piece::Tree(v) => v.size(),
            Piece::Run(_, range) => range.len() as u64,
        }
    }

    fn aug(&self) -> Cow<'v, A::Value> {
        match self {
            Piece::Tree(v) => v.aug(),
            Piece::Run(leaf, range) => Cow::Owned(leaf_aug(leaf, range.clone())),
        }
    }
}

/// The pieces of `[lo, hi]` (`lo <= hi`) on the version tree below `root`,
/// found by one walk over the two boundary paths. The walk descends once
/// while `lo` and `hi` route the same way: `lo` goes left iff
/// `lo <= v.key` and `hi` goes left iff `hi < v.key` — the leaf-oriented
/// rule of [`Snapshot::rank_exclusive`] and [`Snapshot::rank`]. Nothing
/// beside that shared path lies in the range. Below the version where the
/// two part, it steps the `lo` path (left child) and the `hi` path (right
/// child) alternately in one loop, so the two chains' cache misses
/// overlap instead of queueing. The `lo` path hands `lo_piece` the right
/// subtree wherever it turns left, the `hi` path hands `hi_piece` the
/// left subtree wherever it turns right, and each path hands over the run
/// of its leaf's keys that lies in `[lo, hi]`, if any. A leaf the two
/// paths share goes to `lo_piece`.
///
/// Every piece lies wholly inside the range and they partition it: the
/// `lo` side arrives right to left, the `hi` side left to right, and every
/// `lo` piece precedes every `hi` piece in key order.
fn walk_range<'v, K, V, A, R>(
    root: &'v Version<K, V, A>,
    lo: &K,
    hi: &K,
    (mut acc_lo, mut acc_hi): (R, R),
    lo_piece: impl Fn(Piece<'v, K, V, A>, R) -> R,
    hi_piece: impl Fn(R, Piece<'v, K, V, A>) -> R,
) -> (R, R)
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let lo_left = |v: &Version<K, V, A>| cmp_key(lo, &v.key) != Ord_::Greater;
    let hi_left = |v: &Version<K, V, A>| cmp_key(hi, &v.key) == Ord_::Less;
    let run = |v: VersionRef<'v, K, V, A>| Piece::run(v.leaf()?, lo, hi);
    let mut v = VersionRef::Internal(root);
    let split = loop {
        let VersionRef::Internal(n) = v else {
            if let Some(piece) = run(v) {
                acc_lo = lo_piece(piece, acc_lo);
            }
            return (acc_lo, acc_hi);
        };
        n.prefetch_children();
        match (lo_left(n), hi_left(n)) {
            (true, true) => v = n.left(),
            (false, false) => v = n.right(),
            _ => break n,
        }
    };
    let (mut a, mut b) = (split.left(), split.right());
    while !(a.is_leaf() && b.is_leaf()) {
        if let VersionRef::Internal(n) = a {
            n.prefetch_children();
            if lo_left(n) {
                acc_lo = lo_piece(Piece::Tree(n.right()), acc_lo);
                a = n.left();
            } else {
                a = n.right();
            }
        }
        if let VersionRef::Internal(n) = b {
            n.prefetch_children();
            if hi_left(n) {
                b = n.left();
            } else {
                acc_hi = hi_piece(acc_hi, Piece::Tree(n.left()));
                b = n.right();
            }
        }
    }
    if let Some(piece) = run(a) {
        acc_lo = lo_piece(piece, acc_lo);
    }
    if let Some(piece) = run(b) {
        acc_hi = hi_piece(acc_hi, piece);
    }
    (acc_lo, acc_hi)
}

/// `Find`'s descent (paper Fig. 3 lines 25–31) on the version tree below
/// `root`, finished by a search of the leaf it ends at: `k`'s value, if
/// `k` is present. Shared by [`Snapshot::contains`] /
/// [`Snapshot::get`] and an update's root check
/// ([`crate::map::BatMap::insert`]), which reads the root under the
/// update's own guard. `step` sees each internal version on the path.
pub(crate) fn find_leaf<'v, K, V, A>(
    root: &'v Version<K, V, A>,
    k: &K,
    mut step: impl FnMut(&'v Version<K, V, A>),
) -> Option<&'v V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let mut v = VersionRef::Internal(root);
    while let VersionRef::Internal(n) = v {
        n.prefetch_children();
        let left = cmp_key(k, &n.key) == Ord_::Less;
        step(n);
        v = if left { n.left() } else { n.right() };
    }
    let leaf = v.leaf()?;
    Some(leaf.entry(leaf.search_leaf(k).ok()?).1)
}

impl<K, V, A> Snapshot<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Wrap a root version pointer read under `guard`.
    pub(crate) fn new(root: u64, guard: ebr::Guard) -> Self {
        Snapshot {
            root,
            _guard: guard,
            _marker: std::marker::PhantomData,
        }
    }

    #[inline]
    fn root(&self) -> &Version<K, V, A> {
        // SAFETY: `root` was the entry's version while `_guard` was already
        // pinned, so it is retired, if at all, after that pin began.
        // guard: the `Snapshot` owns it (`_guard`), and `&self` bounds the
        // reference.
        unsafe { Version::from_raw(self.root) }
    }

    /// The snapshot's root, for custom sequential descents over the frozen
    /// version tree (e.g. the interval stabbing query in
    /// [`crate::interval`]). The reference is valid for the snapshot's
    /// lifetime; the version tree below it is immutable.
    pub fn root_version(&self) -> VersionRef<'_, K, V, A> {
        VersionRef::Internal(self.root())
    }

    /// The snapshot's root version pointer as an opaque token. Two
    /// snapshots of the same map carry equal tokens iff they observed
    /// the same root version — i.e. no update was installed between
    /// them. (Pointer equality is sound here, not ABA-prone: each
    /// snapshot's guard pins its version against reclamation, so while
    /// both tokens are live an equal address means the same version.)
    /// This is what a multi-structure consistent cut compares during
    /// double-collect validation (see the `shard` crate).
    #[inline]
    pub fn version_token(&self) -> u64 {
        self.root
    }

    /// Number of keys in the snapshot — O(1) from the root's size field.
    #[inline]
    pub fn len(&self) -> u64 {
        self.root().size
    }

    /// True if the snapshot holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The augmentation value aggregated over the whole set — O(1).
    #[inline]
    pub fn aggregate(&self) -> A::Value {
        self.root().aug.clone()
    }

    /// `Find` (paper Fig. 3 lines 25–31): standard BST search on the
    /// version tree.
    pub fn contains(&self, k: &K) -> bool {
        find_leaf(self.root(), k, |_| {}).is_some()
    }

    /// Point lookup returning the stored value.
    pub fn get(&self, k: &K) -> Option<V> {
        find_leaf(self.root(), k, |_| {}).cloned()
    }

    /// Rank query (paper §7 "Queries"): the number of keys ≤ `k`.
    /// One root-to-leaf descent, O(height), finished inside the leaf.
    pub fn rank(&self, k: &K) -> u64 {
        let mut count = 0u64;
        let mut v = self.root_version();
        while let VersionRef::Internal(n) = v {
            n.prefetch_children();
            if cmp_key(k, &n.key) == Ord_::Less {
                v = n.left();
            } else {
                count += n.left().size();
                v = n.right();
            }
        }
        count + v.leaf().map_or(0, |leaf| keys_below(leaf, k, true)) as u64
    }

    /// The number of keys strictly less than `k`.
    pub fn rank_exclusive(&self, k: &K) -> u64 {
        let mut count = 0u64;
        let mut v = self.root_version();
        while let VersionRef::Internal(n) = v {
            n.prefetch_children();
            // Left subtree keys are < n.key; all are < k iff n.key ≤ k.
            if cmp_key(k, &n.key) != Ord_::Greater {
                v = n.left();
            } else {
                count += n.left().size();
                v = n.right();
            }
        }
        count + v.leaf().map_or(0, |leaf| keys_below(leaf, k, false)) as u64
    }

    /// Select query: the `i`-th smallest key (0-indexed) and its value.
    /// One descent guided by size fields, O(height).
    pub fn select(&self, mut i: u64) -> Option<(K, V)> {
        let mut v = self.root_version();
        if i >= v.size() {
            return None;
        }
        while let VersionRef::Internal(n) = v {
            n.prefetch_children();
            let left = n.left();
            let lsz = left.size();
            if i < lsz {
                v = left;
            } else {
                i -= lsz;
                v = n.right();
            }
        }
        Some(v.leaf()?.cloned_entry(i as usize))
    }

    /// Count of keys in `[lo, hi]`, O(height): the sizes of the subtrees
    /// hanging off the two boundary paths (the paper's range query shape,
    /// "traverse two paths"), walked together. The walk descends once to
    /// the version where `lo` and `hi` part, then steps the two paths
    /// alternately, so their cache misses overlap.
    pub fn range_count(&self, lo: &K, hi: &K) -> u64 {
        if lo > hi {
            return 0;
        }
        let (l, h) = walk_range(
            self.root(),
            lo,
            hi,
            (0, 0),
            |p, acc| acc + p.size(),
            |acc, p| acc + p.size(),
        );
        l + h
    }

    /// Aggregate the augmentation over keys in `[lo, hi]`, combining the
    /// O(height) precomputed values of the subtrees off the two boundary
    /// paths, which [`Snapshot::range_count`]'s walk finds. `combine` is
    /// only associative, so the fold keeps key order: the `lo` path's
    /// pieces arrive right to left and are prepended, the `hi` path's
    /// arrive left to right and are appended, and the `lo` side goes
    /// first.
    pub fn range_aggregate(&self, lo: &K, hi: &K) -> A::Value {
        if lo > hi {
            return A::sentinel();
        }
        let (l, h) = walk_range(
            self.root(),
            lo,
            hi,
            (A::sentinel(), A::sentinel()),
            |p, acc| A::combine(&p.aug(), &acc),
            |acc, p| A::combine(&acc, &p.aug()),
        );
        A::combine(&l, &h)
    }

    /// Collect the keys (and values) in `[lo, hi]`, in order. O(height +
    /// output) — the materializing variant of a range query.
    pub fn range_collect(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        fn walk<K, V, A>(v: VersionRef<'_, K, V, A>, lo: &K, hi: &K, out: &mut Vec<(K, V)>)
        where
            K: Ord + Clone + Send + Sync + 'static,
            V: Clone + Send + Sync + 'static,
            A: Augmentation<K, V>,
        {
            let VersionRef::Internal(n) = v else {
                if let Some(Piece::Run(leaf, range)) = v.leaf().and_then(|l| Piece::run(l, lo, hi))
                {
                    out.extend(range.map(|i| leaf.cloned_entry(i)));
                }
                return;
            };
            if cmp_key(lo, &n.key) == Ord_::Less {
                walk(n.left(), lo, hi, out);
            }
            if cmp_key(hi, &n.key) != Ord_::Less {
                walk(n.right(), lo, hi, out);
            }
        }
        if lo <= hi {
            walk(self.root_version(), lo, hi, &mut out);
        }
        out
    }

    /// In-order iterator over all `(key, value)` pairs in the snapshot.
    pub fn iter(&self) -> SnapIter<'_, K, V, A> {
        SnapIter {
            stack: vec![self.root_version()],
            leaf: None,
        }
    }

    /// All keys, in order.
    pub fn keys(&self) -> Vec<K> {
        self.iter().map(|(k, _)| k).collect()
    }
}

/// In-order traversal over a snapshot's real leaves' entries.
pub struct SnapIter<'s, K, V, A: Augmentation<K, V>> {
    stack: Vec<VersionRef<'s, K, V, A>>,
    /// The leaf being walked and its next entry.
    leaf: Option<(&'s BatNode<K, V, A>, usize)>,
}

impl<'s, K, V, A> Iterator for SnapIter<'s, K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if let Some((leaf, i)) = &mut self.leaf {
                if *i < leaf.len() {
                    *i += 1;
                    return Some(leaf.cloned_entry(*i - 1));
                }
            }
            match self.stack.pop()? {
                VersionRef::Leaf(leaf) => self.leaf = Some((leaf, 0)),
                VersionRef::Internal(n) => {
                    // Right first so the left is popped (visited) first.
                    self.stack.push(n.right());
                    self.stack.push(n.left());
                }
            }
        }
    }
}

#[cfg(test)]
mod iter_tests {
    use crate::augment::SizeOnly;
    use crate::map::BatMap;

    #[test]
    fn full_iter_equals_keys() {
        let m = BatMap::<u64, u64, SizeOnly>::new();
        for k in [5u64, 1, 9, 3] {
            m.insert(k, k);
        }
        let snap = m.snapshot();
        let iter_keys: Vec<u64> = snap.iter().map(|(k, _)| k).collect();
        assert_eq!(iter_keys, snap.keys());
        assert_eq!(iter_keys, vec![1, 3, 5, 9]);
    }
}
