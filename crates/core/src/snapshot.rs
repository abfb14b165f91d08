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
//! children are prefetched before the descent branches, and a range query
//! walks its two boundary paths in one loop, one step of each in turn (see
//! [`Snapshot::range_count`]). This is sequential code over one snapshot:
//! the linearization point stays the root read, every version it
//! dereferences is reachable from that root under the snapshot's guard,
//! and a prefetch is a hint that never faults.
//!
//! A [`Snapshot`] owns an epoch guard: the versions it references are
//! protected from reclamation for as long as it lives (this is precisely
//! the "long-running query" behaviour of EBR the paper describes in §6).

use std::cmp::Ordering as Ord_;

use chromatic::SentKey;

use crate::augment::Augmentation;
use crate::version::Version;

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

/// Ask the cache for both child versions of the internal version `v`
/// before the descent decides which one it follows. The turn then waits on
/// a line already in flight, and `select`'s read of the left child's size
/// overlaps the fetch of the right child. A prefetch never faults and
/// reads nothing the program sees; see [`ebr::prefetch`].
#[inline(always)]
fn prefetch_children<K, V, A: Augmentation<K, V>>(v: &Version<K, V, A>) {
    ebr::prefetch::<Version<K, V, A>, false>(v.left);
    ebr::prefetch::<Version<K, V, A>, false>(v.right);
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
/// left subtree wherever it turns right, and each path hands over its leaf
/// if that leaf's key is in `[lo, hi]`. A leaf the two paths share goes
/// to `lo_piece`.
///
/// Every piece lies wholly inside the range and they partition it: the
/// `lo` side arrives right to left, the `hi` side left to right, and every
/// `lo` piece precedes every `hi` piece in key order.
fn walk_range<K, V, A, R>(
    root: &Version<K, V, A>,
    lo: &K,
    hi: &K,
    (mut acc_lo, mut acc_hi): (R, R),
    lo_piece: impl Fn(&Version<K, V, A>, R) -> R,
    hi_piece: impl Fn(R, &Version<K, V, A>) -> R,
) -> (R, R)
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let lo_left = |v: &Version<K, V, A>| cmp_key(lo, &v.key) != Ord_::Greater;
    let hi_left = |v: &Version<K, V, A>| cmp_key(hi, &v.key) == Ord_::Less;
    let in_range = |v: &Version<K, V, A>| v.key.as_key().is_some_and(|k| lo <= k && k <= hi);
    let mut v = root;
    loop {
        if v.is_leaf() {
            if in_range(v) {
                acc_lo = lo_piece(v, acc_lo);
            }
            return (acc_lo, acc_hi);
        }
        prefetch_children(v);
        match (lo_left(v), hi_left(v)) {
            (true, true) => v = v.left_version(),
            (false, false) => v = v.right_version(),
            _ => break,
        }
    }
    let (mut a, mut b) = (v.left_version(), v.right_version());
    while !(a.is_leaf() && b.is_leaf()) {
        if !a.is_leaf() {
            prefetch_children(a);
            if lo_left(a) {
                acc_lo = lo_piece(a.right_version(), acc_lo);
                a = a.left_version();
            } else {
                a = a.right_version();
            }
        }
        if !b.is_leaf() {
            prefetch_children(b);
            if hi_left(b) {
                b = b.left_version();
            } else {
                acc_hi = hi_piece(acc_hi, b.left_version());
                b = b.right_version();
            }
        }
    }
    if in_range(a) {
        acc_lo = lo_piece(a, acc_lo);
    }
    if in_range(b) {
        acc_hi = hi_piece(acc_hi, b);
    }
    (acc_lo, acc_hi)
}

/// `Find`'s descent (paper Fig. 3 lines 25–31) on the version tree below
/// `root`: the leaf version holding `k`, if any. Shared by
/// [`Snapshot::contains`] / [`Snapshot::get`] and the root check of a
/// no-op update ([`crate::map::BatMap::insert`]), which reads the root
/// under the update's own guard.
pub(crate) fn find_leaf<'v, K, V, A>(
    root: &'v Version<K, V, A>,
    k: &K,
) -> Option<&'v Version<K, V, A>>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let mut v = root;
    while !v.is_leaf() {
        prefetch_children(v);
        v = if cmp_key(k, &v.key) == Ord_::Less {
            v.left_version()
        } else {
            v.right_version()
        };
    }
    (v.key.as_key() == Some(k)).then_some(v)
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

    /// The snapshot's root version, for custom sequential descents over
    /// the frozen version tree (e.g. the interval stabbing query in
    /// [`crate::interval`]). The reference is valid for the snapshot's
    /// lifetime; the version tree below it is immutable.
    pub fn root_version(&self) -> &Version<K, V, A> {
        self.root()
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
        find_leaf(self.root(), k).is_some()
    }

    /// Point lookup returning the stored value.
    pub fn get(&self, k: &K) -> Option<V> {
        find_leaf(self.root(), k)?.value.clone()
    }

    /// Rank query (paper §7 "Queries"): the number of keys ≤ `k`.
    /// One root-to-leaf descent, O(height).
    pub fn rank(&self, k: &K) -> u64 {
        let mut count = 0u64;
        let mut v = self.root();
        while !v.is_leaf() {
            prefetch_children(v);
            if cmp_key(k, &v.key) == Ord_::Less {
                v = v.left_version();
            } else {
                count += v.left_version().size;
                v = v.right_version();
            }
        }
        if let Some(lk) = v.key.as_key() {
            if lk <= k {
                count += v.size; // 1 for a real leaf
            }
        }
        count
    }

    /// The number of keys strictly less than `k`.
    pub fn rank_exclusive(&self, k: &K) -> u64 {
        let mut count = 0u64;
        let mut v = self.root();
        while !v.is_leaf() {
            prefetch_children(v);
            // Left subtree keys are < v.key; all are < k iff v.key ≤ k.
            if cmp_key(k, &v.key) != Ord_::Greater {
                v = v.left_version();
            } else {
                count += v.left_version().size;
                v = v.right_version();
            }
        }
        if let Some(lk) = v.key.as_key() {
            if lk < k {
                count += v.size;
            }
        }
        count
    }

    /// Select query: the `i`-th smallest key (0-indexed) and its value.
    /// One descent guided by size fields, O(height).
    pub fn select(&self, mut i: u64) -> Option<(K, V)> {
        let mut v = self.root();
        if i >= v.size {
            return None;
        }
        while !v.is_leaf() {
            prefetch_children(v);
            let lsz = v.left_version().size;
            if i < lsz {
                v = v.left_version();
            } else {
                i -= lsz;
                v = v.right_version();
            }
        }
        debug_assert_eq!(v.size, 1);
        Some((v.key.as_key()?.clone(), v.value.clone()?))
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
            |v, acc| acc + v.size,
            |acc, v| acc + v.size,
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
            |v, acc| A::combine(&v.aug, &acc),
            |acc, v| A::combine(&acc, &v.aug),
        );
        A::combine(&l, &h)
    }

    /// Collect the keys (and values) in `[lo, hi]`, in order. O(height +
    /// output) — the materializing variant of a range query.
    pub fn range_collect(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        fn walk<K, V, A>(v: &Version<K, V, A>, lo: &K, hi: &K, out: &mut Vec<(K, V)>)
        where
            K: Ord + Clone + Send + Sync + 'static,
            V: Clone + Send + Sync + 'static,
            A: Augmentation<K, V>,
        {
            if v.is_leaf() {
                if let (Some(k), Some(val)) = (v.key.as_key(), v.value.as_ref()) {
                    if k >= lo && k <= hi {
                        out.push((k.clone(), val.clone()));
                    }
                }
                return;
            }
            if cmp_key(lo, &v.key) == Ord_::Less {
                walk(v.left_version(), lo, hi, out);
            }
            if cmp_key(hi, &v.key) != Ord_::Less {
                walk(v.right_version(), lo, hi, out);
            }
        }
        if lo <= hi {
            walk(self.root(), lo, hi, &mut out);
        }
        out
    }

    /// In-order iterator over all `(key, value)` pairs in the snapshot.
    pub fn iter(&self) -> SnapIter<'_, K, V, A> {
        SnapIter {
            stack: vec![self.root()],
        }
    }

    /// All keys, in order.
    pub fn keys(&self) -> Vec<K> {
        self.iter().map(|(k, _)| k).collect()
    }
}

/// In-order traversal over a snapshot's real leaves.
pub struct SnapIter<'s, K, V, A: Augmentation<K, V>> {
    stack: Vec<&'s Version<K, V, A>>,
}

impl<'s, K, V, A> Iterator for SnapIter<'s, K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        while let Some(v) = self.stack.pop() {
            if v.is_leaf() {
                if let (Some(k), Some(val)) = (v.key.as_key(), v.value.as_ref()) {
                    return Some((k.clone(), val.clone()));
                }
                continue; // sentinel leaf
            }
            // Right first so the left is popped (visited) first.
            self.stack.push(v.right_version());
            self.stack.push(v.left_version());
        }
        None
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
