//! Parallel bulk operations (the "parallel bulk operations" extension):
//! O(n) parallel construction of a valid chromatic tree from sorted data,
//! and multi-threaded batch insertion (plain `std::thread::scope` fork/join
//! — the workspace carries no external thread-pool dependency).
//!
//! Construction builds a weight-balanced node tree directly (all internal
//! nodes black; where halves differ in depth, the deeper child is made
//! red, which restores the weighted-path invariant without violations —
//! red nodes produced this way always have perfect, black-rooted halves),
//! then a single recursive nil-refresh materializes the entire version
//! tree bottom-up in O(n).

use chromatic::SentKey;

use crate::augment::Augmentation;
use crate::map::BatMap;
use crate::propagate::DelegationPolicy;
use crate::refresh::{refresh_top, BatNode};

/// Below this many leaves, build sequentially rather than forking.
const PAR_THRESHOLD: usize = 2048;

/// Remaining fork budget for the first call: enough levels to occupy every
/// core, plus one for slack against uneven halves.
fn initial_forks() -> u32 {
    (usize::BITS - ebr::cores().leading_zeros()) + 1
}

/// Run `a` and `b` in parallel on scoped threads, returning both results.
fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let ha = s.spawn(a);
        let rb = b();
        (ha.join().expect("bulk-build worker panicked"), rb)
    })
}

/// `floor(log2(len)) + 1` — the black-rooted weighted height our
/// construction produces for `len` leaves.
#[inline]
fn s(len: usize) -> u32 {
    64 - (len as u64).leading_zeros()
}

/// Build the subtree over logical leaves `lo..hi`, where logical index
/// `pairs.len()` denotes the trailing ∞₁ sentinel leaf. `weight` is the
/// weight of the subtree's root node.
fn build<K, V, A>(pairs: &[(K, V)], lo: usize, hi: usize, weight: u32, forks: u32) -> u64
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let len = hi - lo;
    debug_assert!(len >= 1);
    if len == 1 {
        return if lo < pairs.len() {
            let (k, v) = &pairs[lo];
            BatNode::<K, V, A>::new_leaf(SentKey::Key(k.clone()), weight, Some(v.clone())) as u64
        } else {
            BatNode::<K, V, A>::new_leaf(SentKey::Inf1, weight, None) as u64
        };
    }
    let left_len = len.div_ceil(2);
    let mid = lo + left_len;
    let right_len = len - left_len;
    // Equalize weighted heights: the (possibly deeper) left half goes red
    // exactly when its height exceeds the right's. Such a red node's own
    // halves are equal (it is a perfect power of two), so no red-red
    // violations arise.
    let wl = if s(left_len) > s(right_len) { 0 } else { 1 };
    let ikey: SentKey<K> = if mid < pairs.len() {
        SentKey::Key(pairs[mid].0.clone())
    } else {
        SentKey::Inf1
    };
    let (l, r) = if len >= PAR_THRESHOLD && forks > 0 {
        join(
            || build::<K, V, A>(pairs, lo, mid, wl, forks - 1),
            || build::<K, V, A>(pairs, mid, hi, 1, forks - 1),
        )
    } else {
        (
            build::<K, V, A>(pairs, lo, mid, wl, 0),
            build::<K, V, A>(pairs, mid, hi, 1, 0),
        )
    };
    BatNode::<K, V, A>::new_internal(ikey, weight, l, r) as u64
}

impl<K, V, A> BatMap<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Build a BAT holding `pairs` in O(n) work (forked across cores
    /// above [`PAR_THRESHOLD`] leaves). Input is sorted and deduplicated
    /// by key (last write wins).
    pub fn bulk_build(pairs: Vec<(K, V)>) -> Self {
        Self::bulk_build_with(pairs, true, DelegationPolicy::None)
    }

    /// Bulk build with explicit balance/policy configuration.
    pub fn bulk_build_with(
        mut pairs: Vec<(K, V)>,
        balanced: bool,
        policy: DelegationPolicy,
    ) -> Self {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.reverse();
        pairs.dedup_by(|a, b| a.0 == b.0); // keep last write (first after reverse)
        pairs.reverse();

        let map = BatMap::with_options(balanced, policy);
        if pairs.is_empty() {
            return map;
        }
        // Logical leaves: the n pairs plus the trailing ∞₁ sentinel.
        let root = build::<K, V, A>(&pairs, 0, pairs.len() + 1, 1, initial_forks());
        let guard = ebr::pin();
        // SAFETY: `map` is fresh, empty and not yet shared; `build` returns
        // a well-formed subtree whose rightmost leaf is the ∞₁ sentinel.
        unsafe { map.tree.replace_real_root(root, &guard) };
        // The bulk-built internals have nil versions: the first refresh of
        // their ancestors materializes the whole version tree bottom-up in
        // O(n). The two sentinel internals, however, still carry the stale
        // empty versions from `with_options`, so refresh them bottom-up.
        let h = map.stats.local();
        for node in [map.tree.entry().left(&guard), map.tree.entry()] {
            let r = refresh_top(node, 0, &h, &guard);
            debug_assert!(r.success, "unshared tree refresh cannot fail");
            if r.success {
                // SAFETY: the refresh replaced it and nothing else has seen
                // the tree, so no future snapshot reaches it.
                unsafe { crate::version::retire_version::<K, V, A>(&guard, r.replaced) };
            }
        }
        map
    }

    /// Insert a batch concurrently, chunked over one scoped thread per
    /// core. Each insert is an independent linearizable operation; this is
    /// a throughput helper, not an atomic batch.
    pub fn par_insert_all(&self, items: Vec<(K, V)>) {
        let workers = ebr::cores().min(items.len().max(1));
        let per = items.len().div_ceil(workers);
        let mut chunks: Vec<Vec<(K, V)>> = Vec::with_capacity(workers);
        let mut items = items;
        while !items.is_empty() {
            let rest = items.split_off(items.len().saturating_sub(per));
            chunks.push(rest);
        }
        std::thread::scope(|s| {
            for chunk in chunks {
                s.spawn(move || {
                    for (k, v) in chunk {
                        self.insert(k, v);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{SizeOnly, SumAug};

    #[test]
    fn bulk_build_matches_incremental() {
        let pairs: Vec<(u64, u64)> = (0..1000).map(|k| (k, k * 2)).collect();
        let bulk = BatMap::<u64, u64, SizeOnly>::bulk_build(pairs.clone());
        assert_eq!(bulk.len(), 1000);
        for (k, v) in &pairs {
            assert_eq!(bulk.get(k), Some(*v), "key {k}");
        }
        assert_eq!(bulk.rank(&499), 500);
        assert_eq!(bulk.select(0), Some((0, 0)));
        assert_eq!(bulk.select(999), Some((999, 1998)));
        bulk.node_tree().validate(true).expect("bulk tree valid");
    }

    #[test]
    fn bulk_build_various_sizes_validate() {
        for n in [1u64, 2, 3, 5, 7, 8, 9, 31, 33, 100, 255, 256, 257] {
            let pairs: Vec<(u64, ())> = (0..n).map(|k| (k, ())).collect();
            let m = BatMap::<u64, (), SizeOnly>::bulk_build(pairs);
            assert_eq!(m.len(), n, "size {n}");
            m.node_tree()
                .validate(true)
                .unwrap_or_else(|e| panic!("n={n}: {e:?}"));
        }
    }

    #[test]
    fn bulk_build_dedups_last_write_wins() {
        let m = BatMap::<u64, u64, SizeOnly>::bulk_build(vec![(1, 10), (1, 11), (2, 20)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(11));
    }

    #[test]
    fn bulk_build_aggregates() {
        let pairs: Vec<(u64, u64)> = (1..=100).map(|k| (k, k)).collect();
        let m = BatMap::<u64, u64, SumAug>::bulk_build(pairs);
        assert_eq!(m.aggregate(), 5050);
        assert_eq!(m.range_aggregate(&1, &10), 55);
    }

    #[test]
    fn bulk_then_updates_still_work() {
        let pairs: Vec<(u64, ())> = (0..512).map(|k| (k * 2, ())).collect();
        let m = BatMap::<u64, (), SizeOnly>::bulk_build(pairs);
        assert!(m.insert(1, ()));
        assert!(m.remove(&0));
        assert_eq!(m.len(), 512);
        assert!(m.contains(&1));
        assert!(!m.contains(&0));
        m.node_tree().validate(true).expect("valid after updates");
    }

    #[test]
    fn par_insert_all_inserts_everything() {
        let m = BatMap::<u64, u64, SizeOnly>::new();
        m.par_insert_all((0..2000).map(|k| (k, k)).collect());
        assert_eq!(m.len(), 2000);
        let guard = ebr::pin();
        m.node_tree().cleanup_everywhere(&guard);
        drop(guard);
        m.node_tree().validate(true).expect("valid");
    }
}
