//! Interval trees on BAT: the textbook augmented-search-tree application
//! (CLRS ch. 14, which the paper cites as the standard treatment), built
//! concurrently on top of generic augmentation.
//!
//! Intervals `[start, end]` are stored keyed by `(start, id)`; every
//! version carries the **maximum end** in its subtree via [`MaxEndAug`].
//! A *stabbing query* ("which intervals contain point p?") descends the
//! snapshot pruning any subtree whose max-end < p — O(log n + answers)
//! on a balanced tree, exactly the sequential algorithm, run verbatim on
//! a frozen snapshot (paper §3.2's "any sequential algorithm" property).
//!
//! This module also demonstrates why *generic* augmentation matters: max
//! is not an abelian-group operator, so the SP \[30\] / KYAA \[21\]
//! designs cannot maintain this structure, while BAT can.

use crate::augment::Augmentation;
use crate::map::BatMap;
use crate::version::VersionRef;

/// Key: (interval start, disambiguating id).
pub type IvKey = (u64, u64);

/// Augmentation: maximum interval end in the subtree (0 when empty).
pub struct MaxEndAug;

impl Augmentation<IvKey, u64> for MaxEndAug {
    type Value = u64;
    #[inline]
    fn leaf(_: &IvKey, end: &u64) -> u64 {
        *end
    }
    #[inline]
    fn sentinel() -> u64 {
        0
    }
    #[inline]
    fn combine(l: &u64, r: &u64) -> u64 {
        (*l).max(*r)
    }
}

/// A concurrent interval set with O(log n + k) stabbing queries.
pub struct IntervalMap {
    inner: BatMap<IvKey, u64, MaxEndAug>,
}

impl IntervalMap {
    /// Empty interval map.
    pub fn new() -> Self {
        IntervalMap {
            inner: BatMap::new(),
        }
    }

    /// Insert interval `[start, end]` with a caller-chosen id (ids make
    /// duplicate spans distinct). Returns `false` if (start, id) exists.
    pub fn insert(&self, start: u64, end: u64, id: u64) -> bool {
        assert!(start <= end, "empty interval");
        self.inner.insert((start, id), end)
    }

    /// Remove the interval identified by (start, id).
    pub fn remove(&self, start: u64, id: u64) -> bool {
        self.inner.remove(&(start, id))
    }

    /// Number of stored intervals.
    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    /// True if no intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// All intervals containing point `p`, as `(start, end, id)` —
    /// a stabbing query over one atomic snapshot.
    pub fn stab(&self, p: u64) -> Vec<(u64, u64, u64)> {
        let snap = self.inner.snapshot();
        let mut out = Vec::new();
        stab_rec(snap.root_version(), p, &mut out);
        out
    }
}

impl Default for IntervalMap {
    fn default() -> Self {
        Self::new()
    }
}

/// The sequential stabbing descent, with max-end pruning, over versions.
fn stab_rec(v: VersionRef<'_, IvKey, u64, MaxEndAug>, p: u64, out: &mut Vec<(u64, u64, u64)>) {
    // Prune: nothing below ends at/after p.
    if *v.aug() < p {
        return;
    }
    let VersionRef::Internal(n) = v else {
        let leaf = v.leaf().expect("a version tree ends in leaves");
        for &((start, id), end) in leaf.entries() {
            if start <= p && p <= end {
                out.push((start, end, id));
            }
        }
        return;
    };
    // Left subtree may always contain a stabbing interval (starts < key).
    stab_rec(n.left(), p, out);
    // Right subtree only if some interval there starts ≤ p: right keys
    // are ≥ n.key, so if n.key.0 > p nothing right can start ≤ p…
    // except n.key is (start, id); compare starts.
    let go_right = match &n.key {
        chromatic::SentKey::Key((s, _)) => *s <= p,
        // Sentinel-keyed internals can still have real left-side content
        // hanging right of them only for sentinel leaves; descend — the
        // aug pruning bounds the cost.
        _ => true,
    };
    if go_right {
        stab_rec(n.right(), p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabbing_basics() {
        let m = IntervalMap::new();
        m.insert(1, 5, 0);
        m.insert(3, 9, 1);
        m.insert(7, 8, 2);
        m.insert(10, 12, 3);

        let mut hits = m.stab(4);
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 5, 0), (3, 9, 1)]);

        assert_eq!(m.stab(7).len(), 2); // [3,9] and [7,8]
        assert_eq!(m.stab(6).len(), 1); // [3,9]
        assert_eq!(m.stab(13).len(), 0);
        assert_eq!(m.stab(0).len(), 0);
        assert_eq!(m.stab(10).len(), 1);
    }

    #[test]
    fn duplicate_spans_by_id() {
        let m = IntervalMap::new();
        assert!(m.insert(2, 4, 0));
        assert!(m.insert(2, 4, 1));
        assert!(!m.insert(2, 4, 1), "same (start, id) rejected");
        assert_eq!(m.stab(3).len(), 2);
        assert!(m.remove(2, 0));
        assert_eq!(m.stab(3).len(), 1);
    }

    #[test]
    fn stab_matches_brute_force() {
        let m = IntervalMap::new();
        let mut intervals = Vec::new();
        let mut x = 42u64;
        for id in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = x % 1000;
            let end = start + x % 97;
            intervals.push((start, end, id));
            m.insert(start, end, id);
        }
        for p in (0..1100).step_by(13) {
            let mut want: Vec<_> = intervals
                .iter()
                .copied()
                .filter(|(s, e, _)| *s <= p && p <= *e)
                .collect();
            want.sort_unstable();
            let mut got = m.stab(p);
            got.sort_unstable();
            assert_eq!(got, want, "stab({p})");
        }
    }

    #[test]
    fn concurrent_stabbing_during_updates() {
        use std::sync::Arc;
        let m = Arc::new(IntervalMap::new());
        let writer = {
            let m = m.clone();
            std::thread::spawn(move || {
                for id in 0..2_000u64 {
                    m.insert(id % 500, id % 500 + 10, id);
                    if id % 3 == 0 {
                        m.remove(id % 500, id);
                    }
                }
            })
        };
        // Readers see internally consistent snapshots throughout.
        for _ in 0..100 {
            let hits = m.stab(250);
            for (s, e, _) in hits {
                assert!(s <= 250 && 250 <= e);
            }
        }
        writer.join().unwrap();
        ebr::flush();
    }
}
