//! Extended order-statistic queries on snapshots: predecessor/successor,
//! k-th in range, nearest key — all O(log n) descents over the version
//! tree, all expressible with the paper's machinery (any sequential BST
//! algorithm runs verbatim on a snapshot, §3.2).

use crate::augment::Augmentation;
use crate::snapshot::Snapshot;

impl<K, V, A> Snapshot<K, V, A>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    /// Largest key ≤ `k` (floor), with its value.
    pub fn floor(&self, k: &K) -> Option<(K, V)> {
        let r = self.rank(k);
        if r == 0 {
            None
        } else {
            self.select(r - 1)
        }
    }

    /// Largest key strictly < `k` (predecessor).
    pub fn predecessor(&self, k: &K) -> Option<(K, V)> {
        let r = self.rank_exclusive(k);
        if r == 0 {
            None
        } else {
            self.select(r - 1)
        }
    }

    /// Smallest key ≥ `k` (ceiling).
    pub fn ceiling(&self, k: &K) -> Option<(K, V)> {
        self.select(self.rank_exclusive(k))
    }

    /// Smallest key strictly > `k` (successor).
    pub fn successor(&self, k: &K) -> Option<(K, V)> {
        self.select(self.rank(k))
    }

    /// Smallest key in the snapshot.
    pub fn first(&self) -> Option<(K, V)> {
        self.select(0)
    }

    /// Largest key in the snapshot.
    pub fn last(&self) -> Option<(K, V)> {
        let n = self.len();
        if n == 0 {
            None
        } else {
            self.select(n - 1)
        }
    }

    /// The `i`-th smallest key within `[lo, hi]` (0-indexed): an
    /// order-statistic *range* query: one `rank_exclusive` descent, one
    /// range walk (`range_count`'s two boundary paths) and one select.
    pub fn select_in_range(&self, lo: &K, hi: &K, i: u64) -> Option<(K, V)> {
        if lo > hi {
            return None;
        }
        let base = self.rank_exclusive(lo);
        if i >= self.range_count(lo, hi) {
            return None;
        }
        self.select(base + i)
    }

    /// Median key of the snapshot (lower median for even sizes).
    pub fn median(&self) -> Option<(K, V)> {
        let n = self.len();
        if n == 0 {
            None
        } else {
            self.select((n - 1) / 2)
        }
    }

    /// Quantile: the key at fraction `q` (clamped to `[0,1]`) through the
    /// sorted order — percentile queries in O(log n). `None` when the
    /// snapshot is empty or `q` is NaN.
    pub fn quantile(&self, q: f64) -> Option<(K, V)> {
        let n = self.len();
        if n == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let i = ((n - 1) as f64 * q).round() as u64;
        self.select(i)
    }
}

#[cfg(test)]
mod tests {
    use crate::augment::SizeOnly;
    use crate::map::BatMap;

    fn sample() -> BatMap<u64, u64, SizeOnly> {
        let m = BatMap::new();
        for k in [10u64, 20, 30, 40, 50] {
            m.insert(k, k * 10);
        }
        m
    }

    #[test]
    fn floor_ceiling_pred_succ() {
        let m = sample();
        let s = m.snapshot();
        assert_eq!(s.floor(&35).map(|p| p.0), Some(30));
        assert_eq!(s.floor(&30).map(|p| p.0), Some(30));
        assert_eq!(s.floor(&5), None);
        assert_eq!(s.ceiling(&35).map(|p| p.0), Some(40));
        assert_eq!(s.ceiling(&40).map(|p| p.0), Some(40));
        assert_eq!(s.ceiling(&55), None);
        assert_eq!(s.predecessor(&30).map(|p| p.0), Some(20));
        assert_eq!(s.predecessor(&10), None);
        assert_eq!(s.successor(&30).map(|p| p.0), Some(40));
        assert_eq!(s.successor(&50), None);
    }

    #[test]
    fn first_last_median() {
        let m = sample();
        let s = m.snapshot();
        assert_eq!(s.first().map(|p| p.0), Some(10));
        assert_eq!(s.last().map(|p| p.0), Some(50));
        assert_eq!(s.median().map(|p| p.0), Some(30));
        let empty = BatMap::<u64, u64, SizeOnly>::new();
        assert_eq!(empty.snapshot().first(), None);
        assert_eq!(empty.snapshot().median(), None);
    }

    #[test]
    fn select_in_range() {
        let m = sample();
        let s = m.snapshot();
        assert_eq!(s.select_in_range(&15, &45, 0).map(|p| p.0), Some(20));
        assert_eq!(s.select_in_range(&15, &45, 2).map(|p| p.0), Some(40));
        assert_eq!(s.select_in_range(&15, &45, 3), None);
        assert_eq!(s.select_in_range(&45, &15, 0), None);
    }

    #[test]
    fn quantiles() {
        let m = BatMap::<u64, u64, SizeOnly>::new();
        for k in 1..=100u64 {
            m.insert(k, k);
        }
        let s = m.snapshot();
        assert_eq!(s.quantile(0.0).map(|p| p.0), Some(1));
        assert_eq!(s.quantile(1.0).map(|p| p.0), Some(100));
        let p50 = s.quantile(0.5).map(|p| p.0).unwrap();
        assert!((50..=51).contains(&p50));
        let p99 = s.quantile(0.99).map(|p| p.0).unwrap();
        assert!((98..=100).contains(&p99));
        assert_eq!(s.quantile(f64::NAN), None);
    }

    #[test]
    fn queries_against_oracle() {
        use std::collections::BTreeMap;
        let m = BatMap::<u64, u64, SizeOnly>::new();
        let mut oracle = BTreeMap::new();
        let mut x = 13u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 1000;
            m.insert(k, k);
            oracle.insert(k, k);
        }
        let s = m.snapshot();
        for probe in (0..1000).step_by(37) {
            assert_eq!(
                s.floor(&probe).map(|p| p.0),
                oracle.range(..=probe).next_back().map(|(k, _)| *k),
                "floor {probe}"
            );
            assert_eq!(
                s.ceiling(&probe).map(|p| p.0),
                oracle.range(probe..).next().map(|(k, _)| *k),
                "ceiling {probe}"
            );
        }
    }
}
