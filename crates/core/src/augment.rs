//! Generic augmentation functions.
//!
//! BAT's headline property is *generic* augmentation (unlike SP \[30\] and
//! KYAA \[21\], which are restricted to abelian-group-style aggregations):
//! any function of a leaf plus any associative combiner works, because a
//! refresh recomputes a node's supplementary fields from scratch out of its
//! children's versions (paper Fig. 3 line 67).
//!
//! Every version always carries the subtree **size** (the paper's running
//! example, needed by order-statistic queries) *plus* a user augmentation
//! value of type [`Augmentation::Value`]. A leaf is born as its own version
//! (Definition 1, rules 1–2) and stores neither: its size is the number of
//! keys it holds (0 for a sentinel) and its value is the fold of
//! [`Augmentation::leaf`] over its immutable entries
//! ([`Augmentation::sentinel`] for none), computed whenever a refresh or a
//! query reads it — so `leaf` should be cheap.

/// A user-supplied augmentation: what each leaf contributes and how two
/// children's values combine. `combine` must be associative with respect
/// to in-order concatenation of leaves; `sentinel()` must be its identity.
pub trait Augmentation<K, V>: Send + Sync + 'static {
    /// The supplementary-field type stored in every internal version.
    type Value: Clone + Send + Sync;

    /// Value contributed by a real leaf (Definition 1, rule 1), computed
    /// from the leaf node each time a refresh or query reads it.
    fn leaf(key: &K, value: &V) -> Self::Value;

    /// Value of a sentinel leaf (Definition 1, rule 2) — the identity.
    fn sentinel() -> Self::Value;

    /// Combine the left and right children's values (refresh, line 67).
    fn combine(left: &Self::Value, right: &Self::Value) -> Self::Value;
}

/// No user augmentation: versions carry only the always-present size.
/// This is the paper's exact configuration (size-augmented BAT).
pub struct SizeOnly;

impl<K, V> Augmentation<K, V> for SizeOnly
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Value = ();
    #[inline]
    fn leaf(_: &K, _: &V) {}
    #[inline]
    fn sentinel() {}
    #[inline]
    fn combine(_: &(), _: &()) {}
}

/// Sum of values: supports O(log n) range-sum queries.
pub struct SumAug;

impl<K> Augmentation<K, u64> for SumAug
where
    K: Send + Sync + 'static,
{
    type Value = u64;
    #[inline]
    fn leaf(_: &K, value: &u64) -> u64 {
        *value
    }
    #[inline]
    fn sentinel() -> u64 {
        0
    }
    #[inline]
    fn combine(l: &u64, r: &u64) -> u64 {
        l + r
    }
}

/// Minimum and maximum value in the subtree: supports O(log n) range
/// min/max. Not an abelian group (no inverses) — this is the kind of
/// augmentation SP/KYAA cannot express but BAT handles natively.
pub struct MinMaxAug;

/// `(min, max)` over an `u64`-valued subtree; `None` for empty.
pub type MinMax = Option<(u64, u64)>;

impl<K> Augmentation<K, u64> for MinMaxAug
where
    K: Send + Sync + 'static,
{
    type Value = MinMax;
    #[inline]
    fn leaf(_: &K, value: &u64) -> MinMax {
        Some((*value, *value))
    }
    #[inline]
    fn sentinel() -> MinMax {
        None
    }
    #[inline]
    fn combine(l: &MinMax, r: &MinMax) -> MinMax {
        match (*l, *r) {
            (None, x) | (x, None) => x,
            (Some((lmin, lmax)), Some((rmin, rmax))) => Some((lmin.min(rmin), lmax.max(rmax))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_combiner_is_associative() {
        let vals = [3u64, 5, 9, 11];
        let l: Vec<u64> = vals
            .iter()
            .map(|v| <SumAug as Augmentation<u64, u64>>::leaf(&0, v))
            .collect();
        type S = SumAug;
        fn comb(a: &u64, b: &u64) -> u64 {
            <S as Augmentation<u64, u64>>::combine(a, b)
        }
        let a = comb(&comb(&l[0], &l[1]), &comb(&l[2], &l[3]));
        let b = comb(&l[0], &comb(&l[1], &comb(&l[2], &l[3])));
        assert_eq!(a, b);
        assert_eq!(a, 28);
    }

    #[test]
    fn sentinel_is_identity() {
        let x = <SumAug as Augmentation<u64, u64>>::leaf(&1, &7);
        let id = <SumAug as Augmentation<u64, u64>>::sentinel();
        assert_eq!(<SumAug as Augmentation<u64, u64>>::combine(&x, &id), x);
        assert_eq!(<SumAug as Augmentation<u64, u64>>::combine(&id, &x), x);

        let m = <MinMaxAug as Augmentation<u64, u64>>::leaf(&1, &7);
        let mid = <MinMaxAug as Augmentation<u64, u64>>::sentinel();
        assert_eq!(<MinMaxAug as Augmentation<u64, u64>>::combine(&m, &mid), m);
        assert_eq!(<MinMaxAug as Augmentation<u64, u64>>::combine(&mid, &m), m);
    }

    #[test]
    fn minmax_tracks_extremes() {
        let a = <MinMaxAug as Augmentation<u64, u64>>::leaf(&0, &4);
        let b = <MinMaxAug as Augmentation<u64, u64>>::leaf(&0, &9);
        let c = <MinMaxAug as Augmentation<u64, u64>>::leaf(&0, &1);
        let mm = <MinMaxAug as Augmentation<u64, u64>>::combine;
        let all = mm(&mm(&a, &b), &c);
        assert_eq!(all, Some((1, 9)));
    }
}

/// Compose two augmentations into one: the version carries both values
/// and each is maintained independently. Nest `PairAug` for arbitrarily
/// many statistics in a single tree — possible precisely because BAT's
/// augmentation is generic (any product of associative aggregations is
/// associative).
pub struct PairAug<A, B>(std::marker::PhantomData<(A, B)>);

impl<K, V, A, B> Augmentation<K, V> for PairAug<A, B>
where
    K: Send + Sync + 'static,
    V: Send + Sync + 'static,
    A: Augmentation<K, V>,
    B: Augmentation<K, V>,
{
    type Value = (A::Value, B::Value);

    #[inline]
    fn leaf(key: &K, value: &V) -> Self::Value {
        (A::leaf(key, value), B::leaf(key, value))
    }

    #[inline]
    fn sentinel() -> Self::Value {
        (A::sentinel(), B::sentinel())
    }

    #[inline]
    fn combine(l: &Self::Value, r: &Self::Value) -> Self::Value {
        (A::combine(&l.0, &r.0), B::combine(&l.1, &r.1))
    }
}

#[cfg(test)]
mod combinator_tests {
    use super::*;

    type Both = PairAug<SumAug, MinMaxAug>;

    #[test]
    fn pair_maintains_both_components() {
        let a = <Both as Augmentation<u64, u64>>::leaf(&1, &10);
        let b = <Both as Augmentation<u64, u64>>::leaf(&2, &4);
        let c = <Both as Augmentation<u64, u64>>::combine(&a, &b);
        assert_eq!(c.0, 14);
        assert_eq!(c.1, Some((4, 10)));
        let id = <Both as Augmentation<u64, u64>>::sentinel();
        assert_eq!(<Both as Augmentation<u64, u64>>::combine(&c, &id), c);
    }

    #[test]
    fn pair_in_a_real_tree() {
        use crate::map::BatMap;
        let m = BatMap::<u64, u64, Both>::new();
        for (k, v) in [(1u64, 5u64), (2, 9), (3, 2), (4, 7)] {
            m.insert(k, v);
        }
        let (sum, mm) = m.aggregate();
        assert_eq!(sum, 23);
        assert_eq!(mm, Some((2, 9)));
        let (rsum, rmm) = m.range_aggregate(&2, &3);
        assert_eq!(rsum, 11);
        assert_eq!(rmm, Some((2, 9)));
        m.remove(&2);
        let (sum2, mm2) = m.aggregate();
        assert_eq!(sum2, 14);
        assert_eq!(mm2, Some((2, 7)));
    }

    #[test]
    fn triple_nesting() {
        type Triple = PairAug<SumAug, PairAug<MinMaxAug, SumAug>>;
        let a = <Triple as Augmentation<u64, u64>>::leaf(&0, &3);
        let b = <Triple as Augmentation<u64, u64>>::leaf(&0, &8);
        let c = <Triple as Augmentation<u64, u64>>::combine(&a, &b);
        assert_eq!(c.0, 11);
        assert_eq!(c.1 .0, Some((3, 8)));
        assert_eq!(c.1 .1, 11);
    }
}
