//! Exact boundary tests for the version tree's range walk
//! (`Snapshot::range_count` / `range_aggregate`): every `lo <= hi` over
//! `0..=40`, on maps of several shapes, against a `BTreeMap` oracle.
//!
//! The walk descends once to the version where `lo` and `hi` part, then
//! folds the subtrees off the two boundary paths. `FirstLast` is
//! associative but not commutative, so it catches a fold that gets the
//! pieces' order wrong; `SumAug` and the count catch a piece that is
//! missing or counted twice. Every shape is built with one key per leaf,
//! at [`SMALL_FAT`] and at the shipped leaf capacity, where the walk
//! splits the boundary leaves. The shapes' 26 keys make several leaves of
//! `SMALL_FAT` keys and one shipped leaf; `fat_leaf_boundaries` puts both
//! bounds inside one leaf, and each inside a different one, so it runs at
//! `SMALL_FAT`. Single-threaded, so `scripts/miri.sh` runs it.

use std::collections::BTreeMap;

use cbat_core::{Augmentation, BatMap, PairAug, SumAug, LEAF_KEYS};

/// The first and last key of a subtree in key order; `None` when empty.
struct FirstLast;

impl Augmentation<u64, u64> for FirstLast {
    type Value = Option<(u64, u64)>;
    fn leaf(key: &u64, _: &u64) -> Self::Value {
        Some((*key, *key))
    }
    fn sentinel() -> Self::Value {
        None
    }
    fn combine(l: &Self::Value, r: &Self::Value) -> Self::Value {
        match (*l, *r) {
            (None, x) | (x, None) => x,
            (Some((first, _)), Some((_, last))) => Some((first, last)),
        }
    }
}

/// A fat-leaf capacity at which the shapes' keys span several leaves.
const SMALL_FAT: usize = 4;

type Aug = PairAug<SumAug, FirstLast>;
type Map<const B: usize> = BatMap<u64, u64, Aug, B>;

/// Small enough that `SumAug` cannot overflow, even for keys near `u64::MAX`.
fn value_of(k: u64) -> u64 {
    k % 97 + 3
}

/// A map and its oracle, built by the same inserts and removes.
struct Shape<const B: usize> {
    name: &'static str,
    map: Map<B>,
    oracle: BTreeMap<u64, u64>,
}

impl<const B: usize> Shape<B> {
    fn build(name: &'static str, inserts: &[u64], removes: &[u64]) -> Self {
        let map = Map::new();
        let mut oracle = BTreeMap::new();
        for &k in inserts {
            assert_eq!(
                map.insert(k, value_of(k)),
                oracle.insert(k, value_of(k)).is_none()
            );
        }
        for k in removes {
            assert_eq!(map.remove(k), oracle.remove(k).is_some());
        }
        Shape { name, map, oracle }
    }

    /// The keys of every real leaf of the node tree, in key order.
    fn leaves(&self) -> Vec<Vec<u64>> {
        type N = chromatic::Node<u64, u64, cbat_core::version::VersionSlot<u64, u64, Aug>>;
        fn walk(n: &N, out: &mut Vec<Vec<u64>>, guard: &ebr::Guard) {
            if n.is_leaf() {
                if !n.is_empty() {
                    out.push(n.entries().iter().map(|(k, _)| *k).collect());
                }
                return;
            }
            walk(n.left(guard), out, guard);
            walk(n.right(guard), out, guard);
        }
        let guard = ebr::pin();
        let mut out = Vec::new();
        walk(self.map.node_tree().entry(), &mut out, &guard);
        out
    }

    /// Count, sum and the in-order `FirstLast` fold of `[lo, hi]`.
    fn expected(&self, lo: u64, hi: u64) -> (u64, u64, Option<(u64, u64)>) {
        if lo > hi {
            return (0, 0, None);
        }
        self.oracle
            .range(lo..=hi)
            .fold((0, 0, None), |(n, sum, fl), (&k, &v)| {
                (
                    n + 1,
                    sum + v,
                    FirstLast::combine(&fl, &FirstLast::leaf(&k, &v)),
                )
            })
    }

    fn check(&self, lo: u64, hi: u64) {
        let snap = self.map.snapshot();
        let (n, sum, fl) = self.expected(lo, hi);
        let name = self.name;
        assert_eq!(snap.range_count(&lo, &hi), n, "{name}: count [{lo}, {hi}]");
        assert_eq!(
            snap.range_aggregate(&lo, &hi),
            (sum, fl),
            "{name}: aggregate [{lo}, {hi}]"
        );
    }

    fn check_every_range(&self) {
        for lo in 0..=40 {
            for hi in lo..=40 {
                self.check(lo, hi);
            }
        }
    }
}

/// Keys 1..=39 with every third one missing, so in-range bounds are
/// sometimes absent and 0 / 40 lie below the minimum / above the maximum.
fn keys() -> Vec<u64> {
    (1..=39).filter(|k| k % 3 != 0).collect()
}

/// Smallest, largest, second smallest, second largest, ...
fn zigzag(sorted: &[u64]) -> Vec<u64> {
    let (mut i, mut j) = (0, sorted.len());
    let mut out = Vec::with_capacity(sorted.len());
    while i < j {
        out.push(sorted[i]);
        i += 1;
        if i < j {
            j -= 1;
            out.push(sorted[j]);
        }
    }
    out
}

/// Every other key, so the deletes rotate the paths the walk takes.
fn halve(sorted: &[u64]) -> Vec<u64> {
    sorted.iter().copied().step_by(2).collect()
}

fn shapes<const B: usize>() -> Vec<Shape<B>> {
    let sorted = keys();
    let zig = zigzag(&sorted);
    let mut reversed = sorted.clone();
    reversed.reverse();
    vec![
        Shape::build("sorted", &sorted, &[]),
        Shape::build("zigzag", &zig, &[]),
        Shape::build("reversed", &reversed, &[]),
        Shape::build("sorted-halved", &sorted, &halve(&sorted)),
        Shape::build("zigzag-halved", &zig, &halve(&zig)),
        Shape::build("single", &[17], &[]),
    ]
}

/// Run `test` with one key per leaf, at `SMALL_FAT` and at the shipped
/// leaf capacity.
macro_rules! at_every_capacity {
    ($test:ident) => {
        $test::<1>();
        $test::<SMALL_FAT>();
        $test::<LEAF_KEYS>();
    };
}

fn every_range<const B: usize>() {
    for shape in shapes::<B>() {
        shape.check_every_range();
    }
}

#[test]
fn every_range_over_every_shape_matches_the_oracle() {
    at_every_capacity!(every_range);
}

/// Bounds inside one fat leaf, and in two different ones: the walk must
/// take a run of each boundary leaf and nothing else of it.
#[test]
fn fat_leaf_boundaries() {
    let mut inside_one = 0;
    let mut across = 0;
    for shape in shapes::<SMALL_FAT>() {
        let leaves = shape.leaves();
        for leaf in &leaves {
            if let [first, .., last] = leaf[..] {
                shape.check(first + 1, last - 1);
                shape.check(first, last);
                shape.check(first + 1, last);
                inside_one += (leaf.len() >= 3) as u32;
            }
        }
        for pair in leaves.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.len() >= 2 && b.len() >= 2 {
                shape.check(a[1], b[b.len() - 2]);
                shape.check(a[a.len() - 1], b[0]);
                across += 1;
            }
        }
    }
    assert!(inside_one > 0 && across > 0, "the shapes have fat leaves");
}

fn empty_ranges<const B: usize>() {
    let empty = Shape::<B>::build("empty", &[], &[]);
    empty.check_every_range();
    empty.check(0, u64::MAX);
    let emptied = Shape::<B>::build("emptied", &keys(), &keys());
    emptied.check_every_range();
    emptied.check(0, u64::MAX);
}

#[test]
fn empty_map_has_empty_ranges() {
    at_every_capacity!(empty_ranges);
}

fn reversed_bounds<const B: usize>() {
    for shape in shapes::<B>() {
        for (lo, hi) in [(1, 0), (40, 1), (20, 19), (u64::MAX, 0)] {
            let snap = shape.map.snapshot();
            assert_eq!(snap.range_count(&lo, &hi), 0, "{}", shape.name);
            assert_eq!(snap.range_aggregate(&lo, &hi), (0, None), "{}", shape.name);
        }
    }
}

#[test]
fn reversed_bounds_are_empty() {
    at_every_capacity!(reversed_bounds);
}

fn single_keys<const B: usize>() {
    let shape = Shape::<B>::build("sorted", &keys(), &[]);
    let snap = shape.map.snapshot();
    // Present: 4 (and 1, the minimum, and 38, the maximum).
    for k in [1, 4, 38] {
        assert_eq!(snap.range_count(&k, &k), 1, "{k}");
        assert_eq!(snap.range_aggregate(&k, &k), (value_of(k), Some((k, k))));
    }
    // Absent: inside the key range, below the minimum and above the maximum.
    for k in [3, 0, 39, 40] {
        assert_eq!(snap.range_count(&k, &k), 0, "{k}");
        assert_eq!(snap.range_aggregate(&k, &k), (0, None), "{k}");
    }
}

#[test]
fn single_key_ranges() {
    at_every_capacity!(single_keys);
}

fn outside_bounds<const B: usize>() {
    for shape in shapes::<B>() {
        let (&min, &max) = (
            shape.oracle.keys().next().unwrap(),
            shape.oracle.keys().next_back().unwrap(),
        );
        shape.check(0, min - 1);
        shape.check(max + 1, 40);
        shape.check(0, 40);
        shape.check(min, max);
    }
}

#[test]
fn bounds_outside_the_keys() {
    at_every_capacity!(outside_bounds);
}

/// `u64::MAX` is the largest real key, and real keys sort below the
/// `Inf1`/`Inf2` sentinels, so `hi = u64::MAX` routes left of them.
fn top_of_the_key_space<const B: usize>() {
    for shape in shapes::<B>() {
        for lo in 0..=40 {
            shape.check(lo, u64::MAX);
        }
        shape.check(u64::MAX, u64::MAX);
    }
    let top = [0, 1, u64::MAX - 2, u64::MAX - 1, u64::MAX];
    for (name, removes) in [("top", &[][..]), ("top-halved", &[1, u64::MAX - 1][..])] {
        let shape = Shape::<B>::build(name, &top, removes);
        for lo in top.iter().chain(&[2, u64::MAX - 3]) {
            for hi in top.iter().chain(&[2, u64::MAX - 3]) {
                shape.check(*lo, *hi);
            }
        }
    }
}

#[test]
fn top_of_the_key_space_against_the_sentinels() {
    at_every_capacity!(top_of_the_key_space);
}
