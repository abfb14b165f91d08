//! Property-based tests: random op sequences against `BTreeMap`/`BTreeSet`
//! oracles for every tree in the workspace, plus structural and query
//! invariants.
//!
//! Driven by the deterministic xorshift generator from `workloads::rng`
//! (not the external `proptest` crate, which this environment does not
//! vendor): every case derives from a fixed seed, so the suite runs
//! unconditionally and failures reproduce exactly. Every BAT case runs with
//! one key per leaf, at [`SMALL_FAT`] and at the shipped leaf capacity.

use std::collections::{BTreeMap, BTreeSet};

use cbat::workloads::Xorshift;
use cbat::{BatMap, BatSet, DelegationPolicy, SizeOnly, SumAug, LEAF_KEYS};

/// A fat-leaf capacity at which a case's few hundred keys span many
/// leaves; at the shipped capacity they fill only a handful.
const SMALL_FAT: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Contains(u64),
    Rank(u64),
    Select(u64),
    RangeCount(u64, u64),
    RangeSum(u64, u64),
    Len,
}

fn random_op(rng: &mut Xorshift) -> Op {
    match rng.below(8) {
        0 => Op::Insert(rng.below(512), rng.below(1 << 16)),
        1 => Op::Remove(rng.below(512)),
        2 => Op::Contains(rng.below(512)),
        3 => Op::Rank(rng.below(512)),
        4 => Op::Select(rng.below(1 << 16)),
        5 => Op::RangeCount(rng.below(512), rng.below(512)),
        6 => Op::RangeSum(rng.below(512), rng.below(512)),
        _ => Op::Len,
    }
}

fn random_ops(seed: u64, max_len: u64) -> Vec<Op> {
    let mut rng = Xorshift::new(seed);
    let len = 1 + rng.below(max_len) as usize;
    (0..len).map(|_| random_op(&mut rng)).collect()
}

fn oracle_rank(oracle: &BTreeMap<u64, u64>, k: u64) -> u64 {
    oracle.range(..=k).count() as u64
}

fn check<const B: usize>(map: &BatMap<u64, u64, SumAug, B>, ops: &[Op]) {
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let expect = !oracle.contains_key(&k);
                if expect {
                    oracle.insert(k, v);
                }
                assert_eq!(map.insert(k, v), expect);
            }
            Op::Remove(k) => {
                assert_eq!(map.remove(&k), oracle.remove(&k).is_some());
            }
            Op::Contains(k) => {
                assert_eq!(map.contains(&k), oracle.contains_key(&k));
                assert_eq!(map.get(&k), oracle.get(&k).copied());
            }
            Op::Rank(k) => {
                assert_eq!(map.rank(&k), oracle_rank(&oracle, k));
            }
            Op::Select(i) => {
                let expect = oracle.iter().nth(i as usize).map(|(k, v)| (*k, *v));
                assert_eq!(map.select(i), expect);
            }
            Op::RangeCount(a, b) => {
                let (lo, hi) = (a.min(b), a.max(b));
                let expect = oracle.range(lo..=hi).count() as u64;
                assert_eq!(map.range_count(&lo, &hi), expect);
            }
            Op::RangeSum(a, b) => {
                let (lo, hi) = (a.min(b), a.max(b));
                let expect: u64 = oracle.range(lo..=hi).map(|(_, v)| *v).sum();
                assert_eq!(map.range_aggregate(&lo, &hi), expect);
            }
            Op::Len => {
                assert_eq!(map.len(), oracle.len() as u64);
            }
        }
    }
    // Final full-state comparison.
    let snap = map.snapshot();
    let got: Vec<(u64, u64)> = snap.iter().collect();
    let want: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(got, want);
}

fn bat_matches_btreemap_at<const B: usize>() {
    for case in 0..48u64 {
        let map = BatMap::<u64, u64, SumAug, B>::new();
        check(&map, &random_ops(0xBA7_0001 ^ case, 300));
        map.node_tree()
            .validate(true)
            .expect("chromatic invariants");
    }
}

#[test]
fn bat_matches_btreemap() {
    bat_matches_btreemap_at::<1>();
    bat_matches_btreemap_at::<SMALL_FAT>();
    bat_matches_btreemap_at::<LEAF_KEYS>();
}

fn bat_del_matches_btreemap_at<const B: usize>() {
    for case in 0..32u64 {
        let map = BatMap::<u64, u64, SumAug, B>::with_policy(DelegationPolicy::Del);
        check(&map, &random_ops(0xBA7_0002 ^ case, 200));
    }
}

#[test]
fn bat_del_matches_btreemap() {
    bat_del_matches_btreemap_at::<1>();
    bat_del_matches_btreemap_at::<SMALL_FAT>();
    bat_del_matches_btreemap_at::<LEAF_KEYS>();
}

fn frbst_matches_btreemap_at<const B: usize>() {
    for case in 0..32u64 {
        let map = BatMap::<u64, u64, SumAug, B>::new_unbalanced();
        check(&map, &random_ops(0xBA7_0003 ^ case, 200));
    }
}

#[test]
fn frbst_matches_btreemap() {
    frbst_matches_btreemap_at::<1>();
    frbst_matches_btreemap_at::<SMALL_FAT>();
    frbst_matches_btreemap_at::<LEAF_KEYS>();
}

#[test]
fn vcas_matches_btreeset() {
    for case in 0..32u64 {
        let set = cbat::vcas::VcasSet::new();
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        for op in &random_ops(0xBA7_0005 ^ case, 200) {
            match *op {
                Op::Insert(k, _) => {
                    assert_eq!(set.insert(k), oracle.insert(k));
                }
                Op::Remove(k) => {
                    assert_eq!(set.remove(k), oracle.remove(&k));
                }
                Op::Contains(k) => {
                    assert_eq!(set.contains(k), oracle.contains(&k));
                }
                Op::RangeCount(a, b) => {
                    let (lo, hi) = (a.min(b), a.max(b));
                    let snap = set.snapshot();
                    assert_eq!(
                        snap.range_count(lo, hi),
                        oracle.range(lo..=hi).count() as u64
                    );
                }
                Op::Rank(k) => {
                    assert_eq!(set.snapshot().rank(k), oracle.range(..=k).count() as u64);
                }
                _ => {}
            }
        }
        let want: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(set.snapshot().range_collect(0, u64::MAX - 2), want);
    }
}

#[test]
fn fanout_matches_btreeset() {
    for case in 0..32u64 {
        let set = cbat::fanout::FanoutSet::new();
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        for op in &random_ops(0xBA7_0006 ^ case, 250) {
            match *op {
                Op::Insert(k, _) => {
                    assert_eq!(set.insert(k), oracle.insert(k));
                }
                Op::Remove(k) => {
                    assert_eq!(set.remove(k), oracle.remove(&k));
                }
                Op::Contains(k) => {
                    assert_eq!(set.contains(k), oracle.contains(&k));
                }
                Op::RangeCount(a, b) => {
                    let (lo, hi) = (a.min(b), a.max(b));
                    assert_eq!(
                        set.snapshot().range_count(lo, hi),
                        oracle.range(lo..=hi).count() as u64
                    );
                }
                _ => {}
            }
        }
        let want: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(set.snapshot().range_collect(0, u64::MAX), want);
    }
}

#[test]
fn chromatic_invariants_hold_for_any_sequence() {
    for case in 0..32u64 {
        let mut rng = Xorshift::new(0xBA7_0007 ^ case);
        let len = 1 + rng.below(400);
        let set = cbat::chromatic::ChromaticSet::<u64>::new();
        let mut oracle = BTreeSet::new();
        for _ in 0..len {
            let k = rng.below(256);
            if rng.below(2) == 0 {
                assert_eq!(set.insert(k), oracle.insert(k));
            } else {
                assert_eq!(set.remove(&k), oracle.remove(&k));
            }
        }
        let shape = set.tree().validate(true).expect("invariants");
        assert_eq!(shape.keys, oracle.len());
        let want: Vec<u64> = oracle.iter().copied().collect();
        assert_eq!(set.collect_keys(), want);
    }
}

fn rank_select_duality_at<const B: usize>() {
    for case in 0..24u64 {
        let mut rng = Xorshift::new(0xBA7_0008 ^ case);
        let keys: BTreeSet<u64> = (0..1 + rng.below(200))
            .map(|_| rng.below(1 << 16))
            .collect();
        let set = BatSet::<u64, SizeOnly, B>::new();
        for &k in &keys {
            set.insert(k);
        }
        let n = set.len();
        assert_eq!(n, keys.len() as u64);
        let snap = set.snapshot();
        for i in 0..n {
            let k = snap.select(i).map(|(k, _)| k).unwrap();
            assert_eq!(snap.rank(&k), i + 1);
            assert_eq!(snap.rank_exclusive(&k), i);
        }
    }
}

#[test]
fn rank_select_duality() {
    rank_select_duality_at::<1>();
    rank_select_duality_at::<SMALL_FAT>();
    rank_select_duality_at::<LEAF_KEYS>();
}

fn snapshot_frozen_under_any_later_ops_at<const B: usize>() {
    for case in 0..24u64 {
        let mut rng = Xorshift::new(0xBA7_0009 ^ case);
        let initial: BTreeSet<u64> = (0..1 + rng.below(100))
            .map(|_| rng.below(1 << 16))
            .collect();
        let set = BatSet::<u64, SizeOnly, B>::new();
        for &k in &initial {
            set.insert(k);
        }
        let snap = set.snapshot();
        for _ in 0..1 + rng.below(100) {
            let k = rng.below(1 << 16);
            if rng.below(2) == 0 {
                set.insert(k);
            } else {
                set.remove(&k);
            }
        }
        let want: Vec<u64> = initial.iter().copied().collect();
        assert_eq!(snap.keys(), want);
    }
}

#[test]
fn snapshot_frozen_under_any_later_ops() {
    snapshot_frozen_under_any_later_ops_at::<1>();
    snapshot_frozen_under_any_later_ops_at::<SMALL_FAT>();
    snapshot_frozen_under_any_later_ops_at::<LEAF_KEYS>();
}
