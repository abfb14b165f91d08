//! Focused tests of Propagate's guarantees (paper §4.1): information
//! about every update reaches the root before the update returns, under
//! all three variants, including after rotations rewrote the path.
//!
//! Every test runs with one key per leaf and at the shipped leaf capacity.
//! The ones whose few hundred keys fill only a handful of shipped leaves
//! also run at [`SMALL_FAT`], where the same keys split, patch and
//! rebalance many fat leaves.

use cbat_core::{BatMap, DelegationPolicy, SizeOnly, LEAF_KEYS};

/// A fat-leaf capacity small enough that every test's keys span many
/// leaves.
const SMALL_FAT: usize = 4;

fn policies() -> Vec<DelegationPolicy> {
    vec![
        DelegationPolicy::None,
        DelegationPolicy::Del,
        DelegationPolicy::EagerDel,
    ]
}

/// After any single update returns, the root version reflects it — the
/// linearization guarantee, checked op by op.
fn every_update_visible_at_return_at<const B: usize>() {
    for policy in policies() {
        let m = BatMap::<u64, (), SizeOnly, B>::with_policy(policy);
        let mut expect = 0u64;
        for k in 0..512u64 {
            assert!(m.insert(k, ()));
            expect += 1;
            assert_eq!(m.len(), expect, "{} after insert {k}", policy.name());
            assert!(m.contains(&k), "insert {k} not visible at return");
        }
        for k in (0..512u64).rev().step_by(2) {
            assert!(m.remove(&k));
            expect -= 1;
            assert_eq!(m.len(), expect, "{} after remove {k}", policy.name());
            assert!(!m.contains(&k), "remove {k} not visible at return");
        }
    }
}

#[test]
fn every_update_visible_at_return() {
    every_update_visible_at_return_at::<1>();
    every_update_visible_at_return_at::<SMALL_FAT>();
    every_update_visible_at_return_at::<LEAF_KEYS>();
}

/// Rotation-heavy insertion orders (sorted runs) force Propagate to
/// re-descend onto freshly rotated patches with nil versions; sizes must
/// never go stale.
fn rotations_do_not_lose_arrivals_at<const B: usize>() {
    for policy in policies() {
        let m = BatMap::<u64, (), SizeOnly, B>::with_policy(policy);
        // Sorted + reverse-sorted runs = constant rebalancing.
        for k in 0..1_000u64 {
            m.insert(k, ());
            assert_eq!(m.len(), k + 1, "{}", policy.name());
        }
        for k in (1_000..2_000u64).rev() {
            m.insert(k, ());
        }
        assert_eq!(m.len(), 2_000);
        assert!(m.node_tree().stats.total_rebalances() > 0);
        // Every key is present in the final snapshot.
        let snap = m.snapshot();
        for k in 0..2_000u64 {
            assert!(snap.contains(&k), "lost key {k}");
        }
    }
}

#[test]
fn rotations_do_not_lose_arrivals() {
    rotations_do_not_lose_arrivals_at::<1>();
    rotations_do_not_lose_arrivals_at::<SMALL_FAT>();
    rotations_do_not_lose_arrivals_at::<LEAF_KEYS>();
}

/// A failed update (duplicate insert / absent delete) must not return
/// before any update it may have observed has arrived at the root — the
/// paper's subtle requirement (§4's pseudocode discussion) — whether the
/// root already answers it or it propagates.
fn failed_updates_propagate_others_work_at<const B: usize>() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    for policy in policies() {
        let m = Arc::new(BatMap::<u64, (), SizeOnly, B>::with_policy(policy));
        for k in 0..64u64 {
            m.insert(k, ());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let churner = {
            let m = m.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % 64;
                    m.remove(&k);
                    m.insert(k, ());
                    i += 1;
                }
            })
        };
        // Failed ops on a disjoint key range must still return sane sizes
        // (each one the root answers, or propagates whatever is in flight
        // on its path).
        for _ in 0..2_000 {
            assert!(!m.remove(&1_000));
            assert!(!m.contains(&1_000));
            let n = m.len();
            assert!(n <= 64, "size overshoot: {n}");
        }
        stop.store(true, Ordering::SeqCst);
        churner.join().unwrap();
        assert_eq!(m.len(), 64);
        ebr::flush();
    }
}

#[test]
fn failed_updates_propagate_others_work() {
    failed_updates_propagate_others_work_at::<1>();
    failed_updates_propagate_others_work_at::<SMALL_FAT>();
    failed_updates_propagate_others_work_at::<LEAF_KEYS>();
}

/// Work-counter sanity: propagates visit O(height) nodes on a balanced
/// tree and Θ(n)-ish on the unbalanced one under sorted keys — the §7
/// statistic that explains fig5b. Sorted inserts leave half-full leaves,
/// so past `B = 16` the key count grows with `B`: the tree keeps some 500
/// leaves.
fn propagate_path_length_statistics_at<const B: usize>() {
    let bal = BatMap::<u64, (), SizeOnly, B>::new();
    let unb = BatMap::<u64, (), SizeOnly, B>::new_unbalanced();
    let n = 4_000.max(250 * B as u64);
    for k in 0..n {
        bal.insert(k, ());
        unb.insert(k, ());
    }
    let b = bal.stats.snapshot();
    let u = unb.stats.snapshot();
    let b_avg = b.avg_nodes_per_propagate();
    let u_avg = u.avg_nodes_per_propagate();
    // Balanced: ~height ≈ 2log2(leaves) ≈ 18 to 24. Unbalanced sorted:
    // ~leaves/2.
    assert!(
        b_avg < 60.0,
        "balanced propagate touches too many nodes: {b_avg}"
    );
    assert!(
        u_avg > 10.0 * b_avg,
        "unbalanced/sorted should dwarf balanced: {u_avg} vs {b_avg}"
    );
}

#[test]
fn propagate_path_length_statistics() {
    propagate_path_length_statistics_at::<1>();
    propagate_path_length_statistics_at::<LEAF_KEYS>();
}

/// Nil-version fills happen (rotations create them) but stay rare per
/// update, as §7 reports (0.03–0.075 per propagate, where every update
/// propagates). Here a no-op update the root answers skips its propagate,
/// so the ratio is taken over updates: propagates plus root answers.
fn nil_fills_are_rare_at<const B: usize>() {
    let m = BatMap::<u64, (), SizeOnly, B>::new();
    let mut x = 77u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 4_096;
        if x & 1 == 0 {
            m.insert(k, ());
        } else {
            m.remove(&k);
        }
    }
    let s = m.stats.snapshot();
    let per = s.nil_fixes as f64 / (s.propagates + s.root_answers) as f64;
    assert!(
        per < 1.0,
        "nil fills per update should be well under 1: {per}"
    );
}

#[test]
fn nil_fills_are_rare() {
    nil_fills_are_rare_at::<1>();
    nil_fills_are_rare_at::<SMALL_FAT>();
    nil_fills_are_rare_at::<LEAF_KEYS>();
}

/// A no-op update whose answer the root's version already gives — a
/// duplicate insert, a remove of an absent key — returns without a
/// propagate: it linearizes at its root read, as `Find` does.
fn no_op_answered_by_root_skips_propagate_at<const B: usize>() {
    for policy in policies() {
        let m = BatMap::<u64, (), SizeOnly, B>::with_policy(policy);
        for k in 0..64u64 {
            assert!(m.insert(2 * k, ()));
        }
        let before = m.stats.snapshot();
        assert!(!m.insert(10, ()), "{}", policy.name());
        let d = m.stats.snapshot().delta(&before);
        assert_eq!((d.propagates, d.root_answers), (0, 1), "{}", policy.name());

        let before = m.stats.snapshot();
        assert!(!m.remove(&11), "{}", policy.name());
        let d = m.stats.snapshot().delta(&before);
        assert_eq!((d.propagates, d.root_answers), (0, 1), "{}", policy.name());
        assert_eq!(m.len(), 64);
    }
}

#[test]
fn no_op_answered_by_root_skips_propagate() {
    no_op_answered_by_root_skips_propagate_at::<1>();
    no_op_answered_by_root_skips_propagate_at::<LEAF_KEYS>();
}

/// A no-op update whose answer the root does *not* give yet — the node
/// tree already holds the effect of an update that has not arrived — must
/// propagate before it returns (Fig. 3's reason for propagating failed
/// updates). The bare node-tree op stands in for that update, stalled
/// between its SCX and its propagate.
fn no_op_behind_a_lagging_root_propagates_at<const B: usize>() {
    for policy in policies() {
        let m = BatMap::<u64, (), SizeOnly, B>::with_policy(policy);
        for k in 0..64u64 {
            assert!(m.insert(2 * k, ()));
        }
        // An insert of 11 that has not arrived at the root.
        assert!(m.node_tree().insert(11, (), &ebr::pin()));
        assert!(!m.contains(&11), "the root lags the node tree");
        let before = m.stats.snapshot();
        assert!(!m.insert(11, ()), "{}", policy.name());
        let d = m.stats.snapshot().delta(&before);
        assert_eq!((d.propagates, d.root_answers), (1, 0), "{}", policy.name());
        assert!(
            m.contains(&11),
            "{}: insert of 11 not at the root",
            policy.name()
        );
        assert_eq!(m.len(), 65, "{}", policy.name());

        // A remove of 10 that has not arrived at the root.
        assert!(m.node_tree().delete(&10, &ebr::pin()));
        assert!(m.contains(&10), "the root lags the node tree");
        let before = m.stats.snapshot();
        assert!(!m.remove(&10), "{}", policy.name());
        let d = m.stats.snapshot().delta(&before);
        assert_eq!((d.propagates, d.root_answers), (1, 0), "{}", policy.name());
        assert!(
            !m.contains(&10),
            "{}: remove of 10 not at the root",
            policy.name()
        );
        assert_eq!(m.len(), 64, "{}", policy.name());
    }
}

#[test]
fn no_op_behind_a_lagging_root_propagates() {
    no_op_behind_a_lagging_root_propagates_at::<1>();
    no_op_behind_a_lagging_root_propagates_at::<LEAF_KEYS>();
}
