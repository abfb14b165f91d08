//! Focused tests of Propagate's guarantees (paper §4.1): information
//! about every update reaches the root before the update returns, under
//! all three variants, including after rotations rewrote the path.

use cbat_core::{BatMap, DelegationPolicy};

fn policies() -> Vec<DelegationPolicy> {
    vec![
        DelegationPolicy::None,
        DelegationPolicy::Del {
            timeout: std::time::Duration::from_millis(1),
        },
        DelegationPolicy::EagerDel {
            timeout: std::time::Duration::from_millis(1),
        },
    ]
}

/// After any single update returns, the root version reflects it — the
/// linearization guarantee, checked op by op.
#[test]
fn every_update_visible_at_return() {
    for policy in policies() {
        let m = BatMap::<u64, ()>::with_policy(policy);
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

/// Rotation-heavy insertion orders (sorted runs) force Propagate to
/// re-descend onto freshly rotated patches with nil versions; sizes must
/// never go stale.
#[test]
fn rotations_do_not_lose_arrivals() {
    for policy in policies() {
        let m = BatMap::<u64, ()>::with_policy(policy);
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

/// A failed update (duplicate insert / absent delete) still propagates:
/// the paper's subtle requirement (§4's pseudocode discussion).
#[test]
fn failed_updates_propagate_others_work() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    for policy in policies() {
        let m = Arc::new(BatMap::<u64, ()>::with_policy(policy));
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
        // (each one runs a full propagate of whatever is in flight).
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

/// Work-counter sanity: propagates visit O(height) nodes on a balanced
/// tree and Θ(n)-ish on the unbalanced one under sorted keys — the §7
/// statistic that explains fig5b.
#[test]
fn propagate_path_length_statistics() {
    let bal = BatMap::<u64, ()>::new();
    let unb = BatMap::<u64, ()>::new_unbalanced();
    const N: u64 = 4_000;
    for k in 0..N {
        bal.insert(k, ());
        unb.insert(k, ());
    }
    let b = bal.stats.snapshot();
    let u = unb.stats.snapshot();
    let b_avg = b.avg_nodes_per_propagate();
    let u_avg = u.avg_nodes_per_propagate();
    // Balanced: ~height ≈ 2log2(4000) ≈ 24. Unbalanced sorted: ~n/2.
    assert!(
        b_avg < 60.0,
        "balanced propagate touches too many nodes: {b_avg}"
    );
    assert!(
        u_avg > 10.0 * b_avg,
        "unbalanced/sorted should dwarf balanced: {u_avg} vs {b_avg}"
    );
}

/// Nil-version fills happen (rotations create them) but stay rare per
/// propagate, as §7 reports (0.03–0.075 per call).
#[test]
fn nil_fills_are_rare() {
    let m = BatMap::<u64, ()>::new();
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
    let per = s.avg_nil_fixes_per_propagate();
    assert!(
        per < 1.0,
        "nil fills per propagate should be well under 1: {per}"
    );
}
