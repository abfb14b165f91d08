//! Rebalancing case coverage: drive workloads engineered to trigger every
//! fix-up kind, and verify the structural invariants survive each.

use chromatic::{ChromaticSet, RebalanceKind};

fn kind_count(set: &ChromaticSet<u64>, kind: RebalanceKind) -> u64 {
    set.tree().stats.snapshot().rebalance_steps[kind as usize]
}

/// Ascending insertions constantly create red-red violations on the right
/// spine: BLK, RB1 (outer) and RootBlacken must all fire.
#[test]
fn sorted_inserts_trigger_redred_cases() {
    let set = ChromaticSet::new();
    for k in 0..8_192u64 {
        set.insert(k);
    }
    set.tree().validate(true).expect("valid");
    assert!(kind_count(&set, RebalanceKind::Blk) > 0, "BLK never fired");
    assert!(kind_count(&set, RebalanceKind::Rb1) > 0, "RB1 never fired");
}

/// Alternating far inserts create inner-grandchild violations: RB2.
#[test]
fn zigzag_inserts_trigger_rb2() {
    let set = ChromaticSet::new();
    // Insert in an order that produces inner grandchildren: high, low,
    // middle patterns.
    let mut keys = Vec::new();
    let mut lo = 0u64;
    let mut hi = 1u64 << 20;
    while lo + 1 < hi {
        keys.push(hi);
        keys.push(lo);
        let mid = (lo + hi) / 2;
        keys.push(mid);
        lo += 1 << 10;
        hi -= 1 << 10;
    }
    for k in keys {
        set.insert(k);
    }
    set.tree().validate(true).expect("valid");
    assert!(kind_count(&set, RebalanceKind::Rb2) > 0, "RB2 never fired");
}

/// Mass deletion creates overweight violations; PUSH and the rotation
/// cases must fire, and the tree must stay valid throughout.
#[test]
fn deletions_trigger_overweight_cases() {
    let set = ChromaticSet::new();
    const N: u64 = 16_384;
    for k in 0..N {
        set.insert(k);
    }
    // Delete every other key, then every other survivor, etc: maximizes
    // weight concentration.
    let mut step = 2u64;
    while step <= N {
        let mut k = step / 2;
        while k < N {
            set.remove(&k);
            k += step;
        }
        set.tree()
            .validate(true)
            .unwrap_or_else(|e| panic!("step {step}: {e:?}"));
        step *= 2;
    }
    assert!(
        kind_count(&set, RebalanceKind::Push) > 0,
        "PUSH never fired"
    );
    assert!(
        kind_count(&set, RebalanceKind::W7)
            + kind_count(&set, RebalanceKind::WFar) // includes W-near
            > 0,
        "no overweight rotation ever fired"
    );
    assert_eq!(set.collect_keys().len(), 1, "only key 0 survives");
}

/// Random mixed workloads at several sizes: every final tree validates
/// strictly and the height honors the chromatic bound.
#[test]
fn random_mixes_stay_balanced() {
    for (seed, range) in [(1u64, 64u64), (2, 1_024), (3, 65_536)] {
        let set = ChromaticSet::new();
        let mut x = seed;
        let ops = (range * 8).min(80_000);
        for _ in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % range;
            if x & (1 << 33) == 0 {
                set.insert(k);
            } else {
                set.remove(&k);
            }
        }
        let shape = set
            .tree()
            .validate(true)
            .unwrap_or_else(|e| panic!("range {range}: {e:?}"));
        if shape.keys >= 16 {
            let log2 = 64 - (shape.keys as u64).leading_zeros() as usize;
            assert!(
                shape.height <= 2 * log2 + 2,
                "range {range}: height {} exceeds bound for {} keys",
                shape.height,
                shape.keys
            );
        }
    }
}

/// The overweight root is normalized rather than left to accumulate.
#[test]
fn root_weight_stays_bounded() {
    let set = ChromaticSet::new();
    // Repeatedly grow and shrink so deletions push weight to the root.
    for round in 0..6u64 {
        for k in 0..512u64 {
            set.insert(round * 10_000 + k);
        }
        for k in 0..512u64 {
            set.remove(&(round * 10_000 + k));
        }
    }
    set.tree().validate(true).expect("valid at rest");
}

/// Concurrent mixed stress with validation after quiescence, repeated to
/// shake out rare interleavings of the rebalancing SCXs.
#[test]
fn concurrent_rebalance_stress() {
    use std::sync::Arc;
    for round in 0..3u64 {
        let set = Arc::new(ChromaticSet::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let set = set.clone();
                std::thread::spawn(move || {
                    let mut x = round * 1000 + t + 1;
                    for _ in 0..4_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % 256;
                        if x & (1 << 34) == 0 {
                            set.insert(k);
                        } else {
                            set.remove(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let guard = ebr::pin();
        set.tree().cleanup_everywhere(&guard);
        drop(guard);
        set.tree()
            .validate(true)
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        ebr::flush();
    }
}
