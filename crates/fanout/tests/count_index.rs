//! The snapshot-scoped subtree-count index against an oracle frozen at
//! snapshot time: a *held* snapshot must keep answering `len` / `rank` /
//! `select` / `range_count` / `contains` for its own cut — first cold
//! (filling the index), then warm (from it) — while the live set is
//! churned underneath it hard enough to split leaves and grow levels.

use std::collections::BTreeSet;

use fanout::{FanoutSet, FanoutSnapshot};
use workloads::Xorshift;

/// Keys are drawn below this, plus the two ends of the `u64` domain.
const DOMAIN: u64 = 1 << 20;

/// One pass of every query over `probes` against `frozen`. The query kinds
/// rotate per probe, so across a pass each kind is the one that first
/// meets (and fills) some still-cold subtree.
fn check(what: &str, snap: &FanoutSnapshot<'_>, frozen: &BTreeSet<u64>, probes: &[u64]) {
    let sorted: Vec<u64> = frozen.iter().copied().collect();
    let n = sorted.len() as u64;
    let rank = |k: u64| sorted.partition_point(|&x| x <= k) as u64;
    for (j, &k) in probes.iter().enumerate() {
        // About half of these pairs have `lo > hi`.
        let (lo, hi) = (k, probes[(j + 1) % probes.len()]);
        for q in 0..4 {
            match (q + j) % 4 {
                0 => assert_eq!(snap.rank(k), rank(k), "{what}: rank({k})"),
                1 => {
                    let i = k % (n + 1);
                    assert_eq!(
                        snap.select(i),
                        sorted.get(i as usize).copied(),
                        "{what}: select({i}) of {n}"
                    );
                }
                2 => {
                    let want = if lo <= hi {
                        frozen.range(lo..=hi).count() as u64
                    } else {
                        0
                    };
                    assert_eq!(
                        snap.range_count(lo, hi),
                        want,
                        "{what}: range_count({lo}, {hi})"
                    );
                    if lo <= hi {
                        let below = lo.checked_sub(1).map_or(0, |b| snap.rank(b));
                        assert_eq!(
                            want,
                            snap.rank(hi) - below,
                            "{what}: range_count({lo}, {hi}) vs rank difference"
                        );
                    }
                }
                _ => assert_eq!(
                    snap.contains(k),
                    frozen.contains(&k),
                    "{what}: contains({k})"
                ),
            }
        }
    }
    assert_eq!(snap.len(), n, "{what}: len");
    assert_eq!(snap.is_empty(), n == 0, "{what}: is_empty");
    assert_eq!(snap.select(n), None, "{what}: select(len)");
    assert_eq!(snap.select(u64::MAX), None, "{what}: select(MAX)");
    assert_eq!(snap.range_count(0, u64::MAX), n, "{what}: whole domain");
    assert_eq!(snap.rank(u64::MAX), n, "{what}: rank(MAX)");
    assert_eq!(snap.range_count(1, 0), 0, "{what}: lo > hi");
    if let (Some(&min), Some(&max)) = (sorted.first(), sorted.last()) {
        assert_eq!(snap.select(0), Some(min), "{what}: select(0)");
        assert_eq!(snap.select(n - 1), Some(max), "{what}: select(len - 1)");
        assert_eq!(snap.range_count(0, max), n, "{what}: [0, max]");
        assert_eq!(snap.range_count(min, u64::MAX), n, "{what}: [min, MAX]");
    }
}

/// Remove about half of what is there and insert `inserts` new keys.
fn churn(set: &FanoutSet, live: &mut BTreeSet<u64>, rng: &mut Xorshift, inserts: usize) {
    let doomed: Vec<u64> = live.iter().copied().step_by(2).collect();
    for k in doomed {
        assert!(set.remove(k));
        live.remove(&k);
    }
    for _ in 0..inserts {
        let k = rng.below(DOMAIN);
        assert_eq!(set.insert(k), live.insert(k));
    }
}

/// `initial` keys (plus, unless that is none, the two ends of the key
/// domain), a snapshot in the given shape, then: churn, a cold pass, more
/// churn, a warm pass — both passes against the oracle as it stood when
/// the snapshot was taken.
fn held_snapshot_answers_its_own_cut(initial: usize, leased: bool) {
    let what = format!("initial={initial} leased={leased}");
    let mut rng = Xorshift::new(0xC0_0147 + initial as u64);
    let set = FanoutSet::new();
    let mut live = BTreeSet::new();
    while live.len() < initial {
        let k = rng.below(DOMAIN);
        assert_eq!(set.insert(k), live.insert(k));
    }
    if initial > 0 {
        // Both ends of the key domain, where a bound constrains nothing.
        for k in [0, u64::MAX] {
            assert_eq!(set.insert(k), live.insert(k));
        }
    }

    let frozen = live.clone();
    // The lease shape registers by hand and reads under that registration;
    // `snapshot()` registers for itself.
    let ts = leased.then(|| set.snap_clock().register());
    let snap = match ts {
        Some(ts) => set.snapshot_at(ts),
        None => set.snapshot(),
    };

    let mut probes: Vec<u64> = (0..300).map(|_| rng.below(DOMAIN + DOMAIN / 8)).collect();
    probes.extend(frozen.iter().copied().step_by(frozen.len() / 64 + 1));
    probes.extend([0, 1, DOMAIN, u64::MAX - 1, u64::MAX]);

    // More than LEAF_CAP * NODE_CAP = 256 keys cannot sit under a
    // two-level tree: the live tree outgrows an empty or single-leaf cut
    // by at least two levels, and splits leaves all over a large one.
    churn(&set, &mut live, &mut rng, 3_000);
    check(&format!("{what} cold"), &snap, &frozen, &probes);
    churn(&set, &mut live, &mut rng, 3_000);
    check(&format!("{what} warm"), &snap, &frozen, &probes);

    if let Some(ts) = ts {
        // A second cut at the same leased timestamp, taken after the
        // churn, starts cold and reads the same state.
        let late = set.snapshot_at(ts);
        check(&format!("{what} late cut"), &late, &frozen, &probes);
    }
    drop(snap);
    if leased {
        set.snap_clock().deregister();
    }

    // The index died with its snapshot: a new one sees the churned set.
    let now = set.snapshot();
    check(&format!("{what} after"), &now, &live, &probes);
    drop(now);
    ebr::flush();
}

#[test]
fn empty_cut() {
    for leased in [false, true] {
        held_snapshot_answers_its_own_cut(0, leased);
    }
}

#[test]
fn single_leaf_cut() {
    for leased in [false, true] {
        held_snapshot_answers_its_own_cut(10, leased);
    }
}

#[test]
fn multi_level_cut() {
    // 5000 keys > 16^3: at least four levels.
    for leased in [false, true] {
        held_snapshot_answers_its_own_cut(5_000, leased);
    }
}
