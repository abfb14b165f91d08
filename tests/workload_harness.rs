//! Integration tests for the benchmark harness itself, driven against the
//! real trees: the measurements the figures depend on must be sane.

use std::time::Duration;

use cbat::workloads::{self, KeyDist, OpMix, QueryKind, RunConfig};

struct Bat(cbat::BatSet<u64>);

impl workloads::BenchSet for Bat {
    fn insert(&self, k: u64) -> bool {
        self.0.insert(k)
    }
    fn remove(&self, k: u64) -> bool {
        self.0.remove(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.0.contains(&k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        self.0.range_count(&lo, &hi)
    }
    fn rank(&self, k: u64) -> u64 {
        self.0.rank(&k)
    }
    fn select(&self, i: u64) -> Option<u64> {
        self.0.select(i)
    }
    fn name(&self) -> &'static str {
        "BAT"
    }
}

#[test]
fn prefill_hits_half_on_real_tree() {
    let s = Bat(cbat::BatSet::new());
    workloads::prefill(&s, 20_000, 7);
    let n = s.0.len();
    assert!(
        (8_500..11_500).contains(&n),
        "prefill reached {n}, expected ≈10_000"
    );
    // Prefill must leave a balanced tree (bit-reversed order).
    let shape = s.0.as_map().node_tree().validate(true).expect("valid");
    assert!(shape.height <= 2 * 15 + 2, "height {}", shape.height);
    ebr::flush();
}

#[test]
fn mixed_run_produces_expected_op_shares() {
    let s = Bat(cbat::BatSet::new());
    let mut cfg = RunConfig::new(2, 5_000);
    cfg.duration = Duration::from_millis(150);
    cfg.mix = OpMix::percent(10, 10, 40, 40);
    cfg.query = QueryKind::RangeCount { size: 100 };
    let r = workloads::run(&s, &cfg);
    assert!(r.total_ops > 1_000, "too slow: {}", r.total_ops);
    let frac = |i: usize| r.ops[i] as f64 / r.total_ops as f64;
    assert!((0.06..0.14).contains(&frac(0)), "insert share {}", frac(0));
    assert!((0.06..0.14).contains(&frac(1)), "delete share {}", frac(1));
    assert!((0.34..0.46).contains(&frac(2)), "find share {}", frac(2));
    assert!((0.34..0.46).contains(&frac(3)), "query share {}", frac(3));
    ebr::flush();
}

#[test]
fn latency_sampling_reports_positive_values() {
    let s = Bat(cbat::BatSet::new());
    let mut cfg = RunConfig::new(1, 5_000);
    cfg.duration = Duration::from_millis(150);
    cfg.mix = OpMix::percent(25, 25, 0, 50);
    cfg.query = QueryKind::RangeCount { size: 500 };
    let r = workloads::run(&s, &cfg);
    assert!(r.update_latency_ns > 0.0);
    assert!(r.query_latency_ns > 0.0);
    // A 500-key range query must cost more than a point update at this
    // size? Not necessarily — but both must be well under a millisecond
    // on a prefilled 5K tree.
    assert!(r.update_latency_ns < 1e6);
    assert!(r.query_latency_ns < 1e6);
    ebr::flush();
}

#[test]
fn zipf_distribution_contends_on_hot_keys() {
    // A counted property, no wall-clock window: a fixed number of draws
    // from the generator `KeyDist::Zipf(0.99)` runs on, scrambled over the
    // key space as the harness scrambles them, inserted into the real tree.
    const KEYS: u64 = 10_000;
    const DRAWS: u64 = 10_000;
    let s = Bat(cbat::BatSet::new());
    let zipf = workloads::Zipf::new(KEYS, 0.99);
    let mut rng = workloads::Xorshift::new(7);
    for _ in 0..DRAWS {
        s.0.insert(workloads::scramble(zipf.sample(&mut rng), KEYS));
    }
    // Massive key reuse: as many uniform draws as keys would leave 63 % of
    // them distinct; these leave 27 % (2 657, the same on every run).
    let distinct = s.0.len();
    assert!(
        distinct < DRAWS / 2,
        "zipf not skewed enough: {distinct} distinct keys in {DRAWS} draws"
    );
    ebr::flush();
}

#[test]
fn sorted_distribution_drives_spine_growth() {
    // On the unbalanced tree, the sorted stream is adversarial: per-op
    // cost grows, so ops/sec collapses relative to BAT under the same
    // stream — the fig5b mechanism, asserted as a ratio.
    struct Fr(cbat::FrSet<u64>);
    impl workloads::BenchSet for Fr {
        fn insert(&self, k: u64) -> bool {
            self.0.insert(k)
        }
        fn remove(&self, k: u64) -> bool {
            self.0.remove(&k)
        }
        fn contains(&self, k: u64) -> bool {
            self.0.contains(&k)
        }
        fn range_count(&self, lo: u64, hi: u64) -> u64 {
            self.0.range_count(&lo, &hi)
        }
        fn rank(&self, k: u64) -> u64 {
            self.0.rank(&k)
        }
        fn select(&self, i: u64) -> Option<u64> {
            self.0.select(i)
        }
        fn name(&self) -> &'static str {
            "FR-BST"
        }
    }
    let mut cfg = RunConfig::new(1, 1_000_000);
    cfg.duration = Duration::from_millis(250);
    cfg.mix = OpMix::percent(100, 0, 0, 0);
    cfg.dist = KeyDist::Sorted;
    cfg.prefill = false;

    let bat = Bat(cbat::BatSet::new());
    let r_bat = workloads::run(&bat, &cfg);
    let fr = Fr(cbat::FrSet::new());
    let r_fr = workloads::run(&fr, &cfg);
    assert!(
        r_bat.total_ops as f64 > 3.0 * r_fr.total_ops as f64,
        "balancing should win sorted streams: BAT {} vs FR {}",
        r_bat.total_ops,
        r_fr.total_ops
    );
    ebr::flush();
}
