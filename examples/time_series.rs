//! Time series: generic augmentation beyond sizes.
//!
//! A sensor store keyed by timestamp where dashboards ask for *range
//! aggregates*: total energy over an interval (sum), and the min/max
//! reading over an interval — the latter is **not** an abelian-group
//! aggregation (no inverse), so the SP/KYAA-style augmented trees cannot
//! maintain it; BAT's generic augmentation handles it directly (§2).
//!
//! ```sh
//! cargo run --release --example time_series
//! ```

use cbat::{BatMap, MinMaxAug, SumAug};

fn main() {
    // One tree per aggregate (a production system would keep both in one
    // tree with the composite `cbat::PairAug<SumAug, MinMaxAug>`).
    let energy: BatMap<u64, u64, SumAug> = BatMap::new();
    let readings: BatMap<u64, u64, MinMaxAug> = BatMap::new();

    // Ingest a day of per-minute samples from 4 threads (e.g. 4 feeds).
    std::thread::scope(|s| {
        for feed in 0..4u64 {
            let energy = &energy;
            let readings = &readings;
            s.spawn(move || {
                for minute in (feed..1440).step_by(4) {
                    // Synthetic diurnal curve + per-feed phase.
                    let phase = (minute as f64 / 1440.0) * std::f64::consts::TAU;
                    let watts =
                        (800.0 + 600.0 * phase.sin() + (feed as f64) * 13.0).max(10.0) as u64;
                    energy.insert(minute, watts);
                    readings.insert(minute, watts);
                }
            });
        }
    });
    assert_eq!(energy.len(), 1440);

    println!("whole-day  total = {:>9} W-min (O(1))", energy.aggregate());
    println!("whole-day  range = {:?} (O(1))", readings.aggregate());

    for (name, lo, hi) in [
        ("night 00-06", 0u64, 359u64),
        ("morning 06-12", 360, 719),
        ("afternoon 12-18", 720, 1079),
        ("evening 18-24", 1080, 1439),
    ] {
        let total = energy.range_aggregate(&lo, &hi);
        let mm = readings.range_aggregate(&lo, &hi);
        let count = energy.range_count(&lo, &hi);
        println!("{name:<16} samples={count:<4} energy={total:>7} min/max={mm:?}");
        assert_eq!(count, hi - lo + 1);
    }

    // Verify an aggregate against brute force.
    let brute: u64 = energy
        .range_collect(&360, &719)
        .iter()
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(energy.range_aggregate(&360, &719), brute);
    println!("range aggregates verified against brute-force scans");

    // Late data / corrections: remove + reinsert, aggregates follow.
    let before = energy.aggregate();
    energy.remove(&720);
    energy.insert(720, 0); // sensor outage correction
    println!(
        "corrected sample 720: total {} -> {}",
        before,
        energy.aggregate()
    );
    assert!(energy.aggregate() < before);
}
