//! End-to-end serving demo: a small fanout forest behind bounded
//! request rings, driven by pipelined clients at a stepped offered
//! load. Prints per-class completion/rejection counts, tail
//! latencies, the lease-renewal count, and how often the analytics
//! worker found a whole lease period idle and parked.
//!
//! Run with `cargo run --release -p serve --example serve`.

use std::time::Duration;

use serve::{build_forest, Class, ClassMix, ServeConfig};

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    sorted[idx]
}

fn main() {
    let shards = 2;
    let set = build_forest(shards, 1 << 14, 1 << 16);
    println!("forest: {} shards, {} keys", shards, set.len());
    println!(
        "{:>10} {:>9} {:>7} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "offered", "done/s", "rej", "p50us", "p99us", "p999us", "lease", "parks"
    );
    for offered in [10_000u64, 50_000, 0] {
        let cfg = ServeConfig {
            clients: 2,
            window: 16,
            duration: Duration::from_millis(300),
            offered_rps: offered,
            mix: ClassMix {
                stat_pm: 150,
                range_pm: 50,
            },
            max_key: 1 << 16,
            lease: Duration::from_millis(10),
            ..ServeConfig::default()
        };
        let rep = serve::run_serve(&set, &cfg);
        let mut all: Vec<u64> = rep
            .classes
            .iter()
            .flat_map(|c| c.samples.iter().copied())
            .collect();
        all.sort_unstable();
        println!(
            "{:>10} {:>9.0} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>6} {:>6}",
            if offered == 0 {
                "open".to_string()
            } else {
                offered.to_string()
            },
            rep.rps(),
            rep.rejected(),
            pct(&all, 0.50) as f64 / 1e3,
            pct(&all, 0.99) as f64 / 1e3,
            pct(&all, 0.999) as f64 / 1e3,
            rep.lease_renewals,
            rep.parks,
        );
        for class in [Class::Point, Class::Stat, Class::Range] {
            let c = &rep.classes[class as usize];
            let mut s = c.samples.clone();
            s.sort_unstable();
            println!(
                "  {:>8} {:>9} done {:>7} rej   p99 {:>8.1}us",
                format!("{class:?}"),
                c.completed,
                c.rejected,
                pct(&s, 0.99) as f64 / 1e3,
            );
        }
    }
    ebr::flush();
}
