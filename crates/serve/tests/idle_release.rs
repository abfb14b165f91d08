//! The analytics worker's idle rule, observed from outside: on a run with
//! no analytics requests it gives back its cut and its lease after one
//! lease period, so for the rest of the run the forest clock has no live
//! registration and the process-global epoch is free to move.
//!
//! Keep this a single-test file: the epoch and `ebr::stats()` are
//! process-global, and a sibling test that pins would hold the epoch back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serve::{build_forest, run_serve, ClassMix, ServeConfig};

#[test]
fn idle_worker_releases_lease_and_epoch() {
    let _own = ebr::own_the_global_epoch();
    let set = build_forest(1, 1 << 12, 1 << 14);
    let cfg = ServeConfig {
        clients: 1,
        duration: Duration::from_millis(300),
        mix: ClassMix {
            stat_pm: 0,
            range_pm: 0,
        },
        max_key: 1 << 14,
        lease: Duration::from_millis(10),
        ..ServeConfig::default()
    };

    let done = AtomicBool::new(false);
    let epoch0 = ebr::stats().epoch;
    let started = Instant::now();
    let (rep, registered) = std::thread::scope(|scope| {
        // Readings of the clock's oldest live registration, from the end
        // of the second lease period until `run_serve` is about to stop
        // (stopping wakes the worker, which takes a lease to drain under).
        let poller = scope.spawn(|| {
            let mut registered = Vec::new();
            while !done.load(Ordering::Acquire) {
                let at = started.elapsed();
                if at >= cfg.lease * 2 && at + cfg.lease * 2 <= cfg.duration {
                    let oldest = set.snap_clock().min_active();
                    if oldest != u64::MAX {
                        registered.push((at, oldest));
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            registered
        });
        let rep = run_serve(&set, &cfg);
        done.store(true, Ordering::Release);
        (rep, poller.join().unwrap())
    });
    let epochs = ebr::stats().epoch - epoch0;

    assert_eq!(rep.parks, 1, "one idle period, one park");
    // One lease taken afresh on the wake-up for `stop`, and one more for
    // every lease period the clients then take to notice and finish (none,
    // unless the host stalls them).
    let stopping = Duration::from_secs_f64(rep.secs).saturating_sub(cfg.duration);
    let allowed = 2 + (stopping.as_nanos() / cfg.lease.as_nanos()) as u64;
    assert!(
        rep.lease_renewals <= allowed,
        "an idle worker moved its lease {} times, stopping took {stopping:?}",
        rep.lease_renewals
    );
    assert!(
        registered.is_empty(),
        "a registration was live while the worker had nothing to serve: {registered:?}"
    );
    // A leased cut lets the epoch move about once per lease period (30
    // times here); with none held a debug build moves it some 1 000 times.
    let periods = (cfg.duration.as_nanos() / cfg.lease.as_nanos()) as u64;
    assert!(
        epochs >= 10 * periods,
        "the epoch moved {epochs} times over {periods} lease periods"
    );
    ebr::flush();
}
