//! EBR grace-period semantics under adversarial pin patterns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ebr::pool::{alloc_pooled, retire_pooled};

// Every test here holds `ebr::own_the_global_epoch()` for its whole body:
// `interleaved_pins_never_free_visible_objects` keeps reader pins live,
// which would hold back the frees its siblings assert on.

#[derive(Clone)]
struct Counter(Arc<AtomicUsize>);

struct OnDrop(Counter);
impl Drop for OnDrop {
    fn drop(&mut self) {
        self.0 .0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn objects_retired_under_my_pin_survive_my_pin() {
    let _epoch = ebr::own_the_global_epoch();
    let freed = Counter(Arc::new(AtomicUsize::new(0)));
    let outer = ebr::pin();
    let p = alloc_pooled(OnDrop(freed.clone()));
    unsafe { retire_pooled(&outer, p) };
    // Other threads churn epochs as hard as they can.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..200 {
                    let g = ebr::pin();
                    let junk = alloc_pooled(0u64);
                    unsafe { retire_pooled(&g, junk) };
                    drop(g);
                    ebr::collect();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        freed.0.load(Ordering::SeqCst),
        0,
        "object freed while the retiring pin was still live"
    );
    drop(outer);
    ebr::flush();
    ebr::flush();
    assert_eq!(freed.0.load(Ordering::SeqCst), 1);
}

#[test]
fn interleaved_pins_never_free_visible_objects() {
    let _epoch = ebr::own_the_global_epoch();
    // Writer publishes pooled values; readers hold pins across reads; a
    // freed object would be caught by the canary value check.
    use std::sync::atomic::AtomicPtr;
    const CANARY: u64 = 0xFEEDFACE;
    let slot: Arc<AtomicPtr<u64>> = Arc::new(AtomicPtr::new(alloc_pooled(CANARY)));
    let stop = Arc::new(AtomicUsize::new(0));
    let writer = {
        let slot = slot.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            for _ in 0..5_000 {
                let g = ebr::pin();
                let new = alloc_pooled(CANARY);
                let old = slot.swap(new, Ordering::AcqRel);
                unsafe { retire_pooled(&g, old) };
            }
            stop.store(1, Ordering::SeqCst);
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let slot = slot.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::SeqCst) == 0 {
                    let g = ebr::pin();
                    let p = slot.load(Ordering::Acquire);
                    let v = unsafe { *p };
                    assert_eq!(v, CANARY, "read freed memory");
                    drop(g);
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    // Final cleanup of the last value.
    let last = slot.load(Ordering::Acquire);
    let g = ebr::pin();
    unsafe { retire_pooled(&g, last) };
    drop(g);
    ebr::flush();
}

#[test]
fn stats_are_monotone() {
    let _epoch = ebr::own_the_global_epoch();
    let s0 = ebr::stats();
    {
        let g = ebr::pin();
        for _ in 0..100 {
            let p = alloc_pooled(1u8);
            unsafe { retire_pooled(&g, p) };
        }
    }
    ebr::flush();
    let s1 = ebr::stats();
    assert!(s1.retired >= s0.retired + 100);
    assert!(s1.freed >= s0.freed);
    assert!(s1.epoch >= s0.epoch);
}
