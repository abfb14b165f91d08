//! Thread exhaustion: the EBR thread table has `MAX_THREADS` slots. One
//! more concurrent thread gets a clean panic naming the limit, not a wedge
//! or a slot shared with another thread, and once the holders exit their
//! slots serve new threads.
//!
//! This file deliberately holds a single `#[test]`, and its body's own
//! thread never calls into `ebr`: the table is process-global, and any
//! other registered thread would take one of the slots the test fills.

use std::panic;
use std::sync::{Arc, Barrier};
use std::thread;

use ebr::MAX_THREADS;

/// Enough for a pin and a barrier wait; keeps 257 threads small.
const STACK: usize = 256 << 10;

fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> thread::JoinHandle<T> {
    thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn a test thread")
}

#[test]
fn one_thread_past_the_limit_panics_then_slots_are_reused() {
    // Every holder, and this thread, meet at `full` once all the slots are
    // taken, and again at `release` once the extra thread has been refused.
    let full = Arc::new(Barrier::new(MAX_THREADS + 1));
    let release = Arc::new(Barrier::new(MAX_THREADS + 1));
    let holders: Vec<_> = (0..MAX_THREADS)
        .map(|_| {
            let (full, release) = (full.clone(), release.clone());
            spawn(move || {
                let guard = ebr::pin();
                full.wait();
                release.wait();
                drop(guard);
            })
        })
        .collect();
    full.wait();

    let refused = spawn(|| {
        panic::catch_unwind(|| drop(ebr::pin()))
            .expect_err("a pin past MAX_THREADS must panic")
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    })
    .join()
    .expect("the panic stays inside catch_unwind");
    assert!(
        refused.contains("more than 256 concurrent threads"),
        "unexpected panic message: {refused}"
    );

    release.wait();
    for h in holders {
        h.join().expect("a holder exits cleanly");
    }

    // Every slot is free again: a new thread registers and pins normally.
    let id = spawn(|| {
        let _guard = ebr::pin();
        ebr::thread_id()
    })
    .join()
    .expect("a pin after the holders exit succeeds");
    assert!(id < MAX_THREADS);
}
