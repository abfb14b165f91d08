//! Bounded memory: blocks that threads free, or leave behind when they
//! exit, are what later threads allocate from — the pool's arena stops
//! growing once the first round of a repeating workload has stocked it.
//!
//! A counting global allocator sees every chunk the arena takes (2 MiB
//! each, through `std::alloc`). Two shapes of churn run in rounds, each on
//! fresh threads, and after each shape's first round no further request
//! of 2 MiB or more may reach the allocator: a thread that exits without
//! returning its free lists, or a list over the cap whose overflow does
//! not reach other threads, makes later rounds carve new memory.
//!
//! This file deliberately holds a single `#[test]`: the libtest harness
//! runs tests of one binary on multiple threads, and any concurrent test
//! would pollute the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use ebr::pool::{alloc_pooled, dispose_pooled, MAX_PER_CLASS};

/// Requests at least as large as one of the arena's chunks.
const CHUNK: usize = 2 << 20;

struct CountingAlloc;

static CHUNKS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if l.size() >= CHUNK {
            CHUNKS.fetch_add(1, Ordering::SeqCst);
        }
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `round` `rounds` times; every chunk request after the first round
/// fails the test.
fn chunks_stop_after_the_first_round(what: &str, rounds: usize, round: impl Fn()) {
    round();
    let stocked = CHUNKS.load(Ordering::SeqCst);
    for r in 1..rounds {
        round();
        assert_eq!(
            CHUNKS.load(Ordering::SeqCst),
            stocked,
            "{what}: round {r} took a new chunk from the allocator"
        );
    }
}

#[test]
fn the_arena_stops_growing_after_the_first_round() {
    // 200 short-lived threads, one after another, each allocating 10 000
    // one-line blocks and then disposing them all: each list overflows
    // into the depot, and each exit returns the rest.
    chunks_stop_after_the_first_round("sequential threads", 200, || {
        thread::spawn(|| {
            let blocks: Vec<_> = (0..10_000u64).map(|i| alloc_pooled([i; 8])).collect();
            for b in blocks {
                unsafe { dispose_pooled(b) };
            }
        })
        .join()
        .unwrap();
    });

    // A producer allocates 3 × MAX_PER_CLASS 256-byte blocks (a class of
    // its own) and a consumer disposes them: every block changes threads,
    // so only the depot can bring it back to the next producer.
    chunks_stop_after_the_first_round("producer/consumer", 10, || {
        let produced: Vec<u64> = thread::spawn(|| {
            (0..3 * MAX_PER_CLASS as u64)
                .map(|i| alloc_pooled([i; 32]) as u64)
                .collect()
        })
        .join()
        .unwrap();
        thread::spawn(move || {
            for b in produced {
                unsafe { dispose_pooled(b as *mut [u64; 32]) };
            }
        })
        .join()
        .unwrap();
    });
}
