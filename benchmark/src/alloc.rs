//! The benchmark binary's counting allocator: the system allocator plus
//! two per-thread counters (calls, bytes requested). Per-thread, not
//! global, so the timed multi-thread phases pay no shared cache line for
//! it, and because allocation counts only repeat exactly on one thread —
//! the cards read their own thread's delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructor: reading these from inside
    // the allocator neither allocates nor touches a torn-down slot.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(bytes: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

/// `(allocation calls, bytes requested)` by the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (
        CALLS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a bump of two
// thread-local `Cell`s, which cannot allocate, unwind or alias the block.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: (contract) the caller passes a non-zero-sized layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: (contract) as for `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out is a `System` block
        // of the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: (contract) `ptr`/`layout` as for `dealloc`, `new_size` > 0.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; the new size is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
