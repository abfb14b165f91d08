//! EBR-integrated thread-local object pooling.
//!
//! The propagate hot path of the BAT tree allocates one `Version` per
//! refreshed node and (for the delegation variants) one `PropStatus` per
//! update, and retires the objects it replaces through EBR. Round-tripping
//! each of those through the global allocator costs a malloc/free pair per
//! object *and* serializes hot threads on the allocator's shared state.
//!
//! This module short-circuits the round trip: when EBR finishes the grace
//! period for a pooled object it runs the object's destructor but keeps the
//! raw memory on a **thread-local free list** keyed by `(size, align)`.
//! The next [`alloc_pooled`] of any same-layout type pops the list instead
//! of calling `malloc`. In steady state (a warmed-up tree under a
//! stationary workload) the hot path touches the global allocator zero
//! times — see `crates/core/tests/zero_alloc_hot_path.rs` for the
//! counting-allocator proof.
//!
//! Layout-keyed (rather than type-keyed) classing means a `Version<K, V, A>`
//! retired by one tree can be recycled as a `PropStatus` or as a version of
//! a different map — the pool never fragments across generic instantiations
//! that share a layout.
//!
//! Memory returned on a *different* thread than the one that allocated it
//! lands on the freeing thread's list (free lists are strictly
//! thread-local; no cross-thread synchronization). Lists are capped at
//! [`MAX_PER_CLASS`] blocks; overflow and thread exit fall back to the
//! global allocator, so the pool can never hold more than a bounded amount
//! of memory per thread.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::{Cell, RefCell};

use crate::Guard;

/// Maximum recycled blocks kept per `(size, align)` class per thread.
const MAX_PER_CLASS: usize = 4096;

/// Maximum distinct `(size, align)` classes tracked per thread. A real
/// process pools a handful of types (versions, statuses); beyond the cap,
/// new layouts simply bypass the pool.
const MAX_CLASSES: usize = 32;

/// Debug-build poison byte written over every block the pool recycles.
///
/// A use-after-retire has two observable shapes, and the poison catches
/// both early instead of letting the bug corrupt live objects silently:
///
/// * a stale *read* observes `0xDDDD…` garbage — pointer fields become
///   the unmistakable pattern `0xDDDDDDDDDDDDDDDD` (misaligned, never a
///   valid pool address), so the next dereference faults loudly and
///   recognizably rather than walking into a recycled object;
/// * a stale *write* lands in a free-listed block, and the next
///   [`alloc_pooled`] of that class trips the all-bytes-poisoned check
///   below with a panic naming the block.
///
/// Poisoning exists only under `debug_assertions`; release builds recycle
/// blocks untouched.
#[cfg(debug_assertions)]
pub const POISON_BYTE: u8 = 0xDD;

/// Fill a recycled block with [`POISON_BYTE`] (debug builds).
///
/// # Safety
/// `p` must be valid for `size` writable bytes with no live object in
/// them (the block is dead, parked on the free list).
#[cfg(debug_assertions)]
#[inline]
unsafe fn poison_block(p: *mut u8, size: usize) {
    // SAFETY: caller guarantees `p` covers `size` dead writable bytes.
    unsafe { std::ptr::write_bytes(p, POISON_BYTE, size) };
}

/// Verify a block about to leave the free list is still fully poisoned;
/// a mismatch means some thread wrote through a retired pointer.
#[cfg(debug_assertions)]
#[inline]
fn check_poison(p: *mut u8, size: usize) {
    // SAFETY: `p` came off this thread's free list, so it is a live
    // allocation of exactly `size` bytes that only the pool may touch.
    // guard: none needed, a free-listed block is this thread's own.
    let bytes = unsafe { std::slice::from_raw_parts(p, size) };
    if let Some(off) = bytes.iter().position(|&b| b != POISON_BYTE) {
        panic!(
            "ebr::pool: use-after-retire detected: pooled block {p:?} \
             (size {size}) was modified at offset {off} \
             (found {:#04x}, expected poison {POISON_BYTE:#04x}) while on \
             the free list",
            bytes[off]
        );
    }
}

/// Calling thread's pool counters since thread start: `(hits, misses,
/// recycled)`. A *hit* served an allocation from the free list, a *miss*
/// fell through to `malloc`, a *recycle* returned a block to the list.
pub fn local_stats() -> (u64, u64, u64) {
    POOLS
        .try_with(|p| (p.hits.get(), p.misses.get(), p.recycled.get()))
        .unwrap_or((0, 0, 0))
}

/// One layout class's free list. The class table is a linear-scan vector,
/// not a hash map: the hot path does one lookup per alloc *and* per free,
/// and with the handful of classes a process actually pools, scanning a
/// few `(size, align)` pairs is several times cheaper than hashing.
struct Class {
    size: usize,
    align: usize,
    free: Vec<*mut u8>,
}

impl Class {
    fn holds(&self, layout: Layout) -> bool {
        self.size == layout.size() && self.align == layout.align()
    }
}

struct Pools {
    classes: RefCell<Vec<Class>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    recycled: Cell<u64>,
}

impl Drop for Pools {
    fn drop(&mut self) {
        for class in self.classes.get_mut().drain(..) {
            let layout =
                Layout::from_size_align(class.size, class.align).expect("pooled layout is valid");
            for p in class.free {
                // SAFETY: every free-listed block was allocated with this
                // class's layout and holds no live object (destructors ran
                // before `release_memory`).
                unsafe { dealloc(p, layout) };
            }
        }
    }
}

thread_local! {
    static POOLS: Pools = const { Pools {
        classes: RefCell::new(Vec::new()),
        hits: Cell::new(0),
        misses: Cell::new(0),
        recycled: Cell::new(0),
    } };
}

/// # Safety
/// `layout` must have non-zero size (zero-sized layouts never reach the
/// allocator; see `alloc_pooled`).
unsafe fn raw_alloc(layout: Layout) -> *mut u8 {
    // SAFETY: caller guarantees a non-zero-size layout.
    let p = unsafe { alloc(layout) };
    if p.is_null() {
        handle_alloc_error(layout);
    }
    p
}

/// Obtain memory for `layout`, preferring the thread-local free list.
fn acquire_memory(layout: Layout) -> *mut u8 {
    let pooled = POOLS
        .try_with(|pools| {
            // `try_borrow_mut` guards against re-entry from a
            // destructor running inside `release_memory`.
            let mut classes = match pools.classes.try_borrow_mut() {
                Ok(c) => c,
                Err(_) => return None,
            };
            let hit = classes
                .iter_mut()
                .find(|c| c.holds(layout))
                .and_then(|c| c.free.pop());
            match hit {
                Some(p) => {
                    pools.hits.set(pools.hits.get() + 1);
                    Some(p)
                }
                None => {
                    pools.misses.set(pools.misses.get() + 1);
                    None
                }
            }
        })
        .ok()
        .flatten();
    if let Some(p) = pooled {
        #[cfg(debug_assertions)]
        check_poison(p, layout.size());
        return p;
    }
    // SAFETY: callers reach here only with non-zero-size layouts (the
    // zero-size case short-circuits in `alloc_pooled`).
    unsafe { raw_alloc(layout) }
}

/// Write-prefetch the blocks the calling thread's next `n` pool hits of
/// `T`'s layout class will be served from (the free list is LIFO, so its
/// last `n` entries), every line of each. A block parked on the list was
/// last touched a grace period ago and is cold; initialising a new object
/// in it is a store miss, and the CAS that publishes the object is a full
/// fence that waits for the miss to drain. A caller that knows how many
/// objects it is about to allocate starts those misses early, all at once.
/// Pure hint: takes nothing off the list and counts nothing.
pub fn prefetch_free<T>(n: usize) {
    let layout = Layout::new::<T>();
    let _ = POOLS.try_with(|pools| {
        let Ok(classes) = pools.classes.try_borrow() else {
            return;
        };
        if let Some(class) = classes.iter().find(|c| c.holds(layout)) {
            for &block in class.free.iter().rev().take(n) {
                crate::prefetch::<T, true>(block as u64);
            }
        }
    });
}

/// Return a dead block to the calling thread's free list (or the global
/// allocator if the pool is full or mid-teardown).
fn release_memory(p: *mut u8, layout: Layout) {
    let kept = POOLS
        .try_with(|pools| {
            let mut classes = match pools.classes.try_borrow_mut() {
                Ok(c) => c,
                Err(_) => return false,
            };
            let class = match classes.iter_mut().position(|c| c.holds(layout)) {
                Some(i) => &mut classes[i],
                None if classes.len() < MAX_CLASSES => {
                    classes.push(Class {
                        size: layout.size(),
                        align: layout.align(),
                        free: Vec::new(),
                    });
                    classes.last_mut().expect("just pushed")
                }
                None => return false,
            };
            if class.free.len() < MAX_PER_CLASS {
                // SAFETY: `p` is a dead block of exactly this layout,
                // surrendered by the caller.
                #[cfg(debug_assertions)]
                unsafe {
                    poison_block(p, layout.size())
                };
                class.free.push(p);
                pools.recycled.set(pools.recycled.get() + 1);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if kept {
        return;
    }
    // SAFETY: `p` was allocated with `layout` (every block `acquire_memory`
    // hands out originates in the global allocator) and is dead.
    unsafe { dealloc(p, layout) };
}

/// Allocate a `T` from the pool (or the global allocator on a miss) and
/// move `value` into it. The returned pointer is owned by the caller and
/// must eventually be passed to exactly one of [`retire_pooled`],
/// [`retire_pooled_batch`], [`retire_pooled_unpinned`] or
/// [`dispose_pooled`] — never `Box::from_raw` (the memory may be recycled,
/// not freshly malloc'd).
pub fn alloc_pooled<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    let raw = if layout.size() == 0 {
        std::ptr::NonNull::<T>::dangling().as_ptr() as *mut u8
    } else {
        acquire_memory(layout)
    };
    let ptr = raw as *mut T;
    // SAFETY: `raw` is fresh (or recycled-and-dead) memory of `T`'s exact
    // layout, aligned and writable; `write` moves `value` in without
    // reading the (possibly poisoned) old bytes.
    unsafe { ptr.write(value) };
    ptr
}

/// # Safety
/// `p` must point to a live `T` from [`alloc_pooled`] that no other thread
/// can still reach.
unsafe fn drop_and_release<T>(p: *mut u8) {
    let layout = Layout::new::<T>();
    // SAFETY: caller guarantees a live, unreachable `T`; after this the
    // bytes are dead and safe to recycle.
    unsafe { std::ptr::drop_in_place(p as *mut T) };
    if layout.size() != 0 {
        release_memory(p, layout);
    }
}

/// Retire a pool-allocated object through EBR: after the grace period its
/// destructor runs and the memory goes back to the *reclaiming* thread's
/// free list.
///
/// # Safety
/// As for [`Guard::retire_with`], and `ptr` must come from [`alloc_pooled`].
pub unsafe fn retire_pooled<T: Send>(guard: &Guard, ptr: *mut T) {
    // SAFETY: caller upholds the retire contract; `drop_and_release` runs
    // after the grace period, when no pinned thread can still hold `ptr`.
    unsafe { guard.retire_with(ptr as *mut u8, drop_and_release::<T>) };
}

/// [`retire_pooled`] for a list of same-typed objects (raw addresses), at
/// the cost of one retire: see [`Guard::retire_batch_with`].
///
/// # Safety
/// As for [`retire_pooled`], for every element of `ptrs`.
pub unsafe fn retire_pooled_batch<T: Send>(guard: &Guard, ptrs: &[u64]) {
    // SAFETY: caller upholds the retire contract for each pointer; as in
    // `retire_pooled`, `drop_and_release` runs after the grace period.
    unsafe { guard.retire_batch_with(ptrs, drop_and_release::<T>) };
}

/// [`retire_pooled`] without a guard — for reclamation callbacks, mirroring
/// [`crate::retire_unpinned_with`].
///
/// # Safety
/// As for [`crate::retire_unpinned_with`], and `ptr` must come from
/// [`alloc_pooled`].
pub unsafe fn retire_pooled_unpinned<T: Send>(ptr: *mut T) {
    // SAFETY: caller upholds the unpinned-retire contract (same shape as
    // `retire_pooled`, minus the guard).
    unsafe { crate::retire_unpinned_with(ptr as *mut u8, drop_and_release::<T>) };
}

/// Immediately destroy a pool-allocated object that was **never published**
/// to other threads (e.g. a version whose install CAS lost), returning its
/// memory to the pool with no grace period.
///
/// # Safety
/// `ptr` must come from [`alloc_pooled`], be unreachable by any other
/// thread, and not be used afterwards.
pub unsafe fn dispose_pooled<T>(ptr: *mut T) {
    // SAFETY: caller guarantees the object was never published, so no
    // grace period is needed before dropping and recycling it.
    unsafe { drop_and_release::<T>(ptr as *mut u8) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_released_memory() {
        // Addresses may legitimately differ if other tests interleave on
        // this thread, so assert via the hit counter instead.
        let a = alloc_pooled(41u128);
        unsafe { dispose_pooled(a) };
        let (h0, _, _) = local_stats();
        let b = alloc_pooled(42u128);
        let (h1, _, _) = local_stats();
        assert_eq!(h1, h0 + 1, "second alloc must be served from the pool");
        assert_eq!(unsafe { *b }, 42);
        unsafe { dispose_pooled(b) };
    }

    #[test]
    fn prefetch_free_is_only_a_hint() {
        // A layout distinctive to this test.
        type Block = [u64; 7];
        let blocks: Vec<_> = (0..3).map(|i| alloc_pooled([i; 7])).collect();
        for b in blocks {
            unsafe { dispose_pooled(b) };
        }
        let before = local_stats();
        // Fewer than, exactly and more than the list holds; a class that
        // does not exist; a zero-sized type.
        for n in [0, 1, 3, 100] {
            prefetch_free::<Block>(n);
        }
        prefetch_free::<[u64; 9]>(4);
        prefetch_free::<()>(4);
        assert_eq!(local_stats(), before, "nothing popped, nothing counted");
        let again: Vec<_> = (0..3).map(|i| alloc_pooled([i + 10; 7])).collect();
        assert_eq!(local_stats().0, before.0 + 3, "all three still on the list");
        for b in again {
            assert!(unsafe { (*b)[0] } >= 10);
            unsafe { dispose_pooled(b) };
        }
    }

    #[test]
    fn layout_classes_are_shared_across_types() {
        #[repr(align(8))]
        struct A(#[allow(dead_code)] [u64; 3]);
        #[repr(align(8))]
        struct B(
            #[allow(dead_code)] u64,
            #[allow(dead_code)] u64,
            #[allow(dead_code)] u64,
        );
        assert_eq!(Layout::new::<A>(), Layout::new::<B>());
        let a = alloc_pooled(A([1, 2, 3]));
        unsafe { dispose_pooled(a) };
        let (h0, _, _) = local_stats();
        let b = alloc_pooled(B(4, 5, 6));
        let (h1, _, _) = local_stats();
        assert_eq!(h1, h0 + 1);
        unsafe { dispose_pooled(b) };
    }

    #[test]
    fn retired_objects_run_destructors_then_recycle() {
        let _serial = crate::own_the_global_epoch();
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        {
            let guard = crate::pin();
            for i in 0..32 {
                let p = alloc_pooled(D(i));
                unsafe { retire_pooled(&guard, p) };
            }
        }
        crate::flush();
        crate::flush();
        assert!(DROPS.load(Ordering::SeqCst) >= before + 32);
    }

    #[test]
    fn zero_sized_types_are_supported() {
        struct Z;
        let p = alloc_pooled(Z);
        unsafe { dispose_pooled(p) };
    }

    /// Satellite regression test: a write through a retired pointer must
    /// trip the debug poison check on the next same-class allocation.
    /// (The stale write targets memory the pool still owns — never
    /// returned to the OS — so the test is deterministic and safe.)
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "use-after-retire")]
    fn poison_check_trips_on_use_after_retire() {
        // A layout distinctive to this test; each #[test] runs on its own
        // thread, so this thread's free list holds exactly our block.
        let p = alloc_pooled([7u64; 5]);
        unsafe { dispose_pooled(p) };
        // Use-after-retire: write through the stale pointer.
        unsafe { (p as *mut u64).write(0xBAD) };
        // The next allocation of the class pops the block and must panic.
        let _ = alloc_pooled([8u64; 5]);
    }

    /// The happy path of the same check: an untouched retired block is
    /// fully poisoned and recycles cleanly.
    #[cfg(debug_assertions)]
    #[test]
    fn poisoned_blocks_recycle_cleanly_when_untouched() {
        let p = alloc_pooled([9u64; 5]);
        unsafe { dispose_pooled(p) };
        // Block is poisoned while parked on the free list.
        let bytes = unsafe { std::slice::from_raw_parts(p as *const u8, 40) };
        assert!(bytes.iter().all(|&b| b == POISON_BYTE));
        let q = alloc_pooled([10u64; 5]);
        assert_eq!(unsafe { (*q)[0] }, 10);
        unsafe { dispose_pooled(q) };
    }
}
