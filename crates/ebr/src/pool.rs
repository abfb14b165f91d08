//! EBR-integrated object pooling on line-aligned slabs.
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
//! The next [`alloc_pooled`] of any same-layout type pops the list. In
//! steady state (a warmed-up tree under a stationary workload) the hot
//! path touches the global allocator zero times — see
//! `crates/core/tests/zero_alloc_hot_path.rs` for the counting-allocator
//! proof.
//!
//! Layout-keyed (rather than type-keyed) classing means a `Version<K, V, A>`
//! retired by one tree can be recycled as a `PropStatus` or as a version of
//! a different map — the pool never fragments across generic instantiations
//! that share a layout.
//!
//! **Where blocks come from.** Not from `malloc`, whose chunks sit at 16
//! mod 64 and make a 56-byte `Version` straddle two cache lines:
//!
//! * A class's blocks are carved at a fixed *stride*: the next power of two
//!   for sizes up to 64 bytes, the next multiple of 64 above that, from
//!   pieces that start on a line. So a block of 64 bytes or less never
//!   crosses a cache line, and a larger one starts on a line.
//! * One process-wide arena takes 2 MiB-aligned 2 MiB chunks from
//!   `std::alloc` and hands out 64 KiB pieces of them. A thread whose free
//!   list is empty carves a whole piece into it, so the arena's lock is
//!   taken once per piece, not once per block.
//! * Chunks past the first 16 MiB are advised for transparent huge pages
//!   (`madvise(MADV_HUGEPAGE)`, Linux only): a big tree's node and version
//!   objects are far more than a 4 KiB-page TLB can map, and below the
//!   threshold a small structure is not charged a whole huge page.
//!
//! **Where blocks go.** A block freed on a different thread than the one
//! that allocated it lands on the freeing thread's list (free lists are
//! thread-local; no cross-thread synchronization on the hot path). A list
//! that reaches [`MAX_PER_CLASS`] blocks moves half of them, in one batch,
//! to the class's process-wide *depot*; a list that runs empty takes a
//! batch from the depot before it carves a new piece; an exiting thread
//! hands all its lists to the depot. The pool never returns memory to the
//! OS: what it holds is bounded by the peak of live objects plus objects
//! in limbo, plus what the free lists cache (per class and thread, at most
//! [`MAX_PER_CLASS`] blocks or one freshly carved piece).

use std::alloc::{alloc, handle_alloc_error, Layout};
use std::cell::{Cell, RefCell};
use std::sync::{Mutex, MutexGuard};

use crate::Guard;

/// Maximum recycled blocks kept per `(size, align)` class per thread; a
/// list that reaches it sends half to the depot.
pub const MAX_PER_CLASS: usize = 4096;

/// Maximum distinct `(size, align)` classes tracked per thread. A real
/// process pools a handful of types (versions, statuses); beyond the cap,
/// new layouts go straight to and from the depot, under its lock.
const MAX_CLASSES: usize = 32;

/// Cache line size: the stride unit.
const LINE: usize = 64;

/// Bytes a thread takes from the arena at once for one class (a class
/// whose stride is larger takes one stride, rounded up to a piece).
const PIECE: usize = 64 << 10;

/// Bytes the arena takes from `std::alloc` at once, and their alignment:
/// one x86-64 huge page.
const CHUNK: usize = 2 << 20;

/// Bytes of chunks the arena takes before it advises huge pages for the
/// next ones. Advising every chunk costs small structures memory, because
/// THP backs all 2 MiB of a chunk they have barely begun: with every chunk
/// advised, the benchmark's `served-*` workloads (a 2^15-key forest) read
/// `rss_peak_mb` 7.9–8.1 MB, against 6.4–6.7 MB with this threshold and
/// 6.4–6.8 MB with `malloc` blocks (2-vCPU Xeon). A 2^19-key tree
/// (≈ 150 MB) still gets huge pages under all but its first 16 MiB.
const HUGE_PAGES_AFTER: usize = 16 << 20;

/// Distance between two blocks of `layout`'s class.
fn stride(layout: Layout) -> usize {
    let size = layout.pad_to_align().size();
    if size <= LINE {
        size.next_power_of_two()
    } else {
        size.next_multiple_of(LINE)
    }
}

/// Debug-build poison byte written over every block the pool holds.
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
    // SAFETY: `p` came off a free list, so it is a block of at least
    // `size` bytes that only the pool may touch.
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
/// found the list empty and refilled it — carved, or taken from the depot —
/// and a *recycle* returned a block to the list.
pub fn local_stats() -> (u64, u64, u64) {
    POOLS
        .try_with(|p| (p.hits.get(), p.misses.get(), p.recycled.get()))
        .unwrap_or((0, 0, 0))
}

/// The arena: the uncarved rest of its current chunk.
struct Arena {
    next: *mut u8,
    left: usize,
    /// Bytes of chunks taken from `std::alloc` so far.
    taken: usize,
}

impl Arena {
    /// `bytes` (a multiple of [`PIECE`]) starting on a [`PIECE`] boundary,
    /// from the current chunk, or from a new one when they do not fit.
    fn take(&mut self, bytes: usize) -> *mut u8 {
        if bytes > self.left {
            let size = bytes.next_multiple_of(CHUNK);
            let layout = Layout::from_size_align(size, CHUNK).expect("chunk layout is valid");
            // SAFETY: `size` is at least one piece, never zero.
            let chunk = unsafe { alloc(layout) };
            if chunk.is_null() {
                handle_alloc_error(layout);
            }
            if self.taken >= HUGE_PAGES_AFTER {
                advise_huge_pages(chunk, size);
            }
            self.taken += size;
            self.next = chunk;
            self.left = size;
        }
        let piece = self.next;
        // SAFETY: `bytes <= self.left`, so the result stays inside the
        // current chunk or one past its end.
        self.next = unsafe { piece.add(bytes) };
        self.left -= bytes;
        piece
    }
}

/// Ask the kernel to back a chunk with transparent huge pages.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(chunk: *mut u8, len: usize) {
    const MADV_HUGEPAGE: std::ffi::c_int = 14;
    extern "C" {
        fn madvise(
            addr: *mut std::ffi::c_void,
            len: usize,
            advice: std::ffi::c_int,
        ) -> std::ffi::c_int;
    }
    // SAFETY: MADV_HUGEPAGE only changes the paging policy of the range —
    // a chunk this arena owns, 2 MiB-aligned and a whole number of pages
    // long — and reads or writes no memory. The result is ignored: the
    // advice is a hint, and a kernel without THP refuses it harmlessly.
    unsafe { madvise(chunk.cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_chunk: *mut u8, _len: usize) {}

/// Take a piece from the arena, cut it into blocks of `layout`'s class and
/// push them onto `list`, highest address first, so that pops hand them
/// out in address order.
fn carve(arena: &mut Arena, layout: Layout, list: &mut Vec<*mut u8>) {
    let stride = stride(layout);
    let bytes = stride.next_multiple_of(PIECE);
    let piece = arena.take(bytes);
    #[cfg(debug_assertions)]
    // SAFETY: the piece is `bytes` fresh bytes no other holder has seen.
    unsafe {
        poison_block(piece, bytes)
    };
    for i in (0..bytes / stride).rev() {
        // SAFETY: block `i < bytes / stride` ends inside the piece; the
        // piece starts on a `PIECE` boundary and `stride` is a multiple of
        // the layout's alignment, so every block is aligned for it.
        list.push(unsafe { piece.add(i * stride) });
    }
}

/// The process-wide half of the pool, behind one lock: the arena and the
/// per-class depot of free blocks any thread may take.
struct Shared {
    arena: Arena,
    depot: Vec<(Layout, Vec<*mut u8>)>,
}

// SAFETY: the arena's rest and every depot block are memory no live object
// occupies; whichever thread takes one under the lock owns it from then on.
unsafe impl Send for Shared {}

static SHARED: Mutex<Shared> = Mutex::new(Shared {
    arena: Arena {
        next: std::ptr::null_mut(),
        left: 0,
        taken: 0,
    },
    depot: Vec::new(),
});

/// Lock the shared half. Nothing under the lock can panic half-way through
/// an update, so a poisoned lock is taken as it is.
fn shared() -> MutexGuard<'static, Shared> {
    SHARED.lock().unwrap_or_else(|e| e.into_inner())
}

/// `layout`'s depot list, created on first use.
fn depot_of(depot: &mut Vec<(Layout, Vec<*mut u8>)>, layout: Layout) -> &mut Vec<*mut u8> {
    let i = match depot.iter().position(|(l, _)| *l == layout) {
        Some(i) => i,
        None => {
            depot.push((layout, Vec::new()));
            depot.len() - 1
        }
    };
    &mut depot[i].1
}

impl Shared {
    /// Refill the empty free list of `layout`'s class: a batch from the
    /// depot, or a freshly carved piece when the depot has none.
    fn refill(&mut self, layout: Layout, list: &mut Vec<*mut u8>) {
        let spare = depot_of(&mut self.depot, layout);
        if spare.is_empty() {
            carve(&mut self.arena, layout, list);
        } else {
            let from = spare.len().saturating_sub(MAX_PER_CLASS / 2);
            list.extend(spare.drain(from..));
        }
    }

    /// One block for a caller with no usable free list (its class table is
    /// full, borrowed, or torn down at thread exit).
    fn acquire(&mut self, layout: Layout) -> *mut u8 {
        let spare = depot_of(&mut self.depot, layout);
        if spare.is_empty() {
            carve(&mut self.arena, layout, spare);
        }
        spare.pop().expect("a carved piece holds a block")
    }
}

/// One layout class's free list. The class table is a linear-scan vector,
/// not a hash map: the hot path does one lookup per alloc *and* per free,
/// and with the handful of classes a process actually pools, scanning a
/// few layouts is several times cheaper than hashing.
struct Class {
    layout: Layout,
    free: Vec<*mut u8>,
}

/// `layout`'s class, created on first use while the table has room.
fn class_of(classes: &mut Vec<Class>, layout: Layout) -> Option<&mut Class> {
    match classes.iter().position(|c| c.layout == layout) {
        Some(i) => Some(&mut classes[i]),
        None if classes.len() < MAX_CLASSES => {
            classes.push(Class {
                layout,
                free: Vec::new(),
            });
            classes.last_mut()
        }
        None => None,
    }
}

struct Pools {
    classes: RefCell<Vec<Class>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    recycled: Cell<u64>,
}

impl Drop for Pools {
    /// Thread exit: every free block goes to the depot for other threads.
    fn drop(&mut self) {
        let classes = self.classes.get_mut();
        if classes.is_empty() {
            return;
        }
        let mut shared = shared();
        for class in classes {
            depot_of(&mut shared.depot, class.layout).append(&mut class.free);
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

/// Obtain a block for `layout`, preferring the thread-local free list.
fn acquire_memory(layout: Layout) -> *mut u8 {
    let pooled = POOLS
        .try_with(|pools| {
            // `try_borrow_mut` guards against re-entry from a
            // destructor running inside `release_memory`.
            let mut classes = pools.classes.try_borrow_mut().ok()?;
            let class = class_of(&mut classes, layout)?;
            if let Some(p) = class.free.pop() {
                pools.hits.set(pools.hits.get() + 1);
                return Some(p);
            }
            pools.misses.set(pools.misses.get() + 1);
            shared().refill(layout, &mut class.free);
            class.free.pop()
        })
        .ok()
        .flatten();
    let p = pooled.unwrap_or_else(|| shared().acquire(layout));
    #[cfg(debug_assertions)]
    check_poison(p, layout.size());
    p
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
        if let Some(class) = classes.iter().find(|c| c.layout == layout) {
            for &block in class.free.iter().rev().take(n) {
                crate::prefetch::<T, true>(block as u64);
            }
        }
    });
}

/// Return a dead block to the calling thread's free list, or to the depot
/// when the list has no room for it.
fn release_memory(p: *mut u8, layout: Layout) {
    #[cfg(debug_assertions)]
    // SAFETY: `p` is a dead block of exactly this layout, surrendered by
    // the caller.
    unsafe {
        poison_block(p, layout.size())
    };
    let kept = POOLS
        .try_with(|pools| {
            let Ok(mut classes) = pools.classes.try_borrow_mut() else {
                return false;
            };
            let Some(class) = class_of(&mut classes, layout) else {
                return false;
            };
            if class.free.len() >= MAX_PER_CLASS {
                let half = class.free.len() / 2;
                depot_of(&mut shared().depot, layout).extend(class.free.drain(..half));
            }
            class.free.push(p);
            pools.recycled.set(pools.recycled.get() + 1);
            true
        })
        .unwrap_or(false);
    if !kept {
        depot_of(&mut shared().depot, layout).push(p);
    }
}

/// Allocate a `T` from the pool and move `value` into it. The returned
/// pointer is owned by the caller and must eventually be passed to exactly
/// one of [`retire_pooled`], [`retire_pooled_batch`],
/// [`retire_pooled_unpinned`] or [`dispose_pooled`] — never
/// `Box::from_raw` (the memory is a slab block, not a heap allocation).
///
/// # Panics
/// If `T`'s alignment exceeds 64 KiB, more than a pool piece guarantees.
pub fn alloc_pooled<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    let raw = if layout.size() == 0 {
        std::ptr::NonNull::<T>::dangling().as_ptr() as *mut u8
    } else {
        assert!(layout.align() <= PIECE, "ebr::pool: alignment over 64 KiB");
        acquire_memory(layout)
    };
    let ptr = raw as *mut T;
    // SAFETY: `raw` is a dead block of `T`'s exact layout, aligned and
    // writable; `write` moves `value` in without reading the (possibly
    // poisoned) old bytes.
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

    /// A block of 64 bytes or less never crosses a cache line, a larger
    /// one starts on a line, and blocks of one class never overlap.
    #[test]
    fn blocks_are_line_aligned_at_their_stride() {
        fn check<const N: usize>() {
            let blocks: Vec<_> = (0..300).map(|_| alloc_pooled([7u8; N])).collect();
            let stride = stride(Layout::new::<[u8; N]>());
            assert!(stride >= N);
            let mut addrs: Vec<usize> = blocks.iter().map(|&b| b as usize).collect();
            for &a in &addrs {
                if N <= LINE {
                    assert_eq!(a / LINE, (a + N - 1) / LINE, "{N} B block at {a:#x}");
                } else {
                    assert_eq!(a % LINE, 0, "{N} B block at {a:#x}");
                }
            }
            addrs.sort_unstable();
            assert!(addrs.windows(2).all(|w| w[1] - w[0] >= stride), "{N} B");
            for b in blocks {
                assert_eq!(unsafe { *b }, [7u8; N]);
                unsafe { dispose_pooled(b) };
            }
        }
        check::<8>();
        check::<16>();
        check::<24>();
        check::<56>();
        check::<64>();
        check::<72>();
        check::<200>();
        check::<1100>();
        assert_eq!(stride(Layout::new::<[u8; 24]>()), 32);
        assert_eq!(stride(Layout::new::<[u8; 56]>()), 64);
        assert_eq!(stride(Layout::new::<[u8; 72]>()), 128);
        assert_eq!(stride(Layout::new::<[u8; 1100]>()), 1152);
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
