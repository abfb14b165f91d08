//! Epoch-based memory reclamation (EBR) for the CBAT workspace.
//!
//! This is a from-scratch, DEBRA-flavored implementation of the scheme the
//! paper's §6 builds on (Fraser's EBR \[14\] as optimized by Brown's DEBRA
//! \[8\]). Every object the workspace's lock-free trees reclaim — tree
//! nodes, `Version`s, `PropStatus`es, `vedge`'s version records and their
//! retire cells — lives in [`pool`]: it is retired with a free function
//! that runs its destructor and hands its block back to a free list.
//!
//! Design:
//!
//! * A fixed table of [`MAX_THREADS`] announcement slots. Each participating
//!   thread registers (lazily, on first [`pin`]) and receives a stable
//!   *thread id* that other crates reuse (the LLX/SCX descriptor table is
//!   indexed by it).
//! * [`pin`] announces the global epoch and returns an RAII [`Guard`];
//!   shared objects may only be dereferenced while a guard is live.
//! * [`Guard::retire_with`] adds an object and its free function to the
//!   current thread's limbo bag for the current epoch. Bags whose epoch is
//!   ≥ 2 behind the global epoch are freed; the global epoch advances only
//!   when every pinned thread has announced the current epoch.
//! * **Retire-from-reclaim** is supported: a deferred destructor may itself
//!   retire, through the unpinned path ([`pool::retire_pooled_unpinned`]
//!   over [`retire_unpinned_with`]). The paper needs this — freeing a Node
//!   retires the final `Version` it points to (§6).
//! * When a thread exits, its un-freed bags migrate to a global orphan list
//!   that other threads drain, so no garbage is leaked by short-lived
//!   threads (tests spawn thousands).
//!
//! The implementation favors clarity and auditability over micro-tuned
//! constants; it is nonetheless allocation-free on the pin/unpin fast path
//! and amortizes epoch scans over `COLLECT_THRESHOLD` retires.

use sched::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cell::{Cell, RefCell};
use std::sync::Mutex;

mod pad;
pub mod pool;
mod prefetch;
pub mod striped;

pub use pad::CachePadded;
pub use prefetch::prefetch;
pub use striped::Striped;

/// Maximum number of concurrently registered threads.
///
/// Matches the paper's largest experiment (192 hyperthreads) with headroom.
pub const MAX_THREADS: usize = 256;

/// Number of retires between reclamation attempts.
const COLLECT_THRESHOLD: usize = 64;

/// Announcement value meaning "not pinned".
const QUIESCENT: u64 = u64::MAX;

/// A deferred reclamation: a type-erased pointer plus its free function.
///
/// The free function must be safe to run on any thread once the epoch
/// protocol guarantees no reader can still hold the pointer.
struct Retired {
    ptr: *mut u8,
    // SAFETY: callers of `retire_impl` guarantee `free(ptr)` is sound on
    // any thread once the grace period has passed.
    free: unsafe fn(*mut u8),
}

// Safety: `Retired` values are only constructed by the retire functions, whose
// contract requires the object to be sendable to (and freeable from) any
// thread.
unsafe impl Send for Retired {}

struct Slot {
    /// Epoch announced by the owning thread, or `QUIESCENT`.
    announce: AtomicU64,
    /// 1 if the slot is owned by a live thread.
    registered: AtomicU64,
    /// Objects the slot's owners have retired / freed, for tests and leak
    /// diagnostics. Per slot, so that a retire writes only lines its own
    /// thread owns (DEBRA's rule for every per-operation write): bumped by
    /// the current owner alone ([`striped::bump`]), never reset, summed
    /// over the slots by [`stats`].
    retired: AtomicU64,
    freed: AtomicU64,
}

struct Global {
    epoch: CachePadded<AtomicU64>,
    slots: Vec<CachePadded<Slot>>,
    /// One past the highest slot index ever registered. Slots at or above
    /// it have never had an owner, so scans stop there instead of walking
    /// the whole table (see [`Global::try_advance`]).
    registered_hwm: CachePadded<AtomicUsize>,
    /// Limbo bags abandoned by exited threads: (retire_epoch, items).
    orphans: Mutex<Vec<(u64, Vec<Retired>)>>,
}

impl Global {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(MAX_THREADS);
        for _ in 0..MAX_THREADS {
            slots.push(CachePadded::new(Slot {
                announce: AtomicU64::new(QUIESCENT),
                registered: AtomicU64::new(0),
                retired: AtomicU64::new(0),
                freed: AtomicU64::new(0),
            }));
        }
        Global {
            epoch: CachePadded::new(AtomicU64::new(2)),
            slots,
            registered_hwm: CachePadded::new(AtomicUsize::new(0)),
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// The slots that have ever had an owner.
    fn used_slots(&self) -> &[CachePadded<Slot>] {
        &self.slots[..self.registered_hwm.load(Ordering::SeqCst)]
    }

    /// Attempt to advance the global epoch by one. Succeeds only if every
    /// registered, pinned thread has announced the current epoch.
    ///
    /// Only the slots below the high-water mark are scanned — the whole
    /// table is 32 KiB of padded lines, two thirds of an L1d, and this runs
    /// every [`COLLECT_THRESHOLD`] retires. A thread whose `register`
    /// raises the mark past what this scan read is not missed: every
    /// access involved is `SeqCst`, this scan loads `epoch` before the
    /// mark, and the registrant `fetch_max`es the mark before its first
    /// `pin` loads `epoch`. If the scan's load of the mark comes before
    /// that `fetch_max` in the single total order, so does its load of
    /// `epoch`, hence the registrant's pin reads `cur` or later and
    /// announces ≥ `cur` — exactly a thread that was quiescent during the
    /// scan, which never blocks the step to `cur + 1`.
    fn try_advance(&self) -> u64 {
        let cur = self.epoch.load(Ordering::SeqCst);
        for slot in self.used_slots() {
            if slot.registered.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let ann = slot.announce.load(Ordering::SeqCst);
            if ann != QUIESCENT && ann != cur {
                return cur; // someone still in an older epoch
            }
        }
        // CAS failure means another thread advanced; either way progress.
        let _ = self
            .epoch
            .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }
}

fn global() -> &'static Global {
    use std::sync::OnceLock;
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(Global::new)
}

/// A limbo bag: objects retired during a particular epoch.
struct Bag {
    epoch: u64,
    items: Vec<Retired>,
}

/// Maximum emptied bag vectors cached for reuse per thread.
const SPARE_BAG_CAP: usize = 8;

struct Local {
    id: usize,
    pin_depth: Cell<usize>,
    /// Bags in arbitrary order; drained when their epoch is old enough.
    bags: RefCell<Vec<Bag>>,
    /// Emptied bag item-vectors kept with their capacity, so steady-state
    /// retiring never re-allocates bag storage.
    spare_bags: RefCell<Vec<Vec<Retired>>>,
    /// Reused buffer for [`collect`]'s drain phase (taken/replaced so a
    /// reentrant collect sees an empty buffer instead of a borrow panic).
    drain_scratch: RefCell<Vec<Bag>>,
    since_collect: Cell<usize>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
    /// Separate guard object so destructor ordering is well-defined.
    static UNREGISTER: UnregisterOnDrop = const { UnregisterOnDrop };
}

struct UnregisterOnDrop;

impl Drop for UnregisterOnDrop {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            if let Some(local) = l.borrow_mut().take() {
                let g = global();
                // Move any pending garbage to the orphan list.
                let bags = local.bags.take();
                if !bags.is_empty() {
                    let mut orphans = g.orphans.lock().unwrap();
                    for bag in bags {
                        if !bag.items.is_empty() {
                            orphans.push((bag.epoch, bag.items));
                        }
                    }
                }
                g.slots[local.id]
                    .announce
                    .store(QUIESCENT, Ordering::SeqCst);
                g.slots[local.id].registered.store(0, Ordering::SeqCst);
                // The slot may be re-registered by another thread; make
                // sure any late call on *this* thread re-resolves.
                let _ = CACHED_ID.try_with(|c| c.set(usize::MAX));
            }
        });
    }
}

fn with_local<R>(f: impl FnOnce(&Local) -> R) -> R {
    LOCAL.with(|l| {
        {
            let mut borrow = l.borrow_mut();
            if borrow.is_none() {
                *borrow = Some(register());
                // Touch the unregister key so its destructor runs on exit.
                UNREGISTER.with(|_| {});
            }
        }
        let borrow = l.borrow();
        f(borrow.as_ref().expect("ebr local just initialized"))
    })
}

fn register() -> Local {
    let g = global();
    for (id, slot) in g.slots.iter().enumerate() {
        if slot.registered.load(Ordering::SeqCst) == 0
            && slot
                .registered
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            slot.announce.store(QUIESCENT, Ordering::SeqCst);
            // Before this thread's first pin; see `Global::try_advance`.
            g.registered_hwm.fetch_max(id + 1, Ordering::SeqCst);
            return Local {
                id,
                pin_depth: Cell::new(0),
                bags: RefCell::new(Vec::new()),
                spare_bags: RefCell::new(Vec::new()),
                drain_scratch: RefCell::new(Vec::new()),
                since_collect: Cell::new(0),
            };
        }
    }
    panic!("ebr: more than {MAX_THREADS} concurrent threads");
}

thread_local! {
    /// Cached copy of the slot id, so hot paths (striped statistics index
    /// on every counter bump) skip the `RefCell` in [`with_local`].
    /// `usize::MAX` = not yet registered; reset by [`UnregisterOnDrop`].
    static CACHED_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The stable id of the calling thread within the EBR thread table.
///
/// `llxscx`'s descriptor table and every [`Striped`] counter index their
/// per-thread tables with this id, so a single registration discipline
/// covers the whole workspace. After the first call on a thread this is a
/// single thread-local `Cell` read.
#[inline]
pub fn thread_id() -> usize {
    CACHED_ID.with(|c| {
        let id = c.get();
        if id != usize::MAX {
            return id;
        }
        let id = with_local(|l| l.id);
        c.set(id);
        id
    })
}

/// Number of hardware threads available to this process, falling back to
/// 1 when the OS cannot say. The workspace's single source of truth for
/// "how many workers should I spawn".
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An RAII guard keeping the current thread pinned to an epoch.
///
/// While any guard is live on a thread, memory retired *after* the pin is
/// guaranteed not to be freed, so shared pointers read under the guard stay
/// valid. Guards nest; only the outermost pin/unpin touches shared state.
pub struct Guard {
    /// Make `Guard: !Send` — it refers to thread-local state.
    _not_send: std::marker::PhantomData<*mut ()>,
}

/// Pin the current thread, announcing the global epoch.
pub fn pin() -> Guard {
    with_local(|local| {
        let depth = local.pin_depth.get();
        local.pin_depth.set(depth + 1);
        if depth == 0 {
            let g = global();
            let e = g.epoch.load(Ordering::SeqCst);
            g.slots[local.id].announce.store(e, Ordering::SeqCst);
            sched::atomic::fence(Ordering::SeqCst);
        }
    });
    Guard {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        with_local(|local| {
            let depth = local.pin_depth.get();
            debug_assert!(depth > 0, "guard drop without pin");
            local.pin_depth.set(depth - 1);
            if depth == 1 {
                global().slots[local.id]
                    .announce
                    .store(QUIESCENT, Ordering::SeqCst);
            }
        });
    }
}

impl Guard {
    /// Defer `free(ptr)` until no thread pinned at retire time can still
    /// reach `ptr`; `free` is called exactly once, with `ptr`.
    ///
    /// # Safety
    /// * `ptr` must not have been retired or freed before.
    /// * `ptr` must be unreachable for threads that pin after this call
    ///   (i.e. already unlinked from the shared structure).
    /// * `free(ptr)` must be sound on any thread.
    pub unsafe fn retire_with(&self, ptr: *mut u8, free: unsafe fn(*mut u8)) {
        retire_impl(std::iter::once(Retired { ptr, free }));
    }

    /// [`Guard::retire_with`] for a whole list sharing one reclamation
    /// function: one thread-local access, one epoch load, one bag lookup
    /// and one counter bump for all of `ptrs` (a propagate retires a
    /// path's worth of versions at once).
    ///
    /// # Safety
    /// As for [`Guard::retire_with`], for every element of `ptrs`.
    pub unsafe fn retire_batch_with(&self, ptrs: &[u64], free: unsafe fn(*mut u8)) {
        retire_impl(ptrs.iter().map(|&p| Retired {
            ptr: p as *mut u8,
            free,
        }));
    }
}

/// [`Guard::retire_with`] without holding a guard (used from reclamation
/// callbacks, where the freeing thread may not be pinned; the pool's entry
/// point is [`pool::retire_pooled_unpinned`]). The object must already have
/// been unreachable for a full epoch-protocol cycle — true for the paper's
/// "retire the final version when freeing the node" rule, since the node
/// itself just completed that cycle... conservatively we still run the
/// full two-epoch delay from the *current* epoch.
///
/// # Safety
/// As for [`Guard::retire_with`].
pub unsafe fn retire_unpinned_with(ptr: *mut u8, free: unsafe fn(*mut u8)) {
    retire_impl(std::iter::once(Retired { ptr, free }));
}

fn retire_impl(items: impl ExactSizeIterator<Item = Retired>) {
    let n = items.len();
    if n == 0 {
        return;
    }
    let g = global();
    let epoch = g.epoch.load(Ordering::SeqCst);
    let should_collect = with_local(|local| {
        striped::bump(&g.slots[local.id].retired, n as u64);
        {
            let mut bags = local.bags.borrow_mut();
            match bags.iter_mut().find(|b| b.epoch == epoch) {
                Some(bag) => bag.items.extend(items),
                None => {
                    // Reuse an emptied bag vector (with its capacity) so
                    // steady-state retiring does not touch the allocator.
                    let mut bag = local.spare_bags.borrow_mut().pop().unwrap_or_default();
                    bag.extend(items);
                    bags.push(Bag { epoch, items: bag });
                }
            }
        }
        let since = local.since_collect.get() + n;
        let due = since >= COLLECT_THRESHOLD;
        local.since_collect.set(if due { 0 } else { since });
        due
    });
    if should_collect {
        collect();
    }
}

/// Run one reclamation round: try to advance the epoch and free every local
/// (and orphaned) bag that is ≥ 2 epochs old. Called automatically every
/// `COLLECT_THRESHOLD` retires; exposed for tests and benchmarks.
pub fn collect() {
    let g = global();
    let epoch = g.try_advance();

    // Drain ready local bags. Take them out of the RefCell *before* running
    // destructors so that retire-from-reclaim can re-borrow. The drain
    // buffer is reused across calls; a reentrant collect (retire-from-
    // reclaim crossing the threshold) takes a fresh empty one.
    let mut ready: Vec<Bag> = with_local(|local| {
        let mut ready = local.drain_scratch.take();
        let mut bags = local.bags.borrow_mut();
        bags.retain_mut(|bag| {
            if bag.epoch + 2 <= epoch {
                ready.push(Bag {
                    epoch: bag.epoch,
                    items: std::mem::take(&mut bag.items),
                });
                false
            } else {
                true
            }
        });
        ready
    });
    let mut freed = 0usize;
    for bag in &mut ready {
        freed += bag.items.len();
        for item in bag.items.drain(..) {
            // SAFETY: the bag is ≥ 2 epochs old, so no thread pinned at
            // retire time is still pinned; the retire contract makes the
            // free sound on this thread.
            unsafe { (item.free)(item.ptr) };
        }
    }
    // Recycle the emptied bag vectors and hand the drain buffer back.
    with_local(|local| {
        let mut spare = local.spare_bags.borrow_mut();
        for bag in ready.drain(..) {
            if spare.len() < SPARE_BAG_CAP && bag.items.capacity() > 0 {
                spare.push(bag.items);
            }
        }
        drop(spare);
        *local.drain_scratch.borrow_mut() = ready;
    });

    // Opportunistically drain ready orphans.
    let mut orphan_items: Vec<Retired> = Vec::new();
    if let Ok(mut orphans) = g.orphans.try_lock() {
        orphans.retain_mut(|(e, items)| {
            if *e + 2 <= epoch {
                orphan_items.append(items);
                false
            } else {
                true
            }
        });
    }
    freed += orphan_items.len();
    for item in orphan_items {
        // SAFETY: as for the local bags above — the orphan bag aged past
        // the two-epoch grace period.
        unsafe { (item.free)(item.ptr) };
    }

    if freed > 0 {
        with_local(|local| striped::bump(&g.slots[local.id].freed, freed as u64));
    }
}

/// Drive epochs forward until all currently-retired garbage has been freed
/// (as far as other threads' pins allow). Test/shutdown helper.
pub fn flush() {
    for _ in 0..4 {
        collect();
    }
}

/// Reclamation statistics (monotone counters since process start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    pub epoch: u64,
    pub retired: usize,
    pub freed: usize,
}

/// Snapshot the global reclamation counters.
pub fn stats() -> Stats {
    let g = global();
    let sum = |counter: fn(&Slot) -> &AtomicU64| {
        let words = g.used_slots().iter();
        words.map(|slot| striped::read(counter(slot))).sum::<u64>() as usize
    };
    // Frees first, because every free follows its retire: a caller taking
    // `retired - freed` while other threads run should err towards too
    // much garbage, not wrap.
    let freed = sum(|s| &s.freed);
    let retired = sum(|s| &s.retired);
    Stats {
        epoch: g.epoch.load(Ordering::SeqCst),
        retired,
        freed,
    }
}

/// True if the current thread holds at least one live [`Guard`].
pub fn is_pinned() -> bool {
    with_local(|l| l.pin_depth.get() > 0)
}

/// Test support: serialise the caller against every other holder in the
/// process. The epoch, `stats()` and the pool counters are process-global,
/// so while one test of a binary holds a pin (or a snapshot) the flushes of
/// another free nothing, and its "was freed" or "came from the pool"
/// assertion fails — on a two-core host in nearly every second run. A test
/// that pins on purpose, or asserts on frees or pool counters beside one
/// that does, holds this for its whole body (ROADMAP item 0). A stop-gap for
/// the coupling, not a fix: the fix is a collector the test owns, the
/// `ebr::Domain` direction, which deletes this function.
#[doc(hidden)]
pub fn own_the_global_epoch() -> std::sync::MutexGuard<'static, ()> {
    static GLOBAL_EPOCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // Nothing behind the lock can be left half-updated by a failed test.
    GLOBAL_EPOCH.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pool::{alloc_pooled, retire_pooled, retire_pooled_unpinned};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    static DROPS: AtomicUsize = AtomicUsize::new(0);

    struct Tracked(#[allow(dead_code)] u64);
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn pin_unpin_nests() {
        let _serial = own_the_global_epoch();
        assert!(!is_pinned());
        let g1 = pin();
        assert!(is_pinned());
        let g2 = pin();
        drop(g1);
        assert!(is_pinned());
        drop(g2);
        assert!(!is_pinned());
    }

    #[test]
    fn retire_eventually_frees() {
        let _serial = own_the_global_epoch();
        let before = DROPS.load(Ordering::SeqCst);
        {
            let guard = pin();
            for i in 0..100 {
                let p = alloc_pooled(Tracked(i));
                unsafe { retire_pooled(&guard, p) };
            }
        }
        flush();
        flush();
        let after = DROPS.load(Ordering::SeqCst);
        assert!(
            after >= before + 100,
            "expected ≥100 frees, got {}",
            after - before
        );
    }

    #[test]
    fn pinned_thread_blocks_reclamation() {
        let _serial = own_the_global_epoch();
        struct Flag(Arc<AtomicUsize>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let flag = Arc::new(AtomicUsize::new(0));
        let guard = pin(); // hold the epoch open
        let f2 = flag.clone();
        std::thread::spawn(move || {
            let g = pin();
            let p = alloc_pooled(Flag(f2));
            unsafe { retire_pooled(&g, p) };
            drop(g);
            // Epoch can advance at most once past our pinned main thread's
            // announced epoch, never twice, so the flag must stay unset.
            for _ in 0..8 {
                collect();
            }
        })
        .join()
        .unwrap();
        assert_eq!(flag.load(Ordering::SeqCst), 0, "freed under a live pin");
        drop(guard);
        flush();
        flush();
        assert_eq!(flag.load(Ordering::SeqCst), 1, "leaked after unpin");
    }

    /// `try_advance` scans only the slots below the high-water mark it
    /// read; a thread that registers above an earlier mark must still
    /// hold the epoch with its pin.
    #[test]
    fn a_pin_above_the_previous_high_water_mark_holds_the_epoch() {
        let _serial = own_the_global_epoch();
        use std::sync::mpsc;
        let g = global();
        let _ = thread_id();
        let mark = g.registered_hwm.load(Ordering::SeqCst);
        // `register` takes the lowest free slot: park every thread that
        // lands below the mark until one lands at or above it, and pins.
        let (ids_tx, ids) = mpsc::channel();
        let mut parked = Vec::new();
        loop {
            let (release, released) = mpsc::channel::<()>();
            let ids_tx = ids_tx.clone();
            let handle = std::thread::spawn(move || {
                let id = thread_id();
                let guard = (id >= mark).then(pin);
                ids_tx.send(id).unwrap();
                let _ = released.recv();
                drop(guard);
            });
            parked.push((release, handle));
            if ids.recv().unwrap() >= mark {
                break;
            }
        }
        assert!(g.registered_hwm.load(Ordering::SeqCst) > mark);
        let e0 = stats().epoch;
        for _ in 0..8 {
            collect();
        }
        assert!(
            stats().epoch <= e0 + 1,
            "epoch went {e0} -> {} past a pin in a slot above mark {mark}",
            stats().epoch
        );
        for (release, handle) in parked {
            drop(release);
            handle.join().unwrap();
        }
        flush();
        assert!(stats().epoch > e0 + 1, "the pin was what held the epoch");
    }

    #[test]
    fn retire_from_reclaim_is_supported() {
        let _serial = own_the_global_epoch();
        struct Outer(*mut Tracked);
        unsafe impl Send for Outer {}
        impl Drop for Outer {
            fn drop(&mut self) {
                // Nested retire while the collector is running.
                unsafe { retire_pooled_unpinned(self.0) };
            }
        }
        let before = DROPS.load(Ordering::SeqCst);
        {
            let guard = pin();
            let inner = alloc_pooled(Tracked(7));
            let outer = alloc_pooled(Outer(inner));
            unsafe { retire_pooled(&guard, outer) };
        }
        for _ in 0..6 {
            flush();
        }
        assert!(DROPS.load(Ordering::SeqCst) > before);
    }

    #[test]
    fn thread_ids_are_stable_and_reused() {
        let id1 = thread_id();
        assert_eq!(id1, thread_id());
        let handle = std::thread::spawn(thread_id);
        let other = handle.join().unwrap();
        assert_ne!(id1, other);
        // After the thread exits its slot becomes reusable; spawning many
        // sequential threads must not exhaust the table.
        for _ in 0..MAX_THREADS * 2 {
            std::thread::spawn(|| {
                let _ = thread_id();
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn many_threads_stress() {
        let _serial = own_the_global_epoch();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let g = pin();
                        let p = alloc_pooled(Tracked(t * 1_000_000 + i));
                        unsafe { retire_pooled(&g, p) };
                    }
                    flush();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        flush();
        flush();
        let s = stats();
        assert!(s.retired >= 16_000);
        // All but a bounded residue must be freed.
        assert!(
            s.freed + 4 * COLLECT_THRESHOLD + 200 >= s.retired,
            "leak: {s:?}"
        );
    }
}
