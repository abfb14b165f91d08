//! # vedge — shared versioned-edge machinery
//!
//! The versioned-CAS idea of Wei et al. (PPoPP 2021 \[33\]) gives a tree
//! constant-time snapshots: every mutable child edge holds a pointer to a
//! timestamped **version record** whose `prev` pointer chains to the edge's
//! older versions. Writers install a new head record; snapshot readers
//! remember a timestamp and walk each chain to the newest record no newer
//! than it.
//!
//! Two crates in this workspace use that mechanism — `vcas` (the VcasBST
//! baseline it was prototyped in) and `fanout` (whose per-subtree versioned
//! edges are the PR 3 tentpole) — so the record layout, the lazy stamping
//! protocol, the snapshot-timestamp registry and the version-list trimming
//! live here instead of being duplicated.
//!
//! ## Pieces
//!
//! * [`VersionRecord`] — one `(child, ts, prev)` version of an edge,
//!   allocated from the EBR free-list pool (`ebr::pool`), so version
//!   traffic is a pooled layout class and steady-state updates stay off
//!   the global allocator.
//! * [`VersionedEdge`] — the atomic head pointer plus the read protocols:
//!   current-head reads for linearizable point operations and
//!   [`VersionedEdge::read_at`] for timestamped snapshot traversal.
//! * [`PubEdge`] — a [`VersionedEdge`] bundled with its own `llxscx`
//!   record header, so publication conflicts resolve at *edge* rather
//!   than holder-node granularity (`fanout` publishes through these,
//!   `vcas` keeps plain edges under its node headers).
//! * [`SnapClock`] — the stamping clock plus per-thread announcement slots
//!   for live snapshot timestamps. Writers ask [`SnapClock::min_active`]
//!   for the oldest timestamp any live snapshot can read at; with no
//!   snapshots live this is a single shared-counter load.
//! * [`trim`] — version-list garbage collection (\[33\] §4.3, which the
//!   seed's `vcas` skipped): after installing a new head, the writer cuts
//!   every record no reader can reach and retires it through EBR, so
//!   update-heavy runs no longer grow memory linearly in update count.
//!
//! ## Stamping protocol
//!
//! Records are installed with `ts == 0` ("unstamped") and stamped lazily
//! from the owning structure's clock: the installer stamps right after its
//! publish commits, and any snapshot reader or trimmer that encounters an
//! unstamped record stamps it first (the CAS makes this race-free). Only
//! snapshots advance the clock, exactly as in \[33\].

use sched::atomic::{AtomicU64, Ordering};

use ebr::{CachePadded, Guard};
use llxscx::{Llx, RecordHeader};

/// One version of a child edge: `(child, ts, prev)`.
///
/// `prev` is atomic because [`trim`] detaches chain suffixes with CAS;
/// the detaching CAS doubles as an ownership transfer, so every record is
/// retired by exactly one thread.
///
/// `retire` heads a list of `RetireCell`s naming the nodes this record's
/// publication *superseded* — the old region that stays reachable through
/// `prev` until trimming detaches it. See the module-level "retire order"
/// notes on [`trim`].
pub struct VersionRecord {
    child: u64,
    /// 0 = not yet stamped; stamped lazily from the structure's clock.
    ts: AtomicU64,
    /// Older version of the same edge (0 = end of chain).
    prev: AtomicU64,
    /// Head of this record's [`RetireCell`] list (0 = none). Written only
    /// while the record is still private (pre-publish); taken exactly once
    /// (swap to 0) by whoever detaches `prev` — trim, abort, or teardown.
    retire: AtomicU64,
}

/// One deferred node retirement, owned by the [`VersionRecord`] whose
/// publication superseded the node.
///
/// The PR 7 forensics bug was the *order* of retirement: `fanout` retired
/// replaced nodes the moment its publish committed, while the superseded
/// version record — whose `child` still points at them — stayed reachable
/// for any registered snapshot. A reader holding a clock registration but
/// not a continuous epoch pin (the `FanoutSet::snapshot` /
/// `ShardedSet::snapshot` shape) could then pin *after* the grace period
/// and walk the surviving record into a recycled, poison-filled node.
///
/// `RetireCell` restores the \[33\] discipline — a node is retired only
/// once every version record covering it is detached: the writer attaches
/// the nodes its publish supersedes to the **new** record before the
/// publish, and they are handed to EBR only when that record's `prev`
/// chain is detached (the same CAS-claimed instant the old records
/// themselves are retired).
struct RetireCell {
    /// The superseded node, opaque to this crate.
    node: u64,
    /// How to free `node` once its grace period has passed.
    // SAFETY: the pointer type is unsafe-to-call by construction; the two
    // callers that fire it (retire_covered / free_covered_now) document
    // why the node is dead when they do.
    free_fn: unsafe fn(*mut u8),
    /// Next cell in the list (0 = end). Plain: the list is built while the
    /// owning record is private and taken whole by one thread.
    next: u64,
}

impl VersionRecord {
    /// Allocate a fresh, unstamped record from the EBR pool.
    pub fn alloc(child: u64, prev: u64) -> u64 {
        ebr::pool::alloc_pooled(VersionRecord {
            child,
            ts: AtomicU64::new(0),
            prev: AtomicU64::new(prev),
            retire: AtomicU64::new(0),
        }) as u64
    }

    /// Attach a superseded node to this record's retire list. The node is
    /// handed to EBR only when this record's `prev` chain is detached
    /// ([`trim`]), or freed directly when the whole chain is torn down
    /// ([`dispose_chain`]).
    ///
    /// Call **before** publishing the record: the list is single-writer
    /// and the publish's release ordering is what makes it visible.
    // SAFETY: `free_fn` is only invoked once the node is provably
    // unreachable (record detached + grace period, or chain teardown).
    pub fn attach_retired(&self, node: u64, free_fn: unsafe fn(*mut u8)) {
        let head = self.retire.load(Ordering::SeqCst);
        let cell = ebr::pool::alloc_pooled(RetireCell {
            node,
            free_fn,
            next: head,
        }) as u64;
        self.retire.store(cell, Ordering::SeqCst);
    }

    /// Take this record's retire list (swap the head to 0, so the hand-off
    /// is exactly-once however often the record is visited), pass each
    /// `(node, free_fn)` to `act`, and dispose of the cells.
    // SAFETY: the pointer type only; a caller whose `act` fires it says why
    // the node is dead by then.
    fn take_retired(&self, mut act: impl FnMut(u64, unsafe fn(*mut u8))) {
        let mut cell = self.retire.swap(0, Ordering::SeqCst);
        while cell != 0 {
            // SAFETY: the list was written while the record was private
            // and the swap transferred it whole to this thread, so each
            // cell is a live `alloc_pooled` allocation nobody else reads:
            // read it, then dispose of it exactly once.
            // guard: none needed, the swap made the list this thread's own.
            let (node, free_fn, next) = unsafe {
                let c = &*(cell as *const RetireCell);
                (c.node, c.free_fn, c.next)
            };
            act(node, free_fn);
            // SAFETY: as above — exclusively ours, not referenced again.
            unsafe { ebr::pool::dispose_pooled(cell as *mut RetireCell) };
            cell = next;
        }
    }

    /// Drop this record's retire list **without touching the nodes** — the
    /// publish never committed, so the "superseded" nodes are still live.
    ///
    /// # Safety
    /// The record must be unpublished and exclusively owned by the caller
    /// (the SCX-abort path, right before `dispose_pooled`ing the record).
    pub unsafe fn abort_retired(&self) {
        self.take_retired(|_, _| {});
    }

    /// Take this record's retire list and hand every superseded node to
    /// EBR. Called by [`trim`] at the instant the record's `prev` chain is
    /// detached: the old region the nodes live in just became unreachable,
    /// and the grace period covers any reader still walking it.
    fn retire_covered(&self, guard: &Guard) {
        // SAFETY: `node` was attached by the publisher that superseded it
        // and is now unreachable from the chain (prev detached); retiring
        // defers `free_fn` past every current pin.
        self.take_retired(|node, free_fn| unsafe { guard.retire_with(node as *mut u8, free_fn) });
    }

    /// Take this record's retire list and free every superseded node *now*
    /// (no grace period).
    ///
    /// # Safety
    /// Only valid from [`dispose_chain`]'s context: the chain is
    /// unreachable and its grace period — if it ever needed one — has
    /// already passed.
    unsafe fn free_covered_now(&self) {
        // SAFETY: the chain owning this list is unreachable (fn contract),
        // so the superseded node has no readers left.
        self.take_retired(|node, free_fn| unsafe { free_fn(node as *mut u8) });
    }

    /// # Safety
    /// `raw` must come from [`VersionRecord::alloc`] and be live (pinned or
    /// owned by the caller).
    #[inline]
    pub unsafe fn from_raw<'g>(raw: u64) -> &'g VersionRecord {
        // SAFETY: caller guarantees `raw` is a live pool allocation.
        // guard: the caller's pin or ownership (this fn's contract).
        unsafe { &*(raw as *const VersionRecord) }
    }

    /// The child this version points to.
    #[inline]
    pub fn child(&self) -> u64 {
        self.child
    }

    /// The next-older version (0 at the end of the chain).
    #[inline]
    pub fn prev(&self) -> u64 {
        self.prev.load(Ordering::Acquire)
    }

    /// Stamp an unstamped record with the current clock and return its
    /// (now-final) timestamp. Lazy timestamping as in \[33\]: the CAS makes
    /// racing stampers agree on one value.
    #[inline]
    pub fn stamp(&self, clock: &AtomicU64) -> u64 {
        let t = self.ts.load(Ordering::Acquire);
        if t != 0 {
            return t;
        }
        let now = clock.load(Ordering::SeqCst);
        let _ = self
            .ts
            .compare_exchange(0, now, Ordering::SeqCst, Ordering::SeqCst);
        self.ts.load(Ordering::Acquire)
    }
}

/// A mutable child edge: an atomic pointer to the head [`VersionRecord`].
///
/// The head is swung by the owning structure's own synchronization (a CAS
/// or an SCX targeting [`VersionedEdge::cell`]); this type only fixes the
/// read protocols.
pub struct VersionedEdge(AtomicU64);

impl VersionedEdge {
    /// An edge whose initial version points at `child`.
    pub fn new(child: u64) -> Self {
        VersionedEdge(AtomicU64::new(VersionRecord::alloc(child, 0)))
    }

    /// An empty edge (leaf sentinel: no version record at all).
    pub const fn null() -> Self {
        VersionedEdge(AtomicU64::new(0))
    }

    /// Raw head pointer (0 for [`VersionedEdge::null`] edges).
    #[inline]
    pub fn head(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// The atomic cell, for the owner's publish CAS / SCX.
    #[inline]
    pub fn cell(&self) -> &AtomicU64 {
        &self.0
    }

    /// `(child, head_raw)` of the current head, stamping it lazily.
    /// The edge must be non-null.
    #[inline]
    pub fn read(&self, clock: &AtomicU64) -> (u64, u64) {
        let head = self.head();
        // SAFETY: the head of a reachable edge is live while the caller is
        // pinned.
        // guard: callers hold an epoch pin for the whole read — the edge
        // is only reachable through a structure traversal that pins first.
        let v = unsafe { VersionRecord::from_raw(head) };
        v.stamp(clock);
        (v.child(), head)
    }

    /// Child of this edge as of timestamp `ts`: the newest version no newer
    /// than `ts` (or the oldest surviving one — see [`trim`]'s invariant:
    /// versions older than any live snapshot are the only ones cut).
    pub fn read_at(&self, clock: &AtomicU64, ts: u64) -> u64 {
        let mut raw = self.head();
        loop {
            // SAFETY: chain records older than our snapshot are kept alive
            // by the registry floor (`trim` never cuts above `min_active`)
            // plus the caller's pin.
            // guard: callers hold an epoch pin and a registered snapshot.
            let v = unsafe { VersionRecord::from_raw(raw) };
            let vt = v.stamp(clock);
            let prev = v.prev();
            if vt <= ts || prev == 0 {
                return v.child();
            }
            raw = prev;
        }
    }
}

/// A [`VersionedEdge`] that carries its own LLX/SCX freeze state: the
/// record a publication on this edge loads-links and freezes is the *edge
/// itself*, not the node holding it.
///
/// Were the freeze word the holder node's, publishing on any child slot
/// would freeze it, so two writers updating *different* slots of the same
/// parent would invalidate each other's LLX snapshots and one would retry.
/// With `PubEdge`, an SCX certifies and CASes only the slot it publishes
/// on: same-parent writers on sibling slots share no frozen records and
/// commit concurrently. A node replaced wholesale is invalidated by
/// finalizing every occupied `PubEdge` of it (split cascades — see
/// `fanout`).
///
/// The embedded header starts unfrozen/unmarked; the version-record
/// install/trim protocol of the inner [`VersionedEdge`] is unchanged.
pub struct PubEdge {
    header: RecordHeader,
    edge: VersionedEdge,
}

impl PubEdge {
    /// An edge whose initial version points at `child`, with a fresh
    /// (unfrozen, unmarked) freeze word.
    pub fn new(child: u64) -> Self {
        PubEdge {
            header: RecordHeader::new(),
            edge: VersionedEdge::new(child),
        }
    }

    /// An empty edge (unoccupied slot: no version record).
    pub const fn null() -> Self {
        PubEdge {
            header: RecordHeader::new(),
            edge: VersionedEdge::null(),
        }
    }

    /// The edge's own freeze/ownership record, for LLX/SCX participation.
    #[inline]
    pub fn header(&self) -> &RecordHeader {
        &self.header
    }

    /// Load-link this edge: on `Ok`, the snapshot is the version-record
    /// head observed atomically with the (unfrozen) info tag.
    #[inline]
    pub fn llx_head(&self) -> Llx<u64> {
        llxscx::llx(&self.header, || self.edge.head())
    }
}

/// `PubEdge` is a `VersionedEdge` plus freeze state; all read protocols
/// (`head`, `read`, `read_at`, `cell`) pass through.
impl std::ops::Deref for PubEdge {
    type Target = VersionedEdge;

    #[inline]
    fn deref(&self) -> &VersionedEdge {
        &self.edge
    }
}

/// Dispose an entire version chain straight back to the pool — the
/// records, plus any nodes still pending on their retire lists (nodes a
/// publish superseded whose covering record was never detached by a
/// [`trim`]; with the chain itself going away they are owned by nobody
/// else and are freed via their recorded `free_fn`). `head` may be 0.
///
/// # Safety
/// The chain must be unreachable by any other thread: either never
/// published, or owned by a reclamation callback whose grace period has
/// passed (the standard "free the version list with its node" rule).
pub unsafe fn dispose_chain(head: u64) {
    let mut raw = head;
    while raw != 0 {
        // SAFETY: the chain is unreachable and owned by us (fn contract),
        // so each record is live until we dispose it right below.
        // guard: none needed, nothing else can reach the chain.
        let rec = unsafe { VersionRecord::from_raw(raw) };
        let next = rec.prev();
        // SAFETY: chain unreachable per the fn contract — pending
        // superseded nodes have no readers and are freed in place.
        unsafe { rec.free_covered_now() };
        // SAFETY: `raw` came from `alloc_pooled` and nobody else can
        // reach it (fn contract).
        unsafe { ebr::pool::dispose_pooled(raw as *mut VersionRecord) };
        raw = next;
    }
}

/// Number of records on the chain hanging off `head` (diagnostic for the
/// trimming tests of `fanout` and `vcas`; single-writer callers only).
#[doc(hidden)]
pub fn chain_len(head: u64, _guard: &Guard) -> usize {
    let mut n = 0;
    let mut raw = head;
    while raw != 0 {
        n += 1;
        // SAFETY: records on the walk from a reachable head are live under
        // `_guard`'s pin (a trim retires them through EBR).
        raw = unsafe { VersionRecord::from_raw(raw) }.prev();
    }
    n
}

/// Trim the version chain hanging off `head`: starting from `head`, find
/// the first record with `ts <= min_active` (the newest version the oldest
/// live snapshot can need) and detach-and-retire everything older.
///
/// Safe to race with readers (EBR defers the frees; readers with `ts >=
/// min_active` stop at or above the kept record) and with other trimmers:
/// each `prev` pointer is claimed by exactly one CAS/swap, and the claimant
/// owns — and retires — the record behind it.
///
/// ## Retire order (the PR 7 forensics fix)
///
/// Detaching a suffix is also the moment the *nodes* those records cover
/// become unreachable, so this is where superseded nodes are handed to
/// EBR — never earlier. When the kept record's `prev` is claimed, the
/// kept record's [retire list](VersionRecord::attach_retired) (the region
/// its own publish superseded, rooted at the detached record's child) is
/// processed; each claimed suffix record's list is processed the same way
/// before the record itself is retired. A registered snapshot always
/// stops at (or above) the kept record, whose child is on the *next*
/// record's still-unprocessed list — so no reachable record can ever name
/// a retired node.
pub fn trim(guard: &Guard, head: u64, min_active: u64, clock: &AtomicU64) {
    let mut cur = head;
    loop {
        // SAFETY: records on the walk from a reachable head are live under
        // `guard`'s pin; claimed suffixes are retired, not freed, below.
        let v = unsafe { VersionRecord::from_raw(cur) };
        let vt = v.stamp(clock);
        let prev = v.prev.load(Ordering::SeqCst);
        if prev == 0 {
            return;
        }
        if vt <= min_active {
            // `v` serves every live snapshot at or below `min_active`; the
            // suffix behind it is unreachable. Claim it atomically.
            if v.prev
                .compare_exchange(prev, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // The region `v`'s publish superseded hung off the record
                // we just detached: hand it to EBR now, not before.
                v.retire_covered(guard);
                let mut p = prev;
                while p != 0 {
                    // SAFETY: we claimed this suffix with the CAS above;
                    // the records stay live until retired below and the
                    // grace period passes.
                    let rec = unsafe { VersionRecord::from_raw(p) };
                    // Claim each link before retiring its record: a
                    // concurrent trimmer that cut deeper inside this
                    // suffix owns everything behind its own cut.
                    let next = rec.prev.swap(0, Ordering::SeqCst);
                    // This record went with the suffix, so the region its
                    // own publish superseded is unreachable too.
                    rec.retire_covered(guard);
                    // SAFETY: `p` is pool-allocated and exclusively ours
                    // (claimed by the swap/CAS); retiring defers the free
                    // past every current pin.
                    unsafe { ebr::pool::retire_pooled(guard, p as *mut VersionRecord) };
                    p = next;
                }
            }
            return;
        }
        cur = prev;
    }
}

struct SnapSlot {
    /// Lower bound on every timestamp live snapshots of the owning thread
    /// read at; `u64::MAX` when the thread has none.
    ts: AtomicU64,
    /// Live-snapshot nesting depth of the owning thread.
    depth: AtomicU64,
}

/// [`SnapClock`]'s registry of live snapshot timestamps, indexed by
/// [`ebr::thread_id`]. Snapshot guards are `!Send`, so a slot is only ever
/// written by its owning thread; writers just read.
struct SnapRegistry {
    slots: Vec<CachePadded<SnapSlot>>,
    /// Count of live snapshots across all threads: lets the no-snapshot
    /// fast path of [`SnapRegistry::min_active`] skip the slot scan.
    active: CachePadded<AtomicU64>,
    /// One past the highest slot index ever registered: bounds the
    /// [`SnapRegistry::min_active`] scan to threads that actually took
    /// snapshots instead of all `MAX_THREADS` cache lines.
    high: CachePadded<AtomicU64>,
}

impl SnapRegistry {
    fn new() -> Self {
        SnapRegistry {
            slots: (0..ebr::MAX_THREADS)
                .map(|_| {
                    CachePadded::new(SnapSlot {
                        ts: AtomicU64::new(u64::MAX),
                        depth: AtomicU64::new(0),
                    })
                })
                .collect(),
            active: CachePadded::new(AtomicU64::new(0)),
            high: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Announce a new snapshot and return its timestamp (the pre-advance
    /// clock value, as in \[33\]). The slot is pre-published with a clock
    /// value no larger than the returned timestamp *before* the clock is
    /// advanced, so a concurrent [`SnapRegistry::min_active`] can never
    /// miss a snapshot and still see a timestamp below it.
    ///
    /// Must be paired with [`SnapRegistry::deregister`] on the same thread.
    fn register(&self, clock: &AtomicU64) -> u64 {
        let tid = ebr::thread_id();
        let slot = &self.slots[tid];
        self.high.fetch_max(tid as u64 + 1, Ordering::SeqCst);
        self.active.fetch_add(1, Ordering::SeqCst);
        // ordering: `depth` is written only by the owning thread (snapshot
        // guards are `!Send`), so this is a same-thread read.
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth == 0 {
            slot.ts
                .store(clock.load(Ordering::SeqCst), Ordering::SeqCst);
        }
        slot.depth.store(depth + 1, Ordering::Release);
        clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Retire the calling thread's most recent registration.
    fn deregister(&self) {
        let slot = &self.slots[ebr::thread_id()];
        // ordering: same-thread read; see `register`.
        let depth = slot.depth.load(Ordering::Relaxed);
        debug_assert!(depth > 0, "deregister without register");
        if depth == 1 {
            slot.ts.store(u64::MAX, Ordering::SeqCst);
        }
        slot.depth.store(depth - 1, Ordering::Release);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// A timestamp no live snapshot reads below (conservative). `u64::MAX`
    /// when no snapshot is live — one counter load, no slot scan; with
    /// snapshots live, the scan covers only slots that ever registered
    /// (`high` is published before `active`, so a scan triggered by a
    /// registration cannot miss its slot).
    fn min_active(&self) -> u64 {
        if self.active.load(Ordering::SeqCst) == 0 {
            return u64::MAX;
        }
        let high = self.high.load(Ordering::SeqCst) as usize;
        self.slots[..high]
            .iter()
            .map(|s| s.ts.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// A snapshot clock bundled with its registry of live snapshots: the unit of
/// snapshot *consistency*. Structures that share one `SnapClock` (via
/// `Arc`) stamp their version records from the same monotone counter, so
/// a single registration yields one timestamp that is a consistent cut
/// across **all** of them — the mechanism the sharded front-end uses to
/// turn N per-shard snapshots into one linearizable forest snapshot
/// (\[33\]'s timestamp trick, widened from one tree to a forest).
///
/// The clock starts at 1 so 0 keeps meaning "unstamped".
pub struct SnapClock {
    clock: CachePadded<AtomicU64>,
    registry: SnapRegistry,
}

impl SnapClock {
    pub fn new() -> Self {
        SnapClock {
            clock: CachePadded::new(AtomicU64::new(1)),
            registry: SnapRegistry::new(),
        }
    }

    /// The raw clock, for stamping ([`VersionRecord::stamp`]) and
    /// timestamped reads ([`VersionedEdge::read_at`]).
    #[inline]
    pub fn clock(&self) -> &AtomicU64 {
        &self.clock
    }

    /// Announce a snapshot and return its timestamp (pre-advance clock
    /// value). Pair with [`SnapClock::deregister`] on the same thread.
    /// Every structure sharing this clock can be read at the returned
    /// timestamp for one consistent cut.
    #[inline]
    pub fn register(&self) -> u64 {
        self.registry.register(&self.clock)
    }

    /// Retire the calling thread's most recent registration.
    #[inline]
    pub fn deregister(&self) {
        self.registry.deregister()
    }

    /// A timestamp no live snapshot reads below (conservative); `u64::MAX`
    /// when none is live, at the cost of one counter load.
    #[inline]
    pub fn min_active(&self) -> u64 {
        self.registry.min_active()
    }
}

impl Default for SnapClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_at_walks_to_older_versions() {
        let clock = AtomicU64::new(1);
        let edge = VersionedEdge::new(100);
        let (c, head0) = edge.read(&clock); // stamps head at ts 1
        assert_eq!(c, 100);
        clock.store(5, Ordering::SeqCst);
        let head1 = VersionRecord::alloc(200, head0);
        edge.cell().store(head1, Ordering::SeqCst);
        unsafe { VersionRecord::from_raw(head1) }.stamp(&clock); // ts 5
        assert_eq!(edge.read_at(&clock, 1), 100);
        assert_eq!(edge.read_at(&clock, 4), 100);
        assert_eq!(edge.read_at(&clock, 5), 200);
        unsafe { dispose_chain(edge.head()) };
    }

    #[test]
    fn read_at_falls_back_to_oldest() {
        let clock = AtomicU64::new(7);
        let edge = VersionedEdge::new(42);
        // ts 7 > requested 3, but it is the oldest version: use it.
        assert_eq!(edge.read_at(&clock, 3), 42);
        unsafe { dispose_chain(edge.head()) };
    }

    #[test]
    fn trim_cuts_unreachable_suffix() {
        let clock = AtomicU64::new(1);
        let edge = VersionedEdge::new(1);
        edge.read(&clock); // ts 1
        for (i, child) in [(2u64, 20u64), (3, 30), (4, 40)] {
            clock.store(i, Ordering::SeqCst);
            let h = VersionRecord::alloc(child, edge.head());
            edge.cell().store(h, Ordering::SeqCst);
            unsafe { VersionRecord::from_raw(h) }.stamp(&clock);
        }
        // A reader at ts 3 is live: keep the ts-3 version, cut ts 1..2.
        {
            let g = ebr::pin();
            trim(&g, edge.head(), 3, &clock);
        }
        let mut len = 0;
        let mut raw = edge.head();
        while raw != 0 {
            len += 1;
            raw = unsafe { VersionRecord::from_raw(raw) }.prev();
        }
        assert_eq!(len, 2, "ts 4 head + kept ts 3 version");
        assert_eq!(edge.read_at(&clock, 3), 30);
        // No reader at all: everything behind the head goes.
        {
            let g = ebr::pin();
            trim(&g, edge.head(), u64::MAX, &clock);
        }
        assert_eq!(unsafe { VersionRecord::from_raw(edge.head()) }.prev(), 0);
        unsafe { dispose_chain(edge.head()) };
        ebr::flush();
    }

    #[test]
    fn snap_clock_is_one_cut_across_structures() {
        // Two independent edges stamping from ONE SnapClock: a single
        // registration is a consistent cut over both.
        let sc = SnapClock::new();
        let e1 = VersionedEdge::new(1);
        let e2 = VersionedEdge::new(2);
        e1.read(sc.clock());
        e2.read(sc.clock());
        let ts = sc.register();
        assert!(sc.min_active() <= ts);
        // Post-cut writes on both edges stamp past `ts`…
        for (e, child) in [(&e1, 10u64), (&e2, 20)] {
            let h = VersionRecord::alloc(child, e.head());
            e.cell().store(h, Ordering::SeqCst);
            unsafe { VersionRecord::from_raw(h) }.stamp(sc.clock());
        }
        // …so the cut still reads the pre-write children on both.
        assert_eq!(e1.read_at(sc.clock(), ts), 1);
        assert_eq!(e2.read_at(sc.clock(), ts), 2);
        sc.deregister();
        assert_eq!(sc.min_active(), u64::MAX);
        unsafe {
            dispose_chain(e1.head());
            dispose_chain(e2.head());
        }
    }

    /// A stand-in for a structure node, pooled so the debug poison
    /// (`0xDD`) makes a premature free observable through the canary.
    struct NodeStub {
        canary: u64,
    }

    const STUB_CANARY: u64 = 0x5EED_CAFE_F00D_FEED;

    fn alloc_stub() -> u64 {
        ebr::pool::alloc_pooled(NodeStub {
            canary: STUB_CANARY,
        }) as u64
    }

    unsafe fn free_stub(p: *mut u8) {
        // SAFETY: `p` came from `alloc_stub` and the caller owns it.
        unsafe { ebr::pool::dispose_pooled(p as *mut NodeStub) };
    }

    fn stub_canary(raw: u64) -> u64 {
        // SAFETY (test): `raw` came from `alloc_stub`; liveness is exactly
        // what the retire-order tests assert via the canary value.
        unsafe { &*(raw as *const NodeStub) }.canary
    }

    /// The PR 7 forensics shape, deterministic: a snapshot registered at
    /// `ts` whose record stays reachable, with the superseded node's
    /// reclamation raced past a full grace period before the read. With
    /// the retire list the node must survive until [`trim`] detaches the
    /// covering record — under the old retire-at-publish order the canary
    /// read would hit a recycled, poison-filled block.
    #[test]
    fn node_outlives_covering_record() {
        let sc = SnapClock::new();
        let stub0 = alloc_stub();
        let edge = VersionedEdge::new(stub0);
        edge.read(sc.clock()); // stamp the initial record

        // Register a snapshot but do NOT keep the epoch pin — the
        // `FanoutSet::snapshot` / sharded-reader shape the forensics hit.
        let ts = {
            let _guard = ebr::pin();
            sc.register()
        };

        // A writer supersedes stub0. Retire order under test: the node is
        // attached to the new record, not retired at publish.
        {
            let guard = ebr::pin();
            let head = edge.head();
            let stub1 = alloc_stub();
            let rec = VersionRecord::alloc(stub1, head);
            // SAFETY: `rec` is ours until the store below publishes it.
            unsafe { VersionRecord::from_raw(rec) }.attach_retired(stub0, free_stub);
            edge.cell().store(rec, Ordering::SeqCst);
            // SAFETY: just published on a reachable edge under our pin.
            unsafe { VersionRecord::from_raw(rec) }.stamp(sc.clock());
            trim(&guard, rec, sc.min_active(), sc.clock());
        }

        // Push EBR far enough that anything wrongly retired above is
        // recycled (and poison-filled in debug) by now.
        for _ in 0..4 {
            drop(ebr::pin());
            ebr::flush();
        }

        // The reader resumes under a fresh pin and walks to stub0 through
        // the still-reachable record.
        {
            let _guard = ebr::pin();
            let child = edge.read_at(sc.clock(), ts);
            assert_eq!(child, stub0);
            assert_eq!(
                stub_canary(child),
                STUB_CANARY,
                "superseded node was recycled while its record was reachable"
            );
        }
        sc.deregister();

        // With the registration gone, trimming detaches the old record —
        // and only now does stub0 go to EBR.
        {
            let guard = ebr::pin();
            trim(&guard, edge.head(), u64::MAX, sc.clock());
        }
        let head = edge.cell().swap(0, Ordering::SeqCst);
        // SAFETY: the head is exclusively ours after the swap.
        let live = unsafe { VersionRecord::from_raw(head) }.child();
        // SAFETY: nothing references the chain (or its pending retire
        // lists) any more.
        unsafe { dispose_chain(head) };
        // SAFETY: the final child is not on any retire list; free it.
        unsafe { free_stub(live as *mut u8) };
        ebr::flush();
    }

    /// The two non-trim exits for a retire list: an aborted publish must
    /// drop its cells without touching the (still-live) nodes, and a
    /// whole-chain teardown must free pending nodes with the records.
    #[test]
    fn abort_and_teardown_paths_handle_retire_lists() {
        // Abort: the "superseded" node must stay live.
        let victim = alloc_stub();
        let rec = VersionRecord::alloc(777, 0);
        // SAFETY: `rec` is unpublished and ours.
        let r = unsafe { VersionRecord::from_raw(rec) };
        r.attach_retired(victim, free_stub);
        // SAFETY: unpublished record, exclusively ours (abort contract).
        unsafe { r.abort_retired() };
        assert_eq!(stub_canary(victim), STUB_CANARY, "abort freed a live node");
        // SAFETY: unpublished and list already cleared.
        unsafe { ebr::pool::dispose_pooled(rec as *mut VersionRecord) };

        // Teardown: a chain with a pending retire list frees the node too
        // (no leak — the asan job would catch one here).
        let clock = AtomicU64::new(1);
        let edge = VersionedEdge::new(victim);
        edge.read(&clock);
        let stub1 = alloc_stub();
        let head = VersionRecord::alloc(stub1, edge.head());
        // SAFETY: private until the store below.
        unsafe { VersionRecord::from_raw(head) }.attach_retired(victim, free_stub);
        edge.cell().store(head, Ordering::SeqCst);
        let taken = edge.cell().swap(0, Ordering::SeqCst);
        // SAFETY: chain unpublished from the edge and exclusively ours;
        // frees `victim` via its pending cell.
        unsafe { dispose_chain(taken) };
        // SAFETY: stub1 (the live child) is not on any retire list.
        unsafe { free_stub(stub1 as *mut u8) };
    }

    #[test]
    fn registry_tracks_nested_snapshots() {
        let clock = AtomicU64::new(10);
        let reg = SnapRegistry::new();
        assert_eq!(reg.min_active(), u64::MAX);
        let t1 = reg.register(&clock);
        assert_eq!(t1, 10);
        assert!(reg.min_active() <= t1);
        let t2 = reg.register(&clock); // nested, newer
        assert_eq!(t2, 11);
        assert!(reg.min_active() <= t1, "outer snapshot still pins the min");
        reg.deregister();
        assert!(reg.min_active() <= t1);
        reg.deregister();
        assert_eq!(reg.min_active(), u64::MAX);
    }
}

/// Deterministic-scheduler corpus for the **register-vs-trim window**
/// (ISSUE 9 satellite, the PR 7 forensics follow-up): the poison-verified
/// use-after-retire from the fanout hunt pointed at the gap inside
/// [`SnapClock::register`] — `active` is incremented *before* the
/// slot's timestamp is published, so a concurrent [`trim`] can observe
/// `active > 0` with the registering thread's slot still at `u64::MAX`
/// (or, with no other snapshot live, a `min_active` of `u64::MAX`) and
/// cut aggressively while the registration is mid-flight.
///
/// The defense is two-layered and both layers are exercised here:
/// * the slot pre-publishes a timestamp **no larger than** the value
///   `register` returns *before* the clock advances, so a trim racing a
///   completed registration can never cut a record that snapshot needs;
/// * a trim racing an *incomplete* registration may cut deep, but the
///   registrant's eventual timestamp is then ≥ every stamped record, so
///   its reads stop at (or above) the surviving head — and [`trim`]'s
///   claim-link-before-retire discipline means a pinned reader can never
///   follow a `prev` edge into a claimed suffix.
///
/// Every branch of the bodies is bounded (single CAS publishes, chain
/// length ≤ 2 per publish, no retry loops), so the window can be
/// enumerated with **exhaustive DFS** rather than sampled: every explored
/// schedule is a distinct interleaving, visited systematically from the
/// first divergence point (the full space is larger than CI budgets — a
/// campaign raises the schedule constants on a scratch copy). A
/// use-after-retire under the debug pool's 0xDD poison surfaces as a
/// poisoned `child()` value or a "use-after-retire" panic, both failing
/// the oracle with a replayable trace.
#[cfg(all(test, feature = "sched-test"))]
mod sched_tests {
    use super::*;
    use sched::{explore, explore_exhaustive, ExploreConfig, Policy};
    use std::sync::Arc;

    /// One edge over child 10; writers publish 20 (then 30).
    struct Scene {
        clock: SnapClock,
        edge: VersionedEdge,
    }

    impl Scene {
        fn new() -> Arc<Scene> {
            Arc::new(Scene {
                clock: SnapClock::new(),
                edge: VersionedEdge::new(10),
            })
        }

        /// The owning structure's publish path (as in `fanout`): install
        /// a record over the current head, stamp it, trim at the registry
        /// floor.
        fn publish(&self, child: u64) {
            let guard = ebr::pin();
            let head = self.edge.head();
            let rec = VersionRecord::alloc(child, head);
            self.edge
                .cell()
                .compare_exchange(head, rec, Ordering::SeqCst, Ordering::SeqCst)
                .expect("sole writer");
            // SAFETY: `rec` was just installed on a reachable edge under
            // our pin.
            unsafe { VersionRecord::from_raw(rec) }.stamp(self.clock.clock());
            trim(&guard, rec, self.clock.min_active(), self.clock.clock());
        }

        /// Snapshot read with the pin held across register + read.
        fn read_pinned(&self) -> u64 {
            let _guard = ebr::pin();
            let ts = self.clock.register();
            let v = self.edge.read_at(self.clock.clock(), ts);
            self.clock.deregister();
            v
        }

        /// Snapshot read with register and read under **different** pins —
        /// the `FanoutSet::snapshot` shape the forensics implicated: the
        /// registration's guard is dropped and the actual read happens
        /// under a later pin, so only the registry floor (not the epoch)
        /// protects the chain between the two.
        fn read_repinned(&self) -> u64 {
            let ts = {
                let _guard = ebr::pin();
                self.clock.register()
            };
            let v = {
                let _guard = ebr::pin();
                self.edge.read_at(self.clock.clock(), ts)
            };
            self.clock.deregister();
            v
        }

        /// Quiescent oracle + chain teardown (all vthreads joined).
        fn finish(&self, expect_child: u64) {
            let _guard = ebr::pin();
            let ts = self.clock.register();
            assert_eq!(
                self.edge.read_at(self.clock.clock(), ts),
                expect_child,
                "fresh snapshot must see the final publish"
            );
            self.clock.deregister();
            // SAFETY: every vthread joined; the surviving chain is
            // exclusively ours. Trimmed suffixes were detached (prev = 0)
            // before retirement, so this walk cannot reach them.
            unsafe { dispose_chain(self.edge.cell().swap(0, Ordering::SeqCst)) };
        }
    }

    /// One publish+trim racing one registered read. Oracle: the read sees
    /// a *published* child — never a poisoned/reclaimed word.
    fn register_vs_trim_body(repin: bool) {
        let s = Scene::new();
        let (sw, sr) = (s.clone(), s.clone());
        let w = sched::spawn(move || sw.publish(20));
        let r = sched::spawn(move || {
            if repin {
                sr.read_repinned()
            } else {
                sr.read_pinned()
            }
        });
        w.join();
        let v = r.join();
        assert!(
            v == 10 || v == 20,
            "snapshot read returned an unpublished child: {v:#x}"
        );
        s.finish(20);
    }

    /// DFS schedule budget of each read shape of the register-vs-trim race.
    const REGISTER_VS_TRIM_DFS_SCHEDULES: usize = 20_000;

    #[test]
    fn register_vs_trim_exhaustive_dfs() {
        for repin in [false, true] {
            let report = explore_exhaustive(REGISTER_VS_TRIM_DFS_SCHEDULES, 500_000, move || {
                register_vs_trim_body(repin)
            });
            report.assert_clean(if repin {
                "register-vs-trim (repinned read)"
            } else {
                "register-vs-trim (pinned read)"
            });
            eprintln!(
                "register-vs-trim repin={repin}: {} schedules, exhausted={}",
                report.schedules, report.exhausted
            );
        }
    }

    /// Wider randomized corpus: two publishes (so trims have real work),
    /// two concurrent readers covering both pin shapes, and a third
    /// reader registering *during* the second publish — more registration
    /// windows per schedule than the DFS scenario can afford.
    fn contended_body() {
        let s = Scene::new();
        let sw = s.clone();
        let w = sched::spawn(move || {
            sw.publish(20);
            sw.publish(30);
        });
        let readers: Vec<_> = (0..3u64)
            .map(|i| {
                let sr = s.clone();
                sched::spawn(move || {
                    if i % 2 == 0 {
                        sr.read_pinned()
                    } else {
                        sr.read_repinned()
                    }
                })
            })
            .collect();
        w.join();
        for r in readers {
            let v = r.join();
            assert!(
                v == 10 || v == 20 || v == 30,
                "snapshot read returned an unpublished child: {v:#x}"
            );
        }
        s.finish(30);
    }

    /// Schedules per policy of the contended register-vs-trim corpus.
    const REGISTER_VS_TRIM_SCHEDULES: usize = 300;

    #[test]
    fn register_vs_trim_explored_random() {
        for (policy, seed) in [
            (Policy::RandomWalk, 0x7ED6_0001u64),
            (Policy::Pct { depth: 3 }, 0x7ED6_0002),
        ] {
            let cfg = ExploreConfig {
                schedules: REGISTER_VS_TRIM_SCHEDULES,
                seed,
                max_steps: 1_000_000,
                policy,
            };
            let report = explore(&cfg, contended_body);
            report.assert_clean("register-vs-trim contended");
        }
        eprintln!(
            "register-vs-trim contended: {} schedules clean",
            2 * REGISTER_VS_TRIM_SCHEDULES
        );
    }

    // ------------------------------------------------------------------
    // Retire-order corpus (ISSUE 10 headline satellite, the PR 7
    // forensics shape): the edge's children are *pooled nodes*, publishes
    // attach the superseded node to the new record, and readers register
    // without keeping the epoch pin, then deref the child they read. If a
    // node were ever handed to EBR while a record covering it was still
    // reachable, some schedule recycles it between the reader's pins and
    // the canary deref observes the pool's 0xDD poison.
    // ------------------------------------------------------------------

    const CANARY: u64 = 0x5EED_CAFE_F00D_FEED;

    /// A pooled stand-in for a structure node.
    struct NodeStub {
        canary: u64,
    }

    fn alloc_stub() -> u64 {
        ebr::pool::alloc_pooled(NodeStub { canary: CANARY }) as u64
    }

    unsafe fn free_stub(p: *mut u8) {
        // SAFETY: `p` came from `alloc_stub` and the caller owns it.
        unsafe { ebr::pool::dispose_pooled(p as *mut NodeStub) };
    }

    /// One edge over pooled node stubs; publishes supersede the previous
    /// stub with the fixed retire order (attach-before-publish).
    struct RetireScene {
        clock: SnapClock,
        edge: VersionedEdge,
    }

    impl RetireScene {
        fn new() -> Arc<RetireScene> {
            let s = Arc::new(RetireScene {
                clock: SnapClock::new(),
                edge: VersionedEdge::new(alloc_stub()),
            });
            s.edge.read(s.clock.clock()); // stamp the initial record
            s
        }

        /// Publish a fresh node over the current one. Retire order under
        /// test: the superseded node rides the new record's retire list
        /// and reaches EBR only when `trim` detaches its covering record.
        fn publish_node(&self) {
            let guard = ebr::pin();
            let head = self.edge.head();
            // SAFETY: head of a reachable edge, live under our pin.
            let old_child = unsafe { VersionRecord::from_raw(head) }.child();
            let rec = VersionRecord::alloc(alloc_stub(), head);
            // SAFETY: `rec` is private until the CAS below publishes it.
            unsafe { VersionRecord::from_raw(rec) }.attach_retired(old_child, free_stub);
            self.edge
                .cell()
                .compare_exchange(head, rec, Ordering::SeqCst, Ordering::SeqCst)
                .expect("sole writer");
            // SAFETY: just installed on a reachable edge under our pin.
            unsafe { VersionRecord::from_raw(rec) }.stamp(self.clock.clock());
            trim(&guard, rec, self.clock.min_active(), self.clock.clock());
        }

        /// Registered-but-repinned reader that *dereferences* the node it
        /// reads — the oracle the PR 7 forensics needed: a stale canary
        /// means a node was retired while its record was reachable.
        fn read_node_repinned(&self) -> u64 {
            let ts = {
                let _guard = ebr::pin();
                self.clock.register()
            };
            let canary = {
                let _guard = ebr::pin();
                let child = self.edge.read_at(self.clock.clock(), ts);
                // SAFETY: the registry floor keeps the record covering
                // `child` reachable at `ts`, and the retire-list order
                // keeps the node alive while that record is — exactly the
                // invariant this corpus explores.
                unsafe { &*(child as *const NodeStub) }.canary
            };
            self.clock.deregister();
            canary
        }

        /// Quiescent teardown: trim everything, then free the chain and
        /// the one live node.
        fn finish(&self) {
            {
                let guard = ebr::pin();
                trim(&guard, self.edge.head(), u64::MAX, self.clock.clock());
            }
            let head = self.edge.cell().swap(0, Ordering::SeqCst);
            // SAFETY: exclusively ours after the swap (vthreads joined).
            let live = unsafe { VersionRecord::from_raw(head) }.child();
            // SAFETY: unreachable chain; pending retire lists go with it.
            unsafe { dispose_chain(head) };
            // SAFETY: the live child is on no retire list.
            unsafe { free_stub(live as *mut u8) };
        }
    }

    /// Two publishes (with EBR pushed between them, so a wrongly-early
    /// retire really recycles) racing registered-repinned readers that
    /// deref what they read.
    fn retire_order_body() {
        let s = RetireScene::new();
        let sw = s.clone();
        let w = sched::spawn(move || {
            sw.publish_node();
            ebr::flush();
            sw.publish_node();
            ebr::flush();
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let sr = s.clone();
                sched::spawn(move || sr.read_node_repinned())
            })
            .collect();
        w.join();
        for r in readers {
            assert_eq!(
                r.join(),
                CANARY,
                "reader dereferenced a recycled node: retire order violated"
            );
        }
        s.finish();
    }

    /// DFS schedule budget of the retire-order race.
    const RETIRE_ORDER_DFS_SCHEDULES: usize = 10_000;

    #[test]
    fn retire_order_exhaustive_dfs() {
        let report = explore_exhaustive(RETIRE_ORDER_DFS_SCHEDULES, 500_000, retire_order_body);
        report.assert_clean("retire-order (attach-before-publish)");
        eprintln!(
            "retire-order: {} schedules, exhausted={}",
            report.schedules, report.exhausted
        );
    }

    /// Schedules per policy of the contended retire-order corpus.
    const RETIRE_ORDER_SCHEDULES: usize = 200;

    #[test]
    fn retire_order_explored_random() {
        for (policy, seed) in [
            (Policy::RandomWalk, 0x7ED6_0003u64),
            (Policy::Pct { depth: 3 }, 0x7ED6_0004),
        ] {
            let cfg = ExploreConfig {
                schedules: RETIRE_ORDER_SCHEDULES,
                seed,
                max_steps: 1_000_000,
                policy,
            };
            let report = explore(&cfg, retire_order_body);
            report.assert_clean("retire-order contended");
        }
        eprintln!(
            "retire-order contended: {} schedules clean",
            2 * RETIRE_ORDER_SCHEDULES
        );
    }
}
