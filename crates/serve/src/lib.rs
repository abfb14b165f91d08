//! End-to-end serving layer over the sharded fanout forest
//! ([`build_forest`]).
//!
//! Everything below is in-process plumbing — no sockets, no external
//! crates — but it has the shape of a real server front-end:
//!
//! * **Bounded request rings** ([`Ring`], a Vyukov-style MPMC queue of
//!   request-cell pointers): one per shard for point ops, plus one
//!   shared by both analytics classes in front of a dedicated analytics
//!   worker. `try_push` on a full ring fails immediately — that *is*
//!   the admission-control decision; the client records a rejection
//!   and moves on instead of queueing unboundedly.
//! * **Class isolation**: point ops never share a queue with analytics,
//!   so a flood of `range_count`s cannot starve `insert`s. The analytics
//!   worker serves rank/select and range requests in arrival order from
//!   their one ring, so neither analytics class can starve the other:
//!   a request waits behind at most a ring's worth of earlier ones.
//! * **Snapshot leases** ([`SnapshotLease`]): the analytics worker
//!   registers once on the forest clock, serves every query of the
//!   lease period from one [`ShardedSet::snapshot_at`] cut, and
//!   *renews* (deregister + re-register) when the lease expires. A
//!   reader that never voluntarily unregisters therefore still only
//!   pins one lease period of version history — the version lists
//!   under it stay bounded no matter how long it runs. A lease period
//!   in which nothing was served is not renewed: the worker gives the
//!   cut and the lease back and parks until a request arrives.
//! * **Pipelined clients**: each client keeps a window of outstanding
//!   request cells in flight, reaping completions out of order, so a
//!   single client thread measures the server under concurrency
//!   rather than lock-step request/response.
//!
//! How each thread waits (there is no option for any of it):
//!
//! * client — window full, next arrival not yet due, stragglers at the
//!   end: `relax`;
//! * point worker — ring empty: `relax`;
//! * analytics worker — ring empty: `relax` for one lease period,
//!   then release the cut and the lease and `park` until a client
//!   admits a `Stat`/`Range` request or the run stops.
//!
//! This crate is harness-tier (like `bench` and `workloads`): it uses
//! `std` atomics and `std::time` directly and is not part of the
//! sched-instrumented protocol core.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

use fanout::FanoutSet;
use shard::{ShardedSet, ShardedSnapshot};

// ---------------------------------------------------------------------------
// Bounded MPMC ring
// ---------------------------------------------------------------------------

/// Admission refused: the ring was full at `try_push` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

#[repr(align(64))]
struct Slot {
    seq: AtomicU64,
    val: AtomicU64,
}

/// A bounded MPMC queue of `u64` values (request-cell addresses),
/// Vyukov-style: each slot carries a sequence number that encodes
/// whether it is free for the producer at a given ticket or holds a
/// value for the consumer. Capacity is rounded up to a power of two.
///
/// `try_push` never blocks and never spuriously fails when space is
/// available under quiescence; a `RingFull` result is the admission
/// controller's backpressure signal.
pub struct Ring {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    tail: AtomicU64,
}

impl Ring {
    /// A ring with capacity `cap.next_power_of_two()` (min 2).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                val: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Enqueue, or fail immediately if the ring is full.
    pub fn try_push(&self, v: u64) -> Result<(), RingFull> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as i64 - pos as i64;
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.val.store(v, Ordering::Relaxed);
                        slot.seq.store(pos + 1, Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return Err(RingFull);
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// True when no push has claimed a slot that a pop has not yet
    /// claimed back. `tail` moves before the pushed value is published,
    /// so a `false` may come early — [`Ring::try_pop`] can still return
    /// `None` for a moment afterwards — but never late: once
    /// [`Ring::try_push`] has returned, every `is_empty` ordered after it
    /// reads `false` until the value is popped. The loads are `Relaxed`;
    /// a caller that sleeps on the answer supplies that order itself
    /// (see `Shared::wake_analytics`).
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed) == self.tail.load(Ordering::Relaxed)
    }

    /// Dequeue, or `None` if the ring is empty.
    pub fn try_pop(&self) -> Option<u64> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as i64 - (pos + 1) as i64;
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = slot.val.load(Ordering::Relaxed);
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(v);
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Query class, for routing and per-class accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `insert` / `remove` / `contains` — routed to the owning shard.
    Point = 0,
    /// `rank` / `select` — order statistics under the leased snapshot.
    Stat = 1,
    /// `range_count` — range analytics under the leased snapshot.
    Range = 2,
}

pub const NUM_CLASSES: usize = 3;

const OP_INSERT: u64 = 0;
const OP_REMOVE: u64 = 1;
const OP_CONTAINS: u64 = 2;
const OP_RANK: u64 = 3;
const OP_SELECT: u64 = 4;
const OP_RANGE_COUNT: u64 = 5;

const ST_PENDING: u64 = 1;
const ST_DONE: u64 = 2;

/// One in-flight request. The client owns the cell (boxed, stable
/// address) and hands its address through a [`Ring`]; the worker fills
/// `resp` and flips `state` to done, which releases the cell back to
/// the client for reuse. The ring's sequence handshake orders the
/// client's `op`/`a`/`b` writes before the worker's reads; `state`
/// (release store / acquire load) orders `resp` back.
pub struct ReqCell {
    op: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    resp: AtomicU64,
    state: AtomicU64,
}

impl ReqCell {
    fn new() -> Self {
        ReqCell {
            op: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            resp: AtomicU64::new(0),
            state: AtomicU64::new(0),
        }
    }
}

fn exec_point(set: &ShardedSet<FanoutSet>, cell: &ReqCell) {
    let op = cell.op.load(Ordering::Relaxed);
    let a = cell.a.load(Ordering::Relaxed);
    let r = match op {
        OP_INSERT => set.insert(a) as u64,
        OP_REMOVE => set.remove(a) as u64,
        _ => set.contains(a) as u64,
    };
    cell.resp.store(r, Ordering::Relaxed);
    cell.state.store(ST_DONE, Ordering::Release);
}

fn exec_snap(snap: &ShardedSnapshot<'_, FanoutSet>, cell: &ReqCell) {
    let op = cell.op.load(Ordering::Relaxed);
    let a = cell.a.load(Ordering::Relaxed);
    let b = cell.b.load(Ordering::Relaxed);
    let r = match op {
        OP_RANK => snap.rank(a),
        OP_SELECT => snap.select(a).unwrap_or(u64::MAX),
        _ => snap.range_count(a, b),
    };
    cell.resp.store(r, Ordering::Relaxed);
    cell.state.store(ST_DONE, Ordering::Release);
}

// ---------------------------------------------------------------------------
// Snapshot lease
// ---------------------------------------------------------------------------

/// A bounded-lifetime registration on the forest's snapshot clock —
/// the serving layer's answer to "an analytics reader that never
/// unregisters pins version lists forever".
///
/// The holder registers once ([`SnapshotLease::take`]) and serves
/// reads from cuts at [`SnapshotLease::ts`] (via
/// [`ShardedSet::snapshot_at`]). When the lease period elapses,
/// [`SnapshotLease::renew`] deregisters and re-registers,
/// moving the pinned timestamp forward so trimming can reclaim the
/// history behind it. Even a reader that *never* gives up its lease
/// only ever pins one lease period of versions.
///
/// Renewal order matters: the registry only records a thread's
/// timestamp on the outermost registration, so the old registration
/// must be dropped *before* the new one is taken (deregister, then
/// register) — nesting them would silently keep pinning the old
/// timestamp. Registrations are per-thread state: a lease must be
/// taken, renewed, and dropped on one thread (this type is `!Send`).
pub struct SnapshotLease<'a> {
    set: &'a ShardedSet<FanoutSet>,
    ts: u64,
    taken: Instant,
    period: Duration,
    /// Registrations live in per-thread registry slots.
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl<'a> SnapshotLease<'a> {
    /// Register on the forest clock and start the lease period.
    pub fn take(set: &'a ShardedSet<FanoutSet>, period: Duration) -> Self {
        let ts = set.snap_clock().register();
        SnapshotLease {
            set,
            ts,
            taken: Instant::now(),
            period,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The leased timestamp — pass to [`ShardedSet::snapshot_at`].
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// True once the lease period has elapsed.
    pub fn expired(&self) -> bool {
        self.taken.elapsed() >= self.period
    }

    /// Deregister and re-register, advancing the pinned timestamp.
    /// Any snapshot taken at the old [`SnapshotLease::ts`] must be
    /// dropped first — the borrow checker can't see that coupling, so
    /// the serving loop structures itself around it.
    pub fn renew(&mut self) {
        self.set.snap_clock().deregister();
        self.ts = self.set.snap_clock().register();
        self.taken = Instant::now();
    }
}

impl Drop for SnapshotLease<'_> {
    fn drop(&mut self) {
        self.set.snap_clock().deregister();
    }
}

// ---------------------------------------------------------------------------
// Server configuration / report
// ---------------------------------------------------------------------------

/// Per-mille request mix across classes (must sum to ≤ 1000; the
/// remainder goes to `Point`).
#[derive(Debug, Clone, Copy)]
pub struct ClassMix {
    /// ‰ of requests that are rank/select.
    pub stat_pm: u32,
    /// ‰ of requests that are range_count.
    pub range_pm: u32,
}

/// Serving-run parameters. All sizes are deliberately small-host
/// friendly; the `serve` example steps `offered_rps` from paced to
/// open, and the benchmark's served workloads run one paced rate, then
/// open.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Client threads, each pipelining `window` outstanding requests.
    pub clients: usize,
    /// Outstanding requests per client (pipeline depth).
    pub window: usize,
    /// Capacity of each per-shard point ring.
    pub point_queue_cap: usize,
    /// Capacity of the one analytics ring, which `Stat` and `Range`
    /// requests share.
    pub analytics_queue_cap: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Total offered load across clients, requests/sec. 0 = open
    /// throttle (submit as fast as the window allows).
    pub offered_rps: u64,
    /// Request mix.
    pub mix: ClassMix,
    /// Keys are drawn uniformly from `[0, max_key)`.
    pub max_key: u64,
    /// Snapshot lease period for the analytics worker.
    pub lease: Duration,
    /// Width of range_count queries.
    pub range_span: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            clients: 2,
            window: 16,
            point_queue_cap: 64,
            analytics_queue_cap: 64,
            duration: Duration::from_millis(200),
            offered_rps: 0,
            mix: ClassMix {
                stat_pm: 150,
                range_pm: 50,
            },
            max_key: 1 << 16,
            lease: Duration::from_millis(10),
            range_span: 1 << 10,
            seed: 0x5E1F_5E1F,
        }
    }
}

/// Per-class outcome counters plus raw latency samples (nanoseconds,
/// unsorted — callers sort and take percentiles).
#[derive(Debug, Default, Clone)]
pub struct ClassStats {
    /// Requests admitted into a ring.
    pub submitted: u64,
    /// Requests completed (response observed by the client).
    pub completed: u64,
    /// Requests refused admission (ring full).
    pub rejected: u64,
    /// End-to-end latency samples, ns. Under pacing the clock starts
    /// at the request's *scheduled* arrival, not its actual submit, so
    /// backpressure shows up as latency instead of being hidden
    /// (no coordinated omission).
    pub samples: Vec<u64>,
}

/// What a serving run measured.
#[derive(Debug, Default, Clone)]
pub struct ServeReport {
    /// Wall-clock seconds actually spent serving.
    pub secs: f64,
    /// Indexed by `Class as usize`.
    pub classes: [ClassStats; NUM_CLASSES],
    /// Times the analytics worker's pinned timestamp moved: renewals of
    /// a lease that served something, plus leases taken afresh after a
    /// park.
    pub lease_renewals: u64,
    /// Times the analytics worker gave its cut and lease back and parked
    /// because a whole lease period passed with nothing to serve.
    pub parks: u64,
}

impl ServeReport {
    /// Total completed requests across classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Total rejected requests across classes.
    pub fn rejected(&self) -> u64 {
        self.classes.iter().map(|c| c.rejected).sum()
    }

    /// Completed requests per second.
    pub fn rps(&self) -> f64 {
        self.completed() as f64 / self.secs.max(1e-9)
    }
}

// ---------------------------------------------------------------------------
// The serving loop
// ---------------------------------------------------------------------------

struct Shared<'a> {
    set: &'a ShardedSet<FanoutSet>,
    point_rings: Vec<Ring>,
    analytics_ring: Ring,
    stop: AtomicBool,
    /// Clients still submitting; workers drain-and-exit only after
    /// this hits zero (a client's last push happens-before its
    /// decrement, so one final drain after seeing zero is complete).
    submitters: AtomicUsize,
    /// The analytics worker's handle, set by `run_serve` before any
    /// client starts, and whether the worker is parked (or about to
    /// be) and wants an `unpark` after the next analytics push.
    analytics: OnceLock<Thread>,
    analytics_parked: AtomicBool,
}

impl Shared<'_> {
    /// The waker's half of the park handshake, called after the store
    /// the worker must not sleep through (an analytics `try_push`, or
    /// `stop`). Dekker pairing: the waker stores, fences, loads
    /// `analytics_parked`; the worker stores `analytics_parked`, fences,
    /// loads the analytics ring and `stop` (`park_analytics`). One of the
    /// two fences comes first in the `SeqCst` order, so either the worker
    /// sees the store and stays up, or the waker sees the flag and
    /// unparks. An `unpark` that lands before the `park` leaves a token
    /// that makes that `park` return at once.
    fn wake_analytics(&self) {
        fence(Ordering::SeqCst);
        if self.analytics_parked.load(Ordering::Relaxed) {
            self.analytics
                .get()
                .expect("run_serve sets the handle before any waker starts")
                .unpark();
        }
    }

    /// The worker's half: called holding no cut, no lease and no pin.
    /// Publishes "parked", then sleeps until there is an analytics
    /// request to pop or the run is stopping; every wake-up — request,
    /// `stop`, spurious, stale token — re-checks before returning.
    /// Returns whether it slept at all.
    fn park_analytics(&self) -> bool {
        self.analytics_parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let mut slept = false;
        while self.analytics_ring.is_empty() && !self.stop.load(Ordering::Acquire) {
            std::thread::park();
            slept = true;
        }
        self.analytics_parked.store(false, Ordering::Relaxed);
        slept
    }
}

/// Wait a little for another thread to make progress. It yields as
/// well as spins because on a small host the thread being waited for
/// may need this very core.
fn relax() {
    std::hint::spin_loop();
    std::thread::yield_now();
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn point_worker(sh: &Shared<'_>, idx: usize) {
    let ring = &sh.point_rings[idx];
    loop {
        if let Some(p) = ring.try_pop() {
            // SAFETY: ring values are addresses of ReqCells boxed by a
            // client that keeps them alive (and does not reuse them)
            // until it observes ST_DONE, which we store last.
            exec_point(sh.set, unsafe { &*(p as *const ReqCell) });
            continue;
        }
        if sh.stop.load(Ordering::Acquire) && sh.submitters.load(Ordering::Acquire) == 0 {
            while let Some(p) = ring.try_pop() {
                // SAFETY: as above.
                exec_point(sh.set, unsafe { &*(p as *const ReqCell) });
            }
            return;
        }
        relax();
    }
}

/// Returns `(lease_renewals, parks)` for the [`ServeReport`].
fn analytics_worker(sh: &Shared<'_>, lease_period: Duration) -> (u64, u64) {
    let mut lease = SnapshotLease::take(sh.set, lease_period);
    let (mut moved, mut parks) = (0u64, 0u64);
    'run: loop {
        // One cut per lease period amortizes the collect loop — and, on
        // fanout shards, the cut's subtree-count fill, which the period's
        // first queries pay — across every analytics request served
        // under it.
        let snap = sh.set.snapshot_at(lease.ts());
        let mut served_under_lease = false;
        loop {
            if let Some(p) = sh.analytics_ring.try_pop() {
                // SAFETY: see point_worker — cells outlive their
                // in-flight window.
                exec_snap(&snap, unsafe { &*(p as *const ReqCell) });
                served_under_lease = true;
            } else if sh.stop.load(Ordering::Acquire) && sh.submitters.load(Ordering::Acquire) == 0
            {
                while let Some(p) = sh.analytics_ring.try_pop() {
                    // SAFETY: as above.
                    exec_snap(&snap, unsafe { &*(p as *const ReqCell) });
                }
                break 'run;
            } else {
                relax();
            }
            if lease.expired() {
                break;
            }
        }
        // The cut reads at the lease's timestamp, so it goes first.
        drop(snap);
        if served_under_lease {
            lease.renew();
        } else {
            // A whole period with nothing served: renewing would pin an
            // epoch and a timestamp for nobody. Give both back, sleep
            // until there is work, and start again from a fresh lease.
            drop(lease);
            parks += sh.park_analytics() as u64;
            lease = SnapshotLease::take(sh.set, lease_period);
        }
        moved += 1;
    }
    drop(lease);
    (moved, parks)
}

struct ClientOut {
    stats: [ClassStats; NUM_CLASSES],
}

fn client_loop(sh: &Shared<'_>, cfg: &ServeConfig, id: usize) -> ClientOut {
    let mut rng = cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1));
    let cells: Vec<Box<ReqCell>> = (0..cfg.window).map(|_| Box::new(ReqCell::new())).collect();
    // Client-private per-slot bookkeeping: class + latency clock start.
    let mut in_flight: Vec<Option<(Class, Instant)>> = vec![None; cfg.window];
    let mut stats: [ClassStats; NUM_CLASSES] = Default::default();

    // Open-loop pacing: each client owns a 1/clients slice of the
    // offered load and stamps latency from the scheduled arrival.
    let period = 1_000_000_000u64
        .saturating_mul(cfg.clients as u64)
        .checked_div(cfg.offered_rps)
        .map_or(Duration::ZERO, Duration::from_nanos);
    let start = Instant::now();
    let mut next_arrival = start;

    let shards = sh.set.num_shards();
    let partition = sh.set.partition();

    while !sh.stop.load(Ordering::Acquire) {
        // Reap completions.
        let mut free = None;
        for (i, slot) in in_flight.iter_mut().enumerate() {
            match slot {
                Some((class, at)) => {
                    if cells[i].state.load(Ordering::Acquire) == ST_DONE {
                        let st = &mut stats[*class as usize];
                        st.completed += 1;
                        st.samples.push(at.elapsed().as_nanos() as u64);
                        *slot = None;
                        free = Some(i);
                    }
                }
                None => free = Some(i),
            }
        }
        let Some(i) = free else {
            // Window full: give the workers the core.
            relax();
            continue;
        };

        // Pace.
        if !period.is_zero() {
            let now = Instant::now();
            if now < next_arrival {
                relax();
                continue;
            }
        }
        let arrival = if period.is_zero() {
            Instant::now()
        } else {
            let a = next_arrival;
            next_arrival += period;
            a
        };

        // Generate.
        let r = xorshift(&mut rng);
        let pm = (r >> 32) % 1000;
        let key = r % cfg.max_key;
        let (class, op, a, b) = if pm < cfg.mix.stat_pm as u64 {
            if r & 1 == 0 {
                (Class::Stat, OP_RANK, key, 0)
            } else {
                (Class::Stat, OP_SELECT, key % (cfg.max_key / 2).max(1), 0)
            }
        } else if pm < cfg.mix.stat_pm as u64 + cfg.mix.range_pm as u64 {
            (
                Class::Range,
                OP_RANGE_COUNT,
                key,
                key.saturating_add(cfg.range_span),
            )
        } else {
            let op = match r % 10 {
                0..=3 => OP_INSERT,
                4..=6 => OP_REMOVE,
                _ => OP_CONTAINS,
            };
            (Class::Point, op, key, 0)
        };

        let cell = &cells[i];
        cell.op.store(op, Ordering::Relaxed);
        cell.a.store(a, Ordering::Relaxed);
        cell.b.store(b, Ordering::Relaxed);
        cell.state.store(ST_PENDING, Ordering::Relaxed);
        let addr = (&**cell) as *const ReqCell as u64;

        let ring = match class {
            Class::Point => &sh.point_rings[partition.shard_of(key, shards)],
            Class::Stat | Class::Range => &sh.analytics_ring,
        };
        match ring.try_push(addr) {
            Ok(()) => {
                stats[class as usize].submitted += 1;
                in_flight[i] = Some((class, arrival));
                if class != Class::Point {
                    sh.wake_analytics();
                }
            }
            Err(RingFull) => {
                // Admission refused: record and move on. The cell was
                // never published, so it is immediately reusable.
                stats[class as usize].rejected += 1;
                cell.state.store(0, Ordering::Relaxed);
            }
        }
    }

    // Done submitting; let workers drain, then reap the stragglers.
    sh.submitters.fetch_sub(1, Ordering::Release);
    for (i, slot) in in_flight.iter_mut().enumerate() {
        if let Some((class, at)) = slot {
            while cells[i].state.load(Ordering::Acquire) != ST_DONE {
                relax();
            }
            let st = &mut stats[*class as usize];
            st.completed += 1;
            st.samples.push(at.elapsed().as_nanos() as u64);
            *slot = None;
        }
    }
    ClientOut { stats }
}

/// Run the serving loop: per-shard point workers + one analytics
/// worker + `cfg.clients` pipelined clients, for `cfg.duration`.
///
/// Panics, on the calling thread, if `clients`, `window` or `max_key` is
/// 0 or if `mix` asks for more than 1000 ‰.
pub fn run_serve(set: &ShardedSet<FanoutSet>, cfg: &ServeConfig) -> ServeReport {
    // A client that panics never leaves `submitters`, and the workers wait
    // for it for ever: refuse here what would make one panic.
    assert!(cfg.clients >= 1 && cfg.window >= 1);
    assert!(cfg.max_key >= 1, "keys are drawn from [0, max_key)");
    assert!(
        cfg.mix.stat_pm as u64 + cfg.mix.range_pm as u64 <= 1000,
        "the class mix is per mille"
    );
    let sh = Shared {
        set,
        point_rings: (0..set.num_shards())
            .map(|_| Ring::new(cfg.point_queue_cap))
            .collect(),
        analytics_ring: Ring::new(cfg.analytics_queue_cap),
        stop: AtomicBool::new(false),
        submitters: AtomicUsize::new(cfg.clients),
        analytics: OnceLock::new(),
        analytics_parked: AtomicBool::new(false),
    };
    let start = Instant::now();
    let (outs, (lease_renewals, parks)) = std::thread::scope(|scope| {
        for i in 0..set.num_shards() {
            let sh = &sh;
            scope.spawn(move || point_worker(sh, i));
        }
        let analytics = {
            let sh = &sh;
            scope.spawn(move || analytics_worker(sh, cfg.lease))
        };
        sh.analytics
            .set(analytics.thread().clone())
            .expect("set once, here");
        let clients: Vec<_> = (0..cfg.clients)
            .map(|id| {
                let sh = &sh;
                scope.spawn(move || client_loop(sh, cfg, id))
            })
            .collect();
        std::thread::sleep(cfg.duration);
        sh.stop.store(true, Ordering::Release);
        sh.wake_analytics();
        let outs: Vec<ClientOut> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        (outs, analytics.join().unwrap())
    });
    let secs = start.elapsed().as_secs_f64();

    let mut report = ServeReport {
        secs,
        lease_renewals,
        parks,
        ..Default::default()
    };
    for out in outs {
        for (acc, st) in report.classes.iter_mut().zip(out.stats) {
            acc.submitted += st.submitted;
            acc.completed += st.completed;
            acc.rejected += st.rejected;
            acc.samples.extend(st.samples);
        }
    }
    report
}

/// A ready-to-serve forest: `shards` fanout shards pre-loaded with
/// `n = min(prefill, max_key)` keys evenly spread over `[0, max_key)`:
/// key `i` is `i · max_key / n` for `i < n`.
pub fn build_forest(shards: usize, prefill: u64, max_key: u64) -> ShardedSet<FanoutSet> {
    let set = ShardedSet::<FanoutSet>::new(shards);
    let n = prefill.min(max_key);
    for i in 0..n {
        // `i < n <= max_key`, so the quotient is below `max_key`.
        set.insert((u128::from(i) * u128::from(max_key) / u128::from(n)) as u64);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;

    #[test]
    fn ring_admission_and_backpressure() {
        let r = Ring::new(4);
        assert_eq!(r.capacity(), 4);
        for v in 1..=4 {
            assert_eq!(r.try_push(v), Ok(()));
        }
        // Full ring refuses admission without blocking.
        assert_eq!(r.try_push(5), Err(RingFull));
        assert_eq!(r.try_pop(), Some(1));
        // Space freed by the consumer is immediately admittable.
        assert_eq!(r.try_push(5), Ok(()));
        for v in 2..=5 {
            assert_eq!(r.try_pop(), Some(v));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn ring_wraps_many_times() {
        let r = Ring::new(2);
        for v in 0..1000u64 {
            assert_eq!(r.try_push(v), Ok(()));
            assert_eq!(r.try_pop(), Some(v));
        }
        assert_eq!(r.try_pop(), None);
    }

    /// `build_forest` inserts exactly `min(prefill, max_key)` keys,
    /// evenly spread, whether or not `prefill` divides `max_key`.
    #[test]
    fn build_forest_inserts_exactly_the_keys_asked_for() {
        let keys = |prefill, max_key| {
            let set = build_forest(2, prefill, max_key);
            let snap = set.snapshot();
            (0..snap.len())
                .map(|i| snap.select(i).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(0, 10), [], "no prefill, no key");
        assert_eq!(keys(3, 10), [0, 3, 6]);
        assert_eq!(keys(4, 16), [0, 4, 8, 12], "a dividing prefill");
        assert_eq!(keys(8, 5), [0, 1, 2, 3, 4], "at most max_key keys");
        // `2 · max_key` is past `u64::MAX`.
        assert_eq!(keys(3, 3 << 62), [0, 1 << 62, 1 << 63], "no overflow");
    }

    #[test]
    fn lease_renewal_bounds_version_history() {
        // The satellite-4 scenario, single-threaded for determinism: an
        // analytics reader that never voluntarily unregisters, only
        // renews. Each lease period pins only its own churn; the next
        // publish after renewal trims everything behind the new ts.
        let set = build_forest(2, 128, 128);
        assert_eq!(set.len(), 128);
        let churn = |hot: u64| {
            set.remove(hot);
            set.insert(hot);
        };
        let max_chain = |set: &ShardedSet<fanout::FanoutSet>| {
            set.shards()
                .map(|s| s.debug_max_version_chain())
                .max()
                .unwrap()
        };

        let mut lease = SnapshotLease::take(&set, Duration::from_secs(3600));
        for round in 0..20 {
            for _ in 0..25 {
                churn(7);
            }
            // Cuts at the leased ts stay valid for the whole period.
            let snap = set.snapshot_at(lease.ts());
            assert_eq!(snap.len(), 128, "leased cut must stay readable");
            drop(snap);
            lease.renew();
            // The first publish after renewal trims behind the new ts.
            churn(7);
            let chain = max_chain(&set);
            assert!(
                chain <= 4,
                "round {round}: renewal failed to unpin history (chain {chain})"
            );
        }
        drop(lease);

        // Control: the same churn under one never-renewed registration
        // pins every version — exactly what the lease policy prevents.
        let _ts = set.snap_clock().register();
        for _ in 0..20 {
            for _ in 0..25 {
                churn(7);
            }
        }
        let pinned = max_chain(&set);
        assert!(
            pinned > 100,
            "expected an unrenewed reader to pin history, chain {pinned}"
        );
        set.snap_clock().deregister();
        churn(7);
        assert!(max_chain(&set) <= 4);
        ebr::flush();
    }

    /// The analytics worker's shape on one thread: a cut taken at the
    /// lease's timestamp keeps answering for lease time — first cold,
    /// then from the members' subtree-count indexes — while point ops
    /// land underneath it, and a cut taken after `renew` answers for the
    /// forest as it now stands: an index never outlives its cut.
    #[test]
    fn leased_cut_answers_for_lease_time_until_renewed() {
        use std::collections::BTreeSet;
        const MAX_KEY: u64 = 1 << 14;

        // ~100 mixed rank / select / range_count answers against `sorted`.
        fn check(
            cut: &shard::ShardedSnapshot<'_, fanout::FanoutSet>,
            sorted: &[u64],
            rng: &mut u64,
        ) {
            let below = |k: u64| sorted.partition_point(|&x| x < k) as u64;
            let rank = |k: u64| sorted.partition_point(|&x| x <= k) as u64;
            for _ in 0..100 {
                let r = xorshift(rng);
                let k = r % MAX_KEY;
                match (r >> 32) % 3 {
                    0 => assert_eq!(cut.rank(k), rank(k), "rank({k})"),
                    1 => {
                        let i = k % (sorted.len() as u64 + 1);
                        assert_eq!(
                            cut.select(i),
                            sorted.get(i as usize).copied(),
                            "select({i})"
                        );
                    }
                    _ => assert_eq!(
                        cut.range_count(k, k + 1024),
                        rank(k + 1024) - below(k),
                        "range_count({k}, {})",
                        k + 1024
                    ),
                }
            }
        }

        // One shard is the shipped forest (select descends the member);
        // two shards take the hashed bisection.
        for shards in [1, 2] {
            let set = build_forest(shards, 4096, MAX_KEY);
            let mut live: BTreeSet<u64> = (0..MAX_KEY).step_by(4).collect();
            let mut rng = 0x1EA5_E000 + shards as u64;
            let mut lease = SnapshotLease::take(&set, Duration::from_secs(3600));

            let cut = set.snapshot_at(lease.ts());
            let frozen: Vec<u64> = live.iter().copied().collect();
            for _ in 0..10 {
                for _ in 0..1_000 {
                    let r = xorshift(&mut rng);
                    let k = r % MAX_KEY;
                    if (r >> 32) & 1 == 0 {
                        assert_eq!(set.insert(k), live.insert(k), "insert({k})");
                    } else {
                        assert_eq!(set.remove(k), live.remove(&k), "remove({k})");
                    }
                }
                check(&cut, &frozen, &mut rng);
            }
            assert_eq!(cut.len(), frozen.len() as u64);

            drop(cut);
            lease.renew();
            let cut = set.snapshot_at(lease.ts());
            let now: Vec<u64> = live.iter().copied().collect();
            assert_ne!(now, frozen, "10 K point ops must have changed the forest");
            for _ in 0..10 {
                check(&cut, &now, &mut rng);
            }
            assert_eq!(cut.len(), now.len() as u64);
            drop(cut);
            drop(lease);
            ebr::flush();
        }
    }

    #[test]
    fn serve_completes_all_classes_at_saturation() {
        // Open throttle + tiny rings: saturation by design. No class
        // starves — not even `Stat` when `Range` outnumbers it 13 to 1 in
        // the ring they share — and every admitted request completes.
        let set = build_forest(2, 4096, 1 << 14);
        for (stat_pm, range_pm) in [(300, 200), (50, 650)] {
            let cfg = ServeConfig {
                clients: 2,
                window: 8,
                point_queue_cap: 8,
                analytics_queue_cap: 8,
                duration: Duration::from_millis(250),
                offered_rps: 0,
                mix: ClassMix { stat_pm, range_pm },
                max_key: 1 << 14,
                lease: Duration::from_millis(5),
                range_span: 1 << 9,
                seed: 42,
            };
            let rep = run_serve(&set, &cfg);
            for (i, c) in rep.classes.iter().enumerate() {
                assert!(c.completed > 0, "{:?}: class {i} starved: {c:?}", cfg.mix);
                assert_eq!(
                    c.submitted, c.completed,
                    "{:?}: class {i}: admitted requests must all complete",
                    cfg.mix
                );
                assert_eq!(c.completed as usize, c.samples.len());
            }
            assert!(rep.lease_renewals > 0, "{:?}: lease never renewed", cfg.mix);
        }
        ebr::flush();
    }

    #[test]
    fn serve_backpressure_rejects_then_recovers() {
        // Two clients hammering two-slot rings: every class must be
        // refused, yet everything admitted completes.
        let set = build_forest(1, 256, 1 << 10);
        let cfg = ServeConfig {
            clients: 2,
            window: 32,
            point_queue_cap: 2,
            analytics_queue_cap: 2,
            duration: Duration::from_millis(200),
            offered_rps: 0,
            mix: ClassMix {
                stat_pm: 400,
                range_pm: 300,
            },
            max_key: 1 << 10,
            lease: Duration::from_millis(5),
            range_span: 64,
            seed: 7,
        };
        let rep = run_serve(&set, &cfg);
        assert!(rep.completed() > 0);
        for (i, c) in rep.classes.iter().enumerate() {
            assert!(
                c.rejected > 0,
                "class {i} was never refused ({} admitted)",
                c.submitted
            );
            assert_eq!(c.submitted, c.completed, "class {i} lost requests");
        }
        ebr::flush();
    }

    #[test]
    fn serve_paced_load_reports_latencies() {
        let set = build_forest(2, 1024, 1 << 12);
        let cfg = ServeConfig {
            offered_rps: 20_000,
            duration: Duration::from_millis(150),
            ..ServeConfig::default()
        };
        let rep = run_serve(&set, &cfg);
        assert!(rep.completed() > 0);
        assert!(rep.rps() > 0.0);
        let point = &rep.classes[Class::Point as usize];
        assert!(!point.samples.is_empty());
        assert!(point.samples.iter().all(|&ns| ns > 0));
        ebr::flush();
    }

    /// `run_serve` on a thread of its own, so that a run that never
    /// returns fails the calling test instead of hanging it: `Timeout`
    /// when it hangs, `Disconnected` when it panicked (the sender is
    /// dropped unsent).
    fn serve_watched(
        set: &Arc<ShardedSet<fanout::FanoutSet>>,
        cfg: ServeConfig,
    ) -> Result<ServeReport, RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let set = Arc::clone(set);
        std::thread::spawn(move || {
            // The receiver is gone only if this run already timed out.
            let _ = tx.send(run_serve(&set, &cfg));
        });
        rx.recv_timeout(cfg.duration + Duration::from_secs(2))
    }

    /// [`serve_watched`] for a run that must return: a lost wake-up — a
    /// client waiting for ever on a request the parked worker never
    /// hears of — fails the test.
    fn serve_or_time_out(
        set: &Arc<ShardedSet<fanout::FanoutSet>>,
        cfg: ServeConfig,
    ) -> ServeReport {
        serve_watched(set, cfg).expect("run_serve did not return: an analytics wake-up was lost")
    }

    /// A config a client would panic on (`r % 0`, a mix past 1000 ‰ —
    /// or past `u32::MAX` when summed in `u32`) is refused on the calling
    /// thread. Before the checks, a panicking client never left
    /// `submitters` and `run_serve` waited for it for ever.
    #[test]
    fn bad_config_panics_on_the_caller_instead_of_hanging() {
        let set = Arc::new(build_forest(1, 64, 1 << 10));
        let mix = |stat_pm, range_pm| ClassMix { stat_pm, range_pm };
        for cfg in [
            ServeConfig {
                max_key: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                mix: mix(900, 101),
                ..ServeConfig::default()
            },
            ServeConfig {
                mix: mix(u32::MAX, 2),
                ..ServeConfig::default()
            },
        ] {
            match serve_watched(&set, cfg) {
                Err(RecvTimeoutError::Disconnected) => {}
                Err(RecvTimeoutError::Timeout) => panic!("run_serve hung on {cfg:?}"),
                Ok(_) => panic!("run_serve accepted {cfg:?}"),
            }
        }
        ebr::flush();
    }

    #[test]
    fn parked_worker_loses_no_wake_up() {
        // One client pacing 2 000 req/s, two requests in five of them
        // analytics: `Stat`/`Range` arrivals come 0.5 ms (40 %), 1 ms
        // (24 %), ... 3 ms (3 %) apart, either side of the 1 ms lease, so
        // the worker keeps deciding to park just as a request is pushed.
        let set = Arc::new(build_forest(1, 1024, 1 << 12));
        let (mut analytics, mut parks, mut run) = (0u64, 0u64, 0u64);
        while analytics < 2_000 {
            let cfg = ServeConfig {
                clients: 1,
                window: 8,
                duration: Duration::from_millis(100),
                offered_rps: 2_000,
                mix: ClassMix {
                    stat_pm: 300,
                    range_pm: 100,
                },
                max_key: 1 << 12,
                lease: Duration::from_millis(1),
                range_span: 64,
                seed: 0xD0_5E ^ run,
                ..ServeConfig::default()
            };
            let rep = serve_or_time_out(&set, cfg);
            for class in [Class::Stat, Class::Range] {
                let c = &rep.classes[class as usize];
                assert_eq!(c.submitted, c.completed, "{class:?} lost requests");
                analytics += c.completed;
            }
            parks += rep.parks;
            run += 1;
            assert!(
                run < 200,
                "only {analytics} analytics requests in {run} runs"
            );
        }
        assert!(parks > 0, "the worker never parked");
        ebr::flush();
    }

    #[test]
    fn stop_reaches_a_parked_worker() {
        let set = Arc::new(build_forest(1, 1024, 1 << 12));
        let cfg = ServeConfig {
            clients: 1,
            duration: Duration::from_millis(100),
            mix: ClassMix {
                stat_pm: 0,
                range_pm: 0,
            },
            max_key: 1 << 12,
            lease: Duration::from_millis(5),
            ..ServeConfig::default()
        };
        // Returning at all is the property: without the wake-up after
        // `stop` the worker sleeps for ever and `run_serve` never joins it.
        let rep = serve_or_time_out(&set, cfg);
        assert_eq!(rep.parks, 1, "a point-only run idles the worker once");
        ebr::flush();
    }
}
