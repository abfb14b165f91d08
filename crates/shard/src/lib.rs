//! # shard — a hash-partitioned forest front-end with cross-shard order
//! statistics and consistent snapshots
//!
//! One BAT root (and the propagate traffic converging on it) is the
//! scalability ceiling every bench trajectory so far has hit: aggregate
//! throughput *falls* as threads rise because all writers ultimately
//! serialize on one version pointer. [`ShardedSet`] removes that ceiling
//! by hashing the key space over N independent inner sets, while keeping
//! the whole-set semantics the single tree offered:
//!
//! * **Point operations** route to one shard ([`Partition::shard_of`])
//!   and proceed with zero cross-shard coordination.
//! * **Order statistics decompose over shards.** `rank(k)` and
//!   `range_count` ask every shard and sum the answers; `select(i)` asks
//!   the member of a one-shard cut once and bisects the key domain with
//!   cross-shard ranks otherwise. All of them are asked of a cut
//!   ([`ShardedSet::snapshot`] / [`ShardedSet::snapshot_at`]). There is no
//!   ordered (range) partition: no forest that runs asks for one. What each
//!   per-shard answer costs is the member's business ([`MemberSnap`]): on
//!   a fanout shard a scan the first time a cut is asked, O(fanout ×
//!   height) from the cut's own subtree-count index after that.
//! * **Consistent cuts come from a shared clock.** All shards of one
//!   forest stamp their version records from a single [`vedge::SnapClock`]
//!   (Wei et al.'s timestamp trick \[33\], widened from one tree to a
//!   forest): one registration yields one timestamp, and every shard read
//!   at it is one consistent cut.
//!
//! ## Shard isolation
//!
//! Shards share no mutable cache lines. The shard array itself is
//! [`CachePadded`]; each inner set brings its own striped stats
//! ([`ebr::Striped`] pads per-thread stripes) and its own epoch
//! reclamation state (the process-global EBR keeps per-thread limbo bags
//! and cache-padded epoch slots, so one shard's retirement traffic never
//! dirties a line another shard reads). The only intentionally shared
//! line is the forest's snapshot clock — advanced *only* by snapshot
//! registration, never by updates.

use std::sync::Arc;

use ebr::CachePadded;
use fanout::{FanoutSet, FanoutSnapshot};
use vedge::SnapClock;

/// How keys map to shards: Fibonacci-hash the key, then multiply-shift
/// onto `[0, n)`. Spreads any key distribution (including adversarially
/// hot contiguous ranges) evenly, at the cost of fanning range queries out
/// to every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition;

impl Partition {
    /// The shard (of `n`) that owns key `k`.
    #[inline]
    pub fn shard_of(&self, k: u64, n: usize) -> usize {
        let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (((h as u128) * (n as u128)) >> 64) as usize
    }
}

/// One member structure of a sharded forest: the per-edge fanout tree
/// ([`FanoutSet`]), whose snapshots read exactly the state at a timestamp
/// of the forest's shared clock.
pub trait ShardMember: Send + Sync + Sized + 'static {
    /// The member's snapshot type (borrowing the member where it must).
    type Snap<'a>: MemberSnap
    where
        Self: 'a;

    /// Build one shard stamping from the forest's shared clock.
    fn new_in_forest(sync: &Arc<SnapClock>) -> Self;

    /// Insert; `true` iff newly added.
    fn insert(&self, k: u64) -> bool;
    /// Remove; `true` iff present.
    fn remove(&self, k: u64) -> bool;
    /// Linearizable membership.
    fn contains(&self, k: u64) -> bool;
    /// Current size: Θ(n) for the fanout tree, whose updates maintain no
    /// count — each call is a fresh snapshot's cold count, with no held
    /// snapshot to amortize it over.
    fn len(&self) -> u64;

    /// Snapshot exactly as of the forest cut `ts` the caller registered
    /// on the shared clock.
    fn snapshot_at(&self, ts: u64) -> Self::Snap<'_>;

    /// Cumulative publication-contention counters `(attempts, aborts,
    /// retries)`, summed forest-wide by [`ShardedSet::contention`].
    fn contention(&self) -> (u64, u64, u64);
}

/// The query surface a member snapshot offers the cross-shard
/// decompositions. `rank(k)` counts keys ≤ `k`, as everywhere in this
/// workspace.
///
/// Cost of `len`/`rank`/`select`/`range_count` on a fanout snapshot: cold
/// Θ(keys covered) — paid once per subtree per snapshot — then
/// O(fanout × height) from the snapshot's own subtree-count index, so a
/// cut held for a lease period serves all but its first queries warm.
pub trait MemberSnap {
    fn contains(&self, k: u64) -> bool;
    fn len(&self) -> u64;
    fn rank(&self, k: u64) -> u64;
    fn range_count(&self, lo: u64, hi: u64) -> u64;
    fn select(&self, i: u64) -> Option<u64>;
}

// --- Fanout member: timestamp-exact snapshots, one registration IS the
// cut --------------------------------------------------------------------

impl ShardMember for FanoutSet {
    type Snap<'a> = FanoutSnapshot<'a>;

    fn new_in_forest(sync: &Arc<SnapClock>) -> Self {
        FanoutSet::with_clock(sync.clone())
    }

    fn insert(&self, k: u64) -> bool {
        FanoutSet::insert(self, k)
    }
    fn remove(&self, k: u64) -> bool {
        FanoutSet::remove(self, k)
    }
    fn contains(&self, k: u64) -> bool {
        FanoutSet::contains(self, k)
    }
    fn len(&self) -> u64 {
        self.len_slow()
    }

    fn snapshot_at(&self, ts: u64) -> Self::Snap<'_> {
        FanoutSet::snapshot_at(self, ts)
    }

    fn contention(&self) -> (u64, u64, u64) {
        let s = self.pub_stats();
        (s.attempts, s.aborts, s.retries)
    }
}

impl MemberSnap for FanoutSnapshot<'_> {
    fn contains(&self, k: u64) -> bool {
        FanoutSnapshot::contains(self, k)
    }
    fn len(&self) -> u64 {
        FanoutSnapshot::len(self)
    }
    fn rank(&self, k: u64) -> u64 {
        FanoutSnapshot::rank(self, k)
    }
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        FanoutSnapshot::range_count(self, lo, hi)
    }
    fn select(&self, i: u64) -> Option<u64> {
        FanoutSnapshot::select(self, i)
    }
}

/// The sharded front-end: `n` independent members behind one partition
/// function and one snapshot clock. See the crate docs for the query
/// decompositions and the cut protocol.
pub struct ShardedSet<S: ShardMember> {
    shards: Vec<CachePadded<S>>,
    sync: Arc<SnapClock>,
}

impl<S: ShardMember> ShardedSet<S> {
    /// A forest of `n` hash-partitioned shards.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a forest needs at least one shard");
        let sync = Arc::new(SnapClock::new());
        ShardedSet {
            shards: (0..n)
                .map(|_| CachePadded::new(S::new_in_forest(&sync)))
                .collect(),
            sync,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The key-to-shard map.
    pub fn partition(&self) -> Partition {
        Partition
    }

    /// The forest's shared snapshot clock.
    pub fn snap_clock(&self) -> &Arc<SnapClock> {
        &self.sync
    }

    /// The shard that owns `k`.
    #[inline]
    fn shard_for(&self, k: u64) -> &S {
        &self.shards[Partition.shard_of(k, self.shards.len())]
    }

    /// Iterate the shards (stats aggregation, tests).
    pub fn shards(&self) -> impl Iterator<Item = &S> {
        self.shards.iter().map(|s| -> &S { s })
    }

    /// Insert; `true` iff newly added. One shard, no coordination.
    pub fn insert(&self, k: u64) -> bool {
        self.shard_for(k).insert(k)
    }

    /// Remove; `true` iff present.
    pub fn remove(&self, k: u64) -> bool {
        self.shard_for(k).remove(k)
    }

    /// Linearizable membership (single-shard read).
    pub fn contains(&self, k: u64) -> bool {
        self.shard_for(k).contains(k)
    }

    /// Sum of shard sizes, each [`ShardMember::len`]: a Θ(keys) cold
    /// count of a fanout shard. The sum is *not* one instant's value — use
    /// [`ShardedSet::snapshot`] for a consistent `len`.
    pub fn len(&self) -> u64 {
        self.shards().map(|s| s.len()).sum()
    }

    /// Forest-wide publication-contention counters
    /// `(attempts, aborts, retries)` summed over shards.
    pub fn contention(&self) -> (u64, u64, u64) {
        self.shards().fold((0, 0, 0), |(a, b, r), s| {
            let (sa, sb, sr) = s.contention();
            (a + sa, b + sb, r + sr)
        })
    }

    /// One consistent cut across all shards.
    ///
    /// Registers once on the shared clock: the returned timestamp *is*
    /// the cut (every shard read at it), and the registration bounds
    /// version-chain trimming below it for the snapshot's lifetime. The
    /// snapshot owns that registration and releases it on drop.
    pub fn snapshot(&self) -> ShardedSnapshot<'_, S> {
        let ts = self.sync.register();
        let snaps = self.collect_at(ts);
        ShardedSnapshot {
            set: self,
            snaps,
            owns_registration: true,
        }
    }

    /// One consistent cut at a timestamp the **caller** registered on
    /// this forest's clock ([`ShardedSet::snap_clock`]) — the serving
    /// layer's snapshot-lease shape: the lease holder registers once,
    /// reads many cuts at its timestamp, and deregisters on renewal, so
    /// a long-lived analytics reader bounds how much version history it
    /// pins instead of pinning forever.
    ///
    /// The registration must stay live (same thread) for the returned
    /// snapshot's whole lifetime: it is what bounds version-chain
    /// trimming below `ts`. Dropping this snapshot does NOT deregister.
    pub fn snapshot_at(&self, ts: u64) -> ShardedSnapshot<'_, S> {
        let snaps = self.collect_at(ts);
        ShardedSnapshot {
            set: self,
            snaps,
            owns_registration: false,
        }
    }

    fn collect_at(&self, ts: u64) -> Vec<S::Snap<'_>> {
        self.shards().map(|s| s.snapshot_at(ts)).collect()
    }
}

/// A consistent cut of the whole forest: one member snapshot per shard,
/// all read at the same timestamp (see [`ShardedSet::snapshot`]). A cut
/// taken by [`ShardedSet::snapshot`] owns the clock registration that
/// keeps every shard's versions readable and releases it on drop; a cut
/// taken by [`ShardedSet::snapshot_at`] reads under the **caller's**
/// registration (the lease shape) and releases nothing.
pub struct ShardedSnapshot<'a, S: ShardMember> {
    set: &'a ShardedSet<S>,
    snaps: Vec<S::Snap<'a>>,
    /// True when this snapshot registered itself (and must deregister).
    owns_registration: bool,
}

impl<S: ShardMember> Drop for ShardedSnapshot<'_, S> {
    fn drop(&mut self) {
        if self.owns_registration {
            self.set.sync.deregister();
        }
    }
}

impl<S: ShardMember> ShardedSnapshot<'_, S> {
    /// Total keys in the cut.
    pub fn len(&self) -> u64 {
        self.snaps.iter().map(|s| s.len()).sum()
    }

    /// Membership within the cut (single-shard lookup).
    pub fn contains(&self, k: u64) -> bool {
        self.snaps[Partition.shard_of(k, self.snaps.len())].contains(k)
    }

    /// Keys ≤ `k`: every hashed shard holds keys on both sides of `k`, so
    /// each contributes an in-shard rank.
    pub fn rank(&self, k: u64) -> u64 {
        self.snaps.iter().map(|x| x.rank(k)).sum()
    }

    /// The `i`-th smallest key (0-indexed). A one-shard cut asks its
    /// member once; more shards binary-search the key domain for the
    /// smallest `k` with `rank(k) ≥ i + 1` (≤ 64 cross-shard ranks, all on
    /// this one cut — rank jumps exactly at present keys, so the infimum
    /// is the answer).
    pub fn select(&self, i: u64) -> Option<u64> {
        if let [only] = &self.snaps[..] {
            return only.select(i);
        }
        if i >= self.len() {
            return None;
        }
        let (mut lo, mut hi) = (0u64, u64::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank(mid) > i {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Keys in `[lo, hi]`, summed over every shard.
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        self.snaps.iter().map(|s| s.range_count(lo, hi)).sum()
    }
}

#[cfg(test)]
mod tests;

#[cfg(all(test, feature = "sched-test"))]
mod sched_tests;
