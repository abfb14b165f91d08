//! `Propagate`: carrying update information to the root (paper Fig. 3
//! lines 32–48), plus the two delegation variants BAT-Del (Fig. 13) and
//! BAT-EagerDel (Fig. 14) and the timeout fallback that restores
//! lock-freedom.
//!
//! ## Hot-path scratch
//!
//! `propagate` runs once per update that changes the set, so its working
//! state — the set of already-refreshed nodes, the descent stack, and the list of replaced
//! versions to retire — is kept in a reusable thread-local
//! `PropScratch` arena instead of being heap-allocated per call. The
//! `refreshed` set is a root-to-leaf path, so a plain vector beats hashing
//! *and* allocates nothing after warm-up. Its membership check scans
//! newest-first: the node a re-descent stops at is almost always the one
//! refreshed last, so a check costs O(1) compares rather than the path's
//! length — which matters on FR-BST, whose sorted-key paths are Θ(n) long.
//!
//! ## Overlapping the misses
//!
//! A propagate refreshes the search path bottom-up. Each refresh reads a
//! path node, its off-path child and that child's version, then writes a
//! pool block, and its CAS fences before the next level starts. Only the
//! path nodes are fetched ahead: the update's root check (`BatMap::insert`)
//! descends the root's version tree, whose versions name their nodes, and
//! prefetches each on-path node on the way; see [`crate::map`]. The
//! siblings and the pool blocks are not fetched ahead: with fat leaves'
//! shorter paths and almost no nil fills, that measured as noise (README,
//! "Overlapped misses").

use sched::atomic::Ordering;
use std::cell::RefCell;
use std::time::Duration;
#[cfg(not(feature = "sched-test"))]
use std::time::Instant;

use chromatic::SentKey;
use ebr::Guard;

use crate::augment::Augmentation;
use crate::refresh::{current_version, refresh_top, BatNode};
use crate::stats::{BatStats, Counter, StatsLocal};
use crate::version::{PropStatus, Version};

/// How long a delegating propagate waits on its delegatee before it
/// resumes propagating itself (the non-blocking fallback of Fig. 13 lines
/// 19–21). Both delegating policies use it.
pub const DELEGATION_TIMEOUT: Duration = Duration::from_millis(2);

/// Which propagate variant a tree runs (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegationPolicy {
    /// Plain BAT: double refresh, never wait (Fig. 3).
    None,
    /// BAT-Del: delegate after a failed *double* refresh (Fig. 13), waiting
    /// at most [`DELEGATION_TIMEOUT`].
    Del,
    /// BAT-EagerDel: delegate after a *single* failed refresh, and require
    /// refreshes to observe stable child versions before moving up
    /// (Fig. 14). Waits as [`DelegationPolicy::Del`] does.
    EagerDel,
}

impl DelegationPolicy {
    /// Short display name matching the paper's plot legends.
    pub fn name(&self) -> &'static str {
        match self {
            DelegationPolicy::None => "BAT",
            DelegationPolicy::Del => "BAT-Del",
            DelegationPolicy::EagerDel => "BAT-EagerDel",
        }
    }
}

/// Reusable per-thread working state for [`propagate`]. All members keep
/// their capacity between calls; `clear` is O(len).
#[derive(Default)]
struct PropScratch {
    /// Raw pointers of nodes already refreshed by this propagate, bottom-up.
    /// A root-to-leaf path; membership scans it from the newest end.
    refreshed: Vec<u64>,
    /// Descent stack of raw node pointers (bottom = entry).
    stack: Vec<u64>,
    /// Replaced versions, retired together once the root is reached (§6).
    to_retire: Vec<u64>,
}

impl PropScratch {
    fn clear(&mut self) {
        self.refreshed.clear();
        self.stack.clear();
        self.to_retire.clear();
    }
}

thread_local! {
    static SCRATCH: RefCell<PropScratch> = RefCell::new(PropScratch::default());
}

/// Result of waiting on a delegation chain.
enum WaitResult {
    Done,
    TimedOut,
}

/// Under the deterministic scheduler, the wall-clock deadline is replaced
/// by a yield-count budget: instead of [`DELEGATION_TIMEOUT`], "give up
/// after this many yields". Exploration bodies must be clock-free (a
/// wall-clock read would make replay diverge from the recorded schedule),
/// and a yield budget preserves the property the timeout exists for — the
/// wait is bounded, so the lock-free fallback path stays reachable — while
/// making the *moment* it fires a deterministic function of the schedule.
#[cfg(feature = "sched-test")]
const SCHED_WAIT_YIELD_BUDGET: u32 = 64;

/// `WaitForDelegatee` (Fig. 12 lines 1–7): spin on the chain head's `done`
/// flag, hopping along `delegatee` pointers so a long chain costs one wait.
///
/// The deadline is computed once up front, keeping `Instant::now()`
/// syscalls out of the spin loop; the clock is re-read only on the slow
/// yield path, every 64 spins.
/// Under `sched-test` the deadline is a yield-count budget instead (see
/// [`SCHED_WAIT_YIELD_BUDGET`]), keeping exploration bodies clock-free.
///
/// # Pin ordering: why the chased pointers are live
///
/// A propagate retires its `PropStatus` exactly once, at its own end, and
/// the memory is reused only after a grace period — so a status retired
/// *while the caller is pinned* stays readable until the caller unpins.
/// The caller holds `propagate`'s guard for the whole wait; every status
/// it can reach was retired, if at all, after that pin began:
///
/// * `start` is the `status` of the version that beat the caller's refresh
///   CAS. Every refresh builds a new version object, and this one was
///   installed between the caller's read of the old version and its
///   failed CAS, i.e. during the caller's pin; its installer retires the
///   status only later, when its propagate ends.
/// * A non-zero `delegatee` read from a reached status `d` was stored by
///   `d`'s owner *after* the install through which `d` was reached: a link
///   stored earlier was reset to 0 when the owner timed out and resumed
///   (an owner whose wait returned `Done` never installs again). The link
///   is the blocker of a refresh the owner began after that install, so
///   the linked propagate's own install — and hence the retire of its
///   status — is later still, and the same argument applies to it.
///
/// So the chain needs no pin but the caller's (§6 retires a `PropStatus`
/// "even while still reachable" for this reason).
fn wait_for_delegatee(start: u64, h: &StatsLocal<'_>) -> WaitResult {
    #[cfg(not(feature = "sched-test"))]
    let deadline = Instant::now() + DELEGATION_TIMEOUT;
    #[cfg(feature = "sched-test")]
    let mut yield_budget = SCHED_WAIT_YIELD_BUDGET;
    // SAFETY: `start` was retired, if at all, after the caller's pin began
    // (first bullet of "Pin ordering" above), and the caller stays pinned
    // for the whole wait.
    // guard: the caller's `propagate` holds its `&Guard` across this call.
    let mut d = unsafe { &*(start as *const PropStatus) };
    let mut spins = 0u32;
    loop {
        if d.done.load(Ordering::Acquire) {
            return WaitResult::Done;
        }
        let next = d.delegatee.load(Ordering::Acquire);
        if next != 0 {
            // SAFETY: a non-zero link read from a reached status names a
            // status retired after the caller's pin began (second bullet
            // of "Pin ordering" above).
            // guard: as for `start`.
            d = unsafe { &*(next as *const PropStatus) };
            continue;
        }
        spins += 1;
        if spins & 0x3f == 0 {
            // Single-core friendliness: hand the CPU to the delegatee.
            #[cfg(not(feature = "sched-test"))]
            let expired = {
                std::thread::yield_now();
                Instant::now() >= deadline
            };
            #[cfg(feature = "sched-test")]
            let expired = {
                sched::yield_now();
                yield_budget -= 1;
                yield_budget == 0
            };
            if expired {
                Counter::DelegationTimeouts.bump(h);
                return WaitResult::TimedOut;
            }
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Delegate to `blocker` (Fig. 13 lines 16–24): publish the link from the
/// caller's status `ps`, wait, and on a timeout take the link back so the
/// caller can resume its own propagate (the lock-free fallback).
fn delegate(ps: u64, blocker: u64, h: &StatsLocal<'_>) -> WaitResult {
    Counter::Delegations.bump(h);
    // SAFETY: `ps` is the PropStatus the calling `propagate` allocated; it
    // is retired only at the end of that call.
    // guard: the caller's `propagate` holds its `&Guard` across this call.
    let status = unsafe { &*(ps as *const PropStatus) };
    status.delegatee.store(blocker, Ordering::Release);
    let waited = wait_for_delegatee(blocker, h);
    if let WaitResult::TimedOut = waited {
        status.delegatee.store(0, Ordering::Release);
    }
    waited
}

/// Run `Propagate(key)` on the tree rooted at `entry` under `policy`.
///
/// Ensures that by return, every update to `key`'s leaf that happened
/// before this call has *arrived at the root* (§4.1) — either carried by
/// our own chain of refreshes or by a propagate we delegated to.
pub fn propagate<K, V, A>(
    entry: &BatNode<K, V, A>,
    key: &SentKey<K>,
    policy: DelegationPolicy,
    stats: &BatStats,
    guard: &Guard,
) where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    A: Augmentation<K, V>,
{
    let h = stats.local();
    Counter::Propagates.bump(&h);
    // Take the thread-local scratch for the duration of the call (put back
    // at the end, retaining capacity).
    let mut scratch = SCRATCH.with(|s| s.take());
    let ps: u64 = match policy {
        DelegationPolicy::None => 0,
        _ => PropStatus::alloc() as u64,
    };
    scratch.stack.push(entry.as_raw());

    'outer: loop {
        // Descend from the top of the stack until the next child on the
        // search path is already refreshed or is a leaf (Fig. 3 37–41).
        // SAFETY: every raw on the stack is `entry` or a node reached from
        // it under `guard`'s pin.
        let mut next = unsafe {
            BatNode::<K, V, A>::from_raw(*scratch.stack.last().expect("stack never empties"), guard)
        };
        let mut descended = 0u64;
        loop {
            let child = next.child_toward(key, guard);
            descended += 1;
            if scratch.refreshed.iter().rev().any(|&r| r == child.as_raw()) || child.is_leaf() {
                break;
            }
            scratch.stack.push(child.as_raw());
            next = child;
        }
        Counter::NodesVisited.add(&h, descended);
        // SAFETY: as for `next` above.
        let top = unsafe {
            BatNode::<K, V, A>::from_raw(
                scratch.stack.pop().expect("descent keeps one node"),
                guard,
            )
        };

        match policy {
            DelegationPolicy::None | DelegationPolicy::Del => {
                // Double refresh (Fig. 3 lines 43–45; `ps` is 0 for plain
                // BAT). When both fail, someone else's refresh covered us
                // (Fig. 3's guarantee) and plain BAT moves on.
                let mut r = refresh_top(top, ps, &h, guard);
                if !r.success {
                    r = refresh_top(top, ps, &h, guard);
                }
                if r.success {
                    scratch.to_retire.push(r.replaced);
                } else if policy == DelegationPolicy::Del {
                    // BAT-Del delegates instead (Fig. 13 lines 16–24). On a
                    // finalized node it falls through: the replacement
                    // patch inherited our arrival points (Def. 7), and the
                    // re-descent will refresh the replacement.
                    if !top.is_finalized() {
                        if r.blocker != 0 {
                            if let WaitResult::Done = delegate(ps, r.blocker, &h) {
                                break 'outer;
                            }
                        }
                        // Timed out, or no status on the winning version
                        // (only the entry's initial version has none):
                        // retry this node.
                        scratch.stack.push(top.as_raw());
                        continue 'outer;
                    }
                }
            }
            DelegationPolicy::EagerDel => {
                // Fig. 14 lines 13–24: keep refreshing until a success
                // observes stable child version pointers; delegate on any
                // failure at a non-finalized node.
                loop {
                    let r = refresh_top(top, ps, &h, guard);
                    if r.success {
                        scratch.to_retire.push(r.replaced);
                        // Stability check (line 24): the children's
                        // *current* versions must equal what we read.
                        let (l, rn) = (top.left(guard), top.right(guard));
                        if current_version(l) == r.vl && current_version(rn) == r.vr {
                            break;
                        }
                        continue;
                    }
                    if top.is_finalized() {
                        // As in Fig. 13's fall-through: the replacement
                        // patch carries our arrival points; re-descend.
                        break;
                    }
                    if r.blocker != 0 {
                        if let WaitResult::Done = delegate(ps, r.blocker, &h) {
                            break 'outer;
                        }
                    }
                    // Timed out, or blocker unavailable: retry this node.
                }
            }
        }

        scratch.refreshed.push(top.as_raw());
        if top.as_raw() == entry.as_raw() {
            break;
        }
    }

    // Finish: release waiters, then reclaim (§6).
    if ps != 0 {
        // SAFETY: `ps` is the PropStatus allocated by this call; not yet
        // retired.
        unsafe { &*(ps as *const PropStatus) }
            .done
            .store(true, Ordering::Release);
        // SAFETY: a PropStatus is safely retired at the end of the
        // propagate that created it, even while still reachable (§6);
        // waiters that still hold it are pinned, so its memory returns to
        // the free-list pool only after the grace period.
        unsafe { PropStatus::retire(guard, ps as *mut PropStatus) };
    }
    // Once the root is refreshed (or our delegatee finished, which implies
    // the same), every replaced version is unreachable from the root of
    // the version tree (§6): retire the toRetire list.
    // SAFETY: each entry was the replaced (now unreachable) version of a
    // successful refresh by *this* propagate — we are its unique retirer,
    // and `guard` defers the free past all current pins.
    unsafe { ebr::pool::retire_pooled_batch::<Version<K, V, A>>(guard, &scratch.to_retire) };

    scratch.clear();
    SCRATCH.with(|s| *s.borrow_mut() = scratch);
}
