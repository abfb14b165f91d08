//! Work counters matching the paper's §7 instrumentation ("Why Balancing
//! Improves Throughput"): nodes traversed per propagate, nil versions
//! filled per propagate, CASes attempted per propagate, plus delegation
//! counts for the ablation experiments.
//!
//! The counters are **striped**: each registered thread owns one
//! cache-padded block of counters, indexed by the stable EBR thread id
//! (`ebr::thread_id()`), and [`BatStats::snapshot`] sums the stripes
//! lazily. A counter bump therefore touches only a line this core already
//! owns — the seed's single shared `AtomicU64`s made every node visited
//! by a propagate a cross-core cacheline ping-pong under multi-threaded
//! update load. And since a stripe has one writer, a bump is a plain load
//! and store ([`bump`]), not a locked read-modify-write: a propagate bumps
//! some 25 times, and a `lock xadd` is a full fence that would sit in the
//! middle of the refresh chain's cache misses.

use sched::atomic::{AtomicU64, Ordering};

use ebr::CachePadded;

/// One thread's counters, padded so adjacent stripes never share a line.
#[derive(Default)]
struct Stripe {
    propagates: AtomicU64,
    nodes_visited: AtomicU64,
    nil_fixes: AtomicU64,
    cas_attempts: AtomicU64,
    cas_failures: AtomicU64,
    delegations: AtomicU64,
    delegation_timeouts: AtomicU64,
}

/// Counters for one augmented tree instance (striped per thread).
pub struct BatStats {
    stripes: Box<[CachePadded<Stripe>]>,
}

impl Default for BatStats {
    fn default() -> Self {
        let stripes = (0..ebr::MAX_THREADS)
            .map(|_| CachePadded::new(Stripe::default()))
            .collect();
        BatStats { stripes }
    }
}

/// Add `n` to a counter of the calling thread's own stripe.
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    // ordering: single-writer monotone counter; readers only need eventual
    // totals (`snapshot`). With one writer a load + store loses nothing. A
    // stripe changes writer only when its EBR slot does, and that hand-off
    // goes through the slot's SeqCst `registered` flag (released after the
    // old thread's last bump, acquired before the new thread's first), so
    // the new writer's load sees the old writer's last store.
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

macro_rules! incr_methods {
    ($($(#[$doc:meta])* $incr:ident, $add:ident => $field:ident;)*) => {
        $(
            $(#[$doc])*
            #[inline]
            pub fn $incr(&self) {
                bump(&self.stripe().$field, 1);
            }

            /// Batched variant of the matching increment.
            #[inline]
            pub fn $add(&self, n: u64) {
                bump(&self.stripe().$field, n);
            }
        )*
    };
}

/// Relaxed read of one counter for summation.
#[inline]
fn read_counter(c: &AtomicU64) -> u64 {
    // ordering: counters are monotonic and independent; a snapshot needs
    // per-counter eventual totals, not a cross-counter consistent cut.
    c.load(Ordering::Relaxed)
}

impl BatStats {
    /// The calling thread's stripe.
    #[inline]
    fn stripe(&self) -> &Stripe {
        let id = ebr::thread_id();
        debug_assert!(id < self.stripes.len());
        &self.stripes[id]
    }

    incr_methods! {
        /// Count one propagate invocation (== one update, successful or not).
        incr_propagates, add_propagates => propagates;
        /// Count nodes stepped through during a propagate descent (the
        /// paper's "nodes seen by a Propagate"); prefer the batched form
        /// once per descent.
        incr_nodes_visited, add_nodes_visited => nodes_visited;
        /// Count one `RefreshNil` execution ("nil versions filled in").
        incr_nil_fixes, add_nil_fixes => nil_fixes;
        /// Count one version-pointer CAS attempt.
        incr_cas_attempts, add_cas_attempts => cas_attempts;
        /// Count one version-pointer CAS failure.
        incr_cas_failures, add_cas_failures => cas_failures;
        /// Count one delegation of a propagate's remaining work (§5).
        incr_delegations, add_delegations => delegations;
        /// Count one delegation-wait timeout (the lock-free fallback of
        /// Fig. 13 lines 19–21).
        incr_delegation_timeouts, add_delegation_timeouts => delegation_timeouts;
    }

    /// Borrow the calling thread's stripe as a [`StatsHandle`], hoisting
    /// the thread-id lookup out of a hot section: `propagate` resolves its
    /// stripe once per update instead of once per counter bump.
    #[inline]
    pub fn local(&self) -> StatsHandle<'_> {
        StatsHandle {
            stats: self,
            stripe: self.stripe(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Copy out current values, summed over all thread stripes.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for stripe in self.stripes.iter() {
            snap.propagates += read_counter(&stripe.propagates);
            snap.nodes_visited += read_counter(&stripe.nodes_visited);
            snap.nil_fixes += read_counter(&stripe.nil_fixes);
            snap.cas_attempts += read_counter(&stripe.cas_attempts);
            snap.cas_failures += read_counter(&stripe.cas_failures);
            snap.delegations += read_counter(&stripe.delegations);
            snap.delegation_timeouts += read_counter(&stripe.delegation_timeouts);
        }
        snap
    }
}

/// A borrow of one thread's counter stripe (see [`BatStats::local`]).
/// Bumps through a handle skip the per-call stripe resolution. `!Send` /
/// `!Sync` (via the marker field): a handle crossing threads would
/// silently attribute counters to the wrong stripe.
pub struct StatsHandle<'a> {
    stats: &'a BatStats,
    stripe: &'a Stripe,
    _not_send: std::marker::PhantomData<*const ()>,
}

macro_rules! handle_incr_methods {
    ($($incr:ident, $add:ident => $field:ident;)*) => {
        $(
            /// See the like-named method on [`BatStats`].
            #[inline]
            pub fn $incr(&self) {
                bump(&self.stripe.$field, 1);
            }

            /// Batched variant of the matching increment.
            #[inline]
            pub fn $add(&self, n: u64) {
                bump(&self.stripe.$field, n);
            }
        )*
    };
}

impl<'a> StatsHandle<'a> {
    /// The stats instance this handle belongs to (for the cold paths that
    /// still take `&BatStats`, like recursive nil refreshes).
    #[inline]
    pub fn stats(&self) -> &'a BatStats {
        self.stats
    }

    handle_incr_methods! {
        incr_propagates, add_propagates => propagates;
        incr_nodes_visited, add_nodes_visited => nodes_visited;
        incr_nil_fixes, add_nil_fixes => nil_fixes;
        incr_cas_attempts, add_cas_attempts => cas_attempts;
        incr_cas_failures, add_cas_failures => cas_failures;
        incr_delegations, add_delegations => delegations;
        incr_delegation_timeouts, add_delegation_timeouts => delegation_timeouts;
    }
}

/// A plain-data snapshot of [`BatStats`], for printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub propagates: u64,
    pub nodes_visited: u64,
    pub nil_fixes: u64,
    pub cas_attempts: u64,
    pub cas_failures: u64,
    pub delegations: u64,
    pub delegation_timeouts: u64,
}

impl StatsSnapshot {
    /// Difference of two snapshots (for measuring one phase).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            propagates: self.propagates - earlier.propagates,
            nodes_visited: self.nodes_visited - earlier.nodes_visited,
            nil_fixes: self.nil_fixes - earlier.nil_fixes,
            cas_attempts: self.cas_attempts - earlier.cas_attempts,
            cas_failures: self.cas_failures - earlier.cas_failures,
            delegations: self.delegations - earlier.delegations,
            delegation_timeouts: self.delegation_timeouts - earlier.delegation_timeouts,
        }
    }

    /// Average nodes seen per propagate (paper §7).
    pub fn avg_nodes_per_propagate(&self) -> f64 {
        self.nodes_visited as f64 / self.propagates.max(1) as f64
    }

    /// Average nil versions filled per propagate (paper §7).
    pub fn avg_nil_fixes_per_propagate(&self) -> f64 {
        self.nil_fixes as f64 / self.propagates.max(1) as f64
    }

    /// Average CASes attempted per propagate (paper §7).
    pub fn avg_cas_per_propagate(&self) -> f64 {
        self.cas_attempts as f64 / self.propagates.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = BatStats::default();
        s.incr_propagates();
        s.incr_propagates();
        s.add_nodes_visited(10);
        let snap = s.snapshot();
        assert_eq!(snap.propagates, 2);
        assert_eq!(snap.nodes_visited, 10);
        assert_eq!(snap.avg_nodes_per_propagate(), 5.0);
    }

    #[test]
    fn delta_subtracts() {
        let s = BatStats::default();
        s.add_cas_attempts(5);
        let a = s.snapshot();
        s.add_cas_attempts(7);
        let b = s.snapshot();
        assert_eq!(b.delta(&a).cas_attempts, 7);
    }

    #[test]
    fn snapshot_sums_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(BatStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.incr_propagates();
                    }
                    s.add_nodes_visited(50);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.propagates, 4000);
        assert_eq!(snap.nodes_visited, 200);
    }
}
