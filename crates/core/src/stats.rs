//! Work counters matching the paper's §7 instrumentation ("Why Balancing
//! Improves Throughput"): nodes traversed per propagate, nil versions
//! filled per propagate, CASes attempted per propagate, plus delegation
//! counts for the ablation experiments and the no-op updates the root
//! answered without a propagate. They live in one
//! [`ebr::Striped`]: per-thread padded stripes, single-writer bumps, a
//! lazy summing read.

use ebr::striped::Local;
use ebr::Striped;

/// The counters of a [`BatStats`], by stripe index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Propagate invocations: every effective update, and every no-op
    /// update (a present key inserted, an absent one removed) whose answer
    /// the root's version did not yet give. `Propagates + RootAnswers` is
    /// exactly the number of updates.
    Propagates,
    /// No-op updates answered by one read of the root's version, with no
    /// propagate (see [`crate::map`]).
    RootAnswers,
    /// Nodes stepped through during propagate descents (the paper's
    /// "nodes seen by a Propagate"); added once per descent.
    NodesVisited,
    /// `RefreshNil` executions ("nil versions filled in").
    NilFixes,
    /// Version-pointer CAS attempts.
    CasAttempts,
    /// Version-pointer CAS failures.
    CasFailures,
    /// Delegations of a propagate's remaining work (§5).
    Delegations,
    /// Delegation-wait timeouts (the lock-free fallback of Fig. 13 lines
    /// 19–21).
    DelegationTimeouts,
}

/// How many counters a [`BatStats`] stripe holds.
const COUNTERS: usize = Counter::DelegationTimeouts as usize + 1;

/// The calling thread's stripe of a [`BatStats`] (see [`BatStats::local`]).
pub(crate) type StatsLocal<'a> = Local<'a, COUNTERS>;

impl Counter {
    /// Count one event on the calling thread's stripe.
    #[inline]
    pub fn bump(self, h: &StatsLocal<'_>) {
        self.add(h, 1);
    }

    /// Count `n` events at once.
    #[inline]
    pub fn add(self, h: &StatsLocal<'_>, n: u64) {
        h.add(self as usize, n);
    }
}

/// Counters for one augmented tree instance (striped per thread).
#[derive(Default)]
pub struct BatStats(Striped<COUNTERS>);

impl BatStats {
    /// The calling thread's stripe. `propagate` resolves it once per
    /// update instead of once per counter bump.
    #[inline]
    pub fn local(&self) -> StatsLocal<'_> {
        self.0.local()
    }

    /// Copy out current values, summed over all thread stripes.
    pub fn snapshot(&self) -> StatsSnapshot {
        let [propagates, root_answers, nodes_visited, nil_fixes, cas_attempts, cas_failures, delegations, delegation_timeouts] =
            self.0.sum();
        StatsSnapshot {
            propagates,
            root_answers,
            nodes_visited,
            nil_fixes,
            cas_attempts,
            cas_failures,
            delegations,
            delegation_timeouts,
        }
    }
}

/// A plain-data snapshot of [`BatStats`], for printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub propagates: u64,
    pub root_answers: u64,
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
            root_answers: self.root_answers - earlier.root_answers,
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
        let h = s.local();
        Counter::Propagates.bump(&h);
        Counter::Propagates.bump(&h);
        Counter::NodesVisited.add(&h, 10);
        let snap = s.snapshot();
        assert_eq!(snap.propagates, 2);
        assert_eq!(snap.nodes_visited, 10);
        assert_eq!(snap.avg_nodes_per_propagate(), 5.0);
    }

    #[test]
    fn delta_subtracts() {
        let s = BatStats::default();
        Counter::CasAttempts.add(&s.local(), 5);
        let a = s.snapshot();
        Counter::CasAttempts.add(&s.local(), 7);
        let b = s.snapshot();
        assert_eq!(b.delta(&a).cas_attempts, 7);
    }

    /// Every counter lands in the snapshot field of its own name.
    #[test]
    fn snapshot_sums_across_threads() {
        let s = BatStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let h = s.local();
                    Counter::Propagates.add(&h, 1);
                    Counter::RootAnswers.add(&h, 2);
                    Counter::NodesVisited.add(&h, 3);
                    Counter::NilFixes.add(&h, 4);
                    Counter::CasAttempts.add(&h, 5);
                    Counter::CasFailures.add(&h, 6);
                    Counter::Delegations.add(&h, 7);
                    Counter::DelegationTimeouts.add(&h, 8);
                });
            }
        });
        assert_eq!(
            s.snapshot(),
            StatsSnapshot {
                propagates: 4,
                root_answers: 8,
                nodes_visited: 12,
                nil_fixes: 16,
                cas_attempts: 20,
                cas_failures: 24,
                delegations: 28,
                delegation_timeouts: 32,
            }
        );
    }
}
