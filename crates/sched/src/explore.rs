//! Schedule explorers: many controlled runs of one test body.
//!
//! * [`explore`] — seeded random-walk or PCT-style exploration: `N`
//!   schedules, each driven by a seed derived from the base seed, with a
//!   full trace dump on failure so any failing schedule can be replayed
//!   from its seed alone ([`run_random`]) or from the dumped trace
//!   ([`replay`]).
//! * [`explore_exhaustive`] — bounded depth-first enumeration of every
//!   branching scheduling decision, for small bodies (a few threads × a
//!   few yield points); reports whether the space was exhausted within
//!   the schedule budget.
//!
//! Both stop at the first failing schedule and return one
//! [`ExploreReport`].
//!
//! Bodies are `Fn` closures invoked once per schedule; share state across
//! schedules via `Arc`/atomics captured by the closure. Each run executes
//! the body as vthread 0; the body spawns the racing vthreads with
//! [`crate::spawn`].

use std::sync::Arc;

use crate::vthread::{run_with_chooser, Chooser, RunReport, Trace};

/// Scheduling policy for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Uniform random choice among runnable vthreads at every decision.
    RandomWalk,
    /// PCT-style priority schedules with the given number of priority
    /// change points (few ordered preemptions, found with high
    /// probability).
    Pct { depth: usize },
}

/// Configuration for [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of schedules to run.
    pub schedules: usize,
    /// Base seed; schedule `i` runs with a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Per-schedule step budget (exceeding it fails the schedule as a
    /// possible livelock).
    pub max_steps: u64,
    /// Scheduling policy.
    pub policy: Policy,
}

/// One failing schedule.
#[derive(Debug)]
pub struct ScheduleFailure {
    /// Index of the schedule within the exploration.
    pub index: usize,
    /// The derived seed of an [`explore`] schedule (under
    /// [`Policy::RandomWalk`], [`run_random`] reproduces it from this
    /// alone); `None` for an [`explore_exhaustive`] schedule.
    pub seed: Option<u64>,
    /// The failure message (panic text, deadlock, or step budget).
    pub message: String,
    /// The complete schedule up to the failure (for [`replay`]).
    pub trace: Trace,
}

/// Result of an [`explore`] or [`explore_exhaustive`] call. Both stop at
/// the first failing schedule.
#[derive(Debug)]
pub struct ExploreReport {
    /// Schedules run, the failing one included.
    pub schedules: usize,
    /// The failing schedule, if any.
    pub failure: Option<ScheduleFailure>,
    /// True if [`explore_exhaustive`] enumerated every schedule (at the
    /// branching-decision granularity) within its budget; [`explore`]
    /// samples and never sets it.
    pub exhausted: bool,
}

impl ExploreReport {
    /// Panic with a replay recipe if a schedule failed.
    pub fn assert_clean(&self, what: &str) {
        if let Some(f) = &self.failure {
            let seed = f.seed.map_or(String::new(), |s| format!(" (seed {s:#x})"));
            panic!(
                "{what}: schedule {}{seed} failed: {}\n  replay trace: {}",
                f.index,
                f.message,
                f.trace.render()
            );
        }
    }
}

/// Derive schedule `i`'s seed from the base seed (splitmix).
pub fn derive_seed(base: u64, i: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64) << 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one schedule under a seeded random walk. The canonical failure
/// reproducer: `run_random(seed, max_steps, body)` with the seed printed
/// by a failing [`explore`].
pub fn run_random(seed: u64, max_steps: u64, body: impl FnOnce() + Send + 'static) -> RunReport {
    run_with_chooser(Chooser::random(seed), max_steps, Box::new(body)).0
}

/// Replay a recorded trace (from a [`ScheduleFailure`] dump).
pub fn replay(trace: &Trace, max_steps: u64, body: impl FnOnce() + Send + 'static) -> RunReport {
    run_with_chooser(Chooser::replay(trace.0.clone()), max_steps, Box::new(body)).0
}

/// Explore up to `cfg.schedules` seeded schedules of `body`, stopping at
/// the first failure, which is dumped (with seed + trace) to stderr.
pub fn explore<F>(cfg: &ExploreConfig, body: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let mut report = ExploreReport {
        schedules: 0,
        failure: None,
        exhausted: false,
    };
    for i in 0..cfg.schedules {
        let seed = derive_seed(cfg.seed, i);
        let chooser = match cfg.policy {
            Policy::RandomWalk => Chooser::random(seed),
            Policy::Pct { depth } => Chooser::pct(seed, depth, cfg.max_steps.min(10_000)),
        };
        let b = body.clone();
        let (run, _) = run_with_chooser(chooser, cfg.max_steps, Box::new(move || b()));
        report.schedules += 1;
        if let Some(message) = run.failure {
            eprintln!(
                "sched: schedule {i} FAILED (policy {:?}, seed {seed:#x}): {message}\n\
                 sched: trace ({} decisions): {}",
                cfg.policy,
                run.trace.len(),
                run.trace.render()
            );
            report.failure = Some(ScheduleFailure {
                index: i,
                seed: Some(seed),
                message,
                trace: run.trace,
            });
            break;
        }
    }
    report
}

/// Depth-first enumeration of every schedule of `body`, bounded by
/// `max_schedules` (and `max_steps` per schedule). At each decision with
/// `k ≥ 2` runnable vthreads the explorer eventually tries all `k`
/// choices; single-runnable decisions do not branch, so the space is the
/// tree of true preemption choices. Stops at the first failing schedule,
/// leaving `exhausted` false.
pub fn explore_exhaustive<F>(max_schedules: usize, max_steps: u64, body: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    let body = Arc::new(body);
    let mut report = ExploreReport {
        schedules: 0,
        failure: None,
        exhausted: false,
    };
    let mut prescribed: Vec<u32> = Vec::new();
    loop {
        if report.schedules >= max_schedules {
            return report;
        }
        let b = body.clone();
        let (run, chooser) = run_with_chooser(
            Chooser::dfs(prescribed.clone()),
            max_steps,
            Box::new(move || b()),
        );
        report.schedules += 1;
        if let Some(message) = run.failure {
            eprintln!(
                "sched: exhaustive schedule {} FAILED: {message}\n\
                 sched: trace ({} decisions): {}",
                report.schedules - 1,
                run.trace.len(),
                run.trace.render()
            );
            report.failure = Some(ScheduleFailure {
                index: report.schedules - 1,
                seed: None,
                message,
                trace: run.trace,
            });
            return report;
        }
        // Advance to the next untried branch, odometer-style from the end.
        let Chooser::Dfs {
            mut choices,
            mut sizes,
            ..
        } = chooser
        else {
            unreachable!("dfs chooser comes back from the run");
        };
        loop {
            match (choices.pop(), sizes.pop()) {
                (Some(last), Some(size)) => {
                    if last + 1 < size {
                        choices.push(last + 1);
                        break;
                    }
                }
                _ => {
                    report.exhausted = true;
                    return report;
                }
            }
        }
        prescribed = choices;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vthread::{spawn, yield_now};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fails on the schedules that run the spawned child before the
    /// parent's check.
    fn fails_when_the_child_runs_first() {
        let flag = Arc::new(AtomicUsize::new(0));
        let f = flag.clone();
        let h = spawn(move || f.store(1, Ordering::SeqCst));
        yield_now();
        assert_eq!(flag.load(Ordering::SeqCst), 0, "child ran before parent");
        h.join();
    }

    fn random_walk(schedules: usize, seed: u64) -> ExploreConfig {
        ExploreConfig {
            schedules,
            seed,
            max_steps: 10_000,
            policy: Policy::RandomWalk,
        }
    }

    #[test]
    fn explore_runs_the_requested_schedule_count() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = runs.clone();
        let report = explore(&random_walk(17, 0xBEEF), move || {
            r2.fetch_add(1, Ordering::SeqCst);
            let h = spawn(yield_now);
            h.join();
        });
        report.assert_clean("trivial body");
        assert_eq!(report.schedules, 17);
        assert_eq!(runs.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn explore_reports_failures_with_seed_and_trace() {
        let report = explore(&random_walk(100, 3), fails_when_the_child_runs_first);
        let fail = report.failure.expect("some schedule runs the child first");
        assert!(fail.message.contains("child ran before parent"));
        assert!(!fail.trace.is_empty());
        // The seed alone reproduces the failing schedule.
        let seed = fail.seed.expect("a sampled schedule has a seed");
        let rerun = run_random(seed, 10_000, fails_when_the_child_runs_first);
        assert!(rerun.failure.is_some(), "seed must reproduce the failure");
    }

    #[test]
    fn both_explorers_stop_at_the_first_failure() {
        let report = explore(&random_walk(100, 3), fails_when_the_child_runs_first);
        let f = report.failure.expect("some schedule runs the child first");
        assert_eq!(report.schedules, f.index + 1, "explore ran past a failure");
        let report = explore_exhaustive(10_000, 10_000, fails_when_the_child_runs_first);
        let f = report.failure.expect("some schedule runs the child first");
        assert_eq!(
            report.schedules,
            f.index + 1,
            "explore_exhaustive ran past a failure"
        );
        assert!(!report.exhausted, "a failed enumeration is not exhausted");
    }

    #[test]
    fn exhaustive_enumerates_all_interleavings() {
        // Parent spawns one child; both flip their own flag around one
        // yield. The branching structure is small and fully enumerable;
        // both orders of the racing middle section must occur.
        let outcomes = Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
        let o2 = outcomes.clone();
        let report = explore_exhaustive(10_000, 10_000, move || {
            let order = Arc::new(std::sync::Mutex::new(Vec::new()));
            let o = order.clone();
            let h = spawn(move || {
                o.lock().unwrap().push('c');
                yield_now();
                o.lock().unwrap().push('C');
            });
            order.lock().unwrap().push('p');
            yield_now();
            order.lock().unwrap().push('P');
            h.join();
            let s: String = order.lock().unwrap().iter().collect();
            o2.lock().unwrap().insert(s);
        });
        report.assert_clean("exhaustive toy");
        assert!(report.exhausted, "small space must be exhausted");
        assert!(report.schedules >= 2);
        let outcomes = outcomes.lock().unwrap();
        assert!(
            outcomes.contains("pPcC") && outcomes.contains("pcPC") || outcomes.len() >= 3,
            "both orders must be explored, got {outcomes:?}"
        );
    }

    #[test]
    fn exhaustive_budget_bounds_the_run() {
        let report = explore_exhaustive(5, 100_000, || {
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    spawn(|| {
                        for _ in 0..8 {
                            yield_now();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        });
        assert_eq!(report.schedules, 5);
        assert!(
            !report.exhausted,
            "3×8 yields cannot exhaust in 5 schedules"
        );
    }

    #[test]
    fn derive_seed_spreads() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
