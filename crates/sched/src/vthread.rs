//! The cooperative virtual-thread scheduler.
//!
//! Virtual threads ("vthreads") are real OS threads, but exactly one holds
//! the **run token** at any instant; every other vthread is parked on the
//! scheduler's condvar. At each yield point — every instrumented atomic
//! operation under the `sched-test` feature, plus explicit [`yield_now`],
//! [`spawn`] and [`JoinHandle::join`] calls — the running vthread asks the
//! schedule's `Chooser` which runnable vthread goes next and hands the
//! token over. The resulting sequence of chosen thread ids is the
//! [`Trace`]; it is the complete schedule, so same chooser + same seed ⇒
//! byte-identical trace, and a recorded trace can be replayed.
//!
//! Failure handling: a panic on any vthread (assertion, poison check,
//! protocol invariant) is captured by a process-wide panic hook, recorded
//! as the schedule's failure together with the trace so far, and every
//! other vthread is unwound at its next yield point so the OS threads all
//! exit. A step budget turns livelocks into failures instead of hangs, and
//! a scheduling decision with no runnable thread (all blocked in joins)
//! reports a deadlock.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

// ---------------------------------------------------------------------------
// Deterministic RNG (kept dependency-free).
// ---------------------------------------------------------------------------

/// Small splitmix/xorshift-style generator for schedule choices.
#[derive(Clone)]
pub(crate) struct SchedRng(u64);

impl SchedRng {
    pub(crate) fn new(seed: u64) -> Self {
        // Splitmix a few times so nearby seeds diverge immediately.
        let mut s = SchedRng(seed ^ 0x9E37_79B9_7F4A_7C15);
        s.next_u64();
        s.next_u64();
        s
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.0 = z;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (bound > 0); bias is irrelevant at the
    /// tiny bounds schedule choices use.
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Choosers (schedule policies).
// ---------------------------------------------------------------------------

/// Decides, at each scheduling decision, which runnable vthread runs next.
pub(crate) enum Chooser {
    /// Uniform random walk over the runnable set.
    Random(SchedRng),
    /// PCT-style priority schedule: each vthread gets a random priority at
    /// registration; the highest-priority runnable thread always runs; at
    /// each of `change_points` (step numbers) the running thread is
    /// demoted below everyone else. Finds bugs needing few ordered
    /// preemptions with high probability.
    Pct {
        rng: SchedRng,
        /// Per-vthread priority (higher runs first); indexed by id.
        priorities: Vec<u64>,
        /// Remaining demotion step numbers, ascending.
        change_points: Vec<u64>,
        /// Lowest priority handed out so far (demotions go below it).
        floor: u64,
    },
    /// Depth-first systematic exploration: at every *branching* decision
    /// (≥ 2 runnable threads) follow `choices` (indexes into the runnable
    /// set, lowest-id order); decisions beyond the recorded prefix take
    /// index 0 and extend it. `sizes` records each branching decision's
    /// runnable-set size so the explorer can advance to the next schedule.
    Dfs {
        choices: Vec<u32>,
        sizes: Vec<u32>,
        cursor: usize,
    },
    /// Replay a recorded trace (thread id per decision); decisions past
    /// the end fall back to the lowest runnable id.
    Replay { ids: Vec<u32>, pos: usize },
}

impl Chooser {
    pub(crate) fn random(seed: u64) -> Chooser {
        Chooser::Random(SchedRng::new(seed))
    }

    /// A PCT-style chooser with `depth` priority change points spread over
    /// an expected schedule length of `expected_steps`.
    pub(crate) fn pct(seed: u64, depth: usize, expected_steps: u64) -> Chooser {
        let mut rng = SchedRng::new(seed ^ 0x50C7);
        let mut change_points: Vec<u64> = (0..depth)
            .map(|_| rng.next_u64() % expected_steps.max(1))
            .collect();
        change_points.sort_unstable();
        Chooser::Pct {
            rng,
            priorities: Vec::new(),
            change_points,
            floor: u64::MAX / 2,
        }
    }

    pub(crate) fn dfs(choices: Vec<u32>) -> Chooser {
        Chooser::Dfs {
            choices,
            sizes: Vec::new(),
            cursor: 0,
        }
    }

    pub(crate) fn replay(ids: Vec<u32>) -> Chooser {
        Chooser::Replay { ids, pos: 0 }
    }

    /// Called when vthread `id` registers, so priority-based policies can
    /// assign it a priority deterministically.
    fn on_register(&mut self, id: usize) {
        if let Chooser::Pct {
            rng, priorities, ..
        } = self
        {
            debug_assert_eq!(priorities.len(), id);
            priorities.push(rng.next_u64() / 2 + u64::MAX / 2);
        }
    }

    /// Pick the next thread from `runnable` (ascending ids, non-empty).
    ///
    /// Forced decisions (one runnable thread) are still *recorded* in the
    /// trace by the caller, so the Replay arm must consume one trace
    /// entry for them too — early-returning before it would desynchronize
    /// the replay cursor from the recorded schedule at every later
    /// branching decision.
    fn choose(&mut self, runnable: &[usize], current: usize, step: u64) -> usize {
        if runnable.len() == 1 && !matches!(self, Chooser::Replay { .. }) {
            return runnable[0];
        }
        match self {
            Chooser::Random(rng) => runnable[rng.below(runnable.len())],
            Chooser::Pct {
                priorities,
                change_points,
                floor,
                ..
            } => {
                if change_points.first().is_some_and(|&cp| step >= cp) {
                    change_points.remove(0);
                    if let Some(p) = priorities.get_mut(current) {
                        *floor -= 1;
                        *p = *floor;
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&id| priorities.get(id).copied().unwrap_or(0))
                    .expect("runnable non-empty")
            }
            Chooser::Dfs {
                choices,
                sizes,
                cursor,
            } => {
                let idx = if *cursor < choices.len() {
                    choices[*cursor] as usize
                } else {
                    choices.push(0);
                    0
                };
                sizes.push(runnable.len() as u32);
                *cursor += 1;
                runnable[idx.min(runnable.len() - 1)]
            }
            Chooser::Replay { ids, pos } => {
                let want = ids.get(*pos).map(|&id| id as usize);
                *pos += 1;
                match want {
                    Some(id) if runnable.contains(&id) => id,
                    _ => runnable[0],
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Traces.
// ---------------------------------------------------------------------------

/// The complete schedule of one run: the vthread id chosen at every
/// scheduling decision, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace(pub Vec<u32>);

impl Trace {
    /// Canonical byte serialization (little-endian u32 per decision) —
    /// the unit of the "same seed ⇒ byte-identical trace" guarantee.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.0.len() * 4);
        for id in &self.0 {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out
    }

    /// Compact human-readable rendering, e.g. `0.0.1.2.1`; long traces are
    /// elided in the middle.
    pub fn render(&self) -> String {
        let dots = |ids: &[u32]| {
            ids.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(".")
        };
        if self.0.len() <= 200 {
            dots(&self.0)
        } else {
            format!(
                "{}…[{} elided]…{}",
                dots(&self.0[..100]),
                self.0.len() - 200,
                dots(&self.0[self.0.len() - 100..])
            )
        }
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Scheduler state.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    Runnable,
    /// Waiting for the given vthread to finish.
    BlockedJoin(usize),
    Finished,
}

struct State {
    threads: Vec<TState>,
    os_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    /// The vthread holding the run token.
    current: usize,
    steps: u64,
    max_steps: u64,
    chooser: Chooser,
    trace: Vec<u32>,
    failure: Option<String>,
    finished: usize,
}

impl State {
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TState::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn all_finished(&self) -> bool {
        self.finished == self.threads.len()
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
    }

    /// Record one scheduling decision and set `current`. Returns `false`
    /// if no thread is runnable (caller reports deadlock or completion).
    fn schedule_next(&mut self) -> bool {
        let runnable = self.runnable();
        if runnable.is_empty() {
            return false;
        }
        let step = self.steps;
        let next = self.chooser.choose(&runnable, self.current, step);
        self.trace.push(next as u32);
        self.current = next;
        true
    }
}

pub(crate) struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Payload used to unwind vthreads of an already-failed schedule without
/// producing a second failure report.
struct SchedAbort;

fn abort_unwind() -> ! {
    std::panic::panic_any(SchedAbort)
}

thread_local! {
    /// The scheduler this OS thread belongs to, if it is a managed vthread.
    static CURRENT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()` as a plain `Cell`, so the unmanaged
    /// fast path of [`yield_point`] — taken by every instrumented atomic
    /// op of every ordinary thread whenever the `sched-test` feature is
    /// on — is a single thread-local byte read instead of a `RefCell`
    /// borrow (which is slow enough to distort timing-sensitive debug
    /// tests).
    static MANAGED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn set_current(v: Option<(Arc<Shared>, usize)>) {
    MANAGED.with(|m| m.set(v.is_some()));
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// True if the calling OS thread is a managed vthread of a live schedule.
pub fn is_managed() -> bool {
    MANAGED.with(|m| m.get())
}

/// Install (once, process-wide) a panic hook that records a managed
/// vthread's panic as its schedule's failure — silently, so exploring
/// thousands of schedules does not spam stderr — and delegates everything
/// else to the previously installed hook.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SchedAbort>() {
                return;
            }
            let handled = CURRENT.with(|c| {
                let borrow = c.borrow();
                let Some((shared, id)) = borrow.as_ref() else {
                    return false;
                };
                let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = info.payload().downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                let loc = info
                    .location()
                    .map(|l| format!(" at {}:{}", l.file(), l.line()))
                    .unwrap_or_default();
                let mut st = shared.state.lock().unwrap();
                st.fail(format!("vthread {id} panicked{loc}: {msg}"));
                shared.cv.notify_all();
                true
            });
            if !handled {
                prev(info);
            }
        }));
    });
}

impl Shared {
    /// Park until this vthread holds the run token; unwinds if the
    /// schedule failed meanwhile.
    fn wait_for_token<'a>(
        &self,
        mut st: MutexGuard<'a, State>,
        me: usize,
    ) -> MutexGuard<'a, State> {
        loop {
            if st.failure.is_some() {
                drop(st);
                abort_unwind();
            }
            if st.current == me {
                return st;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// One yield point: consult the chooser, hand the token over if a
    /// different vthread was picked, park until it comes back.
    fn switch(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        if st.failure.is_some() {
            drop(st);
            abort_unwind();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let budget = st.max_steps;
            st.fail(format!(
                "step budget exceeded ({budget} steps): possible livelock"
            ));
            self.cv.notify_all();
            drop(st);
            abort_unwind();
        }
        debug_assert_eq!(st.threads[me], TState::Runnable);
        let switched = st.schedule_next();
        debug_assert!(switched, "the yielding thread itself is runnable");
        if st.current != me {
            self.cv.notify_all();
            let st = self.wait_for_token(st, me);
            drop(st);
        }
    }

    /// Register a new vthread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        let id = st.threads.len();
        st.threads.push(TState::Runnable);
        st.os_handles.push(None);
        st.chooser.on_register(id);
        id
    }

    /// Block `me` until `target` finishes, scheduling others meanwhile.
    fn join_wait(&self, me: usize, target: usize) {
        let mut st = self.state.lock().unwrap();
        if st.failure.is_some() {
            drop(st);
            abort_unwind();
        }
        if st.threads[target] == TState::Finished {
            return;
        }
        st.threads[me] = TState::BlockedJoin(target);
        if !st.schedule_next() {
            st.fail(format!(
                "deadlock: every live vthread is blocked in a join (vthread {me} on {target})"
            ));
            self.cv.notify_all();
            drop(st);
            abort_unwind();
        }
        self.cv.notify_all();
        let st = self.wait_for_token(st, me);
        debug_assert_eq!(st.threads[target], TState::Finished);
        drop(st);
    }

    /// Mark `me` finished, wake its joiners, pass the token on.
    fn finish(&self, me: usize) {
        let mut st = self.state.lock().unwrap();
        st.threads[me] = TState::Finished;
        st.finished += 1;
        for t in st.threads.iter_mut() {
            if *t == TState::BlockedJoin(me) {
                *t = TState::Runnable;
            }
        }
        if !st.all_finished() && st.failure.is_none() && !st.schedule_next() {
            st.fail(format!(
                "deadlock: vthread {me} finished but every other live vthread is blocked"
            ));
        }
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Public vthread API.
// ---------------------------------------------------------------------------

/// Scheduler yield point. Called by the instrumented atomics on every
/// operation; a no-op on threads that are not managed vthreads. Also a
/// no-op while the thread is unwinding: destructors running during a
/// panic (including the abort-unwind of an already-failed schedule) touch
/// instrumented atomics, and re-entering the scheduler there would turn
/// the unwind into a double panic.
#[inline]
pub fn yield_point() {
    if !is_managed() {
        return;
    }
    if std::thread::panicking() {
        return;
    }
    CURRENT.with(|c| {
        if let Some((shared, me)) = &*c.borrow() {
            shared.switch(*me);
        }
    });
}

/// Explicit yield: identical to an instrumented-atomic yield point. A
/// no-op outside a schedule.
pub fn yield_now() {
    yield_point();
}

/// Handle to a spawned vthread.
pub struct JoinHandle<T> {
    shared: Arc<Shared>,
    id: usize,
    slot: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait (cooperatively) for the vthread to finish and return its
    /// result. If the target panicked, the schedule has already failed and
    /// this unwinds the caller too.
    pub fn join(self) -> T {
        let me = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map(|(_, id)| *id)
                .expect("JoinHandle::join called outside a managed vthread")
        });
        self.shared.join_wait(me, self.id);
        match self.slot.lock().unwrap().take() {
            Some(v) => v,
            None => abort_unwind(), // target panicked; failure already recorded
        }
    }

    /// The spawned vthread's id within the schedule.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Spawn a new vthread in the calling vthread's schedule. Must be called
/// from a managed vthread (the exploration body or one of its spawns).
/// The spawn itself is a yield point, so the chooser may run the child
/// immediately or keep the parent going.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (shared, me) = CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|(s, id)| (s.clone(), *id))
            .expect("sched::spawn called outside a managed vthread")
    });
    let id = shared.register();
    let slot = Arc::new(Mutex::new(None));
    let slot2 = slot.clone();
    let shared2 = shared.clone();
    let os = std::thread::Builder::new()
        .name(format!("vthread-{id}"))
        .spawn(move || vthread_main(shared2, id, slot2, f))
        .expect("spawn vthread OS thread");
    shared.state.lock().unwrap().os_handles[id] = Some(os);
    shared.switch(me);
    JoinHandle { shared, id, slot }
}

/// Body of every vthread's OS thread: wait to be scheduled for the first
/// time, run the closure under `catch_unwind`, store the result, finish.
fn vthread_main<T, F>(shared: Arc<Shared>, id: usize, slot: Arc<Mutex<Option<T>>>, f: F)
where
    F: FnOnce() -> T,
{
    set_current(Some((shared.clone(), id)));
    // Initial handoff: run only once the token points at us. If the
    // schedule failed before we ever ran, skip the body entirely.
    let aborted = {
        let mut st = shared.state.lock().unwrap();
        loop {
            if st.failure.is_some() {
                break true;
            }
            if st.current == id {
                break false;
            }
            st = shared.cv.wait(st).unwrap();
        }
    };
    if !aborted {
        if let Ok(v) = catch_unwind(AssertUnwindSafe(f)) {
            *slot.lock().unwrap() = Some(v);
        }
        // On Err: a real panic was recorded by the hook (or it was a
        // SchedAbort for an already-failed schedule); fall through.
    }
    set_current(None);
    shared.finish(id);
}

// ---------------------------------------------------------------------------
// Single-schedule driver.
// ---------------------------------------------------------------------------

/// Outcome of one scheduled run.
pub struct RunReport {
    /// The complete schedule executed.
    pub trace: Trace,
    /// `None` for a clean run; otherwise the first failure (panic,
    /// deadlock, or step-budget exhaustion).
    pub failure: Option<String>,
    /// Scheduling decisions taken.
    pub steps: u64,
}

/// Run `body` as vthread 0 of a fresh schedule driven by `chooser`.
/// Returns the report plus the chooser (whose recorded state the
/// exhaustive explorer inspects). Blocks until every OS thread of the
/// schedule has exited, so schedules never overlap.
pub(crate) fn run_with_chooser(
    chooser: Chooser,
    max_steps: u64,
    body: Box<dyn FnOnce() + Send>,
) -> (RunReport, Chooser) {
    install_hook();
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            threads: Vec::new(),
            os_handles: Vec::new(),
            current: 0,
            steps: 0,
            max_steps,
            chooser,
            trace: Vec::new(),
            failure: None,
            finished: 0,
        }),
        cv: Condvar::new(),
    });
    let root = shared.register();
    debug_assert_eq!(root, 0);
    let slot = Arc::new(Mutex::new(None));
    let shared2 = shared.clone();
    let slot2 = slot.clone();
    let os = std::thread::Builder::new()
        .name("vthread-0".to_string())
        .spawn(move || vthread_main(shared2, 0, slot2, body))
        .expect("spawn root vthread");
    shared.state.lock().unwrap().os_handles[0] = Some(os);

    // Wait for completion (or failure), then collect the OS threads so the
    // next schedule starts from a quiescent process.
    let handles: Vec<std::thread::JoinHandle<()>> = {
        let mut st = shared.state.lock().unwrap();
        while !st.all_finished() {
            if st.failure.is_some() {
                // Wake parked vthreads so they unwind and finish.
                shared.cv.notify_all();
            }
            st = shared.cv.wait(st).unwrap();
        }
        st.os_handles.drain(..).flatten().collect()
    };
    for h in handles {
        let _ = h.join();
    }

    let mut st = shared.state.lock().unwrap();
    let report = RunReport {
        trace: Trace(std::mem::take(&mut st.trace)),
        failure: st.failure.take(),
        steps: st.steps,
    };
    let chooser = std::mem::replace(&mut st.chooser, Chooser::replay(Vec::new()));
    drop(st);
    (report, chooser)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_random_seeded(seed: u64, body: impl FnOnce() + Send + 'static) -> RunReport {
        run_with_chooser(Chooser::random(seed), 1_000_000, Box::new(body)).0
    }

    #[test]
    fn spawn_join_returns_value() {
        let r = run_random_seeded(1, || {
            let h = spawn(|| 40 + 2);
            assert_eq!(h.join(), 42);
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
    }

    #[test]
    fn many_threads_all_run() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let r = run_random_seeded(7, move || {
            let hs: Vec<_> = (0..5)
                .map(|_| {
                    let c = c2.clone();
                    spawn(move || {
                        for _ in 0..10 {
                            c.fetch_add(1, Ordering::SeqCst);
                            yield_now();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        });
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panics_are_reported_with_a_trace() {
        let r = run_random_seeded(3, || {
            let h = spawn(|| {
                yield_now();
                panic!("deliberate failure");
            });
            h.join();
        });
        let msg = r.failure.expect("panic must fail the schedule");
        assert!(msg.contains("deliberate failure"), "{msg}");
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn step_budget_catches_livelocks() {
        let (r, _) = run_with_chooser(
            Chooser::random(5),
            500,
            Box::new(|| loop {
                yield_now();
            }),
        );
        let msg = r.failure.expect("livelock must be reported");
        assert!(msg.contains("step budget"), "{msg}");
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let body = || {
            let hs: Vec<_> = (0..3)
                .map(|t| {
                    spawn(move || {
                        let mut acc = t;
                        for _ in 0..20 {
                            acc += 1;
                            yield_now();
                        }
                        acc
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        };
        let a = run_random_seeded(42, body);
        let b = run_random_seeded(42, body);
        assert!(a.failure.is_none() && b.failure.is_none());
        assert_eq!(
            a.trace.to_bytes(),
            b.trace.to_bytes(),
            "same seed must reproduce a byte-identical trace"
        );
        let c = run_random_seeded(43, body);
        assert_ne!(
            a.trace.to_bytes(),
            c.trace.to_bytes(),
            "different seeds should explore different schedules"
        );
    }

    #[test]
    fn replay_reproduces_a_recorded_schedule() {
        let body = || {
            let hs: Vec<_> = (0..3)
                .map(|_| {
                    spawn(|| {
                        for _ in 0..10 {
                            yield_now();
                        }
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        };
        let a = run_random_seeded(11, body);
        assert!(a.failure.is_none());
        let (b, _) = run_with_chooser(
            Chooser::replay(a.trace.0.clone()),
            1_000_000,
            Box::new(body),
        );
        assert!(b.failure.is_none());
        assert_eq!(a.trace, b.trace, "replay must follow the recorded trace");
    }

    #[test]
    fn replay_stays_aligned_across_forced_decisions() {
        // Regression: forced (single-runnable) decisions are recorded in
        // the trace, so replay must consume them too. The root first
        // spawns+joins one child (a run of forced decisions while the
        // root is blocked), then races two order-sensitive children; the
        // replayed run must reproduce the recorded order exactly.
        fn body(order: &Arc<std::sync::Mutex<Vec<u8>>>) {
            let warmup = spawn(|| {
                for _ in 0..5 {
                    yield_now();
                }
            });
            warmup.join();
            let (o1, o2) = (order.clone(), order.clone());
            let a = spawn(move || {
                yield_now();
                o1.lock().unwrap().push(b'a');
            });
            let b = spawn(move || {
                yield_now();
                o2.lock().unwrap().push(b'b');
            });
            a.join();
            b.join();
        }
        for seed in 0..20u64 {
            let rec: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
            let r2 = rec.clone();
            let recorded =
                run_with_chooser(Chooser::random(seed), 100_000, Box::new(move || body(&r2))).0;
            assert!(recorded.failure.is_none());
            let rep: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
            let r3 = rep.clone();
            let replayed = run_with_chooser(
                Chooser::replay(recorded.trace.0.clone()),
                100_000,
                Box::new(move || body(&r3)),
            )
            .0;
            assert!(replayed.failure.is_none());
            assert_eq!(
                recorded.trace, replayed.trace,
                "seed {seed}: trace diverged"
            );
            assert_eq!(
                *rec.lock().unwrap(),
                *rep.lock().unwrap(),
                "seed {seed}: replay ran a different order"
            );
        }
    }

    #[test]
    fn pct_priorities_schedule_everyone() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let (r, _) = run_with_chooser(
            Chooser::pct(9, 3, 200),
            1_000_000,
            Box::new(move || {
                let hs: Vec<_> = (0..4)
                    .map(|_| {
                        let c = c2.clone();
                        spawn(move || {
                            for _ in 0..5 {
                                c.fetch_add(1, Ordering::SeqCst);
                                yield_now();
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join();
                }
            }),
        );
        assert!(r.failure.is_none(), "{:?}", r.failure);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn trace_render_elides_long_traces() {
        let t = Trace((0..1000).map(|i| i % 3).collect());
        let s = t.render();
        assert!(s.contains("elided"));
        let short = Trace(vec![0, 1, 0]);
        assert_eq!(short.render(), "0.1.0");
        assert_eq!(short.to_bytes().len(), 12);
    }
}
