//! The direct workloads (`bat-update`, `bat-analytics`): a closed loop of
//! benchmark threads calling `cbat_core::BatSet<u64>` with no layer in
//! between, plus the cost cards of the layers under it (`core`,
//! `chromatic`, `frbst`, `ebr`).

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cbat_core::BatSet;
use chromatic::ChromaticSet;
use frbst::FrSet;

use crate::cards::{self, update_card};
use crate::gen::Rng;
use crate::host;
use crate::model::Bits;
use crate::pass::Pass;
use crate::stats::{percentile_of, Summary};
use crate::trace::{Span, Tracer};

/// Latency is sampled on every 16th operation of each thread.
const SAMPLE_EVERY: u64 = 16;
const WINDOW: Duration = Duration::from_secs(1);
const CARD_UPDATE_OPS: usize = 20_000;

const LANE_PREFILL: u64 = 1;
const LANE_WORKER: u64 = 16;
const LANE_MAIN: u64 = 2;
const LANE_CARDS: u64 = 3;

pub const KINDS: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Insert = 0,
    Remove = 1,
    Contains = 2,
    Rank = 3,
    Select = 4,
    RangeCount = 5,
}

const ALL_KINDS: [Kind; KINDS] = [
    Kind::Insert,
    Kind::Remove,
    Kind::Contains,
    Kind::Rank,
    Kind::Select,
    Kind::RangeCount,
];

/// Child-span names of the traced run, by [`Kind`].
const SPAN_NAMES: [&str; KINDS] = [
    "core.insert",
    "core.remove",
    "core.contains",
    "core.rank",
    "core.select",
    "core.range_count",
];

impl Kind {
    fn is_update(self) -> bool {
        matches!(self, Kind::Insert | Kind::Remove)
    }
    fn is_query(self) -> bool {
        matches!(self, Kind::Rank | Kind::Select | Kind::RangeCount)
    }
}

/// Per-mille operation mix, in [`Kind`] order.
#[derive(Debug, Clone, Copy)]
pub struct Mix([u32; KINDS]);

impl Mix {
    pub const UPDATE: Mix = Mix([500, 500, 0, 0, 0, 0]);
    pub const ANALYTICS: Mix = Mix([100, 100, 200, 200, 200, 200]);

    #[inline]
    fn pick(&self, pm: u32) -> Kind {
        let mut acc = 0;
        for (i, share) in self.0.iter().enumerate() {
            acc += share;
            if pm < acc {
                return ALL_KINDS[i];
            }
        }
        Kind::RangeCount
    }
}

/// What a direct pass runs. The two workloads differ in `mix` alone.
#[derive(Debug, Clone)]
pub struct Plan {
    pub mix: Mix,
    /// Keys are drawn from `[0, key_space)`.
    pub key_space: u64,
    /// Keys present after set-up.
    pub prefill: u64,
    pub range_span: u64,
    pub seed: u64,
    /// How many times set-up (build + prefill) is repeated and timed.
    pub setup_reps: usize,
    pub warmup: Duration,
    /// One-second windows measured with tracing off.
    pub timed_windows: usize,
    /// One-second windows of the traced run; 0 = an end-to-end pass, with
    /// no traced run and no cards.
    pub traced_windows: usize,
}

impl Plan {
    pub fn workload(mix: Mix, seed: u64, seconds: u64, trace: bool) -> Plan {
        let seconds = seconds.max(1) as usize;
        // A traced pass splits the time between an untraced run (counter
        // deltas, the base of trace.overhead_share) and the traced one.
        let (timed_windows, traced_windows) = if trace {
            let w = (seconds / 3).max(2);
            (w, w)
        } else {
            (seconds, 0)
        };
        Plan {
            mix,
            key_space: 1 << 20,
            prefill: 1 << 19,
            range_span: 1 << 10,
            seed,
            setup_reps: if trace { 1 } else { 3 },
            warmup: Duration::from_secs(1),
            timed_windows,
            traced_windows,
        }
    }
}

/// Benchmark threads of a direct pass: two, on a host that has them.
fn threads() -> u64 {
    host::nproc().min(2) as u64
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// The prefill keys in insertion order: distinct uniform draws until
/// `plan.prefill` keys are in. Random order, because the same keys also
/// build the unbalanced `frbst` card structure.
fn for_each_prefill_key(plan: &Plan, mut f: impl FnMut(u64)) {
    let mut seen = Bits::new(plan.key_space);
    let mut rng = Rng::lane(plan.seed, LANE_PREFILL);
    let mut n = 0;
    while n < plan.prefill {
        let k = rng.below(plan.key_space);
        if !seen.test(k) {
            seen.set(k);
            f(k);
            n += 1;
        }
    }
}

/// A benchmark thread's own keys: the residue class `tid` mod `threads`,
/// with a private bitmap (indexed by `key / threads`) of which are in the
/// set. No other thread touches these keys, so every insert, remove and
/// contains has exactly one correct answer.
struct Owned {
    tid: u64,
    threads: u64,
    present: Bits,
    rng: Rng,
}

impl Owned {
    #[inline]
    fn draw_key(&mut self, key_space: u64) -> u64 {
        self.rng.below(key_space / self.threads) * self.threads + self.tid
    }
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Sample {
    window: u16,
    kind: Kind,
    ns: u32,
}

#[derive(Default)]
struct PhaseOut {
    /// Operations finished in each full window.
    window_ops: Vec<u64>,
    kind_ops: [u64; KINDS],
    samples: Vec<Sample>,
    mismatches: u64,
    /// `ebr::pool::local_stats` delta over the phase: (hits, misses).
    pool: (u64, u64),
}

#[inline(always)]
fn call(set: &BatSet<u64>, kind: Kind, a: u64, b: u64) -> u64 {
    match kind {
        Kind::Insert => set.insert(a) as u64,
        Kind::Remove => set.remove(&a) as u64,
        Kind::Contains => set.contains(&a) as u64,
        Kind::Rank => set.rank(&a),
        Kind::Select => set.select(a).unwrap_or(u64::MAX),
        Kind::RangeCount => set.range_count(&a, &b),
    }
}

/// Was `got` a correct answer? Exact for the thread's own keys; for the
/// order statistics, whose value depends on the other thread's progress,
/// the bound any linearizable answer satisfies (the exact check runs on a
/// snapshot during the run and on the quiesced structure after it).
#[inline(always)]
fn verify(own: &mut Owned, kind: Kind, a: u64, b: u64, got: u64) -> bool {
    let local = a / own.threads;
    match kind {
        Kind::Insert => got == own.present.apply(local, true) as u64,
        Kind::Remove => got == own.present.apply(local, false) as u64,
        Kind::Contains => got == own.present.test(local) as u64,
        Kind::Rank => got <= a + 1,
        Kind::Select => got != u64::MAX,
        Kind::RangeCount => got <= b - a + 1,
    }
}

/// One phase of one benchmark thread: operations back to back until
/// `windows` one-second windows (or `warmup`, when `windows` is 0) have
/// passed. With `TRACED`, every sampled operation also records a root span
/// and a child span around the `BatSet` call.
fn run_phase<const TRACED: bool>(
    set: &BatSet<u64>,
    own: &mut Owned,
    plan: &Plan,
    windows: usize,
    tracer: &mut Tracer,
) -> PhaseOut {
    let dur = if windows == 0 {
        plan.warmup
    } else {
        WINDOW * windows as u32
    };
    // Half the key space is present; stay below it so select never misses.
    let select_below = plan.prefill - plan.prefill / 8;
    let mut out = PhaseOut {
        samples: Vec::with_capacity(windows * 50_000),
        window_ops: Vec::with_capacity(windows + 1),
        ..PhaseOut::default()
    };
    let (hits0, misses0, _) = ebr::pool::local_stats();
    let start = Instant::now();
    let end = start + dur;
    let (mut cur_window, mut ops_in_window) = (0usize, 0u64);
    let mut i = 0u64;
    loop {
        let sampled = i.is_multiple_of(SAMPLE_EVERY);
        let root_start = if TRACED && sampled {
            Some(Instant::now())
        } else {
            None
        };
        let r = own.rng.next();
        let kind = plan.mix.pick((r % 1000) as u32);
        let (a, b) = match kind {
            Kind::Insert | Kind::Remove | Kind::Contains => (own.draw_key(plan.key_space), 0),
            Kind::Rank => (own.rng.below(plan.key_space), 0),
            Kind::Select => (own.rng.below(select_below), 0),
            Kind::RangeCount => {
                let lo = own.rng.below(plan.key_space - plan.range_span);
                (lo, lo + plan.range_span)
            }
        };
        let ok = if sampled {
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let got = call(set, kind, a, b);
            let t1 = Instant::now();
            let ok = verify(own, kind, a, b, got);
            let w = ((t1 - start).as_nanos() / WINDOW.as_nanos()) as usize;
            while cur_window < w {
                out.window_ops.push(ops_in_window);
                ops_in_window = 0;
                cur_window += 1;
            }
            if windows > 0 {
                out.samples.push(Sample {
                    window: cur_window as u16,
                    kind,
                    ns: (t1 - t0).as_nanos().min(u32::MAX as u128) as u32,
                });
            }
            if let Some(root_start) = root_start {
                let id = tracer.open();
                tracer.child(id, SPAN_NAMES[kind as usize], i, t0, t1);
                tracer.close(id, 0, "op", i, root_start, Instant::now());
            }
            ok
        } else {
            let got = call(set, kind, a, b);
            verify(own, kind, a, b, got)
        };
        out.mismatches += !ok as u64;
        out.kind_ops[kind as usize] += 1;
        ops_in_window += 1;
        i += 1;
    }
    // The window the phase ended in, unless the loop already closed it.
    out.window_ops.push(ops_in_window);
    out.window_ops.resize(windows, 0);
    let (hits1, misses1, _) = ebr::pool::local_stats();
    out.pool = (hits1 - hits0, misses1 - misses0);
    out
}

/// What one benchmark thread brings back: its warm-up is discarded.
struct WorkerOut {
    timed: PhaseOut,
    traced: Option<PhaseOut>,
    spans: Vec<Span>,
}

/// Counter readings the main thread takes at a phase boundary.
#[derive(Clone, Copy)]
struct Counters {
    at: Instant,
    core: cbat_core::StatsSnapshot,
    ebr: ebr::Stats,
}

fn read_counters(set: &BatSet<u64>) -> Counters {
    Counters {
        at: Instant::now(),
        core: set.stats().snapshot(),
        ebr: ebr::stats(),
    }
}

/// On one snapshot, taken while the benchmark threads run:
/// `range_count(lo, hi) == rank(hi) - rank_exclusive(lo)` and
/// `len() == rank(max)`.
fn snapshot_identity_holds(set: &BatSet<u64>, rng: &mut Rng, plan: &Plan) -> bool {
    let snap = set.snapshot();
    let lo = rng.below(plan.key_space - plan.range_span);
    let hi = lo + plan.range_span;
    snap.range_count(&lo, &hi) == snap.rank(&hi) - snap.rank_exclusive(&lo)
        && snap.len() == snap.rank(&u64::MAX)
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

/// Pooled percentile of the samples `keep` selects, with the quartiles of
/// the same percentile per window.
fn pooled_latency(
    phases: &[&PhaseOut],
    windows: usize,
    p: f64,
    keep: impl Fn(Kind) -> bool,
) -> Option<Summary> {
    let mut all: Vec<u64> = Vec::new();
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for s in phases.iter().flat_map(|ph| ph.samples.iter()) {
        if keep(s.kind) {
            all.push(s.ns as u64);
            if let Some(w) = per_window.get_mut(s.window as usize) {
                w.push(s.ns as u64);
            }
        }
    }
    if all.is_empty() {
        return None;
    }
    let parts: Vec<f64> = per_window
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| percentile_of(w, p))
        .collect();
    let n = all.len() as u64;
    Some(Summary::pooled(percentile_of(&mut all, p), n, &parts))
}

/// Both threads' operations per second in each window.
fn window_rates(phases: &[&PhaseOut], windows: usize) -> Vec<f64> {
    (0..windows)
        .map(|w| {
            phases.iter().map(|ph| ph.window_ops[w]).sum::<u64>() as f64 / WINDOW.as_secs_f64()
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

pub fn run(plan: &Plan) -> Pass {
    let mut pass = Pass::default();
    let threads = threads();

    // --- set-up: build + prefill, `setup_reps` times; the last is kept ---
    let mut setup_secs = Vec::with_capacity(plan.setup_reps);
    let mut kept: Option<BatSet<u64>> = None;
    for rep in 0..plan.setup_reps {
        drop(kept.take());
        let rss0 = host::rss_bytes();
        let t = Instant::now();
        let set = BatSet::<u64>::new();
        let mut refused = 0u64;
        for_each_prefill_key(plan, |k| refused += !set.insert(k) as u64);
        setup_secs.push(t.elapsed().as_secs_f64());
        pass.attempt(
            plan.prefill,
            refused,
            "prefill insert of an absent key returned false",
        );
        if rep == 0 {
            // Only the first build grows a fresh heap; later ones reuse it.
            let grown = (host::rss_bytes() - rss0).max(0.0);
            pass.layer(
                "mem.bytes_per_key",
                Summary::point(grown / plan.prefill as f64, 1),
            );
        }
        kept = Some(set);
    }
    let set = kept.expect("setup_reps >= 1");
    pass.e2e("setup_s", Summary::of(&setup_secs));

    let mut owned: Vec<Owned> = (0..threads)
        .map(|tid| Owned {
            tid,
            threads,
            present: Bits::new(plan.key_space / threads + 1),
            rng: Rng::lane(plan.seed, LANE_WORKER + tid),
        })
        .collect();
    for_each_prefill_key(plan, |k| {
        owned[(k % threads) as usize].present.set(k / threads);
    });

    // --- the run: warm-up, timed windows, traced windows ---
    let barrier = Barrier::new(threads as usize + 1);
    let trace_epoch = Instant::now();
    let mut main_rng = Rng::lane(plan.seed, LANE_MAIN);
    let mut identity_checks = 0u64;
    let mut identity_failures = 0u64;
    let (outs, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .iter_mut()
            .map(|own| {
                let (set, barrier) = (&set, &barrier);
                scope.spawn(move || {
                    let mut tracer =
                        Tracer::new(trace_epoch, own.tid + 1, plan.traced_windows * 100_000);
                    barrier.wait();
                    run_phase::<false>(set, own, plan, 0, &mut tracer);
                    let timed = run_phase::<false>(set, own, plan, plan.timed_windows, &mut tracer);
                    let traced = (plan.traced_windows > 0).then(|| {
                        run_phase::<true>(set, own, plan, plan.traced_windows, &mut tracer)
                    });
                    WorkerOut {
                        timed,
                        traced,
                        spans: tracer.spans,
                    }
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(plan.warmup);
        let before = read_counters(&set);
        for w in 1..=plan.timed_windows {
            // Mid-window, so the check never sits on a window's edge.
            let at = plan.warmup + WINDOW * w as u32 - WINDOW / 2;
            std::thread::sleep(at.saturating_sub(start.elapsed()));
            identity_checks += 1;
            identity_failures += !snapshot_identity_holds(&set, &mut main_rng, plan) as u64;
        }
        let timed_end = plan.warmup + WINDOW * plan.timed_windows as u32;
        std::thread::sleep(timed_end.saturating_sub(start.elapsed()));
        let after = read_counters(&set);
        let outs: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect();
        (outs, before, after)
    });
    pass.attempt(
        identity_checks,
        identity_failures,
        "range_count(lo,hi) != rank(hi) - rank_exclusive(lo) on one snapshot",
    );

    let timed: Vec<&PhaseOut> = outs.iter().map(|o| &o.timed).collect();
    let total_ops: u64 = timed.iter().map(|p| p.kind_ops.iter().sum::<u64>()).sum();
    let update_ops: u64 = timed
        .iter()
        .map(|p| p.kind_ops[Kind::Insert as usize] + p.kind_ops[Kind::Remove as usize])
        .sum();
    pass.attempt(
        total_ops,
        timed.iter().map(|p| p.mismatches).sum(),
        "a BatSet call returned what the thread's own bitmap rules out",
    );

    // --- end-to-end numbers of the untraced run ---
    let rates = window_rates(&timed, plan.timed_windows);
    pass.e2e("ops_per_s", Summary::of(&rates));
    let update_p50 = pooled_latency(&timed, plan.timed_windows, 0.50, Kind::is_update)
        .expect("every mix has updates");
    pass.e2e("point_p50_ns", update_p50);
    let update_p99 = pooled_latency(&timed, plan.timed_windows, 0.99, Kind::is_update)
        .expect("every mix has updates");
    pass.layer("update_p99_ns", update_p99);
    if let Some(s) = pooled_latency(&timed, plan.timed_windows, 0.50, Kind::is_query) {
        pass.layer("query_p50_ns", s);
    }

    // --- counter deltas over the untraced run ---
    let secs = (after.at - before.at).as_secs_f64();
    let core = after.core.delta(&before.core);
    pass.layer(
        "core.propagates_per_update",
        Summary::point(ratio(core.propagates, update_ops), update_ops),
    );
    pass.layer(
        "core.nodes_per_propagate",
        Summary::point(core.avg_nodes_per_propagate(), core.propagates),
    );
    pass.layer(
        "core.cas_per_propagate",
        Summary::point(core.avg_cas_per_propagate(), core.propagates),
    );
    pass.layer(
        "core.nil_fixes_per_propagate",
        Summary::point(core.avg_nil_fixes_per_propagate(), core.propagates),
    );
    pass.layer(
        "core.cas_fail_share",
        Summary::point(
            ratio(core.cas_failures, core.cas_attempts),
            core.cas_attempts,
        ),
    );
    pass.layer(
        "core.delegation_share",
        Summary::point(ratio(core.delegations, core.propagates), core.propagates),
    );
    pass.layer(
        "core.delegation_timeouts",
        Summary::point(core.delegation_timeouts as f64, core.propagates),
    );
    pass.layer(
        "ebr.retired_per_op",
        Summary::point(
            ratio((after.ebr.retired - before.ebr.retired) as u64, total_ops),
            total_ops,
        ),
    );
    pass.layer(
        "ebr.unreclaimed_end",
        Summary::point((after.ebr.retired - after.ebr.freed) as f64, 1),
    );
    pass.layer(
        "ebr.epoch_advances_per_s",
        Summary::point((after.ebr.epoch - before.ebr.epoch) as f64 / secs, 1),
    );
    let (hits, misses) = timed
        .iter()
        .fold((0, 0), |(h, m), p| (h + p.pool.0, m + p.pool.1));
    pass.layer(
        "ebr.pool_hit_share",
        Summary::point(ratio(hits, hits + misses), hits + misses),
    );

    // --- the traced run ---
    let traced: Vec<&PhaseOut> = outs.iter().filter_map(|o| o.traced.as_ref()).collect();
    if !traced.is_empty() {
        let traced_rates = window_rates(&traced, plan.traced_windows);
        let (untraced, with_trace) = (Summary::of(&rates).value, Summary::of(&traced_rates).value);
        pass.layer(
            "trace.overhead_share",
            Summary::point(1.0 - with_trace / untraced, plan.traced_windows as u64),
        );
        pass.attempt(
            traced.iter().map(|p| p.kind_ops.iter().sum::<u64>()).sum(),
            traced.iter().map(|p| p.mismatches).sum(),
            "a traced BatSet call returned what the thread's own bitmap rules out",
        );
        if let Some(s) = pooled_latency(&traced, plan.traced_windows, 0.999, Kind::is_update) {
            pass.layer("core.update_p999_ns", s);
        }
        if let Some(s) = pooled_latency(&traced, plan.traced_windows, 0.99, Kind::is_query) {
            pass.layer("core.query_p99_ns", s);
        }
        pass.spans = outs.iter().flat_map(|o| o.spans.iter().copied()).collect();
    }

    // --- quiesced: the model, the cards, then the exact check ---
    let mut model = Bits::new(plan.key_space);
    for own in &owned {
        for local in (0..plan.key_space / threads).filter(|&j| own.present.test(j)) {
            model.set(local * threads + own.tid);
        }
    }
    let core_card = (plan.traced_windows > 0).then(|| run_cards(plan, &set, &mut model, &mut pass));
    exact_check(plan, &set, &model, &mut pass);
    pass.e2e("rss_peak_mb", Summary::point(host::rss_peak_mb(), 1));

    if let Some(card) = core_card {
        let floor = pass.layers["chromatic.update_ns"].value;
        let overhead = pass.layers["core.augment_overhead_ns"].value;
        pass.recon.push(format!(
            "point_p50_ns {:.0} = chromatic.update_ns {:.0} + core.augment_overhead_ns {:.0} + residual {:.0}  (residual = {} threads' contention and cache sharing over the single-thread card {:.0})",
            update_p50.value,
            floor,
            overhead,
            update_p50.value - card,
            threads,
            card,
        ));
    }
    drop(set);
    ebr::flush();
    pass
}

/// The cards of the layers under a direct workload, on the quiesced
/// structure (and on `chromatic` / `frbst` sets built from the same
/// prefill keys), on the calling thread alone. Returns the `core` update
/// card's median, the single-thread counterpart of `point_p50_ns`.
fn run_cards(plan: &Plan, set: &BatSet<u64>, model: &mut Bits, pass: &mut Pass) -> f64 {
    let mut rng = Rng::lane(plan.seed, LANE_CARDS);
    let keys = plan.key_space;
    let span = plan.range_span;
    let select_below = plan.prefill - plan.prefill / 8;

    let core = update_card(
        CARD_UPDATE_OPS,
        &mut rng,
        keys,
        model,
        |k| set.insert(k),
        |k| set.remove(&k),
    );
    pass.attempt(
        core.ops(),
        core.mismatches,
        "core update card disagrees with the model",
    );
    pass.layer("core.insert_ns", Summary::of(&core.insert_ns));
    pass.layer("core.remove_ns", Summary::of(&core.remove_ns));
    pass.layer(
        "alloc.calls_per_op",
        Summary::point(core.alloc_calls as f64 / core.ops() as f64, core.ops()),
    );
    pass.layer(
        "alloc.bytes_per_op",
        Summary::point(core.alloc_bytes as f64 / core.ops() as f64, core.ops()),
    );
    let core_update = Summary::of(&core.pooled());

    let mut r = rng.clone();
    pass.layer(
        "core.contains_ns",
        Summary::of(&cards::batches(400, 32, || {
            black_box(set.contains(&r.below(keys)));
        })),
    );
    pass.layer(
        "core.rank_ns",
        Summary::of(&cards::each(8_000, || set.rank(&r.below(keys)))),
    );
    pass.layer(
        "core.select_ns",
        Summary::of(&cards::each(8_000, || set.select(r.below(select_below)))),
    );
    pass.layer(
        "core.range_count_ns",
        Summary::of(&cards::each(8_000, || {
            let lo = r.below(keys - span);
            set.range_count(&lo, &(lo + span))
        })),
    );
    pass.layer(
        "core.snapshot_ns",
        Summary::of(&cards::batches(400, 32, || {
            black_box(set.snapshot());
        })),
    );
    pass.layer("ebr.pin_ns", cards::ebr_pin());

    // chromatic: the unaugmented tree under the BAT, same keys and size.
    let chroma = ChromaticSet::<u64>::new();
    let chroma_update = Summary::of(&baseline_update_card(
        plan,
        &mut rng,
        pass,
        "chromatic card disagrees with the model",
        |k| chroma.insert(k),
        |k| chroma.remove(&k),
    ));
    pass.layer("chromatic.update_ns", chroma_update);
    pass.layer(
        "chromatic.contains_ns",
        Summary::of(&cards::batches(400, 32, || {
            black_box(chroma.contains(&r.below(keys)));
        })),
    );
    drop(chroma);
    pass.layer(
        "core.augment_overhead_ns",
        Summary::point(core_update.value - chroma_update.value, core.ops()),
    );

    // frbst: the paper's comparison base (unbalanced, augmented).
    let fr = FrSet::<u64>::new();
    let fr_update = baseline_update_card(
        plan,
        &mut rng,
        pass,
        "frbst card disagrees with the model",
        |k| fr.insert(k),
        |k| fr.remove(&k),
    );
    pass.layer("frbst.update_ns", Summary::of(&fr_update));
    drop(fr);
    core_update.value
}

/// Fill an empty comparison structure with the workload's prefill keys,
/// then run the update card on it. Returns the pooled per-call costs.
fn baseline_update_card(
    plan: &Plan,
    rng: &mut Rng,
    pass: &mut Pass,
    why: &str,
    insert: impl Fn(u64) -> bool,
    remove: impl Fn(u64) -> bool,
) -> Vec<f64> {
    let mut model = Bits::new(plan.key_space);
    let mut refused = 0u64;
    for_each_prefill_key(plan, |k| {
        model.set(k);
        refused += !insert(k) as u64;
    });
    let card = update_card(
        CARD_UPDATE_OPS,
        rng,
        plan.key_space,
        &mut model,
        &insert,
        &remove,
    );
    pass.attempt(plan.prefill + card.ops(), refused + card.mismatches, why);
    card.pooled()
}

/// After quiescing: `len()`, and on sampled keys `rank`, `select` (with
/// `select(rank(k) - 1) == k` for present `k`) and `range_count`, each
/// against the bitmap model.
fn exact_check(plan: &Plan, set: &BatSet<u64>, model: &Bits, pass: &mut Pass) {
    const KEYS: u64 = 4_096;
    let ranked = model.ranked();
    let mut rng = Rng::lane(plan.seed, LANE_MAIN + 100);
    let mut wrong = (set.len() != ranked.len()) as u64;
    for _ in 0..KEYS {
        let k = rng.below(plan.key_space);
        let rank = set.rank(&k);
        wrong += (rank != ranked.rank_le(k)) as u64;
        if rank > 0 {
            let floor = ranked.select(rank - 1);
            wrong += (set.select(rank - 1) != floor) as u64;
            wrong += (model.test(k) && floor != Some(k)) as u64;
        }
        let hi = (k + plan.range_span).min(plan.key_space - 1);
        wrong += (set.range_count(&k, &hi) != ranked.range_count(k, hi)) as u64;
    }
    pass.attempt(
        1 + 3 * KEYS,
        wrong,
        "quiesced len/rank/select/range_count disagrees with the model",
    );
}
