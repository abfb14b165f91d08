//! The served workloads (`served-point`, `served-mixed`): `serve::run_serve`
//! over the shipped forest, paced and then open, plus a traced
//! single-thread replay through the public pieces `run_serve` is built
//! from, and the cost cards of the layers under it (`serve`, `shard`,
//! `fanout`, `vedge`).
//!
//! Load is generated inside `run_serve` (one client, window 16): `serve`
//! exposes no submit API. The benchmark itself adds no load thread.

use std::hint::black_box;
use std::time::{Duration, Instant};

use fanout::FanoutSet;
use serve::{Class, ClassMix, Ring, ServeConfig, ServeReport, SnapshotLease};
use shard::{ShardedSet, ShardedSnapshot};
use vedge::SnapClock;

use crate::cards::{self, update_card};
use crate::gen::{Req, Rng, ServedStream};
use crate::host;
use crate::model::{Bits, Ranked};
use crate::pass::Pass;
use crate::stats::{percentile_of, Summary};
use crate::trace::Tracer;

/// The forest as shipped: `serve::build_forest(1, 1 << 15, 1 << 16)`.
/// One shard and one client are the floor on a 2-core host: `run_serve`
/// always adds an analytics worker, so three runnable threads already.
const SHARDS: usize = 1;
const PREFILL: u64 = 1 << 15;
const MAX_KEY: u64 = 1 << 16;

const LANE_TRIAL: u64 = 32;
const LANE_CARDS: u64 = 3;
const LANE_CHECK: u64 = 4;

pub const POINT_ONLY: ClassMix = ClassMix {
    stat_pm: 0,
    range_pm: 0,
};

#[derive(Debug, Clone)]
pub struct Plan {
    pub mix: ClassMix,
    /// Offered rate of the paced phase, requests per second.
    pub paced_rps: u64,
    pub seed: u64,
    /// How many times set-up (building the forest) is repeated and timed.
    pub setup_reps: usize,
    pub warmup: Duration,
    /// Rounds of one paced trial followed by one open trial. The phases
    /// alternate so that a few seconds of interference from the host's
    /// other tenants reach a minority of either phase's trials, which the
    /// medians over trials then ignore.
    pub rounds: usize,
    pub paced_trial: Duration,
    pub open_trial: Duration,
    /// Requests of the traced replay; 0 = an end-to-end pass, with no
    /// replay and no cards.
    pub replay_requests: usize,
}

impl Plan {
    /// `seconds` is split 1:2 between the paced and the open phase, ten
    /// trials each: the open trials' rate is the noisier reading (three
    /// spinning threads on two cores, and a millisecond `select` in every
    /// thirteenth request of the shipped mix). A traced pass runs two
    /// trials each and spends the rest on the replay and the cards.
    pub fn workload(mix: ClassMix, paced_rps: u64, seed: u64, seconds: u64, trace: bool) -> Plan {
        let unit = Duration::from_secs(seconds.max(1)) / 30;
        let analytics = mix.stat_pm + mix.range_pm > 0;
        Plan {
            mix,
            paced_rps,
            seed,
            setup_reps: if trace { 1 } else { 9 },
            warmup: Duration::from_millis(300),
            rounds: if trace { 2 } else { 10 },
            paced_trial: unit,
            open_trial: unit * 2,
            // A select on the unaugmented forest costs milliseconds.
            replay_requests: match (trace, analytics) {
                (false, _) => 0,
                (true, false) => 20_000,
                (true, true) => 4_000,
            },
        }
    }

    fn config(&self, rps: u64, duration: Duration, lane: u64) -> ServeConfig {
        ServeConfig {
            clients: 1,
            window: 16,
            duration,
            offered_rps: rps,
            mix: self.mix,
            max_key: MAX_KEY,
            seed: Rng::lane(self.seed, LANE_TRIAL + lane).next(),
            ..ServeConfig::default()
        }
    }
}

type Forest = ShardedSet<FanoutSet>;

/// The keys `serve::build_forest(_, PREFILL, MAX_KEY)` puts in.
fn prefill_keys() -> impl Iterator<Item = u64> {
    (0..MAX_KEY).step_by((MAX_KEY / PREFILL) as usize)
}

fn samples_of(rep: &mut ServeReport, class: Class) -> Vec<u64> {
    std::mem::take(&mut rep.classes[class as usize].samples)
}

/// Per-class tallies over every trial of the pass.
#[derive(Default)]
struct Tally {
    submitted: [u64; serve::NUM_CLASSES],
    completed: [u64; serve::NUM_CLASSES],
    rejected: [u64; serve::NUM_CLASSES],
}

impl Tally {
    fn add(&mut self, rep: &ServeReport) {
        for (i, c) in rep.classes.iter().enumerate() {
            self.submitted[i] += c.submitted;
            self.completed[i] += c.completed;
            self.rejected[i] += c.rejected;
        }
    }
    fn sent(&self) -> u64 {
        self.submitted.iter().sum::<u64>() + self.rejected.iter().sum::<u64>()
    }
}

/// Pooled percentiles of one class over the paced trials.
struct Pooled {
    all: Vec<u64>,
    per_trial_p50: Vec<f64>,
}

impl Pooled {
    fn new() -> Self {
        Pooled {
            all: Vec::new(),
            per_trial_p50: Vec::new(),
        }
    }
    fn add(&mut self, mut samples: Vec<u64>) {
        if !samples.is_empty() {
            self.per_trial_p50.push(percentile_of(&mut samples, 0.50));
            self.all.append(&mut samples);
        }
    }
    fn p(&mut self, p: f64) -> Option<Summary> {
        if self.all.is_empty() {
            return None;
        }
        let n = self.all.len() as u64;
        Some(Summary::pooled(
            percentile_of(&mut self.all, p),
            n,
            &self.per_trial_p50,
        ))
    }
}

pub fn run(plan: &Plan) -> Pass {
    let mut pass = Pass::default();
    let (pool_hits0, pool_misses0, _) = ebr::pool::local_stats();

    // --- set-up: build the forest `setup_reps` times; the last is kept ---
    let mut setup_secs = Vec::with_capacity(plan.setup_reps);
    let mut kept: Option<Forest> = None;
    for rep in 0..plan.setup_reps {
        drop(kept.take());
        let rss0 = host::rss_bytes();
        let t = Instant::now();
        let forest = serve::build_forest(SHARDS, PREFILL, MAX_KEY);
        setup_secs.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            let grown = (host::rss_bytes() - rss0).max(0.0);
            pass.layer(
                "mem.bytes_per_key",
                Summary::point(grown / PREFILL as f64, 1),
            );
        }
        kept = Some(forest);
    }
    let forest = kept.expect("setup_reps >= 1");
    pass.e2e("setup_s", Summary::of(&setup_secs));
    pass.attempt(
        1,
        (forest.len() != PREFILL) as u64,
        "build_forest did not leave the prefill keys in",
    );

    // --- warm-up, then rounds of a paced and an open trial ---
    // A paced warm-up, not an open one: see `rss_peak_mb` below.
    serve::run_serve(&forest, &plan.config(plan.paced_rps, plan.warmup, 0));
    let mut tally = Tally::default();
    let ebr0 = ebr::stats();
    let (att0, abort0, retry0) = forest.contention();
    let started = Instant::now();

    let (mut point, mut stat, mut range) = (Pooled::new(), Pooled::new(), Pooled::new());
    let analytics = plan.mix.stat_pm + plan.mix.range_pm > 0;
    let mut check_rng = Rng::lane(plan.seed, LANE_CHECK);
    let mut sent_share = Vec::new();
    let mut renewals_per_s = Vec::new();
    let mut open_rps = Vec::new();
    let mut open_point_p50 = Vec::new();
    for round in 0..plan.rounds as u64 {
        let cfg = plan.config(plan.paced_rps, plan.paced_trial, 1 + round);
        let mut rep = serve::run_serve(&forest, &cfg);
        tally.add(&rep);
        let sent: u64 = rep.classes.iter().map(|c| c.submitted + c.rejected).sum();
        sent_share.push(sent as f64 / (plan.paced_rps as f64 * plan.paced_trial.as_secs_f64()));
        renewals_per_s.push(rep.lease_renewals as f64 / rep.secs);
        point.add(samples_of(&mut rep, Class::Point));
        stat.add(samples_of(&mut rep, Class::Stat));
        range.add(samples_of(&mut rep, Class::Range));
        if round == 0 {
            // Peak memory is read before the first open trial: `run_serve`
            // keeps one latency sample per request, so at saturation its
            // buffers grow with throughput and a faster program would
            // read as a fatter one.
            pass.e2e("rss_peak_mb", Summary::point(host::rss_peak_mb(), 1));
        }

        let cfg = plan.config(0, plan.open_trial, 100 + round);
        let mut rep = serve::run_serve(&forest, &cfg);
        tally.add(&rep);
        open_rps.push(rep.rps());
        open_point_p50.push(percentile_of(&mut samples_of(&mut rep, Class::Point), 0.50));
    }
    let secs = started.elapsed().as_secs_f64();
    let ebr1 = ebr::stats();
    let (att1, abort1, retry1) = forest.contention();

    // --- output check of the run ---
    let lost: u64 = (0..serve::NUM_CLASSES)
        .map(|i| tally.submitted[i] - tally.completed[i])
        .sum();
    let rejected: u64 = tally.rejected.iter().sum();
    pass.attempt(
        tally.sent(),
        lost,
        "a request was admitted but never completed",
    );
    pass.attempt(0, rejected, "a request was refused admission (ring full)");
    let sent_in = |c: Class| tally.submitted[c as usize] + tally.rejected[c as usize];
    pass.attempt(
        1,
        off_mix(
            &plan.mix,
            sent_in(Class::Stat),
            sent_in(Class::Range),
            tally.sent(),
        ) as u64,
        "class shares are more than 2 pp off the configured mix",
    );
    let sent = Summary::of(&sent_share);
    pass.attempt(
        1,
        (sent.value < 0.98) as u64,
        "the paced generator sent less than 98% of the offered load",
    );
    quiesced_check(&forest, &mut check_rng, &mut pass);

    // --- metrics of the run ---
    pass.e2e("ops_per_s", Summary::of(&open_rps));
    let point_p50 = point.p(0.50).expect("every mix has point requests");
    pass.e2e("point_p50_ns", point_p50);
    let stat_p50 = stat.p(0.50);
    if let Some(s) = stat_p50 {
        pass.layer("stat_p50_ns", s);
    }
    pass.layer("serve.point_p99_ns", point.p(0.99).expect("point samples"));
    pass.layer(
        "serve.point_p999_ns",
        point.p(0.999).expect("point samples"),
    );
    if let Some(s) = stat.p(0.99) {
        pass.layer("serve.stat_p99_ns", s);
    }
    if let (Some(p50), Some(p99)) = (range.p(0.50), range.p(0.99)) {
        pass.layer("serve.range_p50_ns", p50);
        pass.layer("serve.range_p99_ns", p99);
    }
    pass.layer("serve.open_point_p50_ns", Summary::of(&open_point_p50));
    pass.layer(
        "serve.rejected_share",
        Summary::point(rejected as f64 / tally.sent().max(1) as f64, tally.sent()),
    );
    pass.layer("serve.sent_share", sent);
    if analytics {
        // Without analytics requests the worker's renewal rate measures
        // nothing the workload uses.
        pass.layer("serve.lease_renewals_per_s", Summary::of(&renewals_per_s));
    }
    pass.layer(
        "shard.scx_abort_share",
        Summary::point(
            (abort1 - abort0) as f64 / (att1 - att0).max(1) as f64,
            att1 - att0,
        ),
    );
    pass.layer(
        "fanout.retry_share",
        Summary::point(
            (retry1 - retry0) as f64 / (att1 - att0).max(1) as f64,
            att1 - att0,
        ),
    );
    let chain = forest
        .shards()
        .map(|s| s.debug_max_version_chain())
        .max()
        .unwrap_or(0);
    pass.layer("vedge.max_version_chain", Summary::point(chain as f64, 1));
    let completed: u64 = tally.completed.iter().sum();
    pass.layer(
        "ebr.retired_per_op",
        Summary::point(
            (ebr1.retired - ebr0.retired) as f64 / completed.max(1) as f64,
            completed,
        ),
    );
    pass.layer(
        "ebr.unreclaimed_end",
        Summary::point((ebr1.retired - ebr1.freed) as f64, 1),
    );
    pass.layer(
        "ebr.epoch_advances_per_s",
        Summary::point((ebr1.epoch - ebr0.epoch) as f64 / secs, 1),
    );

    // --- traced replay and cards ---
    if plan.replay_requests > 0 {
        let mut off = Tracer::new(Instant::now(), 1, 0);
        let untraced = replay::<false>(plan, &mut off, &mut pass);
        let mut tracer = Tracer::new(Instant::now(), 1, plan.replay_requests * 6);
        let traced = replay::<true>(plan, &mut tracer, &mut pass);
        pass.layer(
            "trace.overhead_share",
            Summary::point(1.0 - traced / untraced, plan.replay_requests as u64),
        );
        pass.spans = tracer.spans;
        run_cards(plan, &forest, &mut pass);
        let l = |name: &str| pass.layers[name].value;
        let (route, ring, op) = (
            l("shard.route_ns"),
            l("serve.ring_push_pop_ns"),
            l("shard.point_op_ns"),
        );
        let (rank, select) = (l("shard.snap_rank_ns"), l("shard.snap_select_ns"));
        let residual = point_p50.value - (route + ring + op);
        pass.layer(
            "serve.point_residual_ns",
            Summary::point(residual, point_p50.n),
        );
        pass.recon.push(format!(
            "point_p50_ns {:.0} = shard.route_ns {:.1} + serve.ring_push_pop_ns {:.1} + shard.point_op_ns {:.0} + serve.point_residual_ns {:.0}  (residual = queueing, client<->worker hand-off and scheduler: what no outside timer can split further)",
            point_p50.value, route, ring, op, residual
        ));
        if let Some(stat_p50) = stat_p50 {
            let service = ring + 0.5 * rank + 0.5 * select;
            let residual = stat_p50.value - service;
            pass.layer(
                "serve.stat_residual_ns",
                Summary::point(residual, stat_p50.n),
            );
            pass.recon.push(format!(
                "stat_p50_ns {:.0} = serve.ring_push_pop_ns {:.1} + 0.5 x shard.snap_rank_ns {:.0} + 0.5 x shard.snap_select_ns {:.0} + serve.stat_residual_ns {:.0}",
                stat_p50.value, ring, rank, select, residual
            ));
        }
    }
    let (pool_hits1, pool_misses1, _) = ebr::pool::local_stats();
    let (hits, misses) = (pool_hits1 - pool_hits0, pool_misses1 - pool_misses0);
    pass.layer(
        "ebr.pool_hit_share",
        Summary::point(hits as f64 / (hits + misses).max(1) as f64, hits + misses),
    );
    drop(forest);
    ebr::flush();
    pass
}

/// Is the share of `stat` or of `range` among `total` requests more than
/// 2 pp off `mix`? A sample too small to pin a share to 2 pp (a reference
/// pass's few thousand requests) is held to four standard errors instead.
fn off_mix(mix: &ClassMix, stat: u64, range: u64, total: u64) -> bool {
    let n = total.max(1) as f64;
    let off = |count: u64, pm: u32| {
        let p = pm as f64 / 1000.0;
        (count as f64 / n - p).abs() > (4.0 * (p * (1.0 - p) / n).sqrt()).max(0.02)
    };
    off(stat, mix.stat_pm) || off(range, mix.range_pm)
}

/// After quiescing: the forest's `len()` against a cut's `rank(MAX)`, and
/// on sampled keys the identities any correct cut satisfies (the served
/// run's own operations are `run_serve`'s, so there is no model of the
/// contents here; the replay checks against one).
fn quiesced_check(forest: &Forest, rng: &mut Rng, pass: &mut Pass) {
    const KEYS: usize = 1_024;
    const SELECTS: usize = 16;
    let snap = forest.snapshot();
    let mut wrong = (forest.len() != snap.rank(u64::MAX)) as u64;
    for i in 0..KEYS {
        let k = rng.below(MAX_KEY);
        let rank = snap.rank(k);
        let hi = k + 1024;
        let below = if k == 0 { 0 } else { snap.rank(k - 1) };
        wrong += (snap.range_count(k, hi) != snap.rank(hi) - below) as u64;
        wrong += (snap.contains(k) != (rank > below)) as u64;
        if i < SELECTS && rank > 0 {
            // The rank(k)-th smallest key is the largest key <= k.
            wrong += !snap
                .select(rank - 1)
                .is_some_and(|s| s <= k && snap.contains(s) && snap.rank(s) == rank)
                as u64;
        }
    }
    pass.attempt(
        1 + 2 * KEYS as u64 + SELECTS as u64,
        wrong,
        "a cut of the quiesced forest contradicts itself",
    );
}

/// Run `f`, and with `TRACED` record it as a child span of `parent`.
#[inline(always)]
fn step<const TRACED: bool, R>(
    tracer: &mut Tracer,
    parent: u64,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    if TRACED {
        let t0 = Instant::now();
        let r = f();
        tracer.child(parent, name, req, t0, Instant::now());
        r
    } else {
        f()
    }
}

/// The leased cut an analytics request is served from, with the model as
/// it stood when the lease's timestamp was taken.
struct Cut<'a> {
    snap: ShardedSnapshot<'a, FanoutSet>,
    model: Ranked,
}

/// One thread, one request at a time, through the public pieces
/// `run_serve` is built from, on a fresh forest: `shard.route` →
/// `serve.ring.push` → `serve.ring.pop` → `shard.point_op`, or for the
/// analytics classes push → pop → `serve.lease` (→ `shard.snapshot_at`
/// on renewal) → `shard.snap_query`. Every answer is checked against a
/// bitmap model. Returns requests per second.
fn replay<const TRACED: bool>(plan: &Plan, tracer: &mut Tracer, pass: &mut Pass) -> f64 {
    let forest = serve::build_forest(SHARDS, PREFILL, MAX_KEY);
    let mut model = Bits::new(MAX_KEY);
    prefill_keys().for_each(|k| model.set(k));
    let cfg = plan.config(0, Duration::ZERO, 1_000);
    let ring = Ring::new(cfg.point_queue_cap);
    let (partition, shards) = (forest.partition(), forest.num_shards());
    let mut lease = SnapshotLease::take(&forest, cfg.lease);
    let mut cut = Some(Cut {
        snap: forest.snapshot_at(lease.ts()),
        model: model.ranked(),
    });
    let mut wrong = 0u64;
    let mut by_class = [0u64; serve::NUM_CLASSES];
    let start = Instant::now();
    for (i, req) in ServedStream::new(&cfg, 0)
        .take(plan.replay_requests)
        .enumerate()
    {
        let i = i as u64;
        let root_start = TRACED.then(Instant::now);
        let id = tracer.open();
        let point_key = match req {
            Req::Insert(k) | Req::Remove(k) | Req::Contains(k) => Some(k),
            _ => None,
        };
        if let Some(k) = point_key {
            black_box(step::<TRACED, _>(tracer, id, "shard.route", i, || {
                partition.shard_of(k, shards)
            }));
        }
        let pushed = step::<TRACED, _>(tracer, id, "serve.ring.push", i, || ring.try_push(i));
        let popped = step::<TRACED, _>(tracer, id, "serve.ring.pop", i, || ring.try_pop());
        wrong += (pushed.is_err() || popped != Some(i)) as u64;
        match req {
            Req::Insert(k) | Req::Remove(k) | Req::Contains(k) => {
                by_class[Class::Point as usize] += 1;
                let got = step::<TRACED, _>(tracer, id, "shard.point_op", i, || match req {
                    Req::Insert(_) => forest.insert(k),
                    Req::Remove(_) => forest.remove(k),
                    _ => forest.contains(k),
                });
                wrong += (got
                    != match req {
                        Req::Insert(_) => model.apply(k, true),
                        Req::Remove(_) => model.apply(k, false),
                        _ => model.test(k),
                    }) as u64;
            }
            Req::Rank(_) | Req::Select(_) | Req::RangeCount(..) => {
                let class = if matches!(req, Req::RangeCount(..)) {
                    Class::Range
                } else {
                    Class::Stat
                };
                by_class[class as usize] += 1;
                let renewed = step::<TRACED, _>(tracer, id, "serve.lease", i, || {
                    if lease.expired() {
                        cut = None; // a cut must not outlive its registration
                        lease.renew();
                        true
                    } else {
                        false
                    }
                });
                if renewed {
                    let snap = step::<TRACED, _>(tracer, id, "shard.snapshot_at", i, || {
                        forest.snapshot_at(lease.ts())
                    });
                    cut = Some(Cut {
                        snap,
                        model: model.ranked(),
                    });
                }
                let cut = cut.as_ref().expect("a cut is always held");
                let got = step::<TRACED, _>(tracer, id, "shard.snap_query", i, || match req {
                    Req::Rank(k) => cut.snap.rank(k),
                    Req::Select(n) => cut.snap.select(n).unwrap_or(u64::MAX),
                    Req::RangeCount(lo, hi) => cut.snap.range_count(lo, hi),
                    _ => unreachable!("point requests are handled above"),
                });
                wrong += (got
                    != match req {
                        Req::Rank(k) => cut.model.rank_le(k),
                        Req::Select(n) => cut.model.select(n).unwrap_or(u64::MAX),
                        Req::RangeCount(lo, hi) => cut.model.range_count(lo, hi),
                        _ => unreachable!("point requests are handled above"),
                    }) as u64;
            }
        }
        if let Some(root_start) = root_start {
            tracer.close(id, 0, "request", i, root_start, Instant::now());
        }
    }
    let rps = plan.replay_requests as f64 / start.elapsed().as_secs_f64();
    drop(cut);
    drop(lease);
    wrong += (forest.len() != model.count()) as u64;
    wrong += off_mix(
        &plan.mix,
        by_class[Class::Stat as usize],
        by_class[Class::Range as usize],
        plan.replay_requests as u64,
    ) as u64;
    pass.attempt(
        plan.replay_requests as u64 + 2,
        wrong,
        "the replay disagrees with the model (answers, final size or class shares)",
    );
    drop(forest);
    rps
}

/// The cards of the layers under a served workload, on the forest the run
/// left behind (and on a bare `FanoutSet` of the same size), on the
/// calling thread alone.
fn run_cards(plan: &Plan, forest: &Forest, pass: &mut Pass) {
    let mut rng = Rng::lane(plan.seed, LANE_CARDS);

    let ring = Ring::new(ServeConfig::default().point_queue_cap);
    pass.layer(
        "serve.ring_push_pop_ns",
        Summary::of(&cards::batches(400, 256, || {
            black_box(ring.try_push(7).is_ok());
            black_box(ring.try_pop());
        })),
    );
    {
        let mut lease = SnapshotLease::take(forest, Duration::from_secs(3600));
        pass.layer(
            "serve.lease_renew_ns",
            Summary::of(&cards::batches(400, 64, || lease.renew())),
        );
    }
    let (partition, shards) = (forest.partition(), forest.num_shards());
    pass.layer(
        "shard.route_ns",
        Summary::of(&cards::batches(400, 1024, || {
            black_box(partition.shard_of(black_box(rng.next()), black_box(shards)));
        })),
    );

    // The served point mix (40% insert, 30% remove, 30% contains), one
    // timing per call, with the calling thread's allocations.
    let point_cfg = ServeConfig {
        mix: POINT_ONLY,
        ..plan.config(0, Duration::ZERO, 2_000)
    };
    let mut stream = ServedStream::new(&point_cfg, 0);
    const POINT_OPS: usize = 20_000;
    let (point_ns, alloc_calls, alloc_bytes) =
        cards::each_counted(POINT_OPS, || match stream.next() {
            Some(Req::Insert(k)) => forest.insert(k),
            Some(Req::Remove(k)) => forest.remove(k),
            Some(Req::Contains(k)) => forest.contains(k),
            _ => unreachable!("a point-only stream is endless and has no other request"),
        });
    pass.layer("shard.point_op_ns", Summary::of(&point_ns));
    pass.layer(
        "alloc.calls_per_op",
        Summary::point(alloc_calls as f64 / POINT_OPS as f64, POINT_OPS as u64),
    );
    pass.layer(
        "alloc.bytes_per_op",
        Summary::point(alloc_bytes as f64 / POINT_OPS as f64, POINT_OPS as u64),
    );

    {
        let ts = forest.snap_clock().register();
        pass.layer(
            "shard.snapshot_at_ns",
            Summary::of(&cards::batches(400, 32, || {
                black_box(forest.snapshot_at(ts));
            })),
        );
        let snap = forest.snapshot_at(ts);
        pass.layer(
            "shard.snap_rank_ns",
            Summary::of(&cards::each(2_000, || snap.rank(rng.below(MAX_KEY)))),
        );
        pass.layer(
            "shard.snap_select_ns",
            Summary::of(&cards::each(64, || snap.select(rng.below(MAX_KEY / 2)))),
        );
        pass.layer(
            "shard.snap_range_count_ns",
            Summary::of(&cards::each(2_000, || {
                let lo = rng.below(MAX_KEY);
                snap.range_count(lo, lo + ServeConfig::default().range_span)
            })),
        );
        drop(snap);
        forest.snap_clock().deregister();
    }

    // A bare FanoutSet of the forest's size: shard.point_op_ns minus these
    // is what routing through ShardedSet costs.
    let bare = FanoutSet::new();
    let mut model = Bits::new(MAX_KEY);
    let mut refused = 0u64;
    for k in prefill_keys() {
        model.set(k);
        refused += !bare.insert(k) as u64;
    }
    let card = update_card(
        20_000,
        &mut rng,
        MAX_KEY,
        &mut model,
        |k| bare.insert(k),
        |k| bare.remove(k),
    );
    pass.attempt(
        PREFILL + card.ops(),
        refused + card.mismatches,
        "fanout card disagrees with the model",
    );
    pass.layer("fanout.update_ns", Summary::of(&card.pooled()));
    pass.layer(
        "fanout.contains_ns",
        Summary::of(&cards::batches(400, 32, || {
            black_box(bare.contains(rng.below(MAX_KEY)));
        })),
    );
    drop(bare);

    let clock = SnapClock::new();
    pass.layer(
        "vedge.register_ns",
        Summary::of(&cards::batches(400, 64, || {
            black_box(clock.register());
            clock.deregister();
        })),
    );
    pass.layer("ebr.pin_ns", cards::ebr_pin());
}
