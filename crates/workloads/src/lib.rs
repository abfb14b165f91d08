//! # workloads — SetBench-equivalent workload generation and harness
//!
//! The paper evaluates in SetBench \[32\]; this crate reproduces the pieces
//! its experiments use (§7 "Workloads"):
//!
//! * **parameters**: thread count (TT), max key (MK), range-query size
//!   (RQ), operation mix `i%-d%-f%-rq%`;
//! * **key distributions**: uniform, Zipfian (0.95/0.99), and the sorted
//!   global-counter stream of Fig. 5b (threads take batches of 100);
//! * **prefilling** to half the key range;
//! * a timed throughput harness reporting ops/s and sampled per-kind mean
//!   latencies (for Fig. 9).

pub mod linearize;
pub mod rng;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use rng::{scramble, Xorshift, Zipf};

/// The uniform set/query interface every benchmarked structure adapts to.
/// Keys are `u64` (as in SetBench). An update-only ablation adapter panics
/// in the three query methods, so it runs only mixes with no query share.
pub trait BenchSet: Send + Sync {
    /// Insert; `true` iff newly added.
    fn insert(&self, k: u64) -> bool;
    /// Remove; `true` iff present.
    fn remove(&self, k: u64) -> bool;
    /// Membership.
    fn contains(&self, k: u64) -> bool;
    /// Count keys in `[lo, hi]` (linearizable; snapshot-based).
    fn range_count(&self, lo: u64, hi: u64) -> u64;
    /// Number of keys ≤ k.
    fn rank(&self, k: u64) -> u64;
    /// i-th smallest key, if any. Structures without O(log n) select may
    /// implement it by scan.
    fn select(&self, i: u64) -> Option<u64>;
    /// Display name for result rows.
    fn name(&self) -> &'static str;
}

/// Which read-dominated query the `query` share of the mix issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Counting range query of the given size (the paper's RQ).
    RangeCount { size: u64 },
    /// Rank query at a random key.
    Rank,
    /// Select at a random index below `max_key / 2`: the size prefill
    /// leaves, which a balanced update mix keeps.
    Select,
}

/// Operation mix in parts per 100 000 (so 2.5% = 2 500 and Fig. 7's
/// 0.01% rank share = 10): insert/delete/find/query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    pub insert: u32,
    pub delete: u32,
    pub find: u32,
    pub query: u32,
}

/// The mix denominator: parts per 100 000.
pub const MIX_TOTAL: u32 = 100_000;

impl OpMix {
    /// From the paper's `i%-d%-f%-rq%` notation.
    pub fn percent(i: u32, d: u32, f: u32, q: u32) -> Self {
        OpMix {
            insert: i * 1000,
            delete: d * 1000,
            find: f * 1000,
            query: q * 1000,
        }
    }

    /// Per-mille constructor (for 2.5%-style mixes: `per_mille(25, ...)`).
    pub fn per_mille(i: u32, d: u32, f: u32, q: u32) -> Self {
        OpMix {
            insert: i * 100,
            delete: d * 100,
            find: f * 100,
            query: q * 100,
        }
    }

    /// Raw parts-per-100 000 constructor (Fig. 7's 0.01% = 10).
    pub fn pcm(i: u32, d: u32, f: u32, q: u32) -> Self {
        OpMix {
            insert: i,
            delete: d,
            find: f,
            query: q,
        }
    }

    fn total(&self) -> u32 {
        self.insert + self.delete + self.find + self.query
    }
}

/// Key distribution for choosing operation keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over `[0, max_key)`.
    Uniform,
    /// Zipfian with the given theta, scrambled over the key space.
    Zipf(f64),
    /// Roughly increasing keys from a shared counter, batches of 100
    /// (Fig. 5b's sorted distribution).
    Sorted,
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// TT: concurrent worker threads.
    pub threads: usize,
    /// MK: keys are drawn from `[0, max_key)`.
    pub max_key: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// What the `query` share executes.
    pub query: QueryKind,
    /// Key distribution.
    pub dist: KeyDist,
    /// Measured duration.
    pub duration: Duration,
    /// Prefill to half of `max_key` before measuring (paper default; the
    /// sorted experiment runs unprefilled).
    pub prefill: bool,
    /// RNG seed (runs are reproducible per seed).
    pub seed: u64,
}

impl RunConfig {
    /// A small default configuration (callers override fields).
    pub fn new(threads: usize, max_key: u64) -> Self {
        RunConfig {
            threads,
            max_key,
            mix: OpMix::percent(50, 50, 0, 0),
            query: QueryKind::RangeCount { size: 1000 },
            dist: KeyDist::Uniform,
            duration: Duration::from_millis(300),
            prefill: true,
            seed: 0xC0FFEE,
        }
    }
}

/// Aggregated result of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunResult {
    /// Completed operations (all kinds).
    pub total_ops: u64,
    /// Per-kind completed counts: insert, delete, find, query.
    pub ops: [u64; 4],
    /// Wall-clock seconds measured.
    pub secs: f64,
    /// Mean latency of sampled update operations (ns), weighted by each
    /// thread's sample *count* — not a mean of per-thread means, which let
    /// threads with few (or zero) sampled ops distort the aggregate.
    pub update_latency_ns: f64,
    /// Mean latency of sampled query operations (ns); same weighting.
    pub query_latency_ns: f64,
}

impl RunResult {
    /// Throughput in operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.secs / 1.0e6
    }
}

/// Prefill the structure so it holds about half the key range: each key is
/// inserted with probability one half (the same steady state the paper's
/// random insert/delete prefill phase converges to, reached directly).
///
/// Keys are visited in **bit-reversed** order: enumerating a permutation
/// keeps the insertion stream patternless for unbalanced trees (ascending
/// insertion would degenerate FR-BST/VcasBST into spines before the
/// measured phase even starts, which is not the paper's prefilled state).
pub fn prefill(set: &dyn BenchSet, max_key: u64, seed: u64) {
    let width = 64 - (max_key - 1).max(1).leading_zeros();
    let span = 1u64 << width;
    const CHUNK: u64 = 1 << 14;
    let n_chunks = span.div_ceil(CHUNK);
    let workers = (ebr::cores() as u64).min(n_chunks);
    let next_chunk = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let mut rng = Xorshift::new(seed ^ (c.wrapping_mul(0x2545F4914F6CDD1D)));
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(span);
                for i in lo..hi {
                    let k = i.reverse_bits() >> (64 - width);
                    if k < max_key && rng.next_u64() & 1 == 0 {
                        set.insert(k);
                    }
                }
            });
        }
    });
}

/// Latency sampling period (1 of every 2^LAT_SHIFT ops is timed).
const LAT_SHIFT: u32 = 6;

/// Sampled latencies of one kind on one thread: exact `(total, count)`
/// for the mean.
#[derive(Default)]
struct LatAcc {
    total_ns: u64,
    count: u64,
}

impl LatAcc {
    fn record(&mut self, ns: u64) {
        self.total_ns += ns;
        self.count += 1;
    }
}

/// Everything one worker thread hands back to [`run`].
struct WorkerOut {
    total_ops: u64,
    ops: [u64; 4],
    upd: LatAcc,
    qry: LatAcc,
}

/// Run one timed experiment and aggregate the counts.
pub fn run(set: &dyn BenchSet, cfg: &RunConfig) -> RunResult {
    assert!(cfg.mix.total() == MIX_TOTAL, "op mix must sum to 100%");
    if cfg.prefill {
        prefill(set, cfg.max_key, cfg.seed ^ 0x05EE_DF17_u64);
    }

    let stop = AtomicBool::new(false);
    let sorted_counter = AtomicU64::new(0);
    let zipf = match cfg.dist {
        KeyDist::Zipf(theta) => Some(Zipf::new(cfg.max_key, theta)),
        _ => None,
    };

    let mut result = RunResult::default();
    let mut upd = LatAcc::default();
    let mut qry = LatAcc::default();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let stop = &stop;
            let sorted_counter = &sorted_counter;
            let zipf = zipf.as_ref();
            handles.push(scope.spawn(move || worker(set, cfg, t, stop, sorted_counter, zipf)));
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            let w = h.join().expect("worker panicked");
            result.total_ops += w.total_ops;
            for i in 0..4 {
                result.ops[i] += w.ops[i];
            }
            // Aggregate (total, count) pairs — the mean is over *samples*,
            // so an idle thread contributes nothing instead of a zero.
            upd.total_ns += w.upd.total_ns;
            upd.count += w.upd.count;
            qry.total_ns += w.qry.total_ns;
            qry.count += w.qry.count;
        }
    });
    result.secs = started.elapsed().as_secs_f64();
    if upd.count > 0 {
        result.update_latency_ns = upd.total_ns as f64 / upd.count as f64;
    }
    if qry.count > 0 {
        result.query_latency_ns = qry.total_ns as f64 / qry.count as f64;
    }
    result
}

/// The keys one worker draws, by `dist` over `[0, max_key)`: the sorted
/// stream takes batches of 100 from the threads' shared counter.
struct KeyStream<'a> {
    dist: KeyDist,
    max_key: u64,
    zipf: Option<&'a Zipf>,
    sorted_counter: &'a AtomicU64,
    /// The rest of this worker's sorted batch.
    batch: std::ops::Range<u64>,
}

impl KeyStream<'_> {
    fn next(&mut self, rng: &mut Xorshift) -> u64 {
        match self.dist {
            KeyDist::Uniform => rng.below(self.max_key),
            KeyDist::Zipf(_) => scramble(self.zipf.expect("zipf built").sample(rng), self.max_key),
            KeyDist::Sorted => {
                if self.batch.is_empty() {
                    let start = self.sorted_counter.fetch_add(100, Ordering::Relaxed);
                    self.batch = start..start + 100;
                }
                self.batch.next().expect("a fresh batch") % self.max_key
            }
        }
    }
}

/// Per-thread measured phase.
fn worker(
    set: &dyn BenchSet,
    cfg: &RunConfig,
    tid: usize,
    stop: &AtomicBool,
    sorted_counter: &AtomicU64,
    zipf: Option<&Zipf>,
) -> WorkerOut {
    let mut rng = Xorshift::new(cfg.seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
    let mut out = WorkerOut {
        total_ops: 0,
        ops: [0; 4],
        upd: LatAcc::default(),
        qry: LatAcc::default(),
    };
    let mut keys = KeyStream {
        dist: cfg.dist,
        max_key: cfg.max_key,
        zipf,
        sorted_counter,
        batch: 0..0,
    };
    let mut op_idx = 0u64;

    while !stop.load(Ordering::Relaxed) {
        // Choose operation by the mix.
        let roll = rng.below(MIX_TOTAL as u64) as u32;
        let kind = if roll < cfg.mix.insert {
            0
        } else if roll < cfg.mix.insert + cfg.mix.delete {
            1
        } else if roll < cfg.mix.insert + cfg.mix.delete + cfg.mix.find {
            2
        } else {
            3
        };
        let key = keys.next(&mut rng);

        op_idx += 1;
        let sample = op_idx & ((1 << LAT_SHIFT) - 1) == 0;
        let t0 = if sample { Some(Instant::now()) } else { None };

        match kind {
            0 => {
                set.insert(key);
            }
            1 => {
                set.remove(key);
            }
            2 => {
                set.contains(key);
            }
            _ => match cfg.query {
                QueryKind::RangeCount { size } => {
                    let lo = if cfg.max_key > size {
                        rng.below(cfg.max_key - size)
                    } else {
                        0
                    };
                    set.range_count(lo, lo + size);
                }
                QueryKind::Rank => {
                    set.rank(key);
                }
                QueryKind::Select => {
                    set.select(rng.below((cfg.max_key / 2).max(1)));
                }
            },
        }

        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if kind <= 1 {
                out.upd.record(ns);
            } else if kind == 3 {
                out.qry.record(ns);
            }
        }
        out.ops[kind] += 1;
        out.total_ops += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot_shim::OracleSet;

    /// A trivially correct BenchSet for harness tests.
    mod parking_lot_shim {
        use super::super::BenchSet;
        use std::collections::BTreeSet;
        use std::sync::Mutex;

        pub struct OracleSet(pub Mutex<BTreeSet<u64>>);

        impl OracleSet {
            pub fn new() -> Self {
                OracleSet(Mutex::new(BTreeSet::new()))
            }

            pub fn len(&self) -> u64 {
                self.0.lock().unwrap().len() as u64
            }
        }

        impl BenchSet for OracleSet {
            fn insert(&self, k: u64) -> bool {
                self.0.lock().unwrap().insert(k)
            }
            fn remove(&self, k: u64) -> bool {
                self.0.lock().unwrap().remove(&k)
            }
            fn contains(&self, k: u64) -> bool {
                self.0.lock().unwrap().contains(&k)
            }
            fn range_count(&self, lo: u64, hi: u64) -> u64 {
                self.0.lock().unwrap().range(lo..=hi).count() as u64
            }
            fn rank(&self, k: u64) -> u64 {
                self.0.lock().unwrap().range(..=k).count() as u64
            }
            fn select(&self, i: u64) -> Option<u64> {
                self.0.lock().unwrap().iter().nth(i as usize).copied()
            }
            fn name(&self) -> &'static str {
                "oracle"
            }
        }
    }

    #[test]
    fn mix_constructors() {
        assert_eq!(OpMix::percent(50, 50, 0, 0).total(), MIX_TOTAL);
        assert_eq!(OpMix::per_mille(25, 25, 475, 475).total(), MIX_TOTAL);
        assert_eq!(OpMix::pcm(10, 10, 0, 99_980).total(), MIX_TOTAL);
    }

    #[test]
    fn prefill_reaches_about_half() {
        let s = OracleSet::new();
        prefill(&s, 10_000, 1);
        let n = s.len();
        assert!(
            (4_000..6_000).contains(&n),
            "prefill size {n} not near half of 10_000"
        );
    }

    #[test]
    fn harness_runs_and_counts() {
        let s = OracleSet::new();
        let mut cfg = RunConfig::new(2, 1000);
        cfg.duration = Duration::from_millis(50);
        cfg.mix = OpMix::percent(25, 25, 25, 25);
        let r = run(&s, &cfg);
        assert!(r.total_ops > 0);
        assert_eq!(r.total_ops, r.ops.iter().sum::<u64>());
        assert!(r.secs > 0.04);
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn latency_aggregation_is_sample_weighted() {
        let s = OracleSet::new();
        let mut cfg = RunConfig::new(2, 1000);
        cfg.duration = Duration::from_millis(60);
        cfg.mix = OpMix::percent(25, 25, 25, 25);
        let r = run(&s, &cfg);
        assert!(r.update_latency_ns > 0.0);
        assert!(r.query_latency_ns > 0.0);
        // A kind nobody sampled contributes no zero to a mean: it reports
        // 0.0 and leaves the other kind's mean alone.
        cfg.mix = OpMix::percent(50, 50, 0, 0);
        let r = run(&s, &cfg);
        assert!(r.update_latency_ns > 0.0);
        assert_eq!(r.query_latency_ns, 0.0);
    }

    #[test]
    fn sorted_distribution_produces_increasing_batches() {
        let s = OracleSet::new();
        let mut cfg = RunConfig::new(1, 1_000_000);
        cfg.duration = Duration::from_millis(30);
        cfg.mix = OpMix::percent(100, 0, 0, 0);
        cfg.dist = KeyDist::Sorted;
        cfg.prefill = false;
        let r = run(&s, &cfg);
        assert!(r.ops[0] > 0);
        // All inserted keys are distinct counter values => set size == inserts
        // that succeeded == total inserts (single thread, no wraparound).
        assert_eq!(s.len(), r.ops[0]);
    }

    /// A fixed number of inserts drawn from the workers' own key stream,
    /// so the op count does not depend on how many fit in a wall-clock
    /// window.
    #[test]
    fn zipf_workload_hits_hot_keys() {
        const OPS: u64 = 50_000;
        let s = OracleSet::new();
        let zipf = Zipf::new(100_000, 0.95);
        let mut keys = KeyStream {
            dist: KeyDist::Zipf(0.95),
            max_key: 100_000,
            zipf: Some(&zipf),
            sorted_counter: &AtomicU64::new(0),
            batch: 0..0,
        };
        let mut rng = Xorshift::new(0xC0FFEE);
        for _ in 0..OPS {
            s.insert(keys.next(&mut rng));
        }
        // Heavy skew => many duplicate keys => set far smaller than op count:
        // 16 969 distinct keys on every run, where as many uniform draws
        // would leave about 39 000.
        assert!(s.len() * 2 < OPS, "zipf should repeat keys: {}", s.len());
    }
}
