//! Cost cards: single-thread timings of one layer's public call, taken
//! from outside the layer. A card is a list of per-call costs in ns; the
//! metric is its median.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;
use crate::model::Bits;
use crate::stats::Summary;

/// `samples` timings of `per` back-to-back calls each, as ns per call.
/// For calls far below a microsecond, where one clock read per call
/// would be most of the number.
pub fn batches(samples: usize, per: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..per {
            f();
        }
        out.push(t.elapsed().as_nanos() as f64 / per as f64);
    }
    out
}

/// One timing per call, as the workloads' own latency samples are taken.
pub fn each<R>(samples: usize, f: impl FnMut() -> R) -> Vec<f64> {
    each_counted(samples, f).0
}

/// [`each`], plus what the calling thread allocated inside the calls:
/// `(timings, allocation calls, bytes)`.
pub fn each_counted<R>(samples: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, u64, u64) {
    let mut out = Vec::with_capacity(samples);
    let (calls0, bytes0) = crate::alloc::thread_counts();
    for _ in 0..samples {
        let t = Instant::now();
        let r = f();
        out.push(t.elapsed().as_nanos() as f64);
        black_box(r);
    }
    let (calls1, bytes1) = crate::alloc::thread_counts();
    (out, calls1 - calls0, bytes1 - bytes0)
}

/// `ebr::pin()` and the guard's drop: the card every workload shares.
pub fn ebr_pin() -> Summary {
    Summary::of(&batches(400, 256, || {
        black_box(ebr::pin());
    }))
}

/// What an update card measured: per-call costs split by operation, the
/// calls whose result disagreed with the model, and what the calling
/// thread allocated over the whole card.
pub struct UpdateCard {
    pub insert_ns: Vec<f64>,
    pub remove_ns: Vec<f64>,
    pub mismatches: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
}

impl UpdateCard {
    pub fn ops(&self) -> u64 {
        (self.insert_ns.len() + self.remove_ns.len()) as u64
    }

    /// Insert and remove pooled: the cost of "an update".
    pub fn pooled(&self) -> Vec<f64> {
        let mut v = self.insert_ns.clone();
        v.extend_from_slice(&self.remove_ns);
        v
    }
}

/// The workloads' update stream on one thread: `ops` calls, each an insert
/// or a remove (coin flip) of a uniform key in `[0, keys)`, every result
/// checked against `model`, every call timed on its own.
pub fn update_card(
    ops: usize,
    rng: &mut Rng,
    keys: u64,
    model: &mut Bits,
    insert: impl Fn(u64) -> bool,
    remove: impl Fn(u64) -> bool,
) -> UpdateCard {
    let mut card = UpdateCard {
        insert_ns: Vec::with_capacity(ops / 2 + ops / 8),
        remove_ns: Vec::with_capacity(ops / 2 + ops / 8),
        mismatches: 0,
        alloc_calls: 0,
        alloc_bytes: 0,
    };
    let (calls0, bytes0) = crate::alloc::thread_counts();
    for _ in 0..ops {
        let r = rng.next();
        let k = (((r >> 1) as u128 * keys as u128) >> 63) as u64;
        let is_insert = r & 1 == 0;
        let t = Instant::now();
        let got = if is_insert { insert(k) } else { remove(k) };
        let ns = t.elapsed().as_nanos() as f64;
        if got != model.apply(k, is_insert) {
            card.mismatches += 1;
        }
        if is_insert {
            card.insert_ns.push(ns);
        } else {
            card.remove_ns.push(ns);
        }
    }
    let (calls1, bytes1) = crate::alloc::thread_counts();
    card.alloc_calls = calls1 - calls0;
    card.alloc_bytes = bytes1 - bytes0;
    card
}
