//! Per-key linearizability checking for set histories.
//!
//! For a set object, `insert(k)`/`remove(k)`/`contains(k)` on *different*
//! keys commute, so a whole history is linearizable iff each per-key
//! sub-history is linearizable against sequential boolean-set semantics.
//! [`record_history`] drives any [`BenchSet`] with a deterministic
//! contended workload, timestamping invocation/response intervals with a
//! shared logical clock; [`check_key_history`] then searches the linear
//! extensions of one key's interval order (with the standard
//! earliest-pending-return pruning, which keeps the search fast at these
//! history sizes).
//!
//! Extracted from the root `tests/linearizability.rs` suite so every
//! structure adapter — BAT, the fanout tree at either publication
//! granularity, the chromatic ablation — runs under the same checker.
//! (Rank/range queries span keys and are covered by the snapshot
//! consistency tests; point operations are what this module nails.)

use std::sync::atomic::{AtomicU64, Ordering};

use crate::rng::Xorshift;
use crate::BenchSet;

/// One point operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
}

/// One completed operation: kind, boolean result, and its
/// invocation/response interval on the shared logical clock.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub kind: OpKind,
    pub result: bool,
    pub invoke: u64,
    pub ret: u64,
}

/// Check linearizability of one key's history against a boolean set:
/// exhaustive search over linear extensions of the interval order. The
/// interval-order pruning (only ops invoked before the earliest pending
/// return may linearize first) keeps this fast for our history sizes.
pub fn check_key_history(events: &mut [Event]) -> bool {
    events.sort_by_key(|e| e.invoke);
    let n = events.len();
    if n == 0 {
        return true;
    }
    let mut used = vec![false; n];
    search(events, &mut used, n, false)
}

fn apply(kind: OpKind, result: bool, state: bool) -> Option<bool> {
    match kind {
        OpKind::Insert => {
            if result != state {
                Some(true)
            } else {
                None
            }
        }
        OpKind::Remove => {
            if result == state {
                Some(false)
            } else {
                None
            }
        }
        OpKind::Contains => {
            if result == state {
                Some(state)
            } else {
                None
            }
        }
    }
}

fn search(events: &[Event], used: &mut [bool], remaining: usize, state: bool) -> bool {
    if remaining == 0 {
        return true;
    }
    // Earliest return among unused ops: any op invoked after it cannot be
    // linearized first (interval-order pruning).
    let min_ret = events
        .iter()
        .zip(used.iter())
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.ret)
        .min()
        .unwrap();
    for i in 0..events.len() {
        if used[i] || events[i].invoke > min_ret {
            continue;
        }
        if let Some(next) = apply(events[i].kind, events[i].result, state) {
            used[i] = true;
            if search(events, used, remaining - 1, next) {
                used[i] = false;
                return true;
            }
            used[i] = false;
        }
    }
    false
}

/// Record a timestamped history of a contended point-operation workload
/// against `set`: `threads` workers × `per_thread` ops each, keys drawn
/// from `[0, keys)`, per-thread deterministic xorshift streams derived
/// from `seed`. Returns the events grouped per key.
pub fn record_history(
    set: &dyn BenchSet,
    threads: u64,
    keys: u64,
    per_thread: usize,
    seed: u64,
) -> Vec<Vec<Event>> {
    let clock = AtomicU64::new(0);
    let mut per_key: Vec<Vec<Event>> = (0..keys).map(|_| Vec::new()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let clock = &clock;
                scope.spawn(move || {
                    let mut out: Vec<(u64, Event)> = Vec::new();
                    // `Xorshift` (not a hand-rolled stream): it guards
                    // against zero/degenerate states for any caller seed
                    // and samples `below` without modulo bias.
                    let mut rng = Xorshift::new(seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    for _ in 0..per_thread {
                        let k = rng.below(keys);
                        let kind = match rng.below(3) {
                            0 => OpKind::Insert,
                            1 => OpKind::Remove,
                            _ => OpKind::Contains,
                        };
                        let invoke = clock.fetch_add(1, Ordering::SeqCst);
                        let result = match kind {
                            OpKind::Insert => set.insert(k),
                            OpKind::Remove => set.remove(k),
                            OpKind::Contains => set.contains(k),
                        };
                        let ret = clock.fetch_add(1, Ordering::SeqCst);
                        out.push((
                            k,
                            Event {
                                kind,
                                result,
                                invoke,
                                ret,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (k, e) in h.join().expect("history worker panicked") {
                per_key[k as usize].push(e);
            }
        }
    });
    per_key
}

/// Record a history and assert every per-key sub-history linearizes.
/// `what` names the structure in the failure message.
pub fn assert_point_ops_linearizable(
    set: &dyn BenchSet,
    threads: u64,
    keys: u64,
    per_thread: usize,
    seed: u64,
    what: &str,
) {
    let histories = record_history(set, threads, keys, per_thread, seed);
    for (k, mut h) in histories.into_iter().enumerate() {
        assert!(
            check_key_history(&mut h),
            "{what}: key {k}: history not linearizable: {h:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_broken_histories() {
        // Two successful inserts of one key with no intervening successful
        // remove must be rejected.
        let mut bad = vec![
            Event {
                kind: OpKind::Insert,
                result: true,
                invoke: 0,
                ret: 1,
            },
            Event {
                kind: OpKind::Insert,
                result: true,
                invoke: 2,
                ret: 3,
            },
        ];
        assert!(!check_key_history(&mut bad));

        // A contains(false) strictly after a successful insert.
        let mut bad2 = vec![
            Event {
                kind: OpKind::Insert,
                result: true,
                invoke: 0,
                ret: 1,
            },
            Event {
                kind: OpKind::Contains,
                result: false,
                invoke: 2,
                ret: 3,
            },
        ];
        assert!(!check_key_history(&mut bad2));

        // A concurrent pair where either order works must be accepted.
        let mut ok = vec![
            Event {
                kind: OpKind::Insert,
                result: true,
                invoke: 0,
                ret: 5,
            },
            Event {
                kind: OpKind::Contains,
                result: false,
                invoke: 1,
                ret: 2,
            },
        ];
        assert!(check_key_history(&mut ok));
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_key_history(&mut []));
    }

    #[test]
    fn recorder_is_deterministic_per_seed_in_op_streams() {
        // The op/key streams derive only from the seed (results and
        // timestamps race, but the issued workload is fixed): recording
        // against a sequential oracle twice gives identical histories.
        use std::collections::BTreeSet;
        use std::sync::Mutex;

        struct Oracle(Mutex<BTreeSet<u64>>);
        impl BenchSet for Oracle {
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

        let s = Oracle(Mutex::new(BTreeSet::new()));
        assert_point_ops_linearizable(&s, 1, 4, 60, 0xFEED, "oracle");
        let h = record_history(&s, 1, 4, 60, 0xFEED);
        let h2 = {
            let s2 = Oracle(Mutex::new(BTreeSet::new()));
            record_history(&s2, 1, 4, 60, 0xFEED)
        };
        let kinds = |h: &Vec<Vec<Event>>| {
            h.iter()
                .map(|v| v.iter().map(|e| e.kind).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&h), kinds(&h2), "op streams must be seed-determined");
    }
}
