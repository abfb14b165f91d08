//! # cbat — Concurrent Balanced Augmented Trees (PPoPP 2026)
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`core`](cbat_core) — **BAT**: the lock-free balanced augmented tree,
//!   its delegation variants, snapshots and order-statistic queries (on
//!   [`Snapshot`]), and the shipped augmentations [`SumAug`],
//!   [`MinMaxAug`], [`PairAug`] and the interval tree's max-end;
//! * [`frbst`] — the unbalanced augmented baseline (Fatourou–Ruppert):
//!   one set type, [`FrSet`], run without delegation as the paper does;
//! * [`chromatic`] — the lock-free chromatic tree substrate;
//! * [`llxscx`] — LLX/SCX primitives from CAS;
//! * [`ebr`] — epoch-based memory reclamation;
//! * [`vcas`], [`fanout`] — unaugmented snapshot-tree comparators;
//! * [`vedge`] — the versioned-edge machinery they share;
//! * [`sched`] — deterministic schedule exploration (cooperative
//!   scheduler + instrumented atomic shims, `sched-test` feature);
//! * [`workloads`] — SetBench-style benchmark harness + linearizability
//!   checker.
//!
//! See `examples/` for runnable end-to-end programs and `crates/bench`
//! for the structure adapters and `repro`, which regenerates every table
//! and figure of the paper.

pub use cbat_core as core;
pub use cbat_core::{
    Augmentation, BatMap, BatSet, DelegationPolicy, IntervalMap, MinMaxAug, PairAug, SizeOnly,
    Snapshot, SumAug, LEAF_KEYS,
};
pub use chromatic;
pub use ebr;
pub use fanout;
pub use frbst;
pub use frbst::FrSet;
pub use llxscx;
pub use sched;
pub use vcas;
pub use vedge;
pub use workloads;
