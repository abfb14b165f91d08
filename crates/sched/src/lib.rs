//! # sched — deterministic schedule exploration
//!
//! The concurrency properties of this workspace's lock-free protocols
//! (LLX/SCX freezing, versioned-edge publication, epoch reclamation) were
//! previously proven either by hand-staged protocol-level tests (one
//! interleaving) or by wall-clock stress runs that a 1-core CI host cannot
//! meaningfully exercise. This crate turns both into seeded, replayable
//! artifacts: a **cooperative virtual-thread scheduler** that runs a test
//! body under full control of which thread executes each shared-memory
//! step, plus **explorers** that drive the body through many schedules.
//!
//! ## Pieces
//!
//! * [`atomic`] — shims for `std::sync::atomic` types. With the
//!   `sched-test` cargo feature they insert a scheduler yield point before
//!   every load/store/RMW/fence, so each shared-memory access of a managed
//!   thread is a preemption point; without the feature they *are* the std
//!   types (plain re-exports, zero cost). The protocol crates (`llxscx`,
//!   `vedge`, `ebr`, `chromatic`, `cbat-core`, `fanout`, `vcas`) import
//!   their atomics from here.
//! * [`vthread`] — the scheduler: [`spawn`], [`yield_now`],
//!   [`JoinHandle::join`] over closures. Virtual threads are OS threads,
//!   but exactly one holds the run token at any time; at every yield point
//!   the active chooser picks the next runnable thread. The sequence of
//!   choices is the **trace**: same chooser + same seed ⇒ byte-identical
//!   trace ([`Trace::to_bytes`]).
//! * [`explore`](mod@explore) — schedule exploration on top of single runs:
//!   [`explore::explore`] (seeded random-walk or PCT-style priority
//!   schedules, with trace dump on failure), [`explore::explore_exhaustive`]
//!   (bounded DFS over every branching decision, for small bodies), and
//!   [`explore::replay`] (re-run a recorded trace).
//!
//! ## Determinism contract
//!
//! A schedule is reproducible when the body's control flow at yield
//! granularity depends only on the schedule itself: fixed seeds, no
//! wall-clock reads, no unmanaged threads racing the managed ones.
//! Process-global protocol state (EBR epochs, descriptor sequence
//! numbers) shifts *absolute* values between runs but not control flow,
//! which only ever compares them relatively.
//!
//! ## Caveats
//!
//! * This explores interleavings of **sequentially consistent** steps on
//!   real atomics; it does not model weak-memory reorderings (the
//!   workspace's protocol words are SeqCst already).
//! * `OnceLock`-style lazy globals must be initialized before the first
//!   multi-threaded schedule step (touch the structure once from the root
//!   virtual thread before spawning — every suite here does this
//!   naturally via setup/prefill).
//! * A step budget converts livelocks into loud failures with a trace
//!   instead of wedged CI jobs.

pub mod atomic;
pub mod explore;
pub mod vthread;

pub use explore::{
    explore, explore_exhaustive, replay, run_random, ExhaustiveReport, ExploreConfig,
    ExploreReport, Policy, ScheduleFailure,
};
pub use vthread::{is_managed, spawn, yield_now, yield_point, JoinHandle, RunReport, Trace};
