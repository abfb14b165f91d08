//! LLX/SCX: load-link-extended / store-conditional-extended primitives built
//! from single-word CAS, after Brown, Ellen and Ruppert (PODC 2013) \[6\],
//! with the *immortal descriptor* refinement of Arbel-Raviv and Brown
//! (DISC 2017) \[2\] so that SCX descriptors are never allocated or freed.
//!
//! These primitives coordinate all updates to the node trees in this
//! workspace (the chromatic tree and the unbalanced FR-BST): every tree
//! update LLXes a small set of *records* (nodes), then SCXes to atomically
//! swing one child pointer and *finalize* the removed nodes.
//!
//! # Protocol summary
//!
//! * Every record embeds a [`RecordHeader`]: an `info` word and a `marked`
//!   flag. `info` packs `(thread id, sequence number)` of the SCX that most
//!   recently froze the record. Sequence numbers are per-thread and
//!   monotone, so info values are unique forever — the freeze CAS has no ABA.
//! * Each registered thread owns one immortal descriptor in a global table.
//!   Starting an SCX bumps the descriptor's sequence number (invalidating
//!   stale helpers), writes the operation fields, and then *freezes* each
//!   record in `V` by CASing its `info` from the value observed by LLX to
//!   the new `(tid, seq)` tag.
//! * If every freeze succeeds the descriptor's `allFrozen` bit is set, the
//!   records in `R ⊆ V` are marked (finalized), the target field is CASed
//!   from `old` to `new`, and the state becomes *Committed*. If a freeze
//!   fails because an unrelated SCX got there first, the state becomes
//!   *Aborted* (frozen-by-aborted counts as unfrozen for later LLXes).
//! * Any thread that encounters an in-progress SCX helps it to completion
//!   before retrying its own operation, which makes the whole construction
//!   lock-free.
//!
//! Stale helpers of a recycled descriptor are harmless: every status
//! transition CASes the full `(seq, allFrozen, state)` word, so a helper of
//! a finished operation fails its CASes, and `help` refuses to execute the
//! finalize-marks or the field CAS once the status word is no longer
//! IN_PROGRESS. The latter check carries the reclamation argument: an
//! executor that observed IN_PROGRESS holds an epoch pin that predates the
//! operation's decision, hence predates any retirement of the field's
//! expected value — so a replayed field CAS can only fail, never succeed
//! against a value recycled onto the same field.

use sched::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use ebr::CachePadded;

/// Maximum records an SCX can freeze. The chromatic tree needs at most 5
/// (grandparent, parent, node, sibling, nephew). `fanout`'s publication
/// freezes records at edge granularity: one publication edge plus every
/// occupied edge of every cascade-replaced internal, up to fanout (16)
/// records per replaced level — 128 covers cascades through 7 simultaneously
/// full levels (trees of ~10⁸ keys at fanout 8–16; deeper cascades would
/// trip the callers' asserts, not corrupt memory).
///
/// Freeze sets this large never materialize outside deep split cascades:
/// the descriptor publish loop and the `help` freeze loop run over the
/// operation's actual `num_v`, so a common-case single-record SCX touches
/// one slot regardless of `MAX_V`.
pub const MAX_V: usize = 128;

/// Number of descriptor slots; indexed by [`ebr::thread_id`].
pub const MAX_THREADS: usize = ebr::MAX_THREADS;

// ---------------------------------------------------------------------------
// Info tags: (tid, seq) packed in a u64.
// ---------------------------------------------------------------------------

/// Opaque tag identifying one SCX operation; stored in record `info` fields.
pub type InfoTag = u64;

const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The `info` value carried by freshly allocated records: a tag whose
/// thread id is out of range, treated as an always-committed dummy.
pub const INITIAL_INFO: InfoTag = u64::MAX;

#[inline]
fn pack_tag(tid: usize, seq: u64) -> InfoTag {
    debug_assert!(tid < MAX_THREADS);
    debug_assert!(seq <= SEQ_MASK);
    ((tid as u64) << SEQ_BITS) | seq
}

#[inline]
fn tag_tid(tag: InfoTag) -> usize {
    (tag >> SEQ_BITS) as usize
}

#[inline]
fn tag_seq(tag: InfoTag) -> u64 {
    tag & SEQ_MASK
}

// ---------------------------------------------------------------------------
// Descriptor status word: seq << 3 | allFrozen << 2 | state.
// ---------------------------------------------------------------------------

const STATE_IN_PROGRESS: u64 = 0;
const STATE_COMMITTED: u64 = 1;
const STATE_ABORTED: u64 = 2;
const STATE_MASK: u64 = 0b11;
const FROZEN_BIT: u64 = 0b100;

#[inline]
fn word(seq: u64, frozen: bool, state: u64) -> u64 {
    (seq << 3) | if frozen { FROZEN_BIT } else { 0 } | state
}

#[inline]
fn word_seq(w: u64) -> u64 {
    w >> 3
}

#[inline]
fn word_frozen(w: u64) -> bool {
    w & FROZEN_BIT != 0
}

#[inline]
fn word_state(w: u64) -> u64 {
    w & STATE_MASK
}

// ---------------------------------------------------------------------------
// Record headers.
// ---------------------------------------------------------------------------

/// Embedded at the start of every LLX/SCX record (tree node).
///
/// The record's *mutable fields* (child pointers) live in the enclosing
/// struct as `AtomicU64`s; LLX reads them through a caller-provided closure
/// so this crate stays agnostic of node layout.
pub struct RecordHeader {
    info: AtomicU64,
    marked: AtomicBool,
}

impl Default for RecordHeader {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordHeader {
    /// A header for a freshly allocated, unfrozen, unmarked record.
    /// (`const`: headers are embedded per-edge in `vedge::PubEdge`, whose
    /// null form must be constructible in `const` array initializers.)
    pub const fn new() -> Self {
        RecordHeader {
            info: AtomicU64::new(INITIAL_INFO),
            marked: AtomicBool::new(false),
        }
    }

    /// True once the record has been finalized (removed from the tree by a
    /// committed SCX). Monotone.
    #[inline]
    pub fn is_finalized(&self) -> bool {
        self.marked.load(Ordering::Acquire)
    }
}

/// Result of an [`llx`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Llx<S> {
    /// The record was not frozen; `snapshot` is an atomic view of its
    /// mutable fields and `info` is the context to pass to [`scx`].
    Ok { info: InfoTag, snapshot: S },
    /// The record has been removed from the data structure.
    Finalized,
    /// A concurrent SCX interfered (it has been helped); retry.
    Fail,
}

impl<S> Llx<S> {
    /// Unwrap an `Ok` result (test helper).
    pub fn unwrap(self) -> (InfoTag, S) {
        match self {
            Llx::Ok { info, snapshot } => (info, snapshot),
            Llx::Finalized => panic!("llx: finalized"),
            Llx::Fail => panic!("llx: fail"),
        }
    }
}

// ---------------------------------------------------------------------------
// Descriptors.
// ---------------------------------------------------------------------------

struct Descriptor {
    /// (seq, allFrozen, state) — the only word helpers CAS.
    status: AtomicU64,
    /// Operation fields. Written by the owner strictly before any record
    /// carries this operation's tag; helpers re-validate `status`' sequence
    /// number after reading them, so stale reads are discarded. Plain
    /// atomics (relaxed) keep this race-free in the Rust memory model.
    num_v: AtomicU64,
    v: [AtomicU64; MAX_V],     // *const RecordHeader
    infos: [AtomicU64; MAX_V], // expected info tags
    // bit i set => finalize v[i]; u128 split over two words (per-edge
    // freeze sets can exceed 64 records on deep split cascades).
    finalize_lo: AtomicU64,
    finalize_hi: AtomicU64,
    fld: AtomicU64, // *const AtomicU64 (the child pointer to CAS)
    old: AtomicU64,
    new: AtomicU64,
}

impl Descriptor {
    fn new() -> Self {
        Descriptor {
            status: AtomicU64::new(word(0, false, STATE_COMMITTED)),
            num_v: AtomicU64::new(0),
            v: std::array::from_fn(|_| AtomicU64::new(0)),
            infos: std::array::from_fn(|_| AtomicU64::new(0)),
            finalize_lo: AtomicU64::new(0),
            finalize_hi: AtomicU64::new(0),
            fld: AtomicU64::new(0),
            old: AtomicU64::new(0),
            new: AtomicU64::new(0),
        }
    }
}

fn descriptors() -> &'static [CachePadded<Descriptor>] {
    static TABLE: OnceLock<Vec<CachePadded<Descriptor>>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..MAX_THREADS)
            .map(|_| CachePadded::new(Descriptor::new()))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// LLX.
// ---------------------------------------------------------------------------

/// Load-link-extended on `header`.
///
/// `read_fields` must perform `Acquire` loads of the record's mutable
/// fields and return a snapshot; it is invoked at most once, between the
/// two `info` reads that validate atomicity.
///
/// Must be called inside an [`ebr`] guard — the record and everything the
/// snapshot points to are protected by the epoch.
pub fn llx<S>(header: &RecordHeader, read_fields: impl FnOnce() -> S) -> Llx<S> {
    let info = header.info.load(Ordering::Acquire);
    let tid = tag_tid(info);
    if tid < MAX_THREADS {
        let d = &descriptors()[tid];
        let w = d.status.load(Ordering::SeqCst);
        if word_seq(w) == tag_seq(info) && word_state(w) == STATE_IN_PROGRESS {
            // The freezing SCX is still running: help it, then fail.
            help(tid, tag_seq(info));
            return Llx::Fail;
        }
    }
    // `marked` must be read AFTER `info` and the status word, never before.
    // If the op named by `info` was observed decided (or superseded), its
    // finalize-marks happened-before that observation, so a load here
    // cannot miss them. Reading `marked` first opens a window — finalizer
    // commits between the two loads — where a stale `false` combines with
    // a stable post-freeze `info`, the re-validation below passes (nothing
    // ever touches a dead record's info again), and the LLX hands out an
    // `Ok` on a finalized record. An SCX built on that link then freezes
    // and commits into a replaced, unreachable node: a lost update that
    // the structure above us turns into a double retire.
    if header.marked.load(Ordering::Acquire) {
        // `marked` is only ever set on an SCX's committed path, so a marked
        // record is (or is inevitably about to be) finalized.
        return Llx::Finalized;
    }
    let snapshot = read_fields();
    if header.info.load(Ordering::SeqCst) == info {
        Llx::Ok { info, snapshot }
    } else {
        Llx::Fail
    }
}

// ---------------------------------------------------------------------------
// SCX.
// ---------------------------------------------------------------------------

/// One record participating in an SCX: its header pointer and the info tag
/// returned by the LLX that linked it.
#[derive(Debug, Clone, Copy)]
pub struct Linked {
    pub header: *const RecordHeader,
    pub info: InfoTag,
}

/// Store-conditional-extended.
///
/// Atomically (with respect to all LLX/SCX operations):
/// * verifies none of the records in `v` changed since their LLXes,
/// * finalizes those records whose index bit is set in `finalize_mask`,
/// * CASes the mutable field `fld` from `old` to `new`.
///
/// Returns `true` iff the SCX committed. Must run inside an [`ebr`] guard.
///
/// # Safety
/// * Every `Linked::header` must point to a live record protected by the
///   current epoch guard, and `fld` must point to a mutable field of one of
///   those records.
/// * `old` must be the value of `fld` contained in the corresponding LLX
///   snapshot, and field values must never recur (guaranteed by allocating
///   fresh nodes and reclaiming through `ebr`).
/// * Per \[6\]'s usage constraint, `v` must be ordered consistently with the
///   data structure's traversal order (we use patch-root-first), which is
///   required for lock-freedom.
pub unsafe fn scx(
    v: &[Linked],
    finalize_mask: u128,
    fld: *const AtomicU64,
    old: u64,
    new: u64,
) -> bool {
    assert!(v.len() <= MAX_V, "scx: too many records");
    let tid = ebr::thread_id();
    let d = &descriptors()[tid];

    // Begin a new operation: invalidate stale helpers by bumping seq, then
    // publish the operation fields. No record carries the new tag yet, so
    // nobody can read the fields before they are complete.
    let cur = d.status.load(Ordering::SeqCst);
    debug_assert_ne!(word_state(cur), STATE_IN_PROGRESS, "scx reentered");
    let seq = word_seq(cur) + 1;
    d.status
        .store(word(seq, false, STATE_IN_PROGRESS), Ordering::SeqCst);
    // ordering: the operation-field stores publish through the SeqCst
    // `new` store below (and helpers only act after re-validating `status`
    // twice around their snapshot — see `help`); the fields themselves
    // need no individual ordering.
    d.num_v.store(v.len() as u64, Ordering::Relaxed);
    for (i, linked) in v.iter().enumerate() {
        // ordering: as for `num_v` above.
        d.v[i].store(linked.header as u64, Ordering::Relaxed);
        d.infos[i].store(linked.info, Ordering::Relaxed);
    }
    // ordering: as for `num_v` above — published by the SeqCst store.
    d.finalize_lo.store(finalize_mask as u64, Ordering::Relaxed);
    // ordering: as for `num_v` above.
    d.finalize_hi
        .store((finalize_mask >> 64) as u64, Ordering::Relaxed);
    // ordering: as for `num_v` above.
    d.fld.store(fld as u64, Ordering::Relaxed);
    d.old.store(old, Ordering::Relaxed);
    d.new.store(new, Ordering::SeqCst);

    help(tid, seq);

    let w = d.status.load(Ordering::SeqCst);
    debug_assert_eq!(word_seq(w), seq, "descriptor recycled under owner");
    word_state(w) == STATE_COMMITTED
}

/// Drive the SCX identified by `(tid, seq)` to completion (owner and
/// helpers run the same code). Safe to call with stale identities — every
/// effectful step re-validates against the descriptor status word.
fn help(tid: usize, seq: u64) {
    let d = &descriptors()[tid];

    // Snapshot the operation fields, then re-validate the sequence number:
    // if it moved, the operation already finished and our copies are junk.
    let w = d.status.load(Ordering::SeqCst);
    if word_seq(w) != seq {
        return;
    }
    // ordering: the snapshot loads here and below are bracketed by two
    // SeqCst `status` reads; if the seq moved, the copies are discarded,
    // and if it did not, the SeqCst publish in `scx` ordered the fields
    // before the tag could be observed. Individual loads can be relaxed.
    let num_v = (d.num_v.load(Ordering::Relaxed) as usize).min(MAX_V);
    // `MaybeUninit` keeps the copy proportional to `num_v`: with MAX_V
    // sized for worst-case per-edge cascades, zero-initializing the full
    // arrays would cost ~2 KiB of memset on every single-record publish.
    let mut recs = [std::mem::MaybeUninit::<*const RecordHeader>::uninit(); MAX_V];
    let mut exps = [std::mem::MaybeUninit::<u64>::uninit(); MAX_V];
    for i in 0..num_v {
        // ordering: validated snapshot copy; see the comment on `num_v`.
        recs[i].write(d.v[i].load(Ordering::Relaxed) as *const RecordHeader);
        exps[i].write(d.infos[i].load(Ordering::Relaxed));
    }
    // ordering: validated snapshot copies; see the comment on `num_v`.
    let fmask = d.finalize_lo.load(Ordering::Relaxed) as u128
        | (d.finalize_hi.load(Ordering::Relaxed) as u128) << 64;
    // ordering: validated snapshot copies; see the comment on `num_v`.
    let fld = d.fld.load(Ordering::Relaxed) as *const AtomicU64;
    let old = d.old.load(Ordering::Relaxed);
    let new = d.new.load(Ordering::SeqCst);
    if word_seq(d.status.load(Ordering::SeqCst)) != seq {
        return;
    }
    // SAFETY: validated — the operation fields belong to (tid, seq), so
    // the first `num_v` entries of both copies were written by the loop
    // above, and `MaybeUninit<T>` is layout-identical to `T`.
    // guard: none needed, `recs` and `exps` are this call's own copies.
    let recs: &[*const RecordHeader] =
        unsafe { std::slice::from_raw_parts(recs.as_ptr().cast(), num_v) };
    // SAFETY: as for `recs` directly above.
    let exps: &[u64] = unsafe { std::slice::from_raw_parts(exps.as_ptr().cast(), num_v) };

    let tag = pack_tag(tid, seq);

    // Freeze phase: install our tag in every record of V, in order.
    'freeze: for i in 0..num_v {
        // SAFETY: the records of a validated operation are kept live by
        // the owner's epoch pin for the whole help (scx's contract).
        // guard: the owner's pin, as the SAFETY line says.
        let header = unsafe { &*recs[i] };
        if header
            .info
            .compare_exchange(exps[i], tag, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            if header.info.load(Ordering::SeqCst) == tag {
                continue; // another helper froze it for us
            }
            // The record is frozen by an unrelated operation (or ours
            // finished). Decide: commit path if allFrozen, abort otherwise.
            loop {
                let w = d.status.load(Ordering::SeqCst);
                if word_seq(w) != seq || word_state(w) != STATE_IN_PROGRESS {
                    return; // finished
                }
                if word_frozen(w) {
                    break 'freeze; // someone saw all frozen; commit path
                }
                if d.status
                    .compare_exchange(
                        w,
                        word(seq, false, STATE_ABORTED),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    return;
                }
            }
        }
    }

    // All frozen (or another helper already saw it): set the bit. Failure is
    // fine — either another helper set it, or the op finished.
    let _ = d.status.compare_exchange(
        word(seq, false, STATE_IN_PROGRESS),
        word(seq, true, STATE_IN_PROGRESS),
        Ordering::SeqCst,
        Ordering::SeqCst,
    );
    // Re-validate we are still on the committed path of *this* op — and
    // that the op is still UNDECIDED. The state check is load-bearing for
    // memory safety, not just efficiency: once the op commits, its `old`
    // field value is free to be retired, reclaimed, and (through the pool)
    // reallocated onto the *same* field. A helper that arrived after the
    // commit — `help` admits any caller whose seq still matches, and the
    // frozen bit persists into the COMMITTED status word — would sail
    // through the freeze loop on `info == tag` and replay the field CAS
    // below arbitrarily late, succeeding against a recycled value and
    // resurrecting a stale record on the edge. Requiring IN_PROGRESS here
    // means every executor of the marks and the CAS holds an epoch pin
    // that predates the op's decision, hence predates any retirement of
    // `old` — so a replayed CAS can only fail, never false-succeed.
    let w = d.status.load(Ordering::SeqCst);
    if word_seq(w) != seq || !word_frozen(w) || word_state(w) != STATE_IN_PROGRESS {
        return;
    }

    // Mark (finalize) the records in R. Idempotent & monotone.
    for (i, rec) in recs.iter().enumerate() {
        if fmask & (1 << i) != 0 {
            // SAFETY: live record of a validated op, as in the freeze loop.
            // guard: the owner's pin, as in the freeze loop.
            unsafe { &**rec }.marked.store(true, Ordering::Release);
        }
    }

    // The update itself. At most one such CAS can succeed (field values
    // never recur); helpers' failures are harmless.
    // SAFETY: `fld` points into a record of the validated op (scx's
    // contract), live under the owner's pin.
    // guard: the owner's pin, as in the freeze loop.
    unsafe { &*fld }
        .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
        .ok();

    let _ = d.status.compare_exchange(
        word(seq, true, STATE_IN_PROGRESS),
        word(seq, true, STATE_COMMITTED),
        Ordering::SeqCst,
        Ordering::SeqCst,
    );
}

/// Deterministic-scheduler model checks of the LLX/SCX protocol (the
/// `sched-test` exploration corpus; see `crates/sched`). Every schedule
/// preempts the protocol at each atomic step, so the freeze/help/finalize
/// paths — including helpers completing a preempted owner's SCX — are
/// exercised under controlled interleavings rather than scheduling luck.
#[cfg(all(test, feature = "sched-test"))]
mod sched_tests {
    use super::*;
    use sched::{explore, ExploreConfig, Policy};
    use std::sync::Arc;

    struct Cell {
        header: RecordHeader,
        value: AtomicU64,
    }

    impl Cell {
        fn new(v: u64) -> Self {
            Cell {
                header: RecordHeader::new(),
                value: AtomicU64::new(v),
            }
        }

        fn llx(&self) -> Llx<u64> {
            llx(&self.header, || self.value.load(Ordering::Acquire))
        }
    }

    /// Retry an llx+scx increment until it commits; returns the observed
    /// predecessor value.
    fn increment(c: &Cell) -> u64 {
        loop {
            let g = ebr::pin();
            if let Llx::Ok { info, snapshot } = c.llx() {
                let ok = unsafe {
                    scx(
                        &[Linked {
                            header: &c.header,
                            info,
                        }],
                        0,
                        &c.value,
                        snapshot,
                        snapshot + 1,
                    )
                };
                if ok {
                    return snapshot;
                }
            }
            drop(g);
        }
    }

    /// Two writers, two increments each, preempted at every atomic step:
    /// every explored schedule must commit all four increments with four
    /// distinct predecessors (no lost updates, no stuck helpers).
    #[test]
    fn increments_survive_every_explored_preemption() {
        for (policy, schedules, seed) in [
            (Policy::RandomWalk, 250, 0x11C5_C001),
            (Policy::Pct { depth: 3 }, 150, 0x11C5_C002),
        ] {
            let cfg = ExploreConfig {
                schedules,
                seed,
                max_steps: 200_000,
                policy,
            };
            explore(&cfg, || {
                let c = Arc::new(Cell::new(0));
                let hs: Vec<_> = (0..2)
                    .map(|_| {
                        let c = c.clone();
                        sched::spawn(move || [increment(&c), increment(&c)])
                    })
                    .collect();
                let mut olds: Vec<u64> = hs.into_iter().flat_map(|h| h.join()).collect();
                assert_eq!(c.value.load(Ordering::SeqCst), 4, "a commit was lost");
                olds.sort_unstable();
                olds.dedup();
                assert_eq!(olds.len(), 4, "two commits saw the same predecessor");
            })
            .assert_clean("llx/scx increment model check");
        }
    }

    /// Finalization under preemption: one writer finalizes record `b`
    /// while updating `a`; a racing observer must see `b`'s lifecycle
    /// monotone (never `Ok` after `Finalized`), and a racing writer on
    /// `b` must never commit after `b` is finalized.
    #[test]
    fn finalize_is_monotone_under_preemption() {
        let cfg = ExploreConfig {
            schedules: 250,
            seed: 0x0F1A_A17E,
            max_steps: 200_000,
            policy: Policy::RandomWalk,
        };
        explore(&cfg, || {
            let a = Arc::new(Cell::new(10));
            let b = Arc::new(Cell::new(20));
            let (a1, b1) = (a.clone(), b.clone());
            let finalizer = sched::spawn(move || loop {
                let g = ebr::pin();
                if let (
                    Llx::Ok {
                        info: ia,
                        snapshot: sa,
                    },
                    Llx::Ok {
                        info: ib,
                        snapshot: _,
                    },
                ) = (a1.llx(), b1.llx())
                {
                    let ok = unsafe {
                        scx(
                            &[
                                Linked {
                                    header: &a1.header,
                                    info: ia,
                                },
                                Linked {
                                    header: &b1.header,
                                    info: ib,
                                },
                            ],
                            0b10,
                            &a1.value,
                            sa,
                            sa + 1,
                        )
                    };
                    if ok {
                        return;
                    }
                }
                drop(g);
            });
            let b2 = b.clone();
            let observer = sched::spawn(move || {
                let mut seen_finalized = false;
                let mut late_commits = 0u32;
                for _ in 0..6 {
                    let g = ebr::pin();
                    match b2.llx() {
                        Llx::Finalized => seen_finalized = true,
                        Llx::Ok { info, snapshot } => {
                            assert!(!seen_finalized, "finalized record resurrected to Ok");
                            // A racing writer on b: may commit only while b
                            // is still live.
                            let ok = unsafe {
                                scx(
                                    &[Linked {
                                        header: &b2.header,
                                        info,
                                    }],
                                    0,
                                    &b2.value,
                                    snapshot,
                                    snapshot + 100,
                                )
                            };
                            if ok {
                                assert!(!seen_finalized, "commit on a finalized record");
                                late_commits += 1;
                            }
                        }
                        Llx::Fail => {}
                    }
                    drop(g);
                }
                late_commits
            });
            finalizer.join();
            observer.join();
            assert!(b.header.is_finalized(), "the committed SCX finalized b");
            assert!(matches!(b.llx(), Llx::Finalized));
            assert_eq!(a.value.load(Ordering::SeqCst), 11);
        })
        .assert_clean("llx/scx finalize model check");
    }

    /// The llx read order is load-bearing: `marked` must be read after
    /// `info`. Regression for the finalized-record resurrection — a reader
    /// whose `marked` load lands just before a finalizing SCX runs to
    /// completion, and whose remaining loads land just after, must NOT be
    /// handed an `Ok` link (its SCX would then freeze and commit into the
    /// finalized record). The finalizer runs its LLXes first (flag
    /// handshake), so with a correct LLX the two commits are mutually
    /// exclusive under every explored schedule.
    #[test]
    fn no_commit_through_a_record_finalized_mid_llx() {
        let cfg = ExploreConfig {
            schedules: 400,
            seed: 0x0DEA_D0A7,
            max_steps: 200_000,
            policy: Policy::RandomWalk,
        };
        explore(&cfg, || {
            let a = Arc::new(Cell::new(10));
            let b = Arc::new(Cell::new(20));
            let linked = Arc::new(AtomicBool::new(false));

            let (a1, b1, l1) = (a.clone(), b.clone(), linked.clone());
            let finalizer = sched::spawn(move || {
                let _g = ebr::pin();
                let (
                    Llx::Ok {
                        info: ia,
                        snapshot: sa,
                    },
                    Llx::Ok { info: ib, .. },
                ) = (a1.llx(), b1.llx())
                else {
                    l1.store(true, Ordering::SeqCst);
                    return false;
                };
                l1.store(true, Ordering::SeqCst);
                // Single shot — no retry, so a commit here dates its LLXes
                // before anything the writer below did.
                unsafe {
                    scx(
                        &[
                            Linked {
                                header: &a1.header,
                                info: ia,
                            },
                            Linked {
                                header: &b1.header,
                                info: ib,
                            },
                        ],
                        0b10,
                        &a1.value,
                        sa,
                        sa + 1,
                    )
                }
            });

            let (b2, l2) = (b.clone(), linked.clone());
            let writer = sched::spawn(move || {
                while !l2.load(Ordering::SeqCst) {
                    sched::yield_now();
                }
                let _g = ebr::pin();
                let Llx::Ok { info, snapshot } = b2.llx() else {
                    return false;
                };
                unsafe {
                    scx(
                        &[Linked {
                            header: &b2.header,
                            info,
                        }],
                        0,
                        &b2.value,
                        snapshot,
                        snapshot + 100,
                    )
                }
            });

            let fin_ok = finalizer.join();
            let wrote = writer.join();
            assert!(
                !(fin_ok && wrote),
                "a write committed through a finalized record"
            );
            if fin_ok {
                assert!(b.header.is_finalized());
                assert_eq!(b.value.load(Ordering::SeqCst), 20, "finalized b mutated");
            }
        })
        .assert_clean("llx/scx finalized-mid-llx model check");
    }

    /// Overlapping freeze sets resolve exactly one winner per round under
    /// every explored schedule: two threads SCX over the records {a, b}
    /// in the same order; committed operations chain distinct
    /// predecessors and the final count matches the commits.
    #[test]
    fn overlapping_freeze_sets_have_one_winner_per_value() {
        let cfg = ExploreConfig {
            schedules: 200,
            seed: 0x000F_5E75,
            max_steps: 200_000,
            policy: Policy::RandomWalk,
        };
        explore(&cfg, || {
            let a = Arc::new(Cell::new(0));
            let b = Arc::new(Cell::new(0));
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let (a, b) = (a.clone(), b.clone());
                    sched::spawn(move || {
                        let mut olds = Vec::new();
                        for _ in 0..2 {
                            loop {
                                let g = ebr::pin();
                                if let (
                                    Llx::Ok {
                                        info: ia,
                                        snapshot: sa,
                                    },
                                    Llx::Ok {
                                        info: ib,
                                        snapshot: _,
                                    },
                                ) = (a.llx(), b.llx())
                                {
                                    let ok = unsafe {
                                        scx(
                                            &[
                                                Linked {
                                                    header: &a.header,
                                                    info: ia,
                                                },
                                                Linked {
                                                    header: &b.header,
                                                    info: ib,
                                                },
                                            ],
                                            0,
                                            &a.value,
                                            sa,
                                            sa + 1,
                                        )
                                    };
                                    if ok {
                                        olds.push(sa);
                                        drop(g);
                                        break;
                                    }
                                }
                                drop(g);
                            }
                        }
                        olds
                    })
                })
                .collect();
            let mut olds: Vec<u64> = hs.into_iter().flat_map(|h| h.join()).collect();
            assert_eq!(a.value.load(Ordering::SeqCst), 4);
            olds.sort_unstable();
            olds.dedup();
            assert_eq!(olds.len(), 4, "freeze conflict resolved two winners");
        })
        .assert_clean("llx/scx overlapping freeze sets");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy record: header + one mutable field.
    struct Cell {
        header: RecordHeader,
        value: AtomicU64,
    }

    impl Cell {
        fn new(v: u64) -> Self {
            Cell {
                header: RecordHeader::new(),
                value: AtomicU64::new(v),
            }
        }
    }

    fn llx_cell(c: &Cell) -> Llx<u64> {
        llx(&c.header, || c.value.load(Ordering::Acquire))
    }

    #[test]
    fn llx_reads_snapshot() {
        let _g = ebr::pin();
        let c = Cell::new(42);
        let (info, snap) = llx_cell(&c).unwrap();
        assert_eq!(snap, 42);
        assert_eq!(info, INITIAL_INFO);
    }

    #[test]
    fn scx_updates_field() {
        let _g = ebr::pin();
        let c = Cell::new(1);
        let (info, snap) = llx_cell(&c).unwrap();
        let ok = unsafe {
            scx(
                &[Linked {
                    header: &c.header,
                    info,
                }],
                0,
                &c.value,
                snap,
                2,
            )
        };
        assert!(ok);
        assert_eq!(c.value.load(Ordering::SeqCst), 2);
        // The record is unfrozen again: a fresh LLX succeeds.
        let (info2, snap2) = llx_cell(&c).unwrap();
        assert_eq!(snap2, 2);
        assert_ne!(info2, info, "record now carries the committing op's tag");
    }

    #[test]
    fn scx_fails_on_stale_llx() {
        let _g = ebr::pin();
        let c = Cell::new(1);
        let (info, snap) = llx_cell(&c).unwrap();
        // Interfering update.
        let (info_i, snap_i) = llx_cell(&c).unwrap();
        assert!(unsafe {
            scx(
                &[Linked {
                    header: &c.header,
                    info: info_i,
                }],
                0,
                &c.value,
                snap_i,
                99,
            )
        });
        // The original context is stale now.
        let ok = unsafe {
            scx(
                &[Linked {
                    header: &c.header,
                    info,
                }],
                0,
                &c.value,
                snap,
                2,
            )
        };
        assert!(!ok, "SCX with stale LLX must abort");
        assert_eq!(c.value.load(Ordering::SeqCst), 99);
    }

    #[test]
    fn finalize_marks_record() {
        let _g = ebr::pin();
        let a = Cell::new(10);
        let b = Cell::new(20);
        let (ia, sa) = llx_cell(&a).unwrap();
        let (ib, _sb) = llx_cell(&b).unwrap();
        // Finalize b while updating a's field.
        let ok = unsafe {
            scx(
                &[
                    Linked {
                        header: &a.header,
                        info: ia,
                    },
                    Linked {
                        header: &b.header,
                        info: ib,
                    },
                ],
                0b10,
                &a.value,
                sa,
                11,
            )
        };
        assert!(ok);
        assert!(b.header.is_finalized());
        assert!(!a.header.is_finalized());
        assert!(matches!(llx_cell(&b), Llx::Finalized));
        assert!(matches!(llx_cell(&a), Llx::Ok { .. }));
    }

    #[test]
    fn concurrent_counter_chain() {
        // Many threads CAS a shared "head" value through SCX; every commit
        // must observe a unique predecessor (no lost updates).
        use std::sync::Arc;
        let head = Arc::new(Cell::new(0));
        const THREADS: usize = 8;
        const OPS: usize = 300;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let head = head.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = Vec::new();
                let mut attempts = 0usize;
                while committed.len() < OPS {
                    attempts += 1;
                    assert!(attempts < 10_000_000, "livelock");
                    let g = ebr::pin();
                    let r = llx(&head.header, || head.value.load(Ordering::Acquire));
                    if let Llx::Ok { info, snapshot } = r {
                        let newv = ((t as u64 + 1) << 32) | (committed.len() as u64 + 1);
                        let ok = unsafe {
                            scx(
                                &[Linked {
                                    header: &head.header,
                                    info,
                                }],
                                0,
                                &head.value,
                                snapshot,
                                newv,
                            )
                        };
                        if ok {
                            committed.push((snapshot, newv));
                        }
                    }
                    drop(g);
                }
                committed
            }));
        }
        let mut all: Vec<(u64, u64)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), THREADS * OPS);
        // Each committed SCX read a distinct predecessor value: the (old)
        // values must all be unique, forming a linear history.
        let mut olds: Vec<u64> = all.iter().map(|&(o, _)| o).collect();
        olds.sort_unstable();
        olds.dedup();
        assert_eq!(olds.len(), THREADS * OPS, "lost update detected");
    }

    #[test]
    fn concurrent_freeze_conflicts_resolve() {
        // Two records, four threads each trying to SCX over both in the same
        // order; every round exactly one attempt commits.
        use std::sync::Arc;
        let a = Arc::new(Cell::new(0));
        let b = Arc::new(Cell::new(0));
        const ROUNDS: usize = 500;
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b, total) = (a.clone(), b.clone(), total.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    loop {
                        let g = ebr::pin();
                        let ra = llx(&a.header, || a.value.load(Ordering::Acquire));
                        let rb = llx(&b.header, || b.value.load(Ordering::Acquire));
                        if let (
                            Llx::Ok {
                                info: ia,
                                snapshot: sa,
                            },
                            Llx::Ok {
                                info: ib,
                                snapshot: _,
                            },
                        ) = (ra, rb)
                        {
                            let ok = unsafe {
                                scx(
                                    &[
                                        Linked {
                                            header: &a.header,
                                            info: ia,
                                        },
                                        Linked {
                                            header: &b.header,
                                            info: ib,
                                        },
                                    ],
                                    0,
                                    &a.value,
                                    sa,
                                    sa + 1,
                                )
                            };
                            if ok {
                                total.fetch_add(1, Ordering::SeqCst);
                                drop(g);
                                break;
                            }
                        }
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.value.load(Ordering::SeqCst), total.load(Ordering::SeqCst));
        assert_eq!(total.load(Ordering::SeqCst), 4 * ROUNDS as u64);
    }
}
