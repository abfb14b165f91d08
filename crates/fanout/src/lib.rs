//! # fanout — a higher-fanout versioned search tree (VerlibBTree stand-in)
//!
//! Stand-in for VerlibBTree (Blelloch & Wei, PPoPP 2024 \[4\]), the paper's
//! fastest unaugmented competitor. The properties the evaluation depends
//! on, which this implementation reproduces:
//!
//! * **fanout 4–22 fat nodes** ⇒ shallow trees and good cache behaviour,
//!   so point operations beat binary trees;
//! * **O(1) snapshots** via versioned pointers ⇒ linearizable range
//!   queries by snapshot traversal, costing Θ(log n + range);
//! * **no augmentation on the update path** ⇒ updates maintain no counts,
//!   so a one-shot `snapshot().rank(k)` scans, Θ(#keys ≤ k) — the
//!   evaluation's "unaugmented competitor" cost. A snapshot that is *held*
//!   (a serving lease) amortizes that scan: see "Order statistics" below;
//! * **per-subtree publication** ⇒ updates on disjoint subtrees commit
//!   concurrently instead of serializing on one root word.
//!
//! ## Mechanism: per-subtree versioned edges at per-edge publication
//! granularity
//!
//! An immutable COW B-tree under a *single* atomic root pointer copies the
//! whole root-to-leaf path per update and publishes with one root
//! `compare_exchange`, so all writers — however disjoint their keys —
//! contend on one word (what that cost, measured before the single-root
//! scheme was deleted: versioned edges won by +28…+39 % at two or more
//! threads). Here every internal node's child slots are independently
//! CAS-able **versioned edges** (the mechanism of Wei et al., PPoPP 2021
//! \[33\], that verlib generalizes), each carrying its *own* LLX/SCX
//! freeze word ([`vedge::PubEdge`]):
//!
//! * an update copies only the nodes whose *contents* change — the leaf,
//!   plus any ancestors a split cascade restructures — and publishes by
//!   installing one new [`vedge::VersionRecord`] on the deepest edge
//!   covering the change;
//! * the publish is an LLX/SCX (\[6\]) that freezes **only the one edge
//!   it publishes on** — not the node holding it — so two writers under
//!   the same parent on *different* child slots share no frozen records
//!   and commit concurrently;
//! * a split cascade still invalidates everything inside the region it
//!   replaces: the publication freezes and finalizes **every occupied
//!   edge of every replaced internal**, so a straggler about to publish
//!   on a replaced edge fails its freeze (or sees the edge finalized) and
//!   retries from the root;
//! * snapshot readers grab a timestamp from the set's clock and traverse
//!   every edge at that timestamp ([`vedge::VersionedEdge::read_at`]), so
//!   a snapshot is one consistent cut even while sibling edges under one
//!   parent keep moving — no torn multi-edge states.
//!
//! **Allocation discipline** (PR 1/2 invariant, preserved): nodes keep
//! their arrays inline at fixed capacity (one `(size, align)` class) and
//! come from the layout-keyed EBR pool, and version records are a second
//! pooled class. After each publish the writer trims the edge's version
//! list down to what live snapshots can still reach ([`vedge::trim`]), so
//! a steady-state update allocates one pooled leaf + one pooled record
//! and retires exactly as much: zero global-allocator traffic, proven by
//! the counting-allocator window in `crates/core/tests/zero_alloc_hot_path.rs`.
//!
//! ## Order statistics: a snapshot-scoped subtree-count index
//!
//! The subtree under a node at a registered timestamp never changes, so a
//! [`FanoutSnapshot`] memoizes each internal node's key count the first
//! time a query needs it and answers `len`/`rank`/`select`/`range_count`
//! from those totals. Cost model: **cold**, a query walks what a scan of
//! the keys it covers would walk (Θ(keys covered), paid at most once per
//! node per snapshot); **warm**, it touches O(fanout × height) nodes. The
//! index is a private field of the snapshot and dies with it: nothing is
//! shared, nothing is written on the update path, and a snapshot that is
//! never asked an order statistic builds nothing. The fill grows with n
//! per snapshot, so the index pays only while a scan stays short of the
//! time a snapshot is held for; past that, a structure whose *updates*
//! maintain counts (the BAT) would answer faster, a crossover no row has
//! measured yet.
//!
//! **How a link is followed:** the current version of an edge becomes a
//! reference only in `BNode::child`, which borrows the caller's pin (the
//! descents of `try_update` and `contains`); a version at a snapshot's
//! timestamp only in `FanoutSnapshot::child_at`, which borrows the snapshot
//! (its pin and the registration that bounds [`vedge::trim`]).
//! **How a patch commits:** `FanoutSet::try_update` is the one commit
//! site — the crate's one SCX, one retire-list attachment and one dispose
//! loop, whatever the split cascade's height.
//!
//! Substitution notes: verlib's lock-based versioned nodes are replaced
//! by the workspace's LLX/SCX coordination at edge granularity (one
//! frozen edge per non-split publish). Deletions do not rebalance (no
//! merging); persistent B-trees tolerate thin leaves with the same
//! asymptotics. Version-list GC is the writer-driven trim above rather
//! than \[33\]'s background scheme.

use sched::atomic::AtomicU64;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use ebr::Guard;
use llxscx::{scx, Linked, Llx, MAX_V};
use vedge::{PubEdge, SnapClock, VersionRecord};

/// Maximum keys per leaf before splitting.
const LEAF_CAP: usize = 16;
/// Maximum children per internal node before splitting.
const NODE_CAP: usize = 16;

/// A fixed-capacity tree node. Leaf contents are immutable (leaves are
/// replaced wholesale); an internal node's separators are immutable but
/// its child `edges` are mutable versioned pointers, each carrying its own
/// freeze word ([`PubEdge`]) — the records a publication freezes. Both
/// variants share one `(size, align)` class for the EBR pool.
struct BNode {
    body: Body,
}

// One `(size, align)` class for the EBR pool is the point: leaves and
// internals are allocated from (and recycled into) the same free list, so
// the size asymmetry from the per-edge freeze words is deliberate.
#[allow(clippy::large_enum_variant)]
enum Body {
    /// Sorted keys in `keys[..len]`.
    Leaf { len: u8, keys: [u64; LEAF_CAP] },
    /// `edges[..len]` are occupied; `seps[i]` is the smallest key
    /// reachable under `edges[i + 1]` (so `len - 1` separators).
    Internal {
        len: u8,
        seps: [u64; NODE_CAP - 1],
        edges: [PubEdge; NODE_CAP],
    },
}

impl BNode {
    /// Build a leaf from a sorted slice (`keys.len() <= LEAF_CAP`).
    fn leaf(src: &[u64]) -> u64 {
        debug_assert!(src.len() <= LEAF_CAP);
        let mut keys = [0u64; LEAF_CAP];
        keys[..src.len()].copy_from_slice(src);
        Self::alloc(Body::Leaf {
            len: src.len() as u8,
            keys,
        })
    }

    /// Build an internal node over `ch` (`ch.len() <= NODE_CAP`,
    /// `sp.len() == ch.len() - 1`), giving every child a fresh single
    /// version record.
    fn internal(sp: &[u64], ch: &[u64]) -> u64 {
        debug_assert!(ch.len() <= NODE_CAP && sp.len() + 1 == ch.len());
        let mut seps = [0u64; NODE_CAP - 1];
        seps[..sp.len()].copy_from_slice(sp);
        let edges = std::array::from_fn(|i| {
            if i < ch.len() {
                PubEdge::new(ch[i])
            } else {
                PubEdge::null()
            }
        });
        Self::alloc(Body::Internal {
            len: ch.len() as u8,
            seps,
            edges,
        })
    }

    fn alloc(body: Body) -> u64 {
        ebr::pool::alloc_pooled(BNode { body }) as u64
    }

    /// Dereference a raw node value that did not come straight off an edge
    /// read: one popped off the path scratch, or a snapshot's root.
    ///
    /// # Safety
    /// `raw` must be the child of a version record reached, under `guard`'s
    /// pin, from the set's root edge (at the current heads, or at a
    /// timestamp a live registration covers).
    #[inline]
    unsafe fn from_raw(raw: u64, _guard: &Guard) -> &BNode {
        // SAFETY: a node goes to EBR only when `vedge::trim` detaches the
        // record covering it (the retire order of `try_update`), which a
        // current head never is and a registration at or below the read
        // timestamp forbids; so a node named by a record reached under the
        // pin is retired, if at all, after the pin began, and EBR keeps it
        // allocated until `_guard` drops.
        unsafe { &*(raw as *const BNode) }
    }

    /// Follow the current version of `edge`, stamping it: the one place a
    /// current-edge read becomes a reference. Returns the child and the
    /// version head it was read from.
    #[inline]
    fn child<'g>(edge: &PubEdge, clock: &AtomicU64, guard: &'g Guard) -> (&'g BNode, u64) {
        let (child, head) = edge.read(clock);
        // SAFETY: `edge` is the root edge or a slot of a node reached under
        // `guard`'s pin, and `child` was just read from its head record.
        (unsafe { BNode::from_raw(child, guard) }, head)
    }

    #[inline]
    fn as_raw(&self) -> u64 {
        self as *const BNode as u64
    }

    /// The occupied key prefix (leaves only).
    #[inline]
    fn keys(&self) -> &[u64] {
        match &self.body {
            Body::Leaf { len, keys } => &keys[..*len as usize],
            Body::Internal { .. } => unreachable!("keys() on internal node"),
        }
    }

    /// `(seps, edges)` occupied prefixes (internal nodes only).
    #[inline]
    fn fan(&self) -> (&[u64], &[PubEdge]) {
        match &self.body {
            Body::Internal { len, seps, edges } => {
                (&seps[..*len as usize - 1], &edges[..*len as usize])
            }
            Body::Leaf { .. } => unreachable!("fan() on leaf node"),
        }
    }
}

// ---------------------------------------------------------------------------
// Branchless in-node key search (the SIMD seeding step).
//
// Leaves and separator arrays hold at most 16 sorted keys, so a full
// comparison *count* beats binary search: no data-dependent branches (each
// `<=` compiles to a flag-setting compare plus an add on x86/aarch64), one
// short loop the compiler unrolls, and the same shape a later `core::simd`
// PR vectorizes directly (compare-mask + popcount). The benchmark's
// `fanout.contains_ns` card is the single-thread `find` ns/op it is
// measured by.
// ---------------------------------------------------------------------------

/// Number of keys in sorted `xs` that are `<= k` — identical to
/// `xs.partition_point(|x| *x <= k)`, computed branchlessly.
#[inline]
fn count_le(xs: &[u64], k: u64) -> usize {
    xs.iter().fold(0usize, |n, &x| n + (x <= k) as usize)
}

/// Number of keys in sorted `xs` that are `< k` — identical to
/// `xs.partition_point(|x| *x < k)`, computed branchlessly.
#[inline]
fn count_lt(xs: &[u64], k: u64) -> usize {
    xs.iter().fold(0usize, |n, &x| n + (x < k) as usize)
}

/// Membership of `k` in sorted `xs`, via one branchless rank.
#[inline]
fn sorted_contains(xs: &[u64], k: u64) -> bool {
    let i = count_lt(xs, k);
    i < xs.len() && xs[i] == k
}

/// Reclamation callback for a (retired or never-published) node: version
/// chains go back to the pool as records — children superseded versions
/// point to are freed only if still pending on a record's retire list
/// (otherwise their own retirement owns them) — then the node memory
/// itself is released.
///
/// # Safety
/// `p` must come from [`BNode::alloc`] and be unreachable (post-grace for
/// published nodes, or never published).
unsafe fn free_node(p: *mut u8) {
    // SAFETY: the caller's contract — the node is live and exclusively
    // ours, so its chains are unreachable too and the pool may recycle it.
    // guard: none needed, nothing else can reach the node.
    unsafe {
        if let Body::Internal { len, edges, .. } = &(*(p as *const BNode)).body {
            for e in &edges[..*len as usize] {
                vedge::dispose_chain(e.head());
            }
        }
        ebr::pool::dispose_pooled(p as *mut BNode);
    }
}

/// One step of the recorded search path: the edge we descended through.
#[derive(Clone, Copy)]
struct PathEntry {
    /// Node owning the edge (0 = the set's root-edge anchor).
    holder: u64,
    /// Edge slot within the holder.
    slot: usize,
    /// Version-record head observed on the edge.
    head: u64,
    /// The child the head pointed to.
    child: u64,
}

/// Per-thread reusable update scratch (capacities retained across
/// updates: the retry loop allocates nothing of its own).
struct Scratch {
    path: Vec<PathEntry>,
    fresh: Vec<u64>,
    /// Raw pointers of cascade-replaced internal nodes (retired on commit).
    replaced: Vec<u64>,
    /// Load-linked records beyond the publication record, collected
    /// bottom-up per cascade level: every occupied edge of each replaced
    /// internal.
    links: Vec<Linked>,
    /// Start index in `links` of each cascade level (bottom-up), so the
    /// publish can freeze levels top-down (traversal order, per \[6\]).
    level_starts: Vec<usize>,
    /// The assembled SCX freeze set.
    vset: Vec<Linked>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            path: Vec::new(),
            fresh: Vec::new(),
            replaced: Vec::new(),
            links: Vec::new(),
            level_starts: Vec::new(),
            vset: Vec::new(),
        })
    };
}

// ---------------------------------------------------------------------------
// Publication-outcome counters.
// ---------------------------------------------------------------------------

/// The counters of a [`PubStats`], by stripe index.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Attempts,
    Commits,
    Aborts,
    Retries,
}

/// Per-set SCX publication counters (one [`ebr::Striped`]): `attempts`
/// counts publish SCXes issued, `aborts` the SCXes a conflicting operation
/// invalidated, `commits` the successes, and `retries` every update
/// attempt restarted for any reason (failed LLX, stale head, or SCX
/// abort). The abort rate is the direct measurement of the publication
/// conflict window.
#[derive(Default)]
pub struct PubStats(ebr::Striped<{ Counter::Retries as usize + 1 }>);

impl PubStats {
    /// Count one event on the calling thread's stripe.
    #[inline]
    pub(crate) fn bump(&self, counter: Counter) {
        self.0.local().add(counter as usize, 1);
    }

    /// Sum the stripes into a plain-data snapshot.
    pub fn snapshot(&self) -> PubSnapshot {
        let [attempts, commits, aborts, retries] = self.0.sum();
        PubSnapshot {
            attempts,
            commits,
            aborts,
            retries,
        }
    }
}

/// Plain-data view of [`PubStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PubSnapshot {
    pub attempts: u64,
    pub commits: u64,
    pub aborts: u64,
    pub retries: u64,
}

impl PubSnapshot {
    /// Fraction of publish SCXes that a concurrent conflict aborted.
    pub fn abort_rate(&self) -> f64 {
        self.aborts as f64 / self.attempts.max(1) as f64
    }
}

/// Result of applying an update to one level of the tree.
enum Updated {
    /// New subtree root.
    One(u64),
    /// The subtree split: (left, separator, right).
    Split(u64, u64, u64),
    /// No change needed (key already present/absent).
    Noop,
}

/// The higher-fanout unaugmented set (see module docs).
pub struct FanoutSet {
    /// The root edge, a [`PubEdge`] like every other slot: a root
    /// publication freezes its embedded record (the tree has no parent
    /// node above it). Never finalized.
    root: PubEdge,
    /// Snapshot clock + live-snapshot registry (\[33\]): the clock is
    /// advanced only by snapshots and read by stamping; the registry
    /// bounds how far [`vedge::trim`] may cut. Normally private to this
    /// set, but shareable (`Arc`) across a forest of sets — every set
    /// stamping from one clock makes a single registration a consistent
    /// cut over all of them (the sharded front-end's snapshot mechanism).
    sync: Arc<SnapClock>,
    /// Publication outcome counters (striped per thread).
    stats: PubStats,
}

/// An O(1) snapshot: a timestamp plus an epoch guard pinning the version
/// chains; traversals read every edge as of that timestamp.
pub struct FanoutSnapshot<'t> {
    set: &'t FanoutSet,
    root: u64,
    ts: u64,
    /// Whether this snapshot owns a registration on the set's clock
    /// ([`FanoutSet::snapshot`]) or rides a registration the caller holds
    /// ([`FanoutSet::snapshot_at`], the sharded cut).
    registered: bool,
    /// The subtree-count index: internal-node address → keys under it as
    /// of `ts`, created and filled lazily by [`FanoutSnapshot::total`] (a
    /// leaf's count is its `len` byte and is never stored), so taking a
    /// snapshot builds nothing, not even an empty map. Sound for exactly
    /// this snapshot's lifetime: the registration at or below `ts` keeps
    /// every version record a read at `ts` resolves to untrimmed, so an
    /// edge this snapshot has read once reads the same child ever after,
    /// and `_guard` keeps every node so reached unrecycled, so an address
    /// names one node. Neither holds past `drop`, hence a private field
    /// rather than anything the set could hand to the next snapshot.
    counts: OnceCell<RefCell<HashMap<u64, u64>>>,
    _guard: ebr::Guard,
}

impl Drop for FanoutSnapshot<'_> {
    fn drop(&mut self) {
        if self.registered {
            self.set.sync.deregister();
        }
    }
}

impl FanoutSet {
    /// Empty set with a clock of its own.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(SnapClock::new()))
    }

    /// Empty set stamping from a caller-supplied (possibly shared)
    /// [`SnapClock`]. Sets sharing one clock form a snapshot-consistent
    /// forest: one [`SnapClock::register`] timestamp is a simultaneous cut
    /// across all of them, read per set via [`FanoutSet::snapshot_at`].
    pub fn with_clock(sync: Arc<SnapClock>) -> Self {
        FanoutSet {
            root: PubEdge::new(BNode::leaf(&[])),
            sync,
            stats: PubStats::default(),
        }
    }

    /// The snapshot clock this set stamps from (shared across a forest
    /// when constructed via [`FanoutSet::with_clock`]).
    pub fn snap_clock(&self) -> &Arc<SnapClock> {
        &self.sync
    }

    /// Cumulative publication outcome counters for this set.
    pub fn pub_stats(&self) -> PubSnapshot {
        self.stats.snapshot()
    }

    /// Insert `k`; `true` iff newly added.
    pub fn insert(&self, k: u64) -> bool {
        self.update(k, true)
    }

    /// Remove `k`; `true` iff present.
    pub fn remove(&self, k: u64) -> bool {
        self.update(k, false)
    }

    fn update(&self, k: u64, insert: bool) -> bool {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            loop {
                let guard = ebr::pin();
                scratch.path.clear();
                scratch.fresh.clear();
                scratch.replaced.clear();
                scratch.links.clear();
                scratch.level_starts.clear();
                match self.try_update(k, insert, &guard, &mut scratch) {
                    Some(added) => return added,
                    None => {
                        // The attempt lost a race: everything it allocated
                        // is unpublished — straight back to the pool.
                        self.stats.bump(Counter::Retries);
                        for &raw in scratch.fresh.iter() {
                            // SAFETY: this attempt allocated `raw` and
                            // published it nowhere.
                            unsafe { free_node(raw as *mut u8) };
                        }
                    }
                }
            }
        })
    }

    /// One update attempt, and the crate's one commit site. Returns `None`
    /// to retry (after the caller disposes `fresh`); `Some(changed)` on
    /// completion.
    fn try_update(
        &self,
        k: u64,
        insert: bool,
        guard: &Guard,
        scratch: &mut Scratch,
    ) -> Option<bool> {
        let Scratch {
            path,
            fresh,
            replaced,
            links,
            level_starts,
            vset,
        } = scratch;
        // Phase 1: descend to the leaf, recording every edge traversed.
        // Reads go through `VersionedEdge::read`, which stamps unstamped
        // heads: once any operation *observes* a record, its timestamp is
        // fixed at or below every later snapshot's — otherwise a record
        // observed here could be stamped past a subsequent snapshot,
        // which would then miss an update this op already acted on. (It
        // also keeps prev-chains timestamp-monotone: the head we publish
        // over is stamped before our record lands on top of it.)
        let mut holder = 0u64;
        let mut slot = 0usize;
        let mut edge = &self.root;
        let leaf = loop {
            let (node, head) = BNode::child(edge, self.sync.clock(), guard);
            path.push(PathEntry {
                holder,
                slot,
                head,
                child: node.as_raw(),
            });
            match &node.body {
                Body::Leaf { .. } => break node,
                Body::Internal { len, seps, edges } => {
                    let idx = count_le(&seps[..*len as usize - 1], k);
                    holder = node.as_raw();
                    slot = idx;
                    edge = &edges[idx];
                }
            }
        };

        // Phase 2: the leaf patch (pure computation on immutable data).
        let leaf_level = path.len() - 1;
        let mut outcome = Self::apply_leaf(leaf, k, insert, fresh);
        if matches!(outcome, Updated::Noop) {
            return Some(false);
        }

        // Phase 3: cascade splits upward. Each level that must absorb a
        // split gets load-linked (its edge heads are the copy's inputs —
        // any later change aborts our SCX's freeze phase) and is finalized
        // by the publication so stragglers inside the replaced region
        // fail. Every occupied edge of a replaced internal is
        // load-linked: finalizing *all* of them is what keeps a
        // sibling-slot publisher from committing into a replaced,
        // now-unreachable internal.
        let mut level = leaf_level;
        let (new_top, pub_level) = loop {
            match outcome {
                Updated::Noop => unreachable!("noop handled above"),
                Updated::One(n) => break (n, level),
                Updated::Split(l, sep, r) => {
                    if level == 0 {
                        // The root itself split: grow the tree one level.
                        let nr = BNode::internal(&[sep], &[l, r]);
                        fresh.push(nr);
                        break (nr, 0);
                    }
                    level -= 1;
                    let parent_raw = path[level].child;
                    // SAFETY: phase 1 read `parent_raw` off a current head
                    // under `guard`'s pin.
                    let parent = unsafe { BNode::from_raw(parent_raw, guard) };
                    let slot = path[level + 1].slot;
                    level_starts.push(links.len());
                    let mut heads = [0u64; NODE_CAP];
                    for (h, e) in heads.iter_mut().zip(parent.fan().1) {
                        let Llx::Ok { info, snapshot } = e.llx_head() else {
                            return None;
                        };
                        *h = snapshot;
                        links.push(Linked {
                            header: e.header(),
                            info,
                        });
                    }
                    // The child edge we descended must be what the copy
                    // replaces; a changed head means our split inputs are
                    // stale.
                    if heads[slot] != path[level + 1].head {
                        return None;
                    }
                    replaced.push(parent_raw);
                    outcome = Self::absorb_split(parent, &heads, slot, l, sep, r, fresh);
                }
            }
        };

        // Phase 4: publish. Freeze the publication record — the published
        // edge's own — plus the phase-3 links patch-root-first, finalize
        // everything but the publication record, and CAS that edge to a new
        // version record. The publication LLX snapshot *must* be the CAS's
        // expected value (SCX contract: a successful freeze certifies the
        // field is unchanged since the LLX — the field CAS itself cannot
        // fail except to a helper), so we re-validate the descent-time
        // head against it.
        let pub_entry = path[pub_level];
        let pub_edge = if pub_entry.holder == 0 {
            &self.root
        } else {
            // SAFETY: as for `parent` in phase 3.
            &unsafe { BNode::from_raw(pub_entry.holder, guard) }.fan().1[pub_entry.slot]
        };
        let Llx::Ok {
            info: pub_info,
            snapshot: pub_head,
        } = pub_edge.llx_head()
        else {
            return None;
        };
        if pub_head != pub_entry.head {
            return None;
        }
        vset.clear();
        vset.push(Linked {
            header: pub_edge.header(),
            info: pub_info,
        });
        // Phase-3 links were collected bottom-up; freeze top-down, each
        // level's records in slot order (a fixed total order, as \[6\]'s
        // lock-freedom constraint requires).
        for li in (0..level_starts.len()).rev() {
            let end = level_starts.get(li + 1).copied().unwrap_or(links.len());
            vset.extend_from_slice(&links[level_starts[li]..end]);
        }
        assert!(
            vset.len() <= MAX_V,
            "split cascade freeze set exceeds MAX_V"
        );
        let finalize_mask = (u128::MAX >> (128 - vset.len())) & !1;
        let pub_rec = VersionRecord::alloc(new_top, pub_entry.head);
        // Retire order (the PR 7 forensics fix): the replaced region — old
        // leaf plus any cascade-replaced internals — stays reachable
        // through the superseded record for as long as a registered
        // snapshot can walk to it, so it must NOT be handed to EBR at
        // commit time. Attach it to the new record instead (still private
        // until the SCX publishes it); `vedge::trim` hands the nodes to
        // EBR at the instant it detaches the record covering them.
        {
            // SAFETY: `pub_rec` is ours until the SCX below publishes it.
            let pr = unsafe { VersionRecord::from_raw(pub_rec) };
            pr.attach_retired(path[leaf_level].child, free_node);
            for &raw in replaced.iter() {
                pr.attach_retired(raw, free_node);
            }
        }
        self.stats.bump(Counter::Attempts);
        // SAFETY: every header of `vset` is the freeze word of the root
        // edge or of a slot of a node reached under `guard`'s pin, tagged
        // by this attempt's LLX; the field is `pub_edge`'s cell and
        // `pub_entry.head` the value that LLX found in it (checked above);
        // `pub_rec` is a new allocation, so the value never recurs; `vset`
        // is in traversal order.
        let ok = unsafe {
            scx(
                vset,
                finalize_mask,
                pub_edge.cell() as *const AtomicU64,
                pub_entry.head,
                pub_rec,
            )
        };
        if !ok {
            // Never published; the record goes straight back to the pool
            // (NOT as a chain: its prev is the live head). The attached
            // retire cells are dropped without touching the nodes — the
            // "replaced" region is still the live one.
            self.stats.bump(Counter::Aborts);
            // SAFETY: the aborted SCX stored `pub_rec` nowhere, so it is
            // still exclusively ours.
            unsafe {
                VersionRecord::from_raw(pub_rec).abort_retired();
                ebr::pool::dispose_pooled(pub_rec as *mut VersionRecord);
            }
            return None;
        }
        self.stats.bump(Counter::Commits);

        // Committed: stamp before returning (so ops that finish before a
        // later snapshot starts are always visible to it), then trim the
        // edge's version list down to what live snapshots can still reach
        // — which also retires the replaced region once its covering
        // record is detached.
        // SAFETY: `pub_rec` was just published under `guard`'s pin; a
        // racing trim can only retire it through EBR.
        unsafe { VersionRecord::from_raw(pub_rec) }.stamp(self.sync.clock());
        vedge::trim(guard, pub_rec, self.sync.min_active(), self.sync.clock());
        Some(true)
    }

    /// Compute the replacement leaf (or split pair) for an update.
    fn apply_leaf(leaf: &BNode, k: u64, insert: bool, fresh: &mut Vec<u64>) -> Updated {
        let keys = leaf.keys();
        let i = count_lt(keys, k);
        match i < keys.len() && keys[i] == k {
            true => {
                if insert {
                    return Updated::Noop;
                }
                let mut new = [0u64; LEAF_CAP];
                new[..i].copy_from_slice(&keys[..i]);
                new[i..keys.len() - 1].copy_from_slice(&keys[i + 1..]);
                let n = BNode::leaf(&new[..keys.len() - 1]);
                fresh.push(n);
                Updated::One(n)
            }
            false => {
                if !insert {
                    return Updated::Noop;
                }
                let mut new = [0u64; LEAF_CAP + 1];
                new[..i].copy_from_slice(&keys[..i]);
                new[i] = k;
                new[i + 1..keys.len() + 1].copy_from_slice(&keys[i..]);
                let n = keys.len() + 1;
                if n <= LEAF_CAP {
                    let node = BNode::leaf(&new[..n]);
                    fresh.push(node);
                    Updated::One(node)
                } else {
                    let mid = n / 2;
                    let l = BNode::leaf(&new[..mid]);
                    let r = BNode::leaf(&new[mid..n]);
                    fresh.push(l);
                    fresh.push(r);
                    Updated::Split(l, new[mid], r)
                }
            }
        }
    }

    /// Copy `parent` absorbing a split of its child at `slot`, reading the
    /// other children from the LLX head snapshot.
    fn absorb_split(
        parent: &BNode,
        heads: &[u64; NODE_CAP],
        slot: usize,
        l: u64,
        sep: u64,
        r: u64,
        fresh: &mut Vec<u64>,
    ) -> Updated {
        let (seps, edges) = parent.fan();
        let len = edges.len();
        let mut ch = [0u64; NODE_CAP + 1];
        let mut sp = [0u64; NODE_CAP];
        for i in 0..len {
            // SAFETY: `heads` are the LLX snapshots of `parent`'s edges; a
            // record leaves its chain only through `vedge::trim`, which
            // retires it through EBR.
            // guard: the caller's (`try_update`'s pin).
            ch[i] = unsafe { VersionRecord::from_raw(heads[i]) }.child();
        }
        sp[..seps.len()].copy_from_slice(seps);
        ch[slot] = l;
        ch.copy_within(slot + 1..len, slot + 2);
        ch[slot + 1] = r;
        sp.copy_within(slot..seps.len(), slot + 1);
        sp[slot] = sep;
        let n = len + 1;
        if n <= NODE_CAP {
            let node = BNode::internal(&sp[..n - 1], &ch[..n]);
            fresh.push(node);
            Updated::One(node)
        } else {
            // With `n` children there are `n - 1` seps: left keeps mid
            // children / mid - 1 seps, the mid-th sep is promoted, the
            // rest go right.
            let mid = n / 2;
            let left = BNode::internal(&sp[..mid - 1], &ch[..mid]);
            let right = BNode::internal(&sp[mid..n - 1], &ch[mid..n]);
            fresh.push(left);
            fresh.push(right);
            Updated::Split(left, sp[mid - 1], right)
        }
    }

    /// Take an O(1) snapshot: a clock timestamp, announced so trimming
    /// keeps every version it can read.
    pub fn snapshot(&self) -> FanoutSnapshot<'_> {
        let guard = ebr::pin();
        let ts = self.sync.register();
        let root = self.root.read_at(self.sync.clock(), ts);
        FanoutSnapshot {
            set: self,
            root,
            ts,
            registered: true,
            counts: OnceCell::new(),
            _guard: guard,
        }
    }

    /// Read this set as of timestamp `ts` WITHOUT registering: the caller
    /// must already hold a [`SnapClock::register`] registration at a
    /// timestamp `<= ts` on this set's (shared) clock, and keep it live
    /// for the snapshot's lifetime — that registration is what bounds
    /// [`vedge::trim`] below `ts`. This is the per-shard read of a
    /// sharded consistent cut: register once on the shared clock, then
    /// `snapshot_at` every member of the forest at the one timestamp.
    pub fn snapshot_at(&self, ts: u64) -> FanoutSnapshot<'_> {
        let guard = ebr::pin();
        let root = self.root.read_at(self.sync.clock(), ts);
        FanoutSnapshot {
            set: self,
            root,
            ts,
            registered: false,
            counts: OnceCell::new(),
            _guard: guard,
        }
    }

    /// Linearizable membership: descend the current edge heads, stamping
    /// them (see the Phase-1 comment in `try_update`: an observed record
    /// must be timestamped before a later snapshot can be taken).
    pub fn contains(&self, k: u64) -> bool {
        let guard = ebr::pin();
        let mut edge = &self.root;
        loop {
            let node = BNode::child(edge, self.sync.clock(), &guard).0;
            match &node.body {
                Body::Leaf { .. } => return sorted_contains(node.keys(), k),
                Body::Internal { len, seps, edges } => {
                    edge = &edges[count_le(&seps[..*len as usize - 1], k)];
                }
            }
        }
    }

    /// Θ(n) size (unaugmented: a fresh snapshot's cold count).
    pub fn len_slow(&self) -> u64 {
        self.snapshot().len()
    }

    /// Longest version chain reachable from the current tree (diagnostic
    /// for the trimming tests; single-writer callers only).
    #[doc(hidden)]
    pub fn debug_max_version_chain(&self) -> usize {
        fn rec(edge: &PubEdge, clock: &AtomicU64, guard: &Guard) -> usize {
            let here = vedge::chain_len(edge.head(), guard);
            match &BNode::child(edge, clock, guard).0.body {
                Body::Leaf { .. } => here,
                Body::Internal { len, edges, .. } => edges[..*len as usize]
                    .iter()
                    .map(|e| rec(e, clock, guard))
                    .fold(here, usize::max),
            }
        }
        let guard = ebr::pin();
        rec(&self.root, self.sync.clock(), &guard)
    }
}

impl Default for FanoutSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for FanoutSet {
    fn drop(&mut self) {
        // Walk current heads only: children of superseded versions ride
        // the retire lists of the records that superseded them, so
        // `dispose_chain` frees them with the chain (or they are pending
        // in EBR, whose callbacks own them).
        fn walk(edge: &PubEdge) {
            let head = edge.head();
            // SAFETY: `drop` has `&mut self`, so nothing else reads or
            // retires a node; every current node is live, visited once and
            // freed (chains included, by `free_node`) after its children.
            // guard: none needed, exclusive access.
            unsafe {
                let raw = VersionRecord::from_raw(head).child();
                if let Body::Internal { len, edges, .. } = &(*(raw as *const BNode)).body {
                    edges[..*len as usize].iter().for_each(walk);
                }
                free_node(raw as *mut u8);
            }
        }
        walk(&self.root);
        // SAFETY: as in `walk`; the root edge's own chain goes last.
        unsafe { vedge::dispose_chain(self.root.head()) };
    }
}

impl FanoutSnapshot<'_> {
    /// The root as of this snapshot's timestamp.
    #[inline]
    fn root(&self) -> &BNode {
        // SAFETY: `snapshot` / `snapshot_at` read `root` off the set's root
        // edge at `ts` under `_guard`'s pin, with a registration at or
        // below `ts` live.
        // guard: `self._guard` pins for the snapshot's whole lifetime.
        unsafe { BNode::from_raw(self.root, &self._guard) }
    }

    /// The child `edge` led to at this snapshot's timestamp: the one place
    /// a read at `ts` becomes a reference. It borrows the snapshot, whose
    /// `_guard` pins and whose registration bounds [`vedge::trim`].
    #[inline]
    fn child_at(&self, edge: &PubEdge) -> &BNode {
        let raw = edge.read_at(self.set.sync.clock(), self.ts);
        // SAFETY: `edge` is a slot of a node reached from `root` by reads
        // at `ts`, and `raw` the child of the record `read_at` resolved to
        // (see `counts` for why that record is still there).
        // guard: `self._guard` pins for the snapshot's whole lifetime.
        unsafe { BNode::from_raw(raw, &self._guard) }
    }

    /// Membership within the snapshot, O(log_F n) plus chain hops.
    pub fn contains(&self, k: u64) -> bool {
        let mut node = self.root();
        loop {
            match &node.body {
                Body::Leaf { .. } => return sorted_contains(node.keys(), k),
                Body::Internal { len, seps, edges } => {
                    let idx = count_le(&seps[..*len as usize - 1], k);
                    node = self.child_at(&edges[idx]);
                }
            }
        }
    }

    /// Keys under `node` as of this snapshot: a leaf's `len`, an internal
    /// node's memoized sum over its children (computed on first use).
    fn total(&self, node: &BNode) -> u64 {
        match &node.body {
            Body::Leaf { len, .. } => *len as u64,
            Body::Internal { .. } => {
                let counts = self.counts.get_or_init(RefCell::default);
                if let Some(&n) = counts.borrow().get(&node.as_raw()) {
                    return n;
                }
                let n = node
                    .fan()
                    .1
                    .iter()
                    .map(|e| self.total(self.child_at(e)))
                    .sum();
                counts.borrow_mut().insert(node.as_raw(), n);
                n
            }
        }
    }

    /// Number of keys in the snapshot. Cold Θ(n) once, then O(1).
    pub fn len(&self) -> u64 {
        self.total(self.root())
    }

    /// Whether the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count keys in `[lo, hi]`: the memoized totals of the subtrees
    /// wholly inside the interval plus a descent into the ≤ 2 boundary
    /// children per level. Cold Θ(log n + range/F) as a scan; warm
    /// O(fanout × height).
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        // A bound at the end of the key domain constrains nothing.
        self.count_rec(
            self.root(),
            (lo > 0).then_some(lo),
            (hi < u64::MAX).then_some(hi),
        )
    }

    /// Keys under `node` within the bounds; `None` means every key under
    /// `node` is already known to be on the right side of that bound.
    fn count_rec(&self, node: &BNode, lo: Option<u64>, hi: Option<u64>) -> u64 {
        if lo.is_none() && hi.is_none() {
            return self.total(node);
        }
        match &node.body {
            Body::Leaf { .. } => {
                let keys = node.keys();
                let a = lo.map_or(0, |lo| count_lt(keys, lo));
                let b = hi.map_or(keys.len(), |hi| count_le(keys, hi));
                (b - a) as u64
            }
            Body::Internal { .. } => {
                let (seps, edges) = node.fan();
                let first = lo.map_or(0, |lo| count_le(seps, lo));
                let last = hi.map_or(seps.len(), |hi| count_le(seps, hi));
                // Children strictly between `first` and `last` lie wholly
                // inside the interval; only the two ends inherit a bound.
                (first..=last)
                    .map(|i| {
                        self.count_rec(
                            self.child_at(&edges[i]),
                            lo.filter(|_| i == first),
                            hi.filter(|_| i == last),
                        )
                    })
                    .sum()
            }
        }
    }

    /// The `i`-th smallest key (0-indexed), descending by child totals.
    /// Cold Θ(#keys ≤ answer) as a scan; warm O(fanout × height).
    pub fn select(&self, mut i: u64) -> Option<u64> {
        let mut node = self.root();
        loop {
            match &node.body {
                Body::Leaf { .. } => return node.keys().get(i as usize).copied(),
                Body::Internal { .. } => {
                    node = node.fan().1.iter().find_map(|e| {
                        let child = self.child_at(e);
                        let n = self.total(child);
                        if i < n {
                            return Some(child);
                        }
                        i -= n;
                        None
                    })?;
                }
            }
        }
    }

    /// Collect keys in `[lo, hi]`.
    pub fn range_collect(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if lo <= hi {
            self.collect_rec(self.root(), lo, hi, &mut out);
        }
        out
    }

    fn collect_rec(&self, node: &BNode, lo: u64, hi: u64, out: &mut Vec<u64>) {
        match &node.body {
            Body::Leaf { .. } => {
                for &k in node.keys().iter().filter(|k| **k >= lo && **k <= hi) {
                    out.push(k);
                }
            }
            Body::Internal { .. } => {
                let (seps, edges) = node.fan();
                let first = count_le(seps, lo);
                let last = count_le(seps, hi);
                for e in &edges[first..=last] {
                    self.collect_rec(self.child_at(e), lo, hi, out);
                }
            }
        }
    }

    /// Rank (keys ≤ k): cold Θ(#keys ≤ k), the unaugmented scan; warm
    /// O(fanout × height).
    pub fn rank(&self, k: u64) -> u64 {
        self.range_count(0, k)
    }
}

/// Deterministic-scheduler exploration of the publication-granularity
/// property (the `sched-test` corpus; see `crates/sched`).
/// `tests::sibling_publish_overlap_conflict_window` proves it on ONE
/// hand-staged interleaving; here the same property is re-proven across
/// 1000+ *explored* interleavings: every schedule preempts both writers
/// at every atomic step of descent, LLX, SCX and trim.
#[cfg(all(test, feature = "sched-test"))]
mod sched_tests {
    use super::*;
    use sched::{explore, ExploreConfig, Policy};
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Arc;

    /// Build a set whose root is an internal node over several half-full
    /// leaves, and return it with two absent keys routing into the
    /// requested child slots (odd keys; the setup inserts evens only).
    /// Target leaves are comfortably below `LEAF_CAP`, so the racing
    /// inserts cannot split — a split would legitimately freeze sibling
    /// edges and confound the granularity measurement.
    fn setup(same_slot: bool) -> (Arc<FanoutSet>, u64, u64) {
        let s = Arc::new(FanoutSet::new());
        for k in (0..64u64).step_by(2) {
            s.insert(k);
        }
        let g = ebr::pin();
        let parent_raw = s.root.read(s.sync.clock()).0;
        let parent = unsafe { BNode::from_raw(parent_raw, &g) };
        let (_, edges) = parent.fan();
        assert!(edges.len() >= 2, "setup must split the root");
        let leaf_keys = |slot: usize| {
            let head = edges[slot].head();
            let leaf_raw = unsafe { VersionRecord::from_raw(head) }.child();
            unsafe { BNode::from_raw(leaf_raw, &g) }.keys()
        };
        // Sequential insertion leaves the rightmost leaf full; race only
        // into leaves with room for both keys (no split possible).
        let eligible: Vec<usize> = (0..edges.len())
            .filter(|&i| {
                let n = leaf_keys(i).len();
                n >= 2 && n + 2 <= LEAF_CAP
            })
            .collect();
        assert!(eligible.len() >= 2, "need two half-full sibling leaves");
        let key_in = |slot: usize, idx: usize| leaf_keys(slot)[idx] + 1;
        let (ka, kb) = if same_slot {
            (key_in(eligible[0], 0), key_in(eligible[0], 1))
        } else {
            (
                key_in(eligible[0], 0),
                key_in(*eligible.last().expect("non-empty"), 0),
            )
        };
        (s, ka, kb)
    }

    /// Run the overlapped-publish scenario once (two complete concurrent
    /// inserts) and return the racing phase's publication-stat deltas.
    fn race_once(same_slot: bool) -> PubSnapshot {
        let (s, ka, kb) = setup(same_slot);
        let before = s.pub_stats();
        let (s1, s2) = (s.clone(), s.clone());
        let t1 = sched::spawn(move || assert!(s1.insert(ka)));
        let t2 = sched::spawn(move || assert!(s2.insert(kb)));
        t1.join();
        t2.join();
        assert!(
            s.contains(ka) && s.contains(kb),
            "both overlapped publishes must land"
        );
        let after = s.pub_stats();
        PubSnapshot {
            attempts: after.attempts - before.attempts,
            commits: after.commits - before.commits,
            aborts: after.aborts - before.aborts,
            retries: after.retries - before.retries,
        }
    }

    /// Sibling slots under one parent, across ≥ 1000 explored
    /// interleavings: the two publishes share no frozen records, so
    /// **every** schedule commits both with zero aborts and zero retries.
    #[test]
    fn sibling_publish_overlap_conflict_window_explored() {
        let _epoch = ebr::own_the_global_epoch();
        let mut explored = 0usize;
        for (policy, schedules, seed) in [
            (Policy::RandomWalk, 750, 0x009E_D6E1),
            (Policy::Pct { depth: 3 }, 250, 0x009E_D6E2),
        ] {
            let cfg = ExploreConfig {
                schedules,
                seed,
                max_steps: 400_000,
                policy,
            };
            let report = explore(&cfg, move || {
                let d = race_once(false);
                assert_eq!(d.commits, 2, "each insert publishes exactly once");
                assert_eq!(
                    (d.aborts, d.retries),
                    (0, 0),
                    "per-edge sibling publishes share no frozen records"
                );
            });
            report.assert_clean("per-edge sibling overlap");
            explored += report.schedules;
        }
        assert!(
            explored >= 1000,
            "acceptance: ≥1000 explored interleavings, got {explored}"
        );
    }

    /// Same-slot overlap is a true data conflict, and the negative control
    /// for the test above (the harness can see a conflict when there is
    /// one): the corpus must witness an abort or retry, and no update may
    /// be lost in any schedule.
    #[test]
    fn same_slot_overlap_conflicts_explored() {
        let _epoch = ebr::own_the_global_epoch();
        let conflicts = Arc::new(StdAtomicU64::new(0));
        let cfg = ExploreConfig {
            schedules: 120,
            seed: 0x005A_3E01,
            max_steps: 400_000,
            policy: Policy::RandomWalk,
        };
        let c2 = conflicts.clone();
        let report = explore(&cfg, move || {
            let d = race_once(true);
            assert_eq!(d.commits, 2, "no update may be lost");
            c2.fetch_add(d.aborts + d.retries, std::sync::atomic::Ordering::Relaxed);
        });
        report.assert_clean("same-slot overlap");
        assert!(
            conflicts.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "same-slot overlap must conflict somewhere in {} schedules",
            report.schedules
        );
    }

    /// Snapshots cut through explored interleavings consistently: a
    /// snapshot taken while two sibling-slot writers race must observe
    /// one of the four possible consistent states (neither/either/both
    /// keys), never a torn count — not when the count is first computed
    /// (filling the subtree-count index while the writers publish), not
    /// when it is answered again from the index, and not in a `select`
    /// descending by the memoized totals.
    #[test]
    fn snapshots_stay_consistent_across_explored_interleavings() {
        let _epoch = ebr::own_the_global_epoch();
        let cfg = ExploreConfig {
            schedules: 150,
            seed: 0x0005_AAB5,
            max_steps: 400_000,
            policy: Policy::RandomWalk,
        };
        explore(&cfg, || {
            let (s, ka, kb) = setup(false);
            let base = s.len_slow();
            let (s1, s2, s3) = (s.clone(), s.clone(), s.clone());
            let t1 = sched::spawn(move || assert!(s1.insert(ka)));
            let t2 = sched::spawn(move || assert!(s2.insert(kb)));
            let reader = sched::spawn(move || {
                let snap = s3.snapshot();
                let cold = snap.range_count(0, u64::MAX);
                let (a, b) = (snap.contains(ka), snap.contains(kb));
                assert_eq!(
                    cold,
                    base + a as u64 + b as u64,
                    "snapshot count must match its own membership cut"
                );
                assert_eq!(
                    snap.range_count(0, u64::MAX),
                    cold,
                    "a warm count must repeat the cold one"
                );
                // The rank(k)-th smallest key is the largest key <= k: `k`
                // itself exactly when the cut holds it (smaller keys exist,
                // so the rank is never 0).
                for (k, present) in [(ka, a), (kb, b)] {
                    assert_eq!(
                        snap.select(snap.rank(k) - 1) == Some(k),
                        present,
                        "select(rank({k}) - 1) must agree with the cut's membership"
                    );
                }
            });
            t1.join();
            t2.join();
            reader.join();
            assert_eq!(s.len_slow(), base + 2);
        })
        .assert_clean("snapshot consistency under exploration");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Every test of this module and of `sched_tests` (one binary under
    // `sched-test`) holds the process-wide epoch lock for its whole body:
    // `steady_state_updates_recycle_node_memory` asserts on this thread's
    // pool counters.
    use ebr::own_the_global_epoch;

    #[test]
    fn insert_contains_remove() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
    }

    #[test]
    fn splits_preserve_order() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        // k -> k*7919 mod 10007 is a bijection (prime modulus).
        for k in 0..10_007u64 {
            assert!(s.insert(k * 7919 % 10_007), "{k}");
        }
        let snap = s.snapshot();
        let all = snap.range_collect(0, u64::MAX);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(all, sorted, "in-order traversal must be sorted+unique");
    }

    #[test]
    fn sequential_oracle() {
        let _epoch = own_the_global_epoch();
        use std::collections::BTreeSet;
        let s = FanoutSet::new();
        let mut oracle = BTreeSet::new();
        let mut x = 31337u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 300;
            if x & 1 == 0 {
                assert_eq!(s.insert(k), oracle.insert(k), "insert {k}");
            } else {
                assert_eq!(s.remove(k), oracle.remove(&k), "remove {k}");
            }
        }
        let got = s.snapshot().range_collect(0, u64::MAX);
        let want: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshots_are_stable() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..500 {
            s.insert(k);
        }
        let snap = s.snapshot();
        for k in 0..250 {
            s.remove(k);
        }
        assert_eq!(snap.range_count(0, 499), 500, "old snapshot frozen");
        assert_eq!(s.snapshot().range_count(0, 499), 250);
    }

    #[test]
    fn rank_counts_leq() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in (0..1000).step_by(10) {
            s.insert(k);
        }
        let snap = s.snapshot();
        assert_eq!(snap.rank(0), 1);
        assert_eq!(snap.rank(9), 1);
        assert_eq!(snap.rank(990), 100);
    }

    /// Publication granularity, demonstrated deterministically at protocol
    /// level (no scheduling luck — this is the exact interleaving two
    /// cores produce when publishes overlap): publisher B load-links its
    /// publication edge, a full concurrent update then publishes under the
    /// same parent, and B's delayed SCX finally runs.
    ///
    /// * sibling slot: the interfering publish froze only its own edge
    ///   record — B's snapshot is still valid and B COMMITS;
    /// * same slot: B must ABORT, or an update would be lost (the negative
    ///   control: this staging can see a conflict).
    #[test]
    fn sibling_publish_overlap_conflict_window() {
        let _epoch = own_the_global_epoch();
        for (same_slot, expect_commit) in [(false, true), (true, false)] {
            let s = FanoutSet::new();
            // ~100 keys: a root internal over several half-full leaves.
            for k in (0..200u64).step_by(2) {
                s.insert(k);
            }
            let g = ebr::pin();
            let parent_raw = s.root.read(s.sync.clock()).0;
            let parent = unsafe { BNode::from_raw(parent_raw, &g) };
            let (_, edges) = parent.fan();
            assert!(edges.len() >= 2, "need sibling slots under one parent");
            let (slot_a, slot_b) = (0usize, edges.len() - 1);

            // An absent key routing into a given slot: leaves hold even
            // keys, so `keys[idx] + 1` is odd, absent, and stays inside
            // the leaf's key range (distinct `idx` keeps the same-slot
            // case from picking the same key for both publishers).
            let absent_key_in = |slot: usize, idx: usize| {
                let head = edges[slot].head();
                let leaf_raw = unsafe { VersionRecord::from_raw(head) }.child();
                unsafe { BNode::from_raw(leaf_raw, &g) }.keys()[idx] + 1
            };

            // --- Publisher B: run phases 1-4 up to (not including) SCX
            // for a key in slot_b, exactly as `try_update` would.
            let e_b = &edges[slot_b];
            let k_b = absent_key_in(slot_b, 0);
            let Llx::Ok {
                info,
                snapshot: head_b,
            } = e_b.llx_head()
            else {
                panic!("quiescent LLX must succeed")
            };
            let b_link = Linked {
                header: e_b.header(),
                info,
            };
            let old_leaf = unsafe { VersionRecord::from_raw(head_b) }.child();
            let mut keys: Vec<u64> = unsafe { BNode::from_raw(old_leaf, &g) }.keys().to_vec();
            keys.push(k_b);
            keys.sort_unstable();
            let new_leaf = BNode::leaf(&keys);

            // --- The interfering publish, a complete concurrent update:
            // sibling slot or B's own slot.
            let k_i = absent_key_in(if same_slot { slot_b } else { slot_a }, 1);
            assert!(s.insert(k_i));
            assert_eq!(
                s.root.read(s.sync.clock()).0,
                parent_raw,
                "interfering insert must not have replaced the parent"
            );

            // --- B's delayed SCX, with the fixed retire order: the old
            // leaf rides the new record's retire list (attached while the
            // record is still private) instead of being retired at commit.
            let rec = VersionRecord::alloc(new_leaf, head_b);
            unsafe { VersionRecord::from_raw(rec) }.attach_retired(old_leaf, free_node);
            let ok = unsafe { scx(&[b_link], 0, e_b.cell() as *const AtomicU64, head_b, rec) };
            assert_eq!(
                ok, expect_commit,
                "same_slot={same_slot}: delayed SCX outcome"
            );
            if ok {
                unsafe { VersionRecord::from_raw(rec) }.stamp(s.sync.clock());
                vedge::trim(&g, rec, s.sync.min_active(), s.sync.clock());
                assert!(s.contains(k_b), "committed publish must be visible");
            } else {
                unsafe {
                    VersionRecord::from_raw(rec).abort_retired();
                    ebr::pool::dispose_pooled(rec as *mut VersionRecord);
                    free_node(new_leaf as *mut u8);
                }
                assert!(!s.contains(k_b), "aborted publish must stay invisible");
            }
            assert!(s.contains(k_i), "the interfering update must survive");
            drop(g);
            ebr::flush();
        }
    }

    #[test]
    fn pub_stats_count_publications() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..100u64 {
            assert!(s.insert(k));
        }
        let st = s.pub_stats();
        assert_eq!(st.commits, 100, "every successful update publishes once");
        assert_eq!(st.attempts, st.commits + st.aborts);
        assert_eq!(st.aborts, 0, "single-threaded: nothing to conflict with");
        // A no-op update publishes nothing.
        assert!(!s.insert(5));
        assert_eq!(s.pub_stats().commits, 100);
    }

    #[test]
    fn concurrent_writers_no_lost_updates() {
        let _epoch = own_the_global_epoch();
        let s = Arc::new(FanoutSet::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        assert!(s.insert(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len_slow(), 8000);
        ebr::flush();
    }

    #[test]
    fn steady_state_updates_recycle_node_memory() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..2_000u64 {
            s.insert(k);
        }
        // Warm-up churn stocks the pool, then a measured window of the
        // same loop must be served entirely from free-list hits.
        for round in 0..6u64 {
            for k in 0..512u64 {
                if (k + round).is_multiple_of(2) {
                    s.remove(k);
                } else {
                    s.insert(k);
                }
            }
            ebr::flush();
        }
        let (_, m0, _) = ebr::pool::local_stats();
        for round in 0..2u64 {
            for k in 0..512u64 {
                if (k + round).is_multiple_of(2) {
                    s.remove(k);
                } else {
                    s.insert(k);
                }
            }
        }
        let (_, m1, _) = ebr::pool::local_stats();
        assert_eq!(m1 - m0, 0, "steady-state COW updates must hit the pool");
    }

    #[test]
    fn version_chains_stay_trimmed_without_snapshots() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..1024u64 {
            s.insert(k);
        }
        for round in 0..20u64 {
            for k in 0..256u64 {
                if (k + round).is_multiple_of(2) {
                    s.remove(k);
                } else {
                    s.insert(k);
                }
            }
        }
        // Every publish trims its edge: with no snapshot live, no chain
        // may accumulate history.
        assert!(
            s.debug_max_version_chain() <= 2,
            "chains grew to {}",
            s.debug_max_version_chain()
        );
        ebr::flush();
    }

    #[test]
    fn live_snapshot_blocks_trimming_then_releases() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..64u64 {
            s.insert(k);
        }
        let snap = s.snapshot();
        for _ in 0..50 {
            s.remove(7);
            s.insert(7);
        }
        assert!(
            s.debug_max_version_chain() > 2,
            "a live snapshot must preserve history"
        );
        assert_eq!(snap.range_count(0, 63), 64, "snapshot still reads its cut");
        drop(snap);
        // The next publishes trim back down.
        for _ in 0..2 {
            s.remove(7);
            s.insert(7);
        }
        assert!(s.debug_max_version_chain() <= 3);
        ebr::flush();
    }

    /// Retire-order regression (the PR 7 forensics, made deterministic):
    /// a snapshot registered at `ts` whose epoch pin is NOT held across
    /// writer churn — the serving-lease shape, whose cuts
    /// `ShardedSet::snapshot_at` reads. Under the old order
    /// (nodes retired at publish, while the superseded record stayed
    /// reachable for `ts`), the churn + `ebr::flush` below recycles the
    /// old leaf and the read panics on its poisoned length byte ("range
    /// end index 2xx out of range"). Under the fixed order the leaf rides
    /// the superseding record's retire list and survives until trimming
    /// detaches that record.
    #[test]
    fn registered_reader_survives_node_recycling() {
        let _epoch = own_the_global_epoch();
        let s = FanoutSet::new();
        for k in 0..200u64 {
            s.insert(k * 2);
        }
        // Register, then drop the pin: only the registry floor protects
        // the records (and, post-fix, the nodes) the cut at `ts` needs.
        let ts = {
            let _g = ebr::pin();
            s.snap_clock().register()
        };
        // Destructively churn a leaf region — permanent removes, so every
        // post-churn version of those leaves differs from the cut at `ts`
        // — and push EBR so anything wrongly retired is freed (poisoned
        // in debug) or recycled into one of those newer versions before
        // the read.
        for k in (100..180u64).step_by(2) {
            assert!(s.remove(k));
            ebr::flush();
        }
        for _ in 0..4 {
            drop(ebr::pin());
            ebr::flush();
        }
        // Resume the reader under a fresh pin and traverse the cut.
        {
            let snap = s.snapshot_at(ts);
            assert_eq!(
                snap.range_count(0, u64::MAX),
                200,
                "registered snapshot must still read its cut"
            );
        }
        s.snap_clock().deregister();
        // With the registration gone, the next publish on each churned
        // edge trims its history — and only then do the superseded leaves
        // go to EBR. (Trimming is per-edge and happens on publish, so
        // touch every leaf the churn grew a chain under.)
        for _ in 0..2 {
            for k in (100..180u64).step_by(2) {
                s.insert(k);
                s.remove(k);
            }
        }
        assert!(s.debug_max_version_chain() <= 3);
        ebr::flush();
    }
}
