//! # vcas — an unaugmented snapshot BST in the style of VcasBST
//!
//! Stand-in for the VcasBST of Wei et al. (PPoPP 2021) \[33\], the paper's
//! strongest *unaugmented binary* competitor. The defining cost model it
//! contributes to the evaluation:
//!
//! * **updates** pay no augmentation/propagation overhead (cheaper than
//!   BAT's inserts/deletes);
//! * **snapshots** are constant-time (a timestamp read);
//! * **queries** on a snapshot pay Θ(keys inspected): range queries cost
//!   Θ(log n + range), rank queries Θ(#keys ≤ k) — this is why the
//!   augmented trees win Figs. 6–10 past the crossover.
//!
//! Mechanism (following \[33\]'s versioned-CAS idea): every mutable child
//! edge is a [`vedge::VersionedEdge`] — a pointer to a timestamped
//! [`vedge::VersionRecord`] with a `prev` pointer to the edge's older
//! versions. Updates install a new record (via the same LLX/SCX
//! coordination our other trees use) whose timestamp is stamped lazily
//! from the set's clock; snapshot readers advance the clock and traverse
//! the version lists to the newest version no newer than their timestamp.
//! The record layout, stamping protocol, snapshot registry and trimming
//! are shared with `fanout` through the `vedge` crate.
//!
//! **PR 3 fixes over the seed:** version records used to be
//! `Box::into_raw`'d (bypassing the EBR pool, so every update paid a
//! malloc) and whole version lists were kept until node reclamation, so
//! update-heavy runs grew memory linearly in the update count. Records now
//! come from the layout-keyed pool and every successful publish trims its
//! edge's list down to what live snapshots can still reach
//! ([`vedge::trim`]) — an idle edge's history is one record.

use sched::atomic::AtomicU64;

use llxscx::{Llx, RecordHeader};
use vedge::{SnapClock, VersionRecord, VersionedEdge};

/// A tree node. Leaf-oriented: real keys at the leaves; `u64::MAX` and
/// `u64::MAX - 1` serve as the two sentinel infinities (keys must be
/// `< u64::MAX - 1`).
pub struct Node {
    header: RecordHeader,
    key: u64,
    left: VersionedEdge, // head == 0 for leaves
    right: VersionedEdge,
}

const INF1: u64 = u64::MAX - 1;
const INF2: u64 = u64::MAX;

impl Node {
    fn leaf(key: u64) -> u64 {
        Box::into_raw(Box::new(Node {
            header: RecordHeader::new(),
            key,
            left: VersionedEdge::null(),
            right: VersionedEdge::null(),
        })) as u64
    }

    fn internal(key: u64, left_child: u64, right_child: u64) -> u64 {
        Box::into_raw(Box::new(Node {
            header: RecordHeader::new(),
            key,
            left: VersionedEdge::new(left_child),
            right: VersionedEdge::new(right_child),
        })) as u64
    }

    #[inline]
    unsafe fn from_raw<'g>(raw: u64) -> &'g Node {
        unsafe { &*(raw as *const Node) }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.left.head() == 0
    }
}

/// The VcasBST-style set.
pub struct VcasSet {
    entry: u64,
    sync: SnapClock,
}

unsafe impl Send for VcasSet {}
unsafe impl Sync for VcasSet {}

/// A constant-time snapshot: a timestamp plus an epoch guard pinning the
/// version lists. Registered with the set's [`SnapClock`] so trimming
/// never cuts a version this snapshot can reach.
pub struct VcasSnapshot<'t> {
    set: &'t VcasSet,
    ts: u64,
    _guard: ebr::Guard,
}

impl Drop for VcasSnapshot<'_> {
    fn drop(&mut self) {
        self.set.sync.deregister();
    }
}

impl VcasSet {
    /// Empty set with the standard two-level sentinel structure.
    pub fn new() -> Self {
        let real_slot = Node::leaf(INF1);
        let inf1_right = Node::leaf(INF1);
        let inf1 = Node::internal(INF1, real_slot, inf1_right);
        let inf2_leaf = Node::leaf(INF2);
        let entry = Node::internal(INF2, inf1, inf2_leaf);
        VcasSet {
            entry,
            sync: SnapClock::new(),
        }
    }

    /// Current child of an edge (head version), stamping lazily.
    #[inline]
    fn read_child(&self, edge: &VersionedEdge) -> (u64, u64) {
        edge.read(self.sync.clock())
    }

    fn search(&self, k: u64) -> (&Node, &Node, &Node) {
        debug_assert!(k < INF1);
        let mut gp = unsafe { Node::from_raw(self.entry) };
        let (p_raw, _) = self.read_child(&gp.left);
        let mut p = unsafe { Node::from_raw(p_raw) };
        let mut l = {
            let e = if k < p.key { &p.left } else { &p.right };
            let (c, _) = self.read_child(e);
            unsafe { Node::from_raw(c) }
        };
        while !l.is_leaf() {
            gp = p;
            p = l;
            let e = if k < l.key { &l.left } else { &l.right };
            let (c, _) = self.read_child(e);
            l = unsafe { Node::from_raw(c) };
        }
        (gp, p, l)
    }

    /// Linearizable membership on the current tree.
    pub fn contains(&self, k: u64) -> bool {
        let _g = ebr::pin();
        let (_, _, l) = self.search(k);
        l.key == k
    }

    /// LLX a node, snapshotting its two version heads.
    fn llx_node(n: &Node) -> Llx<(u64, u64)> {
        llxscx::llx(&n.header, || (n.left.head(), n.right.head()))
    }

    /// Insert `k`; returns `true` iff newly added.
    pub fn insert(&self, k: u64) -> bool {
        assert!(k < INF1, "keys must be < u64::MAX - 1");
        loop {
            let guard = ebr::pin();
            let (_gp, p, l) = self.search(k);
            if l.key == k {
                return false;
            }
            let Llx::Ok {
                info: pinfo,
                snapshot: psnap,
            } = Self::llx_node(p)
            else {
                continue;
            };
            let (edge, head) = if k < p.key {
                (&p.left, psnap.0)
            } else {
                (&p.right, psnap.1)
            };
            // Re-validate that the head still leads to l.
            if unsafe { VersionRecord::from_raw(head) }.child() != l as *const Node as u64 {
                continue;
            }
            let Llx::Ok { info: linfo, .. } = Self::llx_node(l) else {
                continue;
            };
            let new_leaf = Node::leaf(k);
            let leaf_copy = Node::leaf(l.key);
            let (lc, rc, ikey) = if k < l.key {
                (new_leaf, leaf_copy, l.key)
            } else {
                (leaf_copy, new_leaf, k)
            };
            let internal = Node::internal(ikey, lc, rc);
            let new_head = VersionRecord::alloc(internal, head);
            let ok = unsafe {
                llxscx::scx(
                    &[
                        llxscx::Linked {
                            header: &p.header,
                            info: pinfo,
                        },
                        llxscx::Linked {
                            header: &l.header,
                            info: linfo,
                        },
                    ],
                    0b10,
                    edge.cell() as *const AtomicU64,
                    head,
                    new_head,
                )
            };
            if ok {
                unsafe { VersionRecord::from_raw(new_head) }.stamp(self.sync.clock());
                unsafe { Self::retire_node(&guard, l as *const Node as u64) };
                vedge::trim(&guard, new_head, self.sync.min_active(), self.sync.clock());
                return true;
            }
            unsafe {
                Self::dispose_node(internal);
                Self::dispose_node(new_leaf);
                Self::dispose_node(leaf_copy);
                ebr::pool::dispose_pooled(new_head as *mut VersionRecord);
            }
        }
    }

    /// Remove `k`; returns `true` iff it was present.
    pub fn remove(&self, k: u64) -> bool {
        assert!(k < INF1);
        loop {
            let guard = ebr::pin();
            let (gp, p, l) = self.search(k);
            if l.key != k {
                return false;
            }
            let Llx::Ok {
                info: gpinfo,
                snapshot: gpsnap,
            } = Self::llx_node(gp)
            else {
                continue;
            };
            let (gedge, ghead) = if k < gp.key {
                (&gp.left, gpsnap.0)
            } else {
                (&gp.right, gpsnap.1)
            };
            if unsafe { VersionRecord::from_raw(ghead) }.child() != p as *const Node as u64 {
                continue;
            }
            let Llx::Ok {
                info: pinfo,
                snapshot: psnap,
            } = Self::llx_node(p)
            else {
                continue;
            };
            let (lhead, shead) = if k < p.key {
                (psnap.0, psnap.1)
            } else {
                (psnap.1, psnap.0)
            };
            if unsafe { VersionRecord::from_raw(lhead) }.child() != l as *const Node as u64 {
                continue;
            }
            let s_raw = unsafe { VersionRecord::from_raw(shead) }.child();
            let s = unsafe { Node::from_raw(s_raw) };
            let Llx::Ok { info: sinfo, .. } = Self::llx_node(s) else {
                continue;
            };
            let Llx::Ok { info: linfo, .. } = Self::llx_node(l) else {
                continue;
            };
            // The sibling node itself is moved up (not copied): version
            // lists make node copies unnecessary for the unbalanced tree,
            // but we copy anyway so finalization semantics stay uniform.
            let s_copy = if s.is_leaf() {
                Node::leaf(s.key)
            } else {
                let (sl, _) = self.read_child(&s.left);
                let (sr, _) = self.read_child(&s.right);
                Node::internal(s.key, sl, sr)
            };
            let new_head = VersionRecord::alloc(s_copy, ghead);
            let ok = unsafe {
                llxscx::scx(
                    &[
                        llxscx::Linked {
                            header: &gp.header,
                            info: gpinfo,
                        },
                        llxscx::Linked {
                            header: &p.header,
                            info: pinfo,
                        },
                        llxscx::Linked {
                            header: &l.header,
                            info: linfo,
                        },
                        llxscx::Linked {
                            header: &s.header,
                            info: sinfo,
                        },
                    ],
                    0b1110,
                    gedge.cell() as *const AtomicU64,
                    ghead,
                    new_head,
                )
            };
            if ok {
                unsafe { VersionRecord::from_raw(new_head) }.stamp(self.sync.clock());
                unsafe {
                    Self::retire_node(&guard, p as *const Node as u64);
                    Self::retire_node(&guard, l as *const Node as u64);
                    Self::retire_node(&guard, s_raw);
                }
                vedge::trim(&guard, new_head, self.sync.min_active(), self.sync.clock());
                return true;
            }
            unsafe {
                Self::dispose_node(s_copy);
                ebr::pool::dispose_pooled(new_head as *mut VersionRecord);
            }
        }
    }

    unsafe fn retire_node(guard: &ebr::Guard, raw: u64) {
        unsafe fn free(p: *mut u8) {
            let node = unsafe { Box::from_raw(p as *mut Node) };
            // The node's version lists go back to the pool with it — the
            // records only, never the superseded children they point to
            // (those are retired by their own replacement).
            for edge in [&node.left, &node.right] {
                unsafe { vedge::dispose_chain(edge.head()) };
            }
        }
        unsafe { guard.retire_with(raw as *mut u8, free) };
    }

    unsafe fn dispose_node(raw: u64) {
        let node = unsafe { Box::from_raw(raw as *mut Node) };
        for edge in [&node.left, &node.right] {
            unsafe { vedge::dispose_chain(edge.head()) };
        }
    }

    /// Take a constant-time snapshot: advance the clock and remember the
    /// pre-advance timestamp, announcing it so trimming spares everything
    /// the snapshot can read.
    pub fn snapshot(&self) -> VcasSnapshot<'_> {
        let guard = ebr::pin();
        let ts = self.sync.register();
        VcasSnapshot {
            set: self,
            ts,
            _guard: guard,
        }
    }

    /// Number of keys — Θ(n) traversal (unaugmented!).
    pub fn len_slow(&self) -> u64 {
        let snap = self.snapshot();
        snap.range_count(0, INF1 - 1)
    }

    /// Longest version chain reachable from the current tree (diagnostic
    /// for the trimming tests; quiescent callers only).
    #[doc(hidden)]
    pub fn debug_max_version_chain(&self) -> usize {
        let _g = ebr::pin();
        fn chain_len(head: u64) -> usize {
            let mut n = 0;
            let mut raw = head;
            while raw != 0 {
                n += 1;
                raw = unsafe { VersionRecord::from_raw(raw) }.prev();
            }
            n
        }
        fn rec(set: &VcasSet, raw: u64, max: &mut usize) {
            let node = unsafe { Node::from_raw(raw) };
            if node.is_leaf() {
                return;
            }
            for edge in [&node.left, &node.right] {
                *max = (*max).max(chain_len(edge.head()));
                let (c, _) = set.read_child(edge);
                rec(set, c, max);
            }
        }
        let mut max = 0;
        rec(self, self.entry, &mut max);
        max
    }
}

impl Default for VcasSet {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for VcasSet {
    fn drop(&mut self) {
        fn walk(set: &VcasSet, raw: u64) {
            let node = unsafe { Node::from_raw(raw) };
            if !node.is_leaf() {
                let (l, _) = set.read_child(&node.left);
                let (r, _) = set.read_child(&node.right);
                walk(set, l);
                walk(set, r);
            }
            // Current-version children only; the chains themselves are
            // disposed as records (superseded children were retired when
            // replaced, or are pending in EBR).
            unsafe { VcasSet::dispose_node(raw) };
        }
        walk(self, self.entry);
    }
}

impl<'t> VcasSnapshot<'t> {
    fn read_child_at(&self, edge: &VersionedEdge) -> u64 {
        edge.read_at(self.set.sync.clock(), self.ts)
    }

    fn root_at(&self) -> u64 {
        let entry = unsafe { Node::from_raw(self.set.entry) };
        let inf1 = self.read_child_at(&entry.left);
        self.read_child_at(&unsafe { Node::from_raw(inf1) }.left)
    }

    /// Membership within the snapshot.
    pub fn contains(&self, k: u64) -> bool {
        let mut n = unsafe { Node::from_raw(self.root_at()) };
        while !n.is_leaf() {
            let e = if k < n.key { &n.left } else { &n.right };
            n = unsafe { Node::from_raw(self.read_child_at(e)) };
        }
        n.key == k
    }

    /// Count keys in `[lo, hi]` by traversing the snapshot — Θ(output +
    /// log n): the unaugmented cost the paper's Figs. 6–10 measure.
    pub fn range_count(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        self.count_range(self.root_at(), lo, hi)
    }

    fn count_range(&self, raw: u64, lo: u64, hi: u64) -> u64 {
        let n = unsafe { Node::from_raw(raw) };
        if n.is_leaf() {
            return (n.key >= lo && n.key <= hi && n.key < INF1) as u64;
        }
        let mut total = 0;
        if lo < n.key {
            total += self.count_range(self.read_child_at(&n.left), lo, hi);
        }
        if hi >= n.key {
            total += self.count_range(self.read_child_at(&n.right), lo, hi);
        }
        total
    }

    /// Collect keys in `[lo, hi]`.
    pub fn range_collect(&self, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.collect_range(self.root_at(), lo, hi, &mut out);
        out
    }

    fn collect_range(&self, raw: u64, lo: u64, hi: u64, out: &mut Vec<u64>) {
        let n = unsafe { Node::from_raw(raw) };
        if n.is_leaf() {
            if n.key >= lo && n.key <= hi && n.key < INF1 {
                out.push(n.key);
            }
            return;
        }
        if lo < n.key {
            self.collect_range(self.read_child_at(&n.left), lo, hi, out);
        }
        if hi >= n.key {
            self.collect_range(self.read_child_at(&n.right), lo, hi, out);
        }
    }

    /// Rank (keys ≤ k) — Θ(#keys ≤ k): brute-force traversal, exactly the
    /// unaugmented cost model of the paper's Fig. 7.
    pub fn rank(&self, k: u64) -> u64 {
        self.range_count(0, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Every test of this module holds the process-wide epoch lock for its
    // whole body: `version_records_come_from_the_pool` asserts on this
    // thread's pool counters.
    use ebr::own_the_global_epoch;

    #[test]
    fn insert_contains_remove() {
        let _epoch = own_the_global_epoch();
        let s = VcasSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(!s.contains(5));
    }

    #[test]
    fn sequential_oracle() {
        let _epoch = own_the_global_epoch();
        use std::collections::BTreeSet;
        let s = VcasSet::new();
        let mut oracle = BTreeSet::new();
        let mut x = 777u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 128;
            if x & 1 == 0 {
                assert_eq!(s.insert(k), oracle.insert(k), "insert {k}");
            } else {
                assert_eq!(s.remove(k), oracle.remove(&k), "remove {k}");
            }
        }
        let snap = s.snapshot();
        let got = snap.range_collect(0, 127);
        let want: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn snapshots_are_stable() {
        let _epoch = own_the_global_epoch();
        let s = VcasSet::new();
        for k in 0..100 {
            s.insert(k);
        }
        let snap = s.snapshot();
        assert_eq!(snap.range_count(0, 99), 100);
        for k in 100..200 {
            s.insert(k);
        }
        for k in 0..50 {
            s.remove(k);
        }
        // The old snapshot still sees the old state.
        assert_eq!(snap.range_count(0, 99), 100);
        assert!(snap.contains(0));
        assert!(!snap.contains(150));
        let snap2 = s.snapshot();
        assert_eq!(snap2.range_count(0, 199), 150);
    }

    #[test]
    fn rank_matches_definition() {
        let _epoch = own_the_global_epoch();
        let s = VcasSet::new();
        for k in (0..100).step_by(2) {
            s.insert(k);
        }
        let snap = s.snapshot();
        assert_eq!(snap.rank(50), 26); // 0,2,...,50
        assert_eq!(snap.rank(51), 26);
        assert_eq!(snap.rank(0), 1);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let _epoch = own_the_global_epoch();
        let s = Arc::new(VcasSet::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        assert!(s.insert(t * 10_000 + i));
                    }
                    for i in (0..1000).step_by(2) {
                        assert!(s.remove(t * 10_000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len_slow(), 8 * 500);
        ebr::flush();
    }

    #[test]
    fn snapshot_during_concurrent_updates_is_consistent_size() {
        let _epoch = own_the_global_epoch();
        let s = Arc::new(VcasSet::new());
        for k in 0..1000 {
            s.insert(k * 2);
        }
        let s2 = s.clone();
        let writer = std::thread::spawn(move || {
            for k in 0..1000 {
                s2.insert(k * 2 + 1);
            }
        });
        // Snapshot counts must never decrease for an insert-only workload.
        let mut last = 0;
        for _ in 0..50 {
            let snap = s.snapshot();
            let n = snap.range_count(0, u64::MAX - 2);
            assert!(n >= last, "snapshot counts must be monotone: {n} < {last}");
            last = n;
        }
        writer.join().unwrap();
    }

    #[test]
    fn version_lists_stay_trimmed_without_snapshots() {
        let _epoch = own_the_global_epoch();
        // Seed bug: update-heavy runs kept every version until node
        // reclamation, growing memory linearly. With writer-driven
        // trimming, churn on a fixed key set leaves bounded chains.
        let s = VcasSet::new();
        for k in 0..64 {
            s.insert(k);
        }
        for round in 0..200u64 {
            for k in 0..64 {
                if (k + round).is_multiple_of(2) {
                    s.remove(k);
                } else {
                    s.insert(k);
                }
            }
        }
        assert!(
            s.debug_max_version_chain() <= 2,
            "chains grew to {}",
            s.debug_max_version_chain()
        );
        ebr::flush();
    }

    #[test]
    fn live_snapshot_preserves_history_until_dropped() {
        let _epoch = own_the_global_epoch();
        let s = VcasSet::new();
        for k in 0..32 {
            s.insert(k);
        }
        let snap = s.snapshot();
        for _ in 0..30 {
            s.remove(3);
            s.insert(3);
        }
        assert!(s.debug_max_version_chain() > 2);
        assert_eq!(snap.range_count(0, 31), 32);
        drop(snap);
        for _ in 0..2 {
            s.remove(3);
            s.insert(3);
        }
        assert!(s.debug_max_version_chain() <= 3);
        ebr::flush();
    }

    #[test]
    fn version_records_come_from_the_pool() {
        let _epoch = own_the_global_epoch();
        let s = VcasSet::new();
        for k in 0..512 {
            s.insert(k);
        }
        // Warm-up: stock the pool with the record + node layout classes.
        for round in 0..6u64 {
            for k in 0..256 {
                if (k + round).is_multiple_of(2) {
                    s.remove(k);
                } else {
                    s.insert(k);
                }
            }
            ebr::flush();
        }
        let (h0, _, _) = ebr::pool::local_stats();
        for k in 0..256 {
            s.remove(k);
            s.insert(k);
        }
        let (h1, _, _) = ebr::pool::local_stats();
        assert!(
            h1 > h0,
            "steady-state vcas updates must recycle version records"
        );
        ebr::flush();
    }
}
