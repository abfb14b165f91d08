//! Seeded fixture for `guard-deref` around a `from_raw` accessor.
//! Scanned by `tests/rules.rs`; never compiled.

pub struct Node;

impl Node {
    /// # Safety
    /// `raw` is live.
    pub unsafe fn from_raw<'g>(raw: u64) -> &'g Node {
        // SAFETY: the caller's contract.
        // guard: the caller's pin.
        unsafe { &*(raw as *const Node) }
    }
}

pub fn rehydrate(raw: u64) -> &'static Node {
    // SAFETY: fixture.
    unsafe { Node::from_raw(raw) } // seed: guard-deref deny
}
