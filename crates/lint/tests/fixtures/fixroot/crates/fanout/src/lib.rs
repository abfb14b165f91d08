//! Seeded-violation fixture for the deny rules. Scanned by
//! `tests/rules.rs`; never compiled. `seed:` notes mark expected hits.

use std::sync::atomic::{AtomicUsize, Ordering}; // seed: atomic-shim

pub struct Counter {
    hits: AtomicUsize,
}

impl Counter {
    pub fn bump(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed); // seed: relaxed-ordering
    }

    pub fn read(&self) -> usize {
        // ordering: monotone counter; reporting-only read.
        self.hits.load(Ordering::Relaxed)
    }
}

pub fn rehydrate(raw: *const Counter) -> &'static Counter {
    unsafe { &*raw } // seed: safety-comment + guard-deref
}

pub fn rehydrate_pinned<'g>(raw: *const Counter, _guard: &'g Guard) -> &'g Counter {
    // SAFETY: the caller's `_guard` pins the epoch; `raw` was published
    // under the same domain and cannot be reclaimed while pinned.
    unsafe { &*raw }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64; // exempt: cfg(test) region

    #[test]
    fn smoke() {
        let v = AtomicU64::new(0);
        let _ = v.load(core::sync::atomic::Ordering::Relaxed); // exempt
    }
}
