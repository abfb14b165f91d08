//! The workspace's one statistics-counter primitive: `N` monotone
//! counters, striped per thread.
//!
//! Each registered thread owns one cache-padded block of `N` words, indexed
//! by its stable slot id ([`crate::thread_id`]), and [`Striped::sum`] adds
//! the stripes up lazily. A bump therefore touches only a line this core
//! already owns — one shared counter word makes every bump a cross-core
//! cacheline ping-pong under multi-threaded load. And since a stripe has
//! one writer, a bump is a plain load and store (`bump`), not a locked
//! read-modify-write: a BAT propagate bumps some 25 times, and a
//! `lock xadd` is a full fence that would sit in the middle of the refresh
//! chain's cache misses.

use sched::atomic::{AtomicU64, Ordering};
use std::marker::PhantomData;

use crate::CachePadded;

/// Add `n` to a statistics word that only the calling thread writes: a
/// word of the thread's own [`Striped`] stripe, or of its own slot in the
/// thread table.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    // ordering: single-writer monotone statistic; readers only need
    // eventual totals. With one writer a load + store loses nothing. The
    // word changes writer only when its slot changes owner, and that
    // hand-off goes through the slot's SeqCst `registered` flag (the old
    // owner's store of 0 follows its last bump, the new owner's CAS reads
    // that 0 before its first), so the new writer's load sees the old
    // writer's last store.
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Read one statistics word for summation.
#[inline]
pub(crate) fn read(counter: &AtomicU64) -> u64 {
    // ordering: counters are monotone and independent; a sum needs
    // per-counter eventual totals, not a cut consistent across counters
    // or stripes.
    counter.load(Ordering::Relaxed)
}

/// `N` counters, one stripe of them per slot of the thread table.
///
/// ```
/// let hits = ebr::Striped::<2>::default();
/// hits.local().add(1, 3);
/// assert_eq!(hits.sum(), [0, 3]);
/// ```
pub struct Striped<const N: usize> {
    stripes: Box<[CachePadded<[AtomicU64; N]>]>,
}

impl<const N: usize> Default for Striped<N> {
    fn default() -> Self {
        Striped {
            stripes: (0..crate::MAX_THREADS)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }
}

impl<const N: usize> Striped<N> {
    /// The calling thread's stripe. Resolving it reads the thread id once;
    /// a hot section takes one handle and bumps through it.
    #[inline]
    pub fn local(&self) -> Local<'_, N> {
        Local {
            stripe: &self.stripes[crate::thread_id()],
            _not_send: PhantomData,
        }
    }

    /// Current totals, summed over all stripes.
    pub fn sum(&self) -> [u64; N] {
        let mut totals = [0u64; N];
        for stripe in self.stripes.iter() {
            for (total, counter) in totals.iter_mut().zip(stripe.iter()) {
                *total += read(counter);
            }
        }
        totals
    }
}

/// A borrow of the calling thread's stripe (see [`Striped::local`]).
///
/// `!Send` and `!Sync`: on another thread a handle would be a second writer
/// to a stripe whose bumps assume one.
///
/// ```compile_fail
/// let counters = ebr::Striped::<1>::default();
/// let handle = counters.local();
/// std::thread::scope(|s| {
///     s.spawn(move || handle.add(0, 1));
/// });
/// ```
pub struct Local<'a, const N: usize> {
    stripe: &'a [AtomicU64; N],
    _not_send: PhantomData<*const ()>,
}

impl<const N: usize> Local<'_, N> {
    /// Add `n` to counter `i` of this thread's stripe.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        bump(&self.stripe[i], n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_sum_exactly_across_threads() {
        let counters = Striped::<2>::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let h = counters.local();
                    for _ in 0..1000 {
                        h.add(0, 1);
                    }
                    h.add(1, 50);
                });
            }
        });
        assert_eq!(counters.sum(), [4000, 200]);
    }

    /// The widest user (`chromatic::TreeStats`, ten counters) still owns
    /// whole padded slots: no stripe spills into a line of its neighbour.
    #[test]
    fn the_widest_stripe_fills_one_padded_slot() {
        assert_eq!(std::mem::size_of::<CachePadded<[AtomicU64; 10]>>(), 128);
    }
}
