//! Software prefetch: a hint to the cache, never an access.

/// Ask the cache for every 64-byte line the `T` at `addr` overlaps — to
/// read, or with `WRITE` to own (the object is about to be initialised or
/// CASed). A pooled object of at most 64 bytes is one line, since pool
/// blocks are line-aligned; a larger object, or one from elsewhere, may
/// span more, and fetching only the first leaves the other misses where
/// they were.
///
/// `addr` need not be valid: a prefetch neither faults nor counts as an
/// access, which is what lets callers issue it for objects they have not
/// validated yet. Off x86_64 and under Miri (which has no model of a cache
/// to warm) this compiles to nothing.
#[inline(always)]
pub fn prefetch<T, const WRITE: bool>(addr: u64) {
    const LINE: u64 = 64;
    let first = addr & !(LINE - 1);
    let span = (addr - first) + std::mem::size_of::<T>().max(1) as u64;
    for i in 0..span.div_ceil(LINE) {
        hint::<WRITE>(first.wrapping_add(i * LINE));
    }
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline(always)]
fn hint<const WRITE: bool>(line: u64) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
    // SAFETY: PREFETCHh/PREFETCHW are architectural hints: they never
    // fault, whatever the address, and read or write no program-visible
    // state.
    unsafe {
        if WRITE {
            _mm_prefetch::<_MM_HINT_ET0>(line as *const i8);
        } else {
            _mm_prefetch::<_MM_HINT_T0>(line as *const i8);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", not(miri))))]
#[inline(always)]
fn hint<const WRITE: bool>(_line: u64) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_address_is_acceptable() {
        // Null, a poisoned word, the top of the address space (the line
        // walk must not overflow) and a live object: none may fault.
        let live = 7u64;
        for addr in [
            0,
            0xDDDD_DDDD_DDDD_DDDD,
            u64::MAX,
            &live as *const u64 as u64,
        ] {
            prefetch::<[u8; 56], false>(addr);
            prefetch::<[u8; 64], true>(addr);
            prefetch::<(), false>(addr);
        }
        assert_eq!(live, 7);
    }
}
