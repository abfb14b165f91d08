//! Non-protocol crate: the shim and ordering rules do not apply here,
//! but the SAFETY rule is workspace-wide, so the bare `unsafe` below
//! is still a violation.

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn sum(c: &AtomicUsize) -> usize {
    c.load(Ordering::Relaxed)
}

pub fn peek(p: *const usize) -> usize {
    unsafe { *p }
}
