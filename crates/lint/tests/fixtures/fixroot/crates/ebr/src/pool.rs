//! A second seeded std atomic import: nothing can suppress a finding, so
//! this one is a violation like the one in `fanout`.

use std::sync::atomic::AtomicBool;

pub static FLAG: AtomicBool = AtomicBool::new(false);
