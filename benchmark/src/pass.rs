//! What one pass over a workload brings back: metrics, the output check's
//! tally, and the lines the report prints beside them.

use std::collections::{BTreeMap, BTreeSet};

use crate::stats::Summary;
use crate::trace::Span;

#[derive(Default)]
pub struct Pass {
    pub end_to_end: BTreeMap<&'static str, Summary>,
    pub layers: BTreeMap<&'static str, Summary>,
    /// The per-layer metrics that are not this workload's own: taken from
    /// a reference pass by [`Pass::fill_missing_layers`].
    pub borrowed: BTreeSet<&'static str>,
    /// Operations and checks attempted, and how many came out wrong,
    /// refused or unfinished.
    pub attempted: u64,
    pub failed: u64,
    /// Why the output check failed, and definitions worth a line.
    pub notes: Vec<String>,
    /// Reconciliation lines: end-to-end p50 = layer medians + residual.
    pub recon: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn e2e(&mut self, name: &'static str, s: Summary) {
        self.end_to_end.insert(name, s);
    }

    pub fn layer(&mut self, name: &'static str, s: Summary) {
        self.layers.insert(name, s);
    }

    /// Count `n` attempts of which `failed` failed for the reason `why`.
    pub fn attempt(&mut self, n: u64, failed: u64, why: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("CHECK FAILED x{failed}: {why}"));
        }
    }

    /// Take from a reference pass the per-layer metrics this pass did not
    /// measure itself (the layers its workload leaves idle), marked as
    /// borrowed, and its output-check tally: a reference pass that
    /// computes wrong answers fails the run like any other.
    pub fn fill_missing_layers(&mut self, reference: Pass) {
        for (name, s) in reference.layers {
            if !self.layers.contains_key(name) {
                self.layers.insert(name, s);
                self.borrowed.insert(name);
            }
        }
        self.attempted += reference.attempted;
        self.failed += reference.failed;
        self.notes.extend(
            reference
                .notes
                .into_iter()
                .filter(|n| n.starts_with("CHECK FAILED")),
        );
    }
}
