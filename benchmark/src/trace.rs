//! In-memory spans, recorded from the benchmark's own files around the
//! calls into each layer and written out once at exit. Spans inside the
//! program are a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused this one
/// (0 for a request's root span); every span of one request shares `req`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Never shared: each recording thread owns its
/// tracer and hands the buffer over when it is done.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `lane` makes ids unique across threads (it becomes the id's high
    /// bits); `capacity` is reserved up front so that recording does not
    /// allocate inside the traced run.
    pub fn new(epoch: Instant, lane: u64, capacity: usize) -> Self {
        Tracer {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Reserve the id of a span whose end is not known yet (a root that
    /// its children must name as their parent).
    #[inline]
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a finished span under a reserved id.
    #[inline]
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
    }

    /// Record a finished child span.
    #[inline]
    pub fn child(
        &mut self,
        parent: u64,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.close(id, parent, name, req, start, end);
    }
}

/// Per span name: every span's duration and its self time (duration minus
/// the part its child spans cover), both in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0.push(dur);
        e.1.push(own);
    }
    out
}

/// Write `trace-<workload>.json`: `spans` (the earliest of the `recorded`
/// ones when the run recorded more than the file should hold).
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    recorded: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut body = String::with_capacity(spans.len() * 96 + 128);
    let _ = write!(
        body,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since the traced stage began\",\"spans_recorded\":{recorded},\"spans_written\":{},\"spans\":[",
        spans.len()
    );
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            body,
            "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.name,
            s.req,
            s.start_ns,
            s.end_ns
        );
    }
    body.push_str("\n]}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())?;
    f.flush()
}
