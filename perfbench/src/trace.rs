//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Each client thread owns a [`SpanBuf`]; spans stay in memory and are
//! written out once the run ends. With tracing off a buffer still times its
//! calls (the client loops need the durations) but keeps no spans.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The enclosing span, if the call was made inside another traced call.
    pub parent: Option<u64>,
    /// `<layer>.<call>`, e.g. `engine.page`.
    pub name: &'static str,
    /// Schedule index of the session (or [`INGEST_REQUEST`] + batch index).
    pub request: u64,
    /// Page number within the session (1 = first page); 0 for calls that
    /// are not per page.
    pub seq: u32,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// A count the call produced (answers, MEM units), 0 if none.
    pub value: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Request ids of ingest batches start here, apart from session ids.
pub const INGEST_REQUEST: u64 = 1 << 40;

/// Span ids, unique across every buffer of the process.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A per-thread span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer timing against `epoch`; `on` keeps spans.
    pub fn new(on: bool, epoch: Instant) -> SpanBuf {
        SpanBuf {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Time `f`, recording it as span `name` when tracing is on. `f`
    /// receives this buffer and the new span's id, for child spans.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        request: u64,
        seq: u32,
        parent: Option<u64>,
        f: impl FnOnce(&mut SpanBuf, u64) -> R,
    ) -> (R, Duration) {
        let id = if self.on {
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                seq,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
                value: 0,
            });
        }
        (out, end - start)
    }

    /// Attach a count to the span recorded last.
    pub fn set_value(&mut self, value: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.value = value;
        }
    }
}

/// Render spans as tab-separated lines: id, parent, name, request, seq,
/// start_ns, end_ns, value.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\trequest\tseq\tstart_ns\tend_ns\tvalue\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.name, s.request, s.seq, s.start_ns, s.end_ns, s.value
        );
    }
    out
}
