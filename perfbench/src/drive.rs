//! The client loops: closed-loop session clients and the open-loop ingest
//! writer, generic over the [`Layer`] they drive.

use crate::check;
use crate::layers::Layer;
use crate::schedule::Schedule;
use crate::trace::{Span, SpanBuf, INGEST_REQUEST};
use anyk_engine::Answer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When the session clients stop drawing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Start no session after this instant, except to complete the
    /// schedule block in progress, so every run sends the workload's exact
    /// plan mix.
    At(Instant),
    /// Run the sessions up to (not including) this schedule index; for the
    /// writer, this many batches.
    Count(usize),
}

/// One finished (or failed) session as its client saw it.
#[derive(Debug, Clone, Default)]
pub struct SessionRecord {
    /// Schedule index.
    pub id: u64,
    /// Plan index.
    pub plan: usize,
    /// Open sent → first page received, in ms.
    pub ttf_ms: f64,
    /// Every later page, in ms.
    pub page_ms: Vec<f64>,
    /// Answers received.
    pub answers: usize,
    /// The first page, kept for the reference check.
    pub first_page: Vec<Answer>,
    /// Every answer's weight, in rank order.
    pub weights: Vec<f64>,
    /// Why the session failed, if it did.
    pub error: Option<String>,
}

/// One ingest batch as the writer saw it.
#[derive(Debug, Clone, Default)]
pub struct IngestRecord {
    /// Batch index.
    pub batch: usize,
    /// How late the send started relative to its schedule slot, in ms.
    pub lateness_ms: f64,
    /// Schedule slot → reply with the new generation, in ms.
    pub ingest_ms: f64,
    /// The generation the reply carried.
    pub generation: u64,
    /// Why the ingest failed, if it did.
    pub error: Option<String>,
}

/// One session client's totals: sessions and answers completed, and the
/// time from the loop's start to its last completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientTotals {
    /// Sessions completed.
    pub sessions: usize,
    /// Answers received.
    pub answers: usize,
    /// Loop start → this client's last completion.
    pub busy: Duration,
}

/// What a client loop returns: its records and (with tracing on) spans.
pub struct Outcome {
    /// Sessions in schedule order.
    pub sessions: Vec<SessionRecord>,
    /// Per session client.
    pub clients: Vec<ClientTotals>,
    /// Ingest batches in schedule order.
    pub ingests: Vec<IngestRecord>,
    /// Spans of every thread.
    pub spans: Vec<Span>,
    /// First session start → last completion.
    pub wall: Duration,
}

/// Run `clients` closed-loop session clients over the schedule from index
/// `first` and, when `batches` is set, one open-loop writer sending batch
/// `i` at `start + i × interval` for every slot before the given instant
/// (or count).
#[allow(clippy::too_many_arguments)]
pub fn run<L: Layer>(
    layer: &L,
    schedule: &Schedule,
    clients: usize,
    first: usize,
    stop: Stop,
    batches: Option<(Duration, Stop)>,
    trace: bool,
    epoch: Instant,
) -> Outcome {
    let next = AtomicUsize::new(first);
    let sessions = Mutex::new(Vec::new());
    let totals = Mutex::new(Vec::new());
    let spans = Mutex::new(Vec::new());
    let start = Instant::now();
    let ingests = std::thread::scope(|scope| {
        for _ in 0..clients {
            let (next, sessions, totals, spans) = (&next, &sessions, &totals, &spans);
            scope.spawn(move || {
                let mut buf = SpanBuf::new(trace, epoch);
                let mut conn = layer.connect();
                let mut done = Vec::new();
                while let Some(i) = draw(next, first, stop, schedule) {
                    done.push(session(layer, &mut conn, schedule, i, &mut buf));
                }
                let client = ClientTotals {
                    sessions: done.len(),
                    answers: done.iter().map(|r| r.answers).sum(),
                    busy: start.elapsed(),
                };
                totals.lock().expect("totals lock").push(client);
                sessions.lock().expect("records lock").extend(done);
                spans.lock().expect("spans lock").extend(buf.spans);
            });
        }
        batches.map(|(interval, until)| {
            let (ingests, buf) = writer(layer, schedule, start, interval, until, trace, epoch);
            spans.lock().expect("spans lock").extend(buf.spans);
            ingests
        })
    });
    let wall = start.elapsed();
    let mut sessions = sessions.into_inner().expect("records lock");
    sessions.sort_by_key(|s| s.id);
    Outcome {
        sessions,
        clients: totals.into_inner().expect("totals lock"),
        ingests: ingests.unwrap_or_default(),
        spans: spans.into_inner().expect("spans lock"),
        wall,
    }
}

/// Draw the next schedule index, or `None` once `stop` (or the end of the
/// schedule) is reached.
fn draw(next: &AtomicUsize, first: usize, stop: Stop, schedule: &Schedule) -> Option<usize> {
    let capacity = schedule.capacity();
    match stop {
        Stop::Count(n) => {
            Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n.min(capacity))
        }
        Stop::At(t) => {
            let mut i = next.load(Ordering::Relaxed);
            loop {
                let boundary = (i - first).is_multiple_of(schedule.block());
                if i >= capacity || (boundary && Instant::now() >= t) {
                    return None;
                }
                match next.compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => return Some(i),
                    Err(current) => i = current,
                }
            }
        }
    }
}

fn session<L: Layer>(
    layer: &L,
    conn: &mut L::Conn,
    schedule: &Schedule,
    i: usize,
    buf: &mut SpanBuf,
) -> SessionRecord {
    let req = schedule.session(i);
    let mut rec = SessionRecord {
        id: req.id,
        plan: req.plan,
        ..SessionRecord::default()
    };
    let names = L::SPANS;
    let (result, _) = buf.timed(names[0], req.id, 0, None, |buf, parent| {
        let (opened, open_time) = buf.timed(names[1], req.id, 0, Some(parent), |buf, id| {
            layer.open(conn, &req, buf, id)
        });
        let mut session = opened?;
        let mut out = Vec::with_capacity(req.page_size);
        let mut seq = 0u32;
        loop {
            seq += 1;
            let (pulled, took) = buf.timed(names[2], req.id, seq, Some(parent), |buf, id| {
                layer.page(conn, &mut session, &req, seq, &mut out, buf, id)
            });
            let exhausted = pulled?;
            buf.set_value(out.len() as u64);
            if seq == 1 {
                rec.ttf_ms = (open_time + took).as_secs_f64() * 1e3;
                rec.first_page = out.clone();
            } else {
                rec.page_ms.push(took.as_secs_f64() * 1e3);
            }
            rec.answers += out.len();
            rec.weights.extend(out.iter().map(Answer::weight));
            if exhausted || out.is_empty() || rec.answers >= req.k {
                break;
            }
        }
        let (closed, _) = buf.timed(names[3], req.id, 0, Some(parent), |buf, id| {
            layer.close(conn, session, &req, buf, id)
        });
        closed
    });
    if let Err(e) = result.and_then(|()| check::non_decreasing(&rec.weights)) {
        rec.error = Some(format!("session {}: {e}", req.id));
    }
    rec
}

fn writer<L: Layer>(
    layer: &L,
    schedule: &Schedule,
    start: Instant,
    interval: Duration,
    until: Stop,
    trace: bool,
    epoch: Instant,
) -> (Vec<IngestRecord>, SpanBuf) {
    let mut buf = SpanBuf::new(trace, epoch);
    let mut conn = layer.connect();
    let mut records = Vec::new();
    let names = L::SPANS;
    for i in 0.. {
        let due = start + interval * i as u32;
        match until {
            Stop::At(t) if due >= t => break,
            Stop::Count(n) if i >= n => break,
            _ => {}
        }
        let batch = schedule.batch(i);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let request = INGEST_REQUEST + i as u64;
        let (result, _) = buf.timed(names[4], request, 0, None, |buf, id| {
            layer.ingest(&mut conn, &batch, request, buf, id)
        });
        let replied = Instant::now();
        let mut rec = IngestRecord {
            batch: i,
            lateness_ms: (sent - due).as_secs_f64() * 1e3,
            ingest_ms: (replied - due).as_secs_f64() * 1e3,
            ..IngestRecord::default()
        };
        match result {
            Ok(generation) => rec.generation = generation,
            Err(e) => rec.error = Some(format!("ingest {i}: {e}")),
        }
        records.push(rec);
    }
    (records, buf)
}
