//! The three layers a session can be driven through: over TCP (`net`),
//! in process against the `QueryService` (`server`), and straight against
//! prepared plans and cursors (`engine`). One client loop (`drive`) runs all three,
//! so each replays the same requests in the same way.

use crate::schedule::SessionReq;
use crate::trace::SpanBuf;
use anyk_engine::{Answer, AnswerCursor, PreparedQuery};
use anyk_obs::HistogramSnapshot;
use anyk_query::QuerySpec;
use anyk_server::net::{AnyKClient, ClientConfig, RemoteSession};
use anyk_server::{QueryService, SessionId, DEFAULT_ALGORITHM};
use anyk_storage::{Database, DeltaBatch};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};

/// A way to run sessions and ingests. The client loop wraps every call in one of
/// the layer's [`Layer::SPANS`]; implementations add child spans for the
/// calls they make into lower layers.
pub trait Layer: Sync {
    /// Per-thread connection state.
    type Conn;
    /// An open session.
    type Session;
    /// Names of the client loop's spans: session, open, page, close, ingest.
    const SPANS: [&'static str; 5];
    /// Open a per-thread connection.
    fn connect(&self) -> Self::Conn;
    /// Open a session for `req`.
    fn open(
        &self,
        conn: &mut Self::Conn,
        req: &SessionReq,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<Self::Session, String>;
    /// Pull page `seq` into `out`; `Ok(true)` when the stream is exhausted.
    #[allow(clippy::too_many_arguments)]
    fn page(
        &self,
        conn: &mut Self::Conn,
        session: &mut Self::Session,
        req: &SessionReq,
        seq: u32,
        out: &mut Vec<Answer>,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<bool, String>;
    /// Close a session.
    fn close(
        &self,
        conn: &mut Self::Conn,
        session: Self::Session,
        req: &SessionReq,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<(), String>;
    /// Apply a delta batch; returns the new generation.
    fn ingest(
        &self,
        conn: &mut Self::Conn,
        batch: &DeltaBatch,
        request: u64,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<u64, String>;
}

/// Sessions over TCP through [`AnyKClient`].
pub struct Net {
    /// The server's address.
    pub addr: SocketAddr,
}

impl Layer for Net {
    type Conn = AnyKClient;
    type Session = RemoteSession;
    const SPANS: [&'static str; 5] = [
        "net.session",
        "net.open",
        "net.page",
        "net.close",
        "net.ingest",
    ];

    fn connect(&self) -> AnyKClient {
        AnyKClient::connect(self.addr, ClientConfig::default())
    }

    fn open(
        &self,
        conn: &mut AnyKClient,
        req: &SessionReq,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<RemoteSession, String> {
        conn.open_session(&req.text).map_err(|e| e.to_string())
    }

    fn page(
        &self,
        conn: &mut AnyKClient,
        session: &mut RemoteSession,
        req: &SessionReq,
        _: u32,
        out: &mut Vec<Answer>,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<bool, String> {
        let page = conn
            .next_page(*session, req.page_size)
            .map_err(|e| e.to_string())?;
        *out = page.answers;
        Ok(page.done)
    }

    fn close(
        &self,
        conn: &mut AnyKClient,
        session: RemoteSession,
        _: &SessionReq,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<(), String> {
        match conn.close(session) {
            Ok(true) => Ok(()),
            Ok(false) => Err("close: session was not live".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn ingest(
        &self,
        conn: &mut AnyKClient,
        batch: &DeltaBatch,
        _: u64,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<u64, String> {
        conn.ingest(batch).map_err(|e| e.to_string())
    }
}

/// Sessions in process against the [`QueryService`].
pub struct Server {
    /// The service under test.
    pub service: Arc<QueryService>,
}

impl Layer for Server {
    type Conn = ();
    type Session = SessionId;
    const SPANS: [&'static str; 5] = [
        "server.session",
        "server.open",
        "server.page",
        "server.close",
        "server.ingest",
    ];

    fn connect(&self) {}

    fn open(
        &self,
        _: &mut (),
        req: &SessionReq,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<SessionId, String> {
        self.service
            .open_session_text(&req.text)
            .map_err(|e| e.to_string())
    }

    fn page(
        &self,
        _: &mut (),
        session: &mut SessionId,
        req: &SessionReq,
        _: u32,
        out: &mut Vec<Answer>,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<bool, String> {
        self.service
            .next_page_into(*session, req.page_size, out)
            .map_err(|e| e.to_string())
    }

    fn close(
        &self,
        _: &mut (),
        session: SessionId,
        _: &SessionReq,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<(), String> {
        if self.service.close_session(session) {
            Ok(())
        } else {
            Err("close: session was not live".into())
        }
    }

    fn ingest(
        &self,
        _: &mut (),
        batch: &DeltaBatch,
        _: u64,
        _: &mut SpanBuf,
        _: u64,
    ) -> Result<u64, String> {
        self.service.ingest(batch).map_err(|e| e.to_string())
    }
}

/// Plans compiled ahead of requests, by plan index (`None` for per-request
/// plans, which every open compiles afresh).
pub type Plans = Vec<Option<(QuerySpec, Arc<PreparedQuery>)>>;

/// The engine calls the service makes for each request, made directly:
/// compile (on a plan-cache miss), cursor open, the MEM(k) charge after
/// open and after every page, the page pulls, and on ingest
/// `Database::apply_delta` plus a refresh or recompile of every plan.
pub struct Engine {
    /// The current snapshot and the plans compiled over it.
    state: RwLock<(Arc<Database>, Plans)>,
    /// Per-answer delay histograms of closed cursors, merged.
    pub delays: Mutex<HistogramSnapshot>,
}

impl Engine {
    /// An engine layer over `db` with `plans` compiled in advance.
    pub fn new(db: Arc<Database>, plans: Plans) -> Engine {
        Engine {
            state: RwLock::new((db, plans)),
            delays: Mutex::new(HistogramSnapshot::empty()),
        }
    }
}

impl Layer for Engine {
    type Conn = ();
    type Session = AnswerCursor;
    // The engine's own calls are the child spans; these only group them.
    const SPANS: [&'static str; 5] = [
        "engine.session",
        "engine.open_calls",
        "engine.page_calls",
        "engine.close_calls",
        "engine.ingest_calls",
    ];

    fn connect(&self) {}

    fn open(
        &self,
        _: &mut (),
        req: &SessionReq,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<AnswerCursor, String> {
        // Parsing belongs to the query layer, which is replayed on its own.
        let spec = QuerySpec::parse(&req.text).map_err(|e| e.to_string())?;
        let (db, cached) = {
            let state = self.state.read().expect("engine state lock");
            (Arc::clone(&state.0), state.1[req.plan].clone())
        };
        let prepared = match cached {
            Some((_, p)) => p,
            None => {
                let (p, _) = spans.timed("engine.prepare", req.id, 0, Some(parent), |_, _| {
                    PreparedQuery::from_spec_delta(db, &spec.without_execution_attrs())
                });
                Arc::new(p.map_err(|e| e.to_string())?)
            }
        };
        let algorithm = spec.algorithm.unwrap_or(DEFAULT_ALGORITHM);
        let (cursor, _) = spans.timed("engine.cursor_open", req.id, 0, Some(parent), |_, _| {
            prepared.cursor_with_limit(algorithm, spec.limit)
        });
        mem_stats(&cursor, req.id, 0, spans, parent);
        Ok(cursor)
    }

    fn page(
        &self,
        _: &mut (),
        cursor: &mut AnswerCursor,
        req: &SessionReq,
        seq: u32,
        out: &mut Vec<Answer>,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<bool, String> {
        let (done, _) = spans.timed("engine.page", req.id, seq, Some(parent), |_, _| {
            cursor.next_page_into(req.page_size, out)
        });
        spans.set_value(out.len() as u64);
        mem_stats(cursor, req.id, seq, spans, parent);
        Ok(done)
    }

    fn close(
        &self,
        _: &mut (),
        cursor: AnswerCursor,
        req: &SessionReq,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<(), String> {
        if let Some(h) = cursor.delay_histogram() {
            self.delays.lock().expect("delay lock").merge(&h);
        }
        spans.timed("engine.close", req.id, 0, Some(parent), |_, _| drop(cursor));
        Ok(())
    }

    fn ingest(
        &self,
        _: &mut (),
        batch: &DeltaBatch,
        request: u64,
        spans: &mut SpanBuf,
        parent: u64,
    ) -> Result<u64, String> {
        let (db, plans) = {
            let state = self.state.read().expect("engine state lock");
            (Arc::clone(&state.0), state.1.clone())
        };
        let (new_db, _) = spans.timed("storage.apply_delta", request, 0, Some(parent), |_, _| {
            db.apply_delta(batch)
        });
        let new_db = Arc::new(new_db.map_err(|e| e.to_string())?);
        let mut migrated = Vec::with_capacity(plans.len());
        for plan in plans {
            migrated.push(match plan {
                Some((spec, p)) if p.supports_refresh() => {
                    let (r, _) = spans.timed("engine.refresh", request, 0, Some(parent), |_, _| {
                        p.refresh(Arc::clone(&new_db), batch)
                    });
                    Some((spec, Arc::new(r.map_err(|e| e.to_string())?)))
                }
                Some((spec, _)) => {
                    let (r, _) = spans.timed("engine.prepare", request, 0, Some(parent), |_, _| {
                        PreparedQuery::from_spec_delta(Arc::clone(&new_db), &spec)
                    });
                    Some((spec, Arc::new(r.map_err(|e| e.to_string())?)))
                }
                None => None,
            });
        }
        let generation = new_db.generation();
        *self.state.write().expect("engine state lock") = (new_db, migrated);
        Ok(generation)
    }
}

/// `AnswerCursor::memory_stats`, as the service charges it after open and
/// after every page; the span's value is the MEM(k) resident-unit count.
fn mem_stats(cursor: &AnswerCursor, request: u64, seq: u32, spans: &mut SpanBuf, parent: u64) {
    let (stats, _) = spans.timed("engine.mem_stats", request, seq, Some(parent), |_, _| {
        cursor.memory_stats()
    });
    spans.set_value(stats.map_or(0, |m| m.resident_units()));
}
