//! Setting up a workload, driving it end to end, checking its answers, and
//! the traced per-layer replay.

use crate::check;
use crate::data::{Datasets, Sizes};
use crate::drive::{self, ClientTotals, IngestRecord, Outcome, SessionRecord, Stop};
use crate::layers::{Engine, Layer, Net, Server};
use crate::report::Metric;
use crate::schedule::{Schedule, Workload, INGEST_INTERVAL};
use crate::stats::{self, Summary};
use crate::trace::{Span, SpanBuf, INGEST_REQUEST};
use anyk_core::AnyKAlgorithm;
use anyk_engine::{naive_sql, PreparedQuery};
use anyk_query::{Constant, QuerySpec};
use anyk_server::net::{AnyKServer, NetConfig};
use anyk_server::{set_recording, QueryService};
use anyk_storage::{Database, HashIndex, Relation};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections: at most `nproc` on the 2-core machine this benchmark
/// targets; a closed loop with more clients than cores measures queueing
/// rather than the system.
pub const CLIENTS: usize = 2;

/// A service behind a loopback server, shut down on drop.
pub struct Served {
    /// The service under test.
    pub service: Arc<QueryService>,
    /// The loopback TCP server in front of `service`.
    pub server: AnyKServer,
}

impl Served {
    /// A fresh service over `db` with the workload's warm plans prepared,
    /// behind a fresh server.
    pub fn start(db: &Database, schedule: &Schedule) -> Served {
        let service = Arc::new(QueryService::new(db.clone()));
        if schedule.workload.prepares_plans() {
            for plan in &schedule.plans {
                let text = plan.text.as_deref().expect("warm plans have text");
                service.prepare_text(text).expect("warm plan compiles");
            }
        }
        let server = AnyKServer::bind(
            Arc::clone(&service),
            ("127.0.0.1", 0),
            NetConfig {
                workers: CLIENTS,
                max_connections: 2 * CLIENTS,
                ..NetConfig::default()
            },
        )
        .expect("bind a loopback port");
        Served { service, server }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

/// A workload ready to serve: generated data, its schedule, and a service.
pub struct Setup {
    /// Generated inputs. `data.db` is never queried directly, so its index
    /// cache stays cold and every fresh service starts from the same state.
    pub data: Datasets,
    /// The seeded request schedule.
    pub schedule: Schedule,
    /// The service the end-to-end run drives.
    pub served: Served,
}

/// Generate the data, build the schedule, start the service and prepare
/// the workload's warm plans.
pub fn setup(workload: Workload, seed: u64, sizes: Sizes) -> Setup {
    let data = Datasets::generate(workload, seed, sizes);
    let schedule = Schedule::new(workload, seed, &data);
    let served = Served::start(&data.db, &schedule);
    Setup {
        data,
        schedule,
        served,
    }
}

/// Sessions run untimed before measuring, so that lazily built state and
/// the allocator are warm: a few per plan (and per algorithm).
pub fn warmup_sessions(workload: Workload) -> usize {
    match workload {
        Workload::ColdTopk => 4,
        Workload::WarmTopk | Workload::IngestMix => 30,
        Workload::DeepPage => 6,
    }
}

/// Run `layer` over sessions `[first, stop)` with the workload's client
/// mix: two session clients, or for ingest_mix one reader and one writer.
fn drive_layer<L: Layer>(
    layer: &L,
    schedule: &Schedule,
    first: usize,
    stop: Stop,
    batches: Option<Stop>,
    trace: bool,
    epoch: Instant,
) -> Outcome {
    let ingest = schedule.workload == Workload::IngestMix;
    let clients = if ingest { 1 } else { CLIENTS };
    let writer = batches.filter(|_| ingest).map(|b| (INGEST_INTERVAL, b));
    drive::run(layer, schedule, clients, first, stop, writer, trace, epoch)
}

/// One round of the end-to-end run: a warm-up, then a timed slice on one
/// service.
pub struct EndToEnd {
    /// Session and ingest records of the timed region.
    pub outcome: Outcome,
    /// Failures found by the answer checks after the run.
    pub wrong: Vec<String>,
    /// Checks made after the run that are not tied to one session.
    pub extra_checks: usize,
    /// The service's counters over the round (warm-up included):
    /// `(plan_hits, plan_misses, sessions_shed)`.
    pub counters: (u64, u64, u64),
    /// The service's peak MEM(k) charge so far.
    pub mem_units_peak: u64,
}

/// Drive `served` over TCP: run `warmup` untimed sessions from schedule
/// index `first` (a multiple of the schedule's block), then run for
/// `seconds`. Returns the round and the schedule index after its last
/// session.
pub fn run_end_to_end(
    schedule: &Schedule,
    served: &Served,
    first: usize,
    warmup: usize,
    seconds: f64,
) -> (EndToEnd, usize) {
    let net = Net {
        addr: served.server.local_addr(),
    };
    let before = served.service.metrics();
    let epoch = Instant::now();
    let warm = first + warmup;
    drive_layer(&net, schedule, first, Stop::Count(warm), None, false, epoch);
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let outcome = drive_layer(
        &net,
        schedule,
        warm,
        Stop::At(until),
        Some(Stop::At(until)),
        false,
        epoch,
    );
    let end = warm + outcome.sessions.len();
    let after = served.service.metrics();
    let (wrong, extra_checks) = verify(schedule, served, &outcome);
    (
        EndToEnd {
            outcome,
            wrong,
            extra_checks,
            counters: (
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
                after.sessions_shed - before.sessions_shed,
            ),
            mem_units_peak: after.peak_mem_resident_units,
        },
        end,
    )
}

/// The records of several rounds as one outcome (wall times added).
pub fn merged(rounds: &[EndToEnd]) -> Outcome {
    Outcome {
        sessions: rounds
            .iter()
            .flat_map(|r| r.outcome.sessions.clone())
            .collect(),
        clients: rounds
            .iter()
            .flat_map(|r| r.outcome.clients.clone())
            .collect(),
        ingests: rounds
            .iter()
            .flat_map(|r| r.outcome.ingests.clone())
            .collect(),
        spans: Vec::new(),
        wall: rounds.iter().map(|r| r.outcome.wall).sum(),
    }
}

/// Answer checks made after the timed region (see `check`): every
/// session's first page against an in-process reference, Take2 against
/// Recursive on deep_page, and on ingest_mix every cached plan against a
/// rebuild over the final generation. Returns the failures and the number
/// of checks not tied to a session record.
pub fn verify(schedule: &Schedule, served: &Served, outcome: &Outcome) -> (Vec<String>, usize) {
    let mut wrong = Vec::new();
    // References are computed over a private copy of the served snapshot, so
    // that their index builds stay out of the service's index-cache counters.
    let db = Arc::new((*served.service.database()).clone());
    match schedule.workload {
        Workload::ColdTopk => {
            for rec in &outcome.sessions {
                let req = schedule.session(rec.id as usize);
                let spec = QuerySpec::parse(&req.text).expect("schedule text parses");
                let reference = naive_sql::join_and_sort_spec(&db, &spec).expect("oracle runs");
                if let Err(e) = check::page_matches(&rec.first_page, &reference, req.k) {
                    wrong.push(format!("session {}: first page vs naive_sql: {e}", rec.id));
                }
            }
        }
        Workload::WarmTopk | Workload::DeepPage => {
            let mut references = HashMap::new();
            for rec in &outcome.sessions {
                let req = schedule.session(rec.id as usize);
                let reference = references.entry(req.plan).or_insert_with(|| {
                    let text = schedule.plans[req.plan].text.as_deref().expect("plan text");
                    let p = PreparedQuery::from_text(Arc::clone(&db), text).expect("plan");
                    check::reference_prefix(p.enumerate(AnyKAlgorithm::Lazy), req.page_size)
                });
                if let Err(e) = check::page_matches(&rec.first_page, reference, req.page_size) {
                    wrong.push(format!("session {}: first page vs Lazy: {e}", rec.id));
                }
            }
            // Take2 and Recursive sessions of one plan rank identically.
            let mut base: HashMap<usize, &SessionRecord> = HashMap::new();
            for rec in outcome.sessions.iter().filter(|r| r.error.is_none()) {
                match base.get(&rec.plan) {
                    None => {
                        base.insert(rec.plan, rec);
                    }
                    Some(b) => {
                        if let Err(e) = check::same_weights(&rec.weights, &b.weights) {
                            wrong.push(format!("session {} vs session {}: {e}", rec.id, b.id));
                        }
                    }
                }
            }
        }
        Workload::IngestMix => {
            let mut last = db.generation();
            for rec in outcome.ingests.iter().rev().filter(|r| r.error.is_none()) {
                if rec.generation != last {
                    wrong.push(format!(
                        "ingest {} returned generation {}, expected {last}",
                        rec.batch, rec.generation
                    ));
                }
                last = last.saturating_sub(1);
            }
            // Every cached plan, refreshed or recompiled through the
            // ingests, streams as a rebuild over the final generation — in
            // process and over the wire.
            let mut client = anyk_server::net::AnyKClient::connect(
                served.server.local_addr(),
                anyk_server::net::ClientConfig::default(),
            );
            for plan in &schedule.plans {
                let text = plan.text.as_deref().expect("plan text");
                let rebuilt = PreparedQuery::from_text(Arc::clone(&db), text).expect("rebuild");
                let reference =
                    check::reference_prefix(rebuilt.enumerate(AnyKAlgorithm::Take2), 1000);
                let cached = served.service.prepare_text(text).expect("cached plan");
                let in_process = cached.top_k(AnyKAlgorithm::Take2, 1000);
                if let Err(e) = check::page_matches(&in_process, &reference, 1000) {
                    wrong.push(format!("{}: cached plan vs rebuild: {e}", plan.name));
                }
                let over_tcp = client
                    .open_session(text)
                    .and_then(|id| client.next_page(id, 1000).map(|p| (id, p)))
                    .and_then(|(id, p)| client.close(id).map(|_| p.answers));
                match over_tcp {
                    Ok(page) => {
                        if let Err(e) = check::page_matches(&page, &reference, 1000) {
                            wrong.push(format!("{}: served stream vs rebuild: {e}", plan.name));
                        }
                    }
                    Err(e) => wrong.push(format!("{}: final session failed: {e}", plan.name)),
                }
            }
            return (wrong, 2 * schedule.plans.len());
        }
    }
    (wrong, 0)
}

/// Per round: TTF median, answers per second and sessions per second. A
/// rate is each client's completions over its own time to its last
/// completion, summed over clients: a round ends only on a schedule block
/// boundary, and the client that finishes first would otherwise sit idle in
/// the denominator (up to one 100 000-answer session on deep_page).
pub fn per_round(rounds: &[EndToEnd], q: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let rate = |r: &EndToEnd, count: &dyn Fn(&ClientTotals) -> usize| -> f64 {
        r.outcome
            .clients
            .iter()
            .filter(|c| c.sessions > 0)
            .map(|c| count(c) as f64 / c.busy.as_secs_f64())
            .sum()
    };
    (
        rounds.iter().map(|r| ttf(&r.outcome, q).p50).collect(),
        rounds.iter().map(|r| rate(r, &|c| c.answers)).collect(),
        rounds.iter().map(|r| rate(r, &|c| c.sessions)).collect(),
    )
}

/// The end-to-end metrics, in `BENCHMARK.json` order: medians over rounds
/// (setups for `setup_s`), and the process-wide peak RSS. The TTF tail does
/// not settle from run to run on warm_topk and ingest_mix (plan-cache
/// misses during ingest, scheduler stalls), so it is reported by the traced
/// run and in the detail line, not gated.
pub fn end_to_end_metrics(rounds: &[EndToEnd], setup_s: &[f64], q: f64) -> Vec<Metric> {
    let (ttf_p50, answers_per_s, sessions_per_s) = per_round(rounds, q);
    vec![
        ("setup_s", stats::median(setup_s), "s"),
        ("ttf_ms.p50", stats::median(&ttf_p50), "ms"),
        ("answers_per_s", stats::median(&answers_per_s), "1/s"),
        ("sessions_per_s", stats::median(&sessions_per_s), "1/s"),
        ("peak_rss_mb", crate::report::peak_rss_mb(), "MB"),
    ]
}

/// Operations attempted and failed (including wrong answers).
pub fn fail_counts(rounds: &[EndToEnd]) -> (usize, usize) {
    let (mut attempted, mut failed) = (0, 0);
    for e2e in rounds {
        let o = &e2e.outcome;
        attempted += o.sessions.len() + o.ingests.len() + e2e.extra_checks;
        failed += o.sessions.iter().filter(|r| r.error.is_some()).count()
            + o.ingests.iter().filter(|r| r.error.is_some()).count()
            + e2e.wrong.len();
    }
    (attempted, failed)
}

/// Client-side TTF of successful sessions.
pub fn ttf(o: &Outcome, q: f64) -> Summary {
    let v: Vec<f64> = ok(&o.sessions).map(|r| r.ttf_ms).collect();
    stats::summarize(&v, q)
}

/// Client-side time of every page after the first.
pub fn pages(o: &Outcome, q: f64) -> Summary {
    let v: Vec<f64> = ok(&o.sessions)
        .flat_map(|r| r.page_ms.iter().copied())
        .collect();
    stats::summarize(&v, q)
}

/// Schedule slot → reply, per ingest batch.
pub fn ingests(o: &Outcome, q: f64) -> Summary {
    let v: Vec<f64> = ok_ingests(&o.ingests).map(|r| r.ingest_ms).collect();
    stats::summarize(&v, q)
}

/// The writer's worst lateness against its schedule.
pub fn lateness_ms(o: &Outcome) -> f64 {
    o.ingests.iter().map(|r| r.lateness_ms).fold(0.0, f64::max)
}

/// Per (plan, algorithm): sessions, TTF median and later-page median, in
/// ms — the modes the pooled percentiles mix.
pub fn by_plan(schedule: &Schedule, o: &Outcome) -> Vec<(String, usize, f64, f64)> {
    let mut groups: BTreeMap<String, Vec<&SessionRecord>> = BTreeMap::new();
    for rec in ok(&o.sessions) {
        let req = schedule.session(rec.id as usize);
        let key = format!(
            "{}/{}",
            schedule.plans[req.plan].name,
            req.algorithm().name()
        );
        groups.entry(key).or_default().push(rec);
    }
    groups
        .into_iter()
        .map(|(key, recs)| {
            let ttf: Vec<f64> = recs.iter().map(|r| r.ttf_ms).collect();
            let pages: Vec<f64> = recs
                .iter()
                .flat_map(|r| r.page_ms.iter().copied())
                .collect();
            (key, recs.len(), stats::median(&ttf), stats::median(&pages))
        })
        .collect()
}

fn ok(sessions: &[SessionRecord]) -> impl Iterator<Item = &SessionRecord> {
    sessions.iter().filter(|r| r.error.is_none())
}

fn ok_ingests(ingests: &[IngestRecord]) -> impl Iterator<Item = &IngestRecord> {
    ingests.iter().filter(|r| r.error.is_none())
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

/// Request id of the setup-time preparation of plan `p`.
const SETUP_REQUEST: u64 = 1 << 41;

/// Everything the traced run measured.
pub struct Traced {
    /// The untraced TCP pass whose requests every layer replays.
    pub baseline: EndToEnd,
    /// Spans of every replay.
    pub spans: Vec<Span>,
    /// The TCP replay with tracing on.
    pub net: Outcome,
    /// Service counters after the in-process replay.
    pub server_metrics: anyk_server::ServiceMetrics,
    /// The served snapshot's index-cache counters after that replay.
    pub index_cache: anyk_storage::IndexCacheStats,
    /// Delay histogram merged over the engine replay's cursors.
    pub delays: anyk_obs::HistogramSnapshot,
    /// Per-pair `(on − off) / off` of recording on vs off, in percent.
    pub recording_pct: Vec<f64>,
}

/// The traced run: an untraced TCP pass of `seconds / 4` fixes the
/// requests; then the same requests are replayed over TCP, against the
/// service, against the engine, through the parser and through index
/// builds, each recording spans.
pub fn run_traced(s: &Setup, seconds: f64) -> Traced {
    let schedule = &s.schedule;
    let warm = warmup_sessions(schedule.workload);
    // Every replay runs on the setup's service and its cached plans: the
    // speed of a service's plans differs by up to ±15% from one service to
    // the next, which would swamp the small self times taken as differences
    // between replays.
    let served = &s.served;
    let (baseline, end) = run_end_to_end(schedule, served, 0, warm, seconds / 4.0);
    let batches = baseline.outcome.ingests.len();
    let epoch = Instant::now();
    let mut spans = Vec::new();

    // net: the same requests over TCP, traced.
    let net_layer = Net {
        addr: served.server.local_addr(),
    };
    let net = replay(&net_layer, schedule, warm, end, batches, epoch);
    spans.extend(net.spans.iter().cloned());

    // server: the same requests in process.
    let server_layer = Server {
        service: Arc::clone(&served.service),
    };
    spans.extend(replay(&server_layer, schedule, warm, end, batches, epoch).spans);
    let server_metrics = served.service.metrics();
    let index_cache = served.service.index_cache_stats();

    // engine: the service's own plans and snapshot, called directly. The
    // warm plans' compile time is measured on fresh copies, as setup pays it.
    let db = served.service.database();
    let mut buf = SpanBuf::new(true, epoch);
    let plans: Vec<_> = schedule
        .plans
        .iter()
        .enumerate()
        .map(|(p, plan)| {
            let text = plan
                .text
                .as_deref()
                .filter(|_| schedule.workload.prepares_plans())?;
            let spec = QuerySpec::parse(text).expect("plan text parses");
            let fresh = Arc::new(s.data.db.clone());
            buf.timed(
                "engine.prepare",
                SETUP_REQUEST + p as u64,
                0,
                None,
                |_, _| PreparedQuery::from_spec_delta(fresh, &spec).expect("plan compiles"),
            );
            let cached = served.service.prepare_spec(&spec).expect("cached plan");
            Some((spec, cached))
        })
        .collect();
    spans.extend(buf.spans);
    let engine = Engine::new(db, plans);
    spans.extend(replay(&engine, schedule, warm, end, batches, epoch).spans);
    let delays = engine.delays.into_inner().expect("delay lock");

    // query and storage: single-threaded, their calls are independent.
    let mut buf = SpanBuf::new(true, epoch);
    for i in warm..end {
        let req = schedule.session(i);
        let (key, _) = buf.timed("query.parse", req.id, 0, None, |_, _| {
            QuerySpec::parse(&req.text).map(|spec| spec.plan_key())
        });
        std::hint::black_box(key.expect("schedule text parses"));
    }
    let requests: Vec<(u64, String)> = if schedule.workload.prepares_plans() {
        let texts = schedule
            .plans
            .iter()
            .map(|p| p.text.clone().expect("plan text"));
        (0..).map(|p| SETUP_REQUEST + p).zip(texts).collect()
    } else {
        (warm..end)
            .map(|i| schedule.session(i))
            .map(|r| (r.id, r.text))
            .collect()
    };
    for (id, text) in requests {
        let spec = QuerySpec::parse(&text).expect("schedule text parses");
        let inputs = index_inputs(&s.data.db, &spec);
        buf.timed("storage.index_build", id, 0, None, |_, _| {
            for (rel, cols) in &inputs {
                std::hint::black_box(HashIndex::build(rel, cols));
            }
        });
    }
    spans.extend(buf.spans);

    let recording_pct = recording_overhead(s, warm, end, seconds / 10.0);
    Traced {
        baseline,
        spans,
        net,
        server_metrics,
        index_cache,
        delays,
        recording_pct,
    }
}

/// Replay sessions `[warm, end)` and `batches` ingests with spans on, after
/// the same untraced warm-up the timed run had.
fn replay<L: Layer>(
    layer: &L,
    schedule: &Schedule,
    warm: usize,
    end: usize,
    batches: usize,
    epoch: Instant,
) -> Outcome {
    drive_layer(layer, schedule, 0, Stop::Count(warm), None, false, epoch);
    drive_layer(
        layer,
        schedule,
        warm,
        Stop::Count(end),
        Some(Stop::Count(batches)),
        true,
        epoch,
    )
}

/// The relations and key columns a plan for `spec` indexes, approximated as
/// one index per pair of consecutive atoms that share variables (the
/// earlier atom keyed on the shared columns), over the filtered copy where
/// a selection applies.
fn index_inputs(db: &Database, spec: &QuerySpec) -> Vec<(Relation, Vec<usize>)> {
    let relation = |atom: &anyk_query::Atom| -> Relation {
        let rel = db.expect(&atom.relation);
        let consts: Vec<(usize, Option<u64>)> = spec
            .predicates
            .iter()
            .flat_map(|p| {
                atom.variables
                    .iter()
                    .enumerate()
                    .filter(move |(_, v)| **v == p.variable)
                    .map(move |(col, _)| {
                        let value = match &p.constant {
                            Constant::Int(v) => Some(*v),
                            Constant::Str(s) => rel.dictionary(col).and_then(|d| d.lookup(s)),
                        };
                        (col, value)
                    })
            })
            .collect();
        rel.filter(rel.name(), |row| {
            consts.iter().all(|&(col, v)| Some(row.value(col)) == v)
        })
    };
    spec.atoms
        .windows(2)
        .filter_map(|pair| {
            let cols: Vec<usize> = pair[0]
                .variables
                .iter()
                .enumerate()
                .filter(|(_, v)| pair[1].variables.contains(v))
                .map(|(c, _)| c)
                .collect();
            (!cols.is_empty()).then(|| (relation(&pair[0]), cols))
        })
        .collect()
}

/// Engine pages with `anyk_obs` recording off and on, interleaved pair by
/// pair (the order alternates), over the schedule's requests for about
/// `budget` seconds. Returns each pair's `(on − off) / off` in percent.
fn recording_overhead(s: &Setup, warm: usize, end: usize, budget: f64) -> Vec<f64> {
    let db = Arc::new(s.data.db.clone());
    let mut plans: HashMap<String, Arc<PreparedQuery>> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut pct = Vec::new();
    // Deep sessions are cut to ten pages so that several pairs fit.
    let max_pages = 10;
    let mut i = warm;
    while Instant::now() < deadline && pct.len() < 400 {
        let req = s.schedule.session(warm + (i - warm) % (end - warm).max(1));
        i += 1;
        let spec = QuerySpec::parse(&req.text).expect("schedule text parses");
        let prepared = Arc::clone(plans.entry(spec.plan_key()).or_insert_with(|| {
            Arc::new(PreparedQuery::from_spec_delta(Arc::clone(&db), &spec).expect("plan"))
        }));
        let algorithm = spec.algorithm.unwrap_or(anyk_server::DEFAULT_ALGORITHM);
        let time = |on: bool| {
            set_recording(on);
            let mut cursor = prepared.cursor_with_limit(algorithm, spec.limit);
            let mut out = Vec::with_capacity(req.page_size);
            let (mut served, mut took) = (0, Duration::ZERO);
            for _ in 0..max_pages {
                let t = Instant::now();
                let done = cursor.next_page_into(req.page_size, &mut out);
                took += t.elapsed();
                served += out.len();
                if done || served >= req.k {
                    break;
                }
            }
            took.as_secs_f64()
        };
        let (on, off) = if i.is_multiple_of(2) {
            let on = time(true);
            (on, time(false))
        } else {
            let off = time(false);
            (time(true), off)
        };
        if off > 0.0 {
            pct.push((on - off) / off * 100.0);
        }
    }
    set_recording(true);
    pct
}

/// Per-layer metrics derived from a traced run, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Traced, workload: Workload) -> Vec<Metric> {
    let idx = SpanIndex::new(&t.spans);
    let q = workload.tail_quantile();
    let base = &t.baseline.outcome;

    // Self times pair the replays request by request (and page by page):
    // the same request runs the same plan and algorithm in every replay,
    // so the differences do not mix modes the way pooled medians would.
    let med = |keys: &[(u64, u32)], f: &dyn Fn(u64, u32) -> f64| -> f64 {
        stats::median(&keys.iter().map(|&(r, p)| f(r, p)).collect::<Vec<_>>())
    };
    let sessions: Vec<(u64, u32)> = ok(&t.net.sessions).map(|r| (r.id, 0)).collect();
    let pages_all: Vec<(u64, u32)> = idx.keys("net.page").collect();
    let pages_later: Vec<(u64, u32)> = pages_all.iter().copied().filter(|k| k.1 >= 2).collect();
    let batches: Vec<(u64, u32)> = ok_ingests(&t.net.ingests)
        .map(|r| (INGEST_REQUEST + r.batch as u64, 0))
        .collect();

    let engine_open = |r| {
        idx.get("engine.prepare", r, 0)
            + idx.get("engine.cursor_open", r, 0)
            + idx.get("engine.mem_stats", r, 0)
    };
    let engine_page = |r, p| idx.get("engine.page", r, p) + idx.get("engine.mem_stats", r, p);
    let engine_ingest = |b| {
        idx.get("storage.apply_delta", b, 0)
            + idx.get("engine.refresh", b, 0)
            + idx.get("engine.prepare", b, 0)
    };
    let query = |r| idx.get("query.parse", r, 0);
    let storage = |r| {
        if workload.prepares_plans() {
            0.0
        } else {
            idx.get("storage.index_build", r, 0)
        }
    };
    let net_ttf = |r| idx.get("net.open", r, 0) + idx.get("net.page", r, 1);
    let server_ttf = |r| idx.get("server.open", r, 0) + idx.get("server.page", r, 1);
    let engine_ttf = |r| engine_open(r) + engine_page(r, 1);

    let ttf_self = [
        med(&sessions, &|r, _| net_ttf(r) - server_ttf(r)),
        med(&sessions, &|r, _| server_ttf(r) - engine_ttf(r) - query(r)),
        med(&sessions, &|r, _| query(r)),
        med(&sessions, &|r, _| engine_ttf(r) - storage(r)),
        med(&sessions, &|r, _| storage(r)),
    ];
    let page_self = [
        med(&pages_later, &|r, p| {
            idx.get("net.page", r, p) - idx.get("server.page", r, p)
        }),
        med(&pages_later, &|r, p| {
            idx.get("server.page", r, p) - engine_page(r, p)
        }),
        med(&pages_later, &engine_page),
    ];
    let baseline_ttf: HashMap<u64, f64> = ok(&base.sessions).map(|r| (r.id, r.ttf_ms)).collect();
    let trace_overhead = med(&sessions, &|r, _| {
        let before = baseline_ttf.get(&r).copied().unwrap_or(f64::NAN);
        (net_ttf(r) * 1e-3 - before) / before * 100.0
    });

    let e2e_ttf = ttf(base, q);
    let e2e_page = pages(base, q);
    let e2e_ingest = ingests(base, q);
    let (attempted, failed) = fail_counts(std::slice::from_ref(&t.baseline));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = &t.server_metrics;
    let plan_lookups = m.plan_hits + m.plan_misses;
    let cache_lookups = t.index_cache.hits + t.index_cache.misses;
    let mem_units = last_mem_units(&t.spans);
    let answers: Vec<f64> = ok(&t.net.sessions).map(|r| r.answers as f64).collect();
    let ms = 1e-3;
    let ttf_sum: f64 = ttf_self.iter().sum::<f64>() * ms;
    let page_sum: f64 = page_self.iter().sum::<f64>() * ms;

    vec![
        (
            "storage.index_build_ms",
            idx.median("storage.index_build", |_| true) * ms,
            "ms",
        ),
        (
            "storage.index_cache_hit_ratio",
            ratio(t.index_cache.hits as f64, cache_lookups as f64),
            "ratio",
        ),
        ("storage.index_cache_lookups", cache_lookups as f64, "count"),
        (
            "storage.apply_delta_ms",
            idx.median("storage.apply_delta", |_| true) * ms,
            "ms",
        ),
        ("query.parse_us", ttf_self[2], "us"),
        (
            "engine.prepare_ms",
            idx.median("engine.prepare", |_| true) * ms,
            "ms",
        ),
        (
            "engine.refresh_ms",
            idx.median("engine.refresh", |_| true) * ms,
            "ms",
        ),
        (
            "engine.cursor_open_us",
            idx.median("engine.cursor_open", |_| true),
            "us",
        ),
        (
            "engine.first_page_us",
            idx.median("engine.page", |s| s.seq == 1),
            "us",
        ),
        (
            "engine.page_us",
            idx.median("engine.page", |s| s.seq >= 2),
            "us",
        ),
        (
            "engine.mem_stats_us",
            idx.median("engine.mem_stats", |s| s.value > 0),
            "us",
        ),
        ("engine.delay_ns.p50", t.delays.p50() as f64, "ns"),
        ("engine.delay_ns.p99", t.delays.p99() as f64, "ns"),
        ("engine.mem_units", mem_units, "count"),
        (
            "server.open_us",
            med(&sessions, &|r, _| {
                idx.get("server.open", r, 0) - engine_open(r) - query(r)
            }),
            "us",
        ),
        (
            "server.page_us",
            med(&pages_all, &|r, p| {
                idx.get("server.page", r, p) - engine_page(r, p)
            }),
            "us",
        ),
        (
            "server.close_us",
            med(&sessions, &|r, _| {
                idx.get("server.close", r, 0) - idx.get("engine.close", r, 0)
            }),
            "us",
        ),
        (
            "server.ingest_ms",
            med(&batches, &|b, _| {
                idx.get("server.ingest", b, 0) - engine_ingest(b)
            }) * ms,
            "ms",
        ),
        (
            "server.plan_hit_ratio",
            ratio(m.plan_hits as f64, plan_lookups as f64),
            "ratio",
        ),
        ("server.plan_lookups", plan_lookups as f64, "count"),
        ("server.plan_misses", m.plan_misses as f64, "count"),
        (
            "server.mem_units_peak",
            m.peak_mem_resident_units as f64,
            "count",
        ),
        ("server.sessions_shed", m.sessions_shed as f64, "count"),
        ("server.sessions_opened", m.sessions_opened as f64, "count"),
        (
            "net.open_us",
            med(&sessions, &|r, _| {
                idx.get("net.open", r, 0) - idx.get("server.open", r, 0)
            }),
            "us",
        ),
        (
            "net.page_us",
            med(&pages_all, &|r, p| {
                idx.get("net.page", r, p) - idx.get("server.page", r, p)
            }),
            "us",
        ),
        (
            "net.ingest_us",
            med(&batches, &|b, _| {
                idx.get("net.ingest", b, 0) - idx.get("server.ingest", b, 0)
            }),
            "us",
        ),
        (
            "obs.recording_overhead_pct",
            stats::median(&t.recording_pct),
            "%",
        ),
        (
            "obs.recording_overhead_iqr_pct",
            stats::iqr(&t.recording_pct),
            "%",
        ),
        ("obs.pairs", t.recording_pct.len() as f64, "count"),
        ("bench.trace_overhead_pct", trace_overhead, "%"),
        ("bench.generator_lateness_ms", lateness_ms(base), "ms"),
        ("self.ttf.net_ms", ttf_self[0] * ms, "ms"),
        ("self.ttf.server_ms", ttf_self[1] * ms, "ms"),
        ("self.ttf.query_ms", ttf_self[2] * ms, "ms"),
        ("self.ttf.engine_ms", ttf_self[3] * ms, "ms"),
        ("self.ttf.storage_ms", ttf_self[4] * ms, "ms"),
        ("attr.ttf_self_sum_ms", ttf_sum, "ms"),
        ("attr.ttf_e2e_ms", e2e_ttf.p50, "ms"),
        ("attr.ttf_ratio", ratio(ttf_sum, e2e_ttf.p50), "ratio"),
        ("self.page.net_ms", page_self[0] * ms, "ms"),
        ("self.page.server_ms", page_self[1] * ms, "ms"),
        ("self.page.engine_ms", page_self[2] * ms, "ms"),
        ("attr.page_self_sum_ms", page_sum, "ms"),
        ("attr.page_e2e_ms", e2e_page.p50, "ms"),
        ("attr.page_ratio", ratio(page_sum, e2e_page.p50), "ratio"),
        ("e2e.ttf_ms.tail", e2e_ttf.tail, "ms"),
        ("e2e.page_ms.p50", e2e_page.p50, "ms"),
        ("e2e.page_ms.tail", e2e_page.tail, "ms"),
        ("e2e.ingest_ms.p50", e2e_ingest.p50, "ms"),
        ("e2e.ingest_ms.tail", e2e_ingest.tail, "ms"),
        (
            "e2e.fail_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        ("e2e.attempted", attempted as f64, "count"),
        ("count.sessions", sessions.len() as f64, "count"),
        (
            "count.answers_per_session",
            stats::median(&answers),
            "count",
        ),
    ]
}

/// Median over sessions of the MEM(k) units charged after the session's
/// last page (sessions whose algorithm reports none are left out).
fn last_mem_units(spans: &[Span]) -> f64 {
    let mut last: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "engine.mem_stats") {
        let e = last.entry(s.request).or_insert((s.seq, s.value));
        if s.seq >= e.0 {
            *e = (s.seq, s.value);
        }
    }
    let units: Vec<f64> = last
        .values()
        .filter(|(_, v)| *v > 0)
        .map(|&(_, v)| v as f64)
        .collect();
    stats::median(&units)
}

/// Span durations (µs) keyed by name, request and page.
struct SpanIndex<'a> {
    spans: &'a [Span],
    by_key: HashMap<(&'static str, u64, u32), f64>,
}

impl<'a> SpanIndex<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut by_key = HashMap::new();
        for s in spans {
            *by_key.entry((s.name, s.request, s.seq)).or_insert(0.0) += s.us();
        }
        SpanIndex { spans, by_key }
    }

    /// Total µs of `name` spans for one request and page (0 if none).
    fn get(&self, name: &'static str, request: u64, seq: u32) -> f64 {
        self.by_key
            .get(&(name, request, seq))
            .copied()
            .unwrap_or(0.0)
    }

    /// `(request, page)` keys of `name` spans, sorted.
    fn keys(&self, name: &'static str) -> impl Iterator<Item = (u64, u32)> {
        let mut keys: Vec<(u64, u32)> = self
            .by_key
            .keys()
            .filter(|k| k.0 == name)
            .map(|k| (k.1, k.2))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Median µs of the `name` spans that `keep` accepts.
    fn median(&self, name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(Span::us)
            .collect();
        stats::median(&v)
    }
}
