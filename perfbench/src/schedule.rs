//! Workloads and their seeded request schedules.
//!
//! A schedule is a pure function of the seed and the generated data: request
//! `i` is computed from `(seed, i)` alone, so every run with one seed sends
//! byte-identical requests in the same order, whichever client thread
//! happens to draw index `i`.

use crate::data::{Datasets, PATH_DOMAIN_DIVISOR};
use anyk_core::AnyKAlgorithm;
use anyk_query::QuerySpec;
use anyk_server::DEFAULT_ALGORITHM;
use anyk_storage::{DeltaBatch, Tuple};
use std::fmt::Write as _;
use std::time::Duration;

/// The four traffic mixes; see `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Top-10 selective path4/text3 queries, every constant fresh: each open
    /// misses the plan cache, so TTF includes preprocessing.
    ColdTopk,
    /// Top-10 sessions over three plans prepared during setup.
    WarmTopk,
    /// Pages of 1000 up to k = 100 000 over path4 and cycle6, alternating
    /// Take2 and Recursive.
    DeepPage,
    /// One reader running the warm loop beside one open-loop writer.
    IngestMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdTopk,
        Workload::WarmTopk,
        Workload::DeepPage,
        Workload::IngestMix,
    ];

    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTopk => "cold_topk",
            Workload::WarmTopk => "warm_topk",
            Workload::DeepPage => "deep_page",
            Workload::IngestMix => "ingest_mix",
        }
    }

    /// The percentile reported as the TTF tail: one that keeps at least ten
    /// samples beyond it at a 15-second run on a 2-core machine (cold_topk
    /// completes ≈ 1200 sessions, deep_page ≈ 70; the warm loops thousands).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ColdTopk => 0.90,
            Workload::WarmTopk => 0.99,
            Workload::DeepPage => 0.75,
            Workload::IngestMix => 0.99,
        }
    }

    /// Plans this workload's sessions run on, by index into [`Schedule::plans`].
    fn plan_templates(self) -> &'static [PlanTemplate] {
        match self {
            Workload::ColdTopk => &[PlanTemplate::Path4Select, PlanTemplate::Text3Select],
            Workload::WarmTopk => &[
                PlanTemplate::Path4,
                PlanTemplate::Star3,
                PlanTemplate::Text3,
            ],
            Workload::DeepPage => &[PlanTemplate::Path4, PlanTemplate::Cycle6],
            Workload::IngestMix => &[PlanTemplate::Path4, PlanTemplate::Path4Select],
        }
    }

    /// Whether the workload's plans are prepared during setup (and so fit
    /// the plan cache for the whole run).
    pub fn prepares_plans(self) -> bool {
        self != Workload::ColdTopk
    }

    /// Whether each timed round runs on a fresh service. Where one set of
    /// plans serves the whole run, the plans' speed differs by up to ±15%
    /// from one service to the next, so a run measures several services.
    /// cold_topk and ingest_mix make new plans with every request or batch
    /// and keep one service, whose memory then stays steady from run to run.
    pub fn fresh_service_per_round(self) -> bool {
        matches!(self, Workload::WarmTopk | Workload::DeepPage)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanTemplate {
    Path4,
    Star3,
    Text3,
    Cycle6,
    /// path4 with `x1 = c` on the endpoint variable.
    Path4Select,
    /// text3 with `x1 = "user"` on the endpoint variable.
    Text3Select,
}

/// One client session: open `text`, pull pages of `page_size` until `k`
/// answers (or exhaustion), close.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReq {
    /// Schedule index: the request id shared by every span of this session.
    pub id: u64,
    /// Index into [`Schedule::plans`] of the plan this session runs on.
    pub plan: usize,
    /// The request text sent to the server (algorithm clause included).
    pub text: String,
    /// Answers requested per page.
    pub page_size: usize,
    /// Answers the session pulls before closing.
    pub k: usize,
}

impl SessionReq {
    /// The algorithm the request text pins, or the service default.
    pub fn algorithm(&self) -> AnyKAlgorithm {
        QuerySpec::parse(&self.text)
            .ok()
            .and_then(|s| s.algorithm)
            .unwrap_or(DEFAULT_ALGORITHM)
    }
}

/// A named plan the schedule's sessions draw from. Selective templates
/// have no fixed text: each request binds its own constant.
#[derive(Debug, Clone)]
pub struct PlanDef {
    /// Short name used in reports.
    pub name: &'static str,
    /// Request text without algorithm clause; `None` for per-request
    /// selective templates (cold_topk).
    pub text: Option<String>,
}

/// Answers per page and per session of the top-k loops.
pub const TOPK: usize = 10;
/// Answers per page on deep_page.
pub const DEEP_PAGE: usize = 1000;
/// Answers per session on deep_page.
pub const DEEP_K: usize = 100_000;
/// Spacing of ingest_mix's open-loop writer: two batches a second.
pub const INGEST_INTERVAL: Duration = Duration::from_millis(500);
/// Edits per ingest batch: ≈ 0.1% of path4's tuples, split evenly into
/// inserts and deletes over R1–R4 so relation sizes stay constant.
pub const INGEST_EDITS_PER_RELATION: usize = 25;

/// The request schedule of one workload at one seed.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The workload this schedule drives.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Plans, indexed by [`SessionReq::plan`].
    pub plans: Vec<PlanDef>,
    /// cold_topk: distinct path4 endpoint constants in seeded order.
    path_constants: Vec<u64>,
    /// cold_topk: distinct text3 endpoint usernames in seeded order.
    text_constants: Vec<String>,
    /// path4 relation size and value domain, for ingest batches.
    path_n: usize,
    path_domain: u64,
}

/// The splitmix64 finaliser: a stateless mixer so that request `i` of a
/// stream depends only on `(seed, stream, i)`.
pub fn mix(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle driven by [`mix`].
fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

const PATH4: &str = "Q(x1, x2, x3, x4, x5) :- P1(x1, x2), P2(x2, x3), P3(x3, x4), P4(x4, x5)";
const STAR3: &str = "Q(x0, y1, y2, y3) :- S1(x0, y1), S2(x0, y2), S3(x0, y3)";
const TEXT3: &str = "Q(x1, x2, x3, x4) :- T1(x1, x2), T2(x2, x3), T3(x3, x4)";
const CYCLE6: &str = "Q(x1, x2, x3, x4, x5, x6) :- C1(x1, x2), C2(x2, x3), C3(x3, x4), \
                      C4(x4, x5), C5(x5, x6), C6(x6, x1)";

fn path4_select(c: u64) -> String {
    format!("{PATH4}, x1 = {c}")
}

fn text3_select(user: &str) -> String {
    format!("{TEXT3}, x1 = \"{user}\"")
}

/// Streams of the mixer, one per independent decision.
const STREAM_PATH_CONSTANTS: u64 = 1;
const STREAM_TEXT_CONSTANTS: u64 = 2;
const STREAM_PLAN_ORDER: u64 = 3;
const STREAM_BATCH: u64 = 4;
const STREAM_INGEST_CONSTANT: u64 = 5;

impl Schedule {
    /// Build the schedule for `workload` over the generated `data`.
    pub fn new(workload: Workload, seed: u64, data: &Datasets) -> Schedule {
        let mut path_constants = Vec::new();
        let mut text_constants = Vec::new();
        let (path_n, path_domain) = data.path_shape();
        let mut plans = Vec::new();
        for template in workload.plan_templates() {
            let (name, text) = match template {
                PlanTemplate::Path4 => ("path4", Some(PATH4.to_string())),
                PlanTemplate::Star3 => ("star3", Some(STAR3.to_string())),
                PlanTemplate::Text3 => ("text3", Some(TEXT3.to_string())),
                PlanTemplate::Cycle6 => ("cycle6", Some(CYCLE6.to_string())),
                PlanTemplate::Path4Select if workload == Workload::IngestMix => {
                    let values = data.path_endpoints();
                    let c = values[(mix(seed, STREAM_INGEST_CONSTANT, 0) as usize) % values.len()];
                    ("path4_select", Some(path4_select(c)))
                }
                PlanTemplate::Path4Select => {
                    path_constants = data.path_endpoints();
                    shuffle(&mut path_constants, seed, STREAM_PATH_CONSTANTS);
                    ("path4_select", None)
                }
                PlanTemplate::Text3Select => {
                    text_constants = data.text_endpoints();
                    shuffle(&mut text_constants, seed, STREAM_TEXT_CONSTANTS);
                    ("text3_select", None)
                }
            };
            plans.push(PlanDef { name, text });
        }
        Schedule {
            workload,
            seed,
            plans,
            path_constants,
            text_constants,
            path_n,
            path_domain,
        }
    }

    /// Sessions the schedule holds before a selective constant would
    /// repeat (unbounded for the fixed-plan workloads).
    pub fn capacity(&self) -> usize {
        match self.workload {
            // Three of every four cold requests are path4.
            Workload::ColdTopk => {
                (self.path_constants.len() / 3 * 4).min(self.text_constants.len() * 4)
            }
            _ => usize::MAX,
        }
    }

    /// Sessions per block of the schedule: every block holds the
    /// workload's exact plan (and algorithm) mix.
    pub fn block(&self) -> usize {
        match self.workload {
            Workload::ColdTopk => 4,
            Workload::WarmTopk | Workload::IngestMix => 3,
            Workload::DeepPage => 6,
        }
    }

    /// The `i`-th session of the schedule.
    ///
    /// # Panics
    /// Panics past [`Schedule::capacity`] on cold_topk, where a repeated
    /// constant would hit the plan cache.
    pub fn session(&self, i: usize) -> SessionReq {
        let id = i as u64;
        match self.workload {
            Workload::ColdTopk => {
                assert!(i < self.capacity(), "cold_topk schedule exhausted");
                // A fixed 3:1 path4:text3 mix keeps the TTF median inside
                // the path4 mode instead of on the boundary between modes.
                let (plan, text) = if i % 4 == 3 {
                    (1, text3_select(&self.text_constants[i / 4]))
                } else {
                    (0, path4_select(self.path_constants[i / 4 * 3 + i % 4]))
                };
                SessionReq {
                    id,
                    plan,
                    text,
                    page_size: TOPK,
                    k: TOPK,
                }
            }
            Workload::WarmTopk => {
                // Each block of three sessions covers every plan once, in a
                // seeded order: exact proportions, seeded interleaving.
                let mut order = [0usize, 1, 2];
                shuffle(&mut order, mix(self.seed, STREAM_PLAN_ORDER, id / 3), 0);
                self.fixed(id, order[i % 3], TOPK, TOPK, None)
            }
            Workload::DeepPage => {
                // Algorithms alternate by session index. Each block of six
                // runs path4 twice and cycle6 once under each algorithm, in
                // a seeded order: a 2:1 mix keeps the TTF median inside the
                // path4 mode instead of on the boundary between modes.
                let mut order = [0usize, 0, 1];
                shuffle(&mut order, mix(self.seed, STREAM_PLAN_ORDER, id / 6), 0);
                let plan = order[i % 6 / 2];
                let algorithm = if i.is_multiple_of(2) {
                    "take2"
                } else {
                    "recursive"
                };
                self.fixed(id, plan, DEEP_PAGE, DEEP_K, Some(algorithm))
            }
            Workload::IngestMix => {
                // 2:1 path4:selection keeps the median off a mode boundary.
                self.fixed(id, usize::from(i % 3 == 2), TOPK, TOPK, None)
            }
        }
    }

    fn fixed(
        &self,
        id: u64,
        plan: usize,
        page_size: usize,
        k: usize,
        algorithm: Option<&str>,
    ) -> SessionReq {
        let base = self.plans[plan]
            .text
            .as_deref()
            .expect("fixed-plan workloads have plan text");
        let text = match algorithm {
            Some(a) => format!("{base} via {a}"),
            None => base.to_string(),
        };
        SessionReq {
            id,
            plan,
            text,
            page_size,
            k,
        }
    }

    /// The `i`-th ingest batch of ingest_mix: [`INGEST_EDITS_PER_RELATION`]
    /// distinct deletes and as many inserts in each of P1–P4. Relation
    /// sizes never change, so every tuple id below the initial size stays
    /// valid at every generation.
    pub fn batch(&self, i: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::new();
        for (r, rel) in ["P1", "P2", "P3", "P4"].into_iter().enumerate() {
            let stream = STREAM_BATCH + 16 * (r as u64 + 1);
            let mut tids: Vec<usize> = Vec::with_capacity(INGEST_EDITS_PER_RELATION);
            let mut j = 0u64;
            while tids.len() < INGEST_EDITS_PER_RELATION {
                let tid =
                    (mix(self.seed, stream, (i as u64) << 20 | j) % self.path_n as u64) as usize;
                j += 1;
                if !tids.contains(&tid) {
                    tids.push(tid);
                }
            }
            for (e, tid) in tids.into_iter().enumerate() {
                let h = mix(self.seed, stream + 1, (i as u64) << 20 | e as u64);
                let src = h % self.path_domain + 1;
                let dst = (h >> 24) % self.path_domain + 1;
                let weight = (h >> 48) as f64 / (1u64 << 16) as f64 * 10_000.0;
                batch = batch
                    .delete(rel, tid)
                    .insert(rel, Tuple::new(vec![src, dst], weight));
            }
        }
        batch
    }

    /// A byte rendering of the first `sessions` sessions and `batches`
    /// batches, for checking that a seed always yields the same requests.
    pub fn render(&self, sessions: usize, batches: usize) -> Vec<u8> {
        let mut out = String::new();
        for i in 0..sessions.min(self.capacity()) {
            let s = self.session(i);
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                s.id, s.plan, s.page_size, s.k, s.text
            );
        }
        for i in 0..batches {
            let _ = writeln!(out, "batch {i} {:?}", self.batch(i));
        }
        out.into_bytes()
    }
}

/// The path4 value domain: the paper's `n / 10`.
pub fn path_domain(n: usize) -> u64 {
    (n / PATH_DOMAIN_DIVISOR).max(1) as u64
}
