//! One seed always yields the same requests, and replaying them yields the
//! same exact counts.

use perfbench::bench::Served;
use perfbench::data::{Datasets, Sizes};
use perfbench::drive::{self, Stop};
use perfbench::layers::{Engine, Server};
use perfbench::schedule::{Schedule, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn schedule(w: Workload, seed: u64) -> (Datasets, Schedule) {
    let data = Datasets::generate(w, seed, Sizes::SMALL);
    let schedule = Schedule::new(w, seed, &data);
    (data, schedule)
}

#[test]
fn a_seed_always_yields_byte_identical_requests() {
    for w in Workload::ALL {
        let a = schedule(w, 7).1.render(120, 12);
        let b = schedule(w, 7).1.render(120, 12);
        assert_eq!(a, b, "{}", w.name());
        assert_ne!(a, schedule(w, 8).1.render(120, 12), "{}", w.name());
    }
}

/// Answers per session, plan misses, and the MEM(k) units each session is
/// charged after its last page, over the first `n` sessions replayed in
/// process on one client.
fn counts(w: Workload, seed: u64, n: usize) -> (Vec<usize>, u64, BTreeMap<u64, u64>) {
    let (data, schedule) = schedule(w, seed);
    let served = Served::start(&data.db, &schedule);
    let server = Server {
        service: Arc::clone(&served.service),
    };
    let o = drive::run(
        &server,
        &schedule,
        1,
        0,
        Stop::Count(n),
        None,
        false,
        Instant::now(),
    );
    assert!(o.sessions.iter().all(|s| s.error.is_none()), "{}", w.name());
    let answers = o.sessions.iter().map(|s| s.answers).collect();
    let misses = served.service.metrics().plan_misses;

    let db = Arc::new(data.db.clone());
    let plans = schedule
        .plans
        .iter()
        .map(|p| {
            let text = p.text.as_deref().filter(|_| w.prepares_plans())?;
            let spec = anyk_query::QuerySpec::parse(text).expect("plan text");
            let plan = anyk_engine::PreparedQuery::from_spec_delta(Arc::clone(&db), &spec)
                .expect("plan compiles");
            Some((spec, Arc::new(plan)))
        })
        .collect();
    let engine = Engine::new(db, plans);
    let o = drive::run(
        &engine,
        &schedule,
        1,
        0,
        Stop::Count(n),
        None,
        true,
        Instant::now(),
    );
    let mut mem = BTreeMap::new();
    for s in o.spans.iter().filter(|s| s.name == "engine.mem_stats") {
        mem.insert(s.request, s.value);
    }
    (answers, misses, mem)
}

#[test]
fn a_seed_always_yields_identical_counts() {
    for (w, n) in [
        (Workload::ColdTopk, 12),
        (Workload::WarmTopk, 12),
        (Workload::DeepPage, 3),
        (Workload::IngestMix, 12),
    ] {
        let first = counts(w, 3, n);
        assert_eq!(first.0.len(), n, "{}", w.name());
        assert_eq!(first, counts(w, 3, n), "{}", w.name());
    }
}
