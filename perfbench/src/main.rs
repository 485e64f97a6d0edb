//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an `env` line, a `detail` line and, last, the result object of
//! `BENCHMARK.json`'s contract. With `--trace 1` it also writes the run's
//! spans to `.perfbench_out/spans-<workload>-<seed>.tsv`.

use perfbench::bench::{self, Setup};
use perfbench::data::Sizes;
use perfbench::report::{self, num, string};
use perfbench::schedule::Workload;
use perfbench::stats::{self, Summary};
use std::process::ExitCode;
use std::time::Instant;

/// Setups timed before each round; `setup_s` is the median over the run.
const SETUPS_PER_ROUND: usize = 2;
/// Timed rounds per run; medians over rounds damp stalls and (see
/// `Workload::fresh_service_per_round`) the service-to-service spread that
/// one long round would report as run-to-run noise.
const ROUNDS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"p50\": {}, \"q\": {}, \"tail\": {}}}",
        s.n,
        num(s.p50),
        s.q,
        num(s.tail)
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_start = report::loadavg();
    let w = args.workload;

    let q = w.tail_quantile();
    let (correct, attempted, failed, metrics, detail) = if args.trace {
        let s = bench::setup(w, args.seed, Sizes::DEFAULT);
        let t = bench::run_traced(&s, args.seconds);
        let (attempted, failed) = bench::fail_counts(std::slice::from_ref(&t.baseline));
        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, perfbench::trace::render(&t.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        for e in &t.baseline.wrong {
            eprintln!("perfbench: wrong answer: {e}");
        }
        let detail = format!(
            "{{\"spans\": {}, \"span_file\": {}, \"wrong\": {}}}",
            t.spans.len(),
            string(&path.display().to_string()),
            t.baseline.wrong.len()
        );
        let metrics = bench::layer_metrics(&t, w);
        (failed == 0, attempted, failed, metrics, detail)
    } else {
        // Setups are timed before every round, so that `setup_s` samples
        // the whole run rather than its first half second. Where the
        // workload asks for a fresh service per round, the round runs on
        // the last of them (warmed up again); otherwise every round runs on
        // the first setup's service and the later setups are dropped once
        // timed.
        let fresh = w.fresh_service_per_round();
        let mut setup_s = Vec::new();
        let mut current: Option<Setup> = None;
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut next = 0;
        for r in 0..ROUNDS {
            let replace = r == 0 || fresh;
            for _ in 0..SETUPS_PER_ROUND {
                if replace {
                    drop(current.take());
                }
                let t0 = if setup_s.is_empty() {
                    started
                } else {
                    Instant::now()
                };
                let s = bench::setup(w, args.seed, Sizes::DEFAULT);
                setup_s.push(t0.elapsed().as_secs_f64());
                if replace {
                    current = Some(s);
                }
            }
            let s = current.as_ref().expect("round 0 keeps a setup");
            let warmup = if replace {
                bench::warmup_sessions(w)
            } else {
                0
            };
            let slice = args.seconds / ROUNDS as f64;
            let (round, end) = bench::run_end_to_end(&s.schedule, &s.served, next, warmup, slice);
            next = end;
            rounds.push(round);
        }
        let s = current.expect("round 0 keeps a setup");
        let (attempted, failed) = bench::fail_counts(&rounds);
        for round in &rounds {
            let o = &round.outcome;
            for e in round
                .wrong
                .iter()
                .chain(o.sessions.iter().filter_map(|r| r.error.as_ref()))
                .chain(o.ingests.iter().filter_map(|r| r.error.as_ref()))
            {
                eprintln!("perfbench: {e}");
            }
        }
        let all = bench::merged(&rounds);
        let o = &all;
        let wall = o.wall.as_secs_f64();
        let ttf = bench::ttf(o, q);
        let answers = stats::sorted(o.sessions.iter().map(|r| r.answers as f64).collect());
        let total_answers: f64 = answers.iter().sum();
        let counter = |f: &dyn Fn(&(u64, u64, u64)) -> u64| -> u64 {
            rounds.iter().map(|r| f(&r.counters)).sum()
        };
        let per_round = bench::per_round(&rounds, q);
        let metrics = bench::end_to_end_metrics(&rounds, &setup_s, q);
        let list = |v: &[f64]| v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ");
        let plans: Vec<String> = bench::by_plan(&s.schedule, o)
            .into_iter()
            .map(|(key, n, ttf, page)| {
                format!(
                    "{}: {{\"sessions\": {n}, \"ttf_ms.p50\": {}, \"page_ms.p50\": {}}}",
                    string(&key),
                    num(ttf),
                    num(page)
                )
            })
            .collect();
        let detail = format!(
            "{{\"by_plan\": {{{}}}, \"rounds\": {{\"ttf_ms.p50\": [{}], \"answers_per_s\": [{}], \"sessions_per_s\": [{}]}}, \"setup_s\": [{}], \"ttf_ms\": {}, \"page_ms\": {}, \"ingest_ms\": {}, \
             \"generator_lateness_ms\": {}, \"fail_ratio\": {}, \"wall_s\": {}, \
             \"counts\": {{\"sessions\": {}, \"ingests\": {}, \"answers\": {}, \
             \"answers_per_session\": [{}, {}, {}], \"plan_hits\": {}, \"plan_misses\": {}, \
             \"mem_units_peak\": {}, \"sessions_shed\": {}}}}}",
            plans.join(", "),
            list(&per_round.0),
            list(&per_round.1),
            list(&per_round.2),
            list(&setup_s),
            summary_json(&ttf),
            summary_json(&bench::pages(o, q)),
            summary_json(&bench::ingests(o, q)),
            num(bench::lateness_ms(o)),
            num(failed as f64 / attempted.max(1) as f64),
            num(wall),
            o.sessions.len(),
            o.ingests.len(),
            total_answers,
            stats::quantile(&answers, 0.0),
            stats::quantile(&answers, 0.5),
            stats::quantile(&answers, 1.0),
            counter(&|c| c.0),
            counter(&|c| c.1),
            rounds.iter().map(|r| r.mem_units_peak).max().unwrap_or(0),
            counter(&|c| c.2),
        );
        (failed == 0, attempted, failed, metrics, detail)
    };

    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \
         \"bottom_up_threads\": {}, \"git_revision\": {}}}}}",
        string(w.name()),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        string(&load_start),
        string(&report::loadavg()),
        anyk_core::tdp::default_bottom_up_threads(),
        report::git_revision().map_or_else(|| "null".to_string(), |r| string(&r)),
    );
    println!("{{\"detail\": {detail}}}");
    println!("{}", report::result(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
