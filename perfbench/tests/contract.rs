//! Every workload runs correctly on small inputs, end to end and traced, and
//! prints exactly the metrics `BENCHMARK.json` names, in its order.

use perfbench::bench;
use perfbench::data::Sizes;
use perfbench::schedule::Workload;

/// `(end_to_end, per_layer)` metric names and the workload names from
/// `BENCHMARK.json` (read with string scanning: the file has one `"name"`
/// per workload and metric).
fn contract() -> (Vec<String>, Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    };
    (names("workloads"), names("end_to_end"), names("per_layer"))
}

#[test]
fn workloads_and_metrics_match_benchmark_json() {
    let (workloads, end_to_end, per_layer) = contract();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for w in Workload::ALL {
        let s = bench::setup(w, 9, Sizes::SMALL);
        let mut rounds = Vec::new();
        let mut next = 0;
        for warmup in [bench::warmup_sessions(w), 0] {
            let (round, end) = bench::run_end_to_end(&s.schedule, &s.served, next, warmup, 0.3);
            next = end;
            rounds.push(round);
        }
        let (attempted, failed) = bench::fail_counts(&rounds);
        assert!(attempted > 0, "{}", w.name());
        assert_eq!(failed, 0, "{}: {:?}", w.name(), rounds[0].wrong);
        let names: Vec<&str> = bench::end_to_end_metrics(&rounds, &[0.1], w.tail_quantile())
            .iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(names, end_to_end, "{}", w.name());

        let traced = bench::run_traced(&s, 1.2);
        assert!(traced.baseline.wrong.is_empty(), "{}", w.name());
        let names: Vec<&str> = bench::layer_metrics(&traced, w)
            .iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(names, per_layer, "{}", w.name());
    }
}
