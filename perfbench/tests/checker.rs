//! The answer checker accepts a real ranked stream and rejects corrupted
//! copies of it.

use anyk_core::AnyKAlgorithm;
use anyk_engine::{Answer, PreparedQuery};
use perfbench::check::{non_decreasing, page_matches, reference_prefix, same_weights};
use perfbench::data::{Datasets, Sizes};
use perfbench::schedule::{Schedule, Workload};
use std::sync::Arc;

/// The top 50 of the warm path4 plan under Take2, and a Lazy reference.
fn stream_and_reference() -> (Vec<Answer>, Vec<Answer>) {
    let data = Datasets::generate(Workload::WarmTopk, 5, Sizes::SMALL);
    let schedule = Schedule::new(Workload::WarmTopk, 5, &data);
    let text = schedule.plans[0].text.as_deref().expect("path4 text");
    let plan = PreparedQuery::from_text(Arc::new(data.db), text).expect("plan");
    let stream = plan.top_k(AnyKAlgorithm::Take2, 50);
    let reference = reference_prefix(plan.enumerate(AnyKAlgorithm::Lazy), 50);
    (stream, reference)
}

fn weights(answers: &[Answer]) -> Vec<f64> {
    answers.iter().map(Answer::weight).collect()
}

#[test]
fn a_correct_stream_passes() {
    let (stream, reference) = stream_and_reference();
    assert_eq!(stream.len(), 50);
    non_decreasing(&weights(&stream)).expect("ranked");
    page_matches(&stream, &reference, 50).expect("matches Lazy");
    same_weights(&weights(&stream), &weights(&reference[..50])).expect("same weights");
}

#[test]
fn swapped_ranks_are_rejected() {
    let (mut stream, reference) = stream_and_reference();
    stream.swap(3, 4);
    assert!(non_decreasing(&weights(&stream)).is_err());
    assert!(page_matches(&stream, &reference, 50).is_err());
}

#[test]
fn a_wrong_answer_with_the_right_weight_is_rejected() {
    let (mut stream, reference) = stream_and_reference();
    let a = &stream[7];
    let mut values = a.values().to_vec();
    values[0] += 1_000_000;
    stream[7] = Answer::new(a.weight(), values, a.witness().to_vec());
    non_decreasing(&weights(&stream)).expect("weights are untouched");
    assert!(page_matches(&stream, &reference, 50).is_err());
}

#[test]
fn a_changed_weight_is_rejected() {
    let (mut stream, reference) = stream_and_reference();
    let a = &stream[10];
    stream[10] = Answer::new(a.weight() + 1e-3, a.values().to_vec(), a.witness().to_vec());
    assert!(page_matches(&stream, &reference, 50).is_err());
    assert!(same_weights(&weights(&stream), &weights(&reference[..50])).is_err());
}

#[test]
fn a_dropped_or_duplicated_answer_is_rejected() {
    let (stream, reference) = stream_and_reference();
    let mut short = stream.clone();
    short.remove(20);
    assert!(page_matches(&short, &reference, 50).is_err());
    let mut duplicated = stream.clone();
    duplicated[21] = duplicated[20].clone();
    assert!(page_matches(&duplicated, &reference, 50).is_err());
}

#[test]
fn streams_that_differ_in_one_weight_are_rejected() {
    let (stream, _) = stream_and_reference();
    let a = weights(&stream);
    let mut b = a.clone();
    b[49] += 0.5;
    assert!(same_weights(&a, &b).is_err());
    assert!(same_weights(&a, &a[..49]).is_err());
}
