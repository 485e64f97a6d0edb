//! Answer-correctness checks. Every check returns `Err(reason)` on a wrong
//! stream; each failure counts against `fail_ratio` and marks
//! the run incorrect.
//!
//! Ranked enumeration fixes the order of weights but not the order of
//! answers that tie on weight (text3's integer weights tie heavily), so
//! pages are compared weight by weight and, within each weight, as value
//! multisets. Algorithms add an answer's tuple weights in different orders,
//! so equal weights may differ in the last bits; weights count as equal
//! within [`close`], the tolerance the repository's own equivalence tests
//! use.

use anyk_engine::Answer;
use std::collections::HashMap;

/// Every workload ranks by ascending sum: weights must never decrease.
pub fn non_decreasing(weights: &[f64]) -> Result<(), String> {
    match weights.windows(2).position(|w| w[1] < w[0]) {
        Some(i) => Err(format!(
            "weight fell from {} to {} at rank {}",
            weights[i],
            weights[i + 1],
            i + 1
        )),
        None => Ok(()),
    }
}

/// Whether two answer weights are equal up to summation order: within
/// 1e-9, relative to weights above 1.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(1.0)
}

/// Two streams of one plan must rank identically: the same weight at every
/// rank, up to [`close`].
pub fn same_weights(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} answers, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| !close(*a, *b)) {
        Some(i) => Err(format!(
            "weight {} at rank {i}, expected {}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// Check the prefix `page` of a ranked stream against `reference`, a
/// ranked list of the same query's answers that is either complete or
/// extends past the last weight `page` contains.
///
/// The page must be as long as the reference allows (`min(len, wanted)`),
/// carry the reference's weights rank by rank, and hold, for each weight, a
/// sub-multiset of the reference's answers of that weight. Equal weights
/// rank by rank make that sub-multiset the whole tie group, except for the
/// last group when the page cuts it.
pub fn page_matches(page: &[Answer], reference: &[Answer], wanted: usize) -> Result<(), String> {
    let expect_len = wanted.min(reference.len());
    if page.len() != expect_len {
        return Err(format!(
            "page holds {} answers, expected {expect_len}",
            page.len()
        ));
    }
    let page_weights: Vec<f64> = page.iter().map(Answer::weight).collect();
    let ref_weights: Vec<f64> = reference[..expect_len].iter().map(Answer::weight).collect();
    same_weights(&page_weights, &ref_weights)?;
    let mut start = 0;
    while start < page.len() {
        let w = page[start].weight();
        let end = start
            + page[start..]
                .iter()
                .take_while(|a| close(a.weight(), w))
                .count();
        let ref_end = start
            + reference[start..]
                .iter()
                .take_while(|a| close(a.weight(), w))
                .count();
        let mut pool: HashMap<&[u64], isize> = HashMap::new();
        for a in &reference[start..ref_end] {
            *pool.entry(a.values()).or_default() += 1;
        }
        for a in &page[start..end] {
            let slot = pool.entry(a.values()).or_default();
            *slot -= 1;
            if *slot < 0 {
                return Err(format!(
                    "answer {:?} (weight {}) is not among the reference's answers of that weight",
                    a.values(),
                    a.weight()
                ));
            }
        }
        start = end;
    }
    Ok(())
}

/// Pull answers from `stream` up to `wanted`, then on through the tie group
/// of the last one, so the result can serve as a [`page_matches`] reference.
pub fn reference_prefix(stream: impl Iterator<Item = Answer>, wanted: usize) -> Vec<Answer> {
    let mut out: Vec<Answer> = Vec::new();
    for a in stream {
        if out.len() >= wanted && out.last().is_some_and(|l| !close(l.weight(), a.weight())) {
            break;
        }
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(w: f64, v: u64) -> Answer {
        Answer::new(w, vec![v], vec![])
    }

    #[test]
    fn ties_may_reorder_within_a_weight() {
        let reference = vec![a(1.0, 1), a(1.0, 2), a(2.0, 3), a(2.0, 4), a(2.0, 5)];
        let page = vec![a(1.0, 2), a(1.0, 1), a(2.0, 5)];
        assert!(page_matches(&page, &reference, 3).is_ok());
    }

    #[test]
    fn reference_prefix_runs_through_the_last_tie_group() {
        let stream = vec![a(1.0, 1), a(2.0, 2), a(2.0, 3), a(3.0, 4)];
        assert_eq!(reference_prefix(stream.into_iter(), 2).len(), 3);
    }
}
