//! Output checks. Each compares what the program returned against a
//! reference computed apart from the path under test, and each is
//! unit-tested to fail on a perturbed probability or a dropped
//! response.

use serde::Deserialize;

/// Operations attempted and failed in one run. A non-200, a panic and
/// a failed output check each count as one failure; `wrong` counts the
/// failed output checks alone (answers that came back but were wrong).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Counts one operation; returns `ok` so call sites can chain.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one operation from a check result, logging the first few
    /// failures to stderr so a failing run says why.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = &result {
            if self.wrong < 5 {
                eprintln!("check failed: {what}: {e}");
            }
            self.wrong += 1;
        }
        self.record(result.is_ok());
    }
}

/// Served probabilities must equal the reference bit for bit; `None`
/// is a dropped or unparseable response.
pub fn bitwise_equal(expected: &[f32], served: Option<&[f32]>) -> Result<(), String> {
    let served = served.ok_or("no probabilities in the response")?;
    if expected.len() != served.len() {
        return Err(format!(
            "{} classes served, {} expected",
            served.len(),
            expected.len()
        ));
    }
    match expected
        .iter()
        .zip(served)
        .position(|(e, s)| e.to_bits() != s.to_bits())
    {
        None => Ok(()),
        Some(k) => Err(format!(
            "class {k}: served {} != reference {}",
            served[k], expected[k]
        )),
    }
}

/// Served probabilities must lie within `tol` of the reference.
pub fn within(expected: &[f32], served: Option<&[f32]>, tol: f32) -> Result<(), String> {
    let served = served.ok_or("no probabilities in the response")?;
    if expected.len() != served.len() {
        return Err(format!(
            "{} classes served, {} expected",
            served.len(),
            expected.len()
        ));
    }
    for (k, (e, s)) in expected.iter().zip(served).enumerate() {
        // Written so a NaN on either side fails.
        let close = (e - s).abs() <= tol;
        if !close {
            return Err(format!(
                "class {k}: served {s} vs reference {e} (tolerance {tol})"
            ));
        }
    }
    Ok(())
}

/// Every training loss is finite, and there is one per epoch.
pub fn losses_finite(losses: &[f32], epochs: usize) -> Result<(), String> {
    if losses.len() != epochs {
        return Err(format!("{} losses for {epochs} epochs", losses.len()));
    }
    match losses.iter().position(|l| !l.is_finite()) {
        None => Ok(()),
        Some(e) => Err(format!("epoch {e} loss is {}", losses[e])),
    }
}

/// First index of the largest value.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (k, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = k;
        }
    }
    best
}

/// Each probability row sums to 1 within `tol`, and its argmax is the
/// label `predict` returned for the same node.
pub fn proba_rows_consistent(
    rows: &[Vec<f32>],
    predicted: &[usize],
    tol: f32,
) -> Result<(), String> {
    if rows.len() != predicted.len() {
        return Err(format!(
            "{} probability rows, {} predictions",
            rows.len(),
            predicted.len()
        ));
    }
    for (i, (row, &label)) in rows.iter().zip(predicted).enumerate() {
        let sum: f32 = row.iter().sum();
        let normalised = (sum - 1.0).abs() <= tol;
        if !normalised {
            return Err(format!("row {i} sums to {sum}"));
        }
        if argmax(row) != label {
            return Err(format!(
                "row {i}: argmax {} but predict says {label}",
                argmax(row)
            ));
        }
    }
    Ok(())
}

/// Accuracy of `predicted` against `truth`, and the share of the most
/// common true label (what always answering that label would score).
pub fn accuracy_and_majority(predicted: &[usize], truth: &[usize]) -> (f64, f64) {
    let classes = truth.iter().max().map_or(0, |m| m + 1);
    let mut counts = vec![0usize; classes];
    for &t in truth {
        counts[t] += 1;
    }
    let n = truth.len().max(1) as f64;
    let majority = *counts.iter().max().unwrap_or(&0) as f64 / n;
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    (correct as f64 / n, majority)
}

/// Accuracy of `predicted` against `truth` must beat always answering
/// the most common true label (the majority share is counted from
/// `truth` itself).
pub fn beats_majority(predicted: &[usize], truth: &[usize]) -> Result<(), String> {
    if predicted.len() != truth.len() || truth.is_empty() {
        return Err(format!(
            "{} predictions for {} labels",
            predicted.len(),
            truth.len()
        ));
    }
    let (accuracy, majority) = accuracy_and_majority(predicted, truth);
    if accuracy > majority {
        Ok(())
    } else {
        Err(format!(
            "accuracy {accuracy:.4} does not beat the majority share {majority:.4}"
        ))
    }
}

#[derive(Deserialize)]
struct PredictReply {
    probabilities: Vec<f32>,
}

#[derive(Deserialize)]
struct BatchReply {
    results: Vec<Vec<f32>>,
}

/// The probabilities of a `/v1/predict` response body.
pub fn predict_probabilities(body: &str) -> Option<Vec<f32>> {
    serde_json::from_str::<PredictReply>(body)
        .ok()
        .map(|r| r.probabilities)
}

/// The per-item probabilities of a `/v1/predict_batch` response body.
pub fn batch_results(body: &str) -> Option<Vec<Vec<f32>>> {
    serde_json::from_str::<BatchReply>(body)
        .ok()
        .map(|r| r.results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nudge(x: f32) -> f32 {
        f32::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn bitwise_check_fails_on_a_perturbed_or_dropped_response() {
        let reference = [0.25f32, 0.75];
        assert!(bitwise_equal(&reference, Some(&[0.25, 0.75])).is_ok());
        assert!(bitwise_equal(&reference, Some(&[0.25, nudge(0.75)])).is_err());
        assert!(bitwise_equal(&reference, Some(&[0.25])).is_err());
        assert!(bitwise_equal(&reference, None).is_err());
    }

    #[test]
    fn tolerance_check_fails_beyond_its_bound_or_on_a_dropped_response() {
        let reference = [0.4f32, 0.6];
        assert!(within(&reference, Some(&[0.400_005, 0.599_995]), 1e-5).is_ok());
        assert!(within(&reference, Some(&[0.4001, 0.5999]), 1e-5).is_err());
        assert!(within(&reference, Some(&[f32::NAN, 0.6]), 1e-5).is_err());
        assert!(within(&reference, None, 1e-5).is_err());
    }

    #[test]
    fn response_parsers_read_the_wire_shapes() {
        let single =
            r#"{"mode":"binary","labels":["fake","credible"],"probabilities":[0.25,0.75]}"#;
        assert_eq!(predict_probabilities(single), Some(vec![0.25, 0.75]));
        let batch = r#"{"mode":"binary","labels":["fake","credible"],"results":[[0.5,0.5],[1,0]]}"#;
        assert_eq!(
            batch_results(batch),
            Some(vec![vec![0.5, 0.5], vec![1.0, 0.0]])
        );
        // A dropped body or an error body yields nothing to compare, so
        // the bitwise check downstream fails.
        assert_eq!(predict_probabilities(""), None);
        assert_eq!(predict_probabilities(r#"{"error":"queue full"}"#), None);
        assert!(bitwise_equal(&[0.25, 0.75], predict_probabilities("").as_deref()).is_err());
    }

    #[test]
    fn float_text_round_trips_bitwise() {
        // The server widens f32 to f64 for JSON; reading back must give
        // the same bits, or the bitwise checks would be meaningless.
        let probs = vec![0.1f32, 1.0 / 3.0, nudge(0.7)];
        let body = format!(
            r#"{{"probabilities":{}}}"#,
            serde_json::to_string(&probs).unwrap()
        );
        assert!(bitwise_equal(&probs, predict_probabilities(&body).as_deref()).is_ok());
    }

    #[test]
    fn loss_check_fails_on_non_finite_or_missing_epochs() {
        assert!(losses_finite(&[3.0, 2.0], 2).is_ok());
        assert!(losses_finite(&[3.0, f32::NAN], 2).is_err());
        assert!(losses_finite(&[3.0, f32::INFINITY], 2).is_err());
        assert!(losses_finite(&[3.0], 2).is_err());
    }

    #[test]
    fn proba_check_fails_on_bad_sums_wrong_argmax_or_dropped_rows() {
        let rows = vec![vec![0.3f32, 0.7], vec![0.9, 0.1]];
        assert!(proba_rows_consistent(&rows, &[1, 0], 1e-4).is_ok());
        assert!(proba_rows_consistent(&rows, &[1, 1], 1e-4).is_err());
        let off = vec![vec![0.3f32, 0.7002], vec![0.9, 0.1]];
        assert!(proba_rows_consistent(&off, &[1, 0], 1e-4).is_err());
        assert!(proba_rows_consistent(&rows[..1], &[1, 0], 1e-4).is_err());
    }

    #[test]
    fn majority_check_counts_the_majority_itself() {
        let truth = [1, 1, 1, 0];
        // Always answering 1 only ties the majority share: not enough.
        assert!(beats_majority(&[1, 1, 1, 1], &truth).is_err());
        assert!(beats_majority(&[1, 1, 1, 0], &truth).is_ok());
        assert!(beats_majority(&[1, 1, 1], &truth).is_err());
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false);
        t.check("x", Err("bad".into()));
        t.check("y", Ok(()));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2,
                wrong: 1
            }
        );
    }
}
