//! Classification metrics (§VII-A "Evaluation Metrics"): accuracy,
//! precision, recall, and F1 between a predicted membership and the
//! ground-truth community.

use serde::{Deserialize, Serialize};

/// Confusion counts and derived rates for one prediction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    pub tp: usize,
    pub fp: usize,
    pub tn: usize,
    pub fn_: usize,
    pub accuracy: f64,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl Metrics {
    /// Metrics from boolean prediction/truth masks.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_masks(pred: &[bool], truth: &[bool]) -> Self {
        assert_eq!(pred.len(), truth.len(), "mask length mismatch");
        let (mut tp, mut fp, mut tn, mut fn_) = (0usize, 0usize, 0usize, 0usize);
        for (&p, &t) in pred.iter().zip(truth) {
            match (p, t) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, false) => tn += 1,
                (false, true) => fn_ += 1,
            }
        }
        Self::from_counts(tp, fp, tn, fn_)
    }

    /// Metrics from probability scores thresholded at `threshold`.
    pub fn from_probs(probs: &[f32], truth: &[bool], threshold: f32) -> Self {
        let pred: Vec<bool> = probs.iter().map(|&p| p >= threshold).collect();
        Self::from_masks(&pred, truth)
    }

    /// Metrics from a predicted member set over `truth.len()` nodes.
    ///
    /// Member ids `>= truth.len()` are skipped: they cannot refer to any
    /// node of the evaluated graph (they typically mean a community was
    /// predicted against the wrong graph), so they contribute to no
    /// confusion cell rather than panicking with an index error.
    /// Duplicated ids count once.
    pub fn from_member_set(members: &[usize], truth: &[bool]) -> Self {
        let mut pred = vec![false; truth.len()];
        for &m in members {
            if let Some(slot) = pred.get_mut(m) {
                *slot = true;
            }
        }
        Self::from_masks(&pred, truth)
    }

    /// Derives the rates from confusion counts. Precision/recall/F1 are 0
    /// when undefined (no predicted positives / no true positives).
    pub fn from_counts(tp: usize, fp: usize, tn: usize, fn_: usize) -> Self {
        let total = (tp + fp + tn + fn_) as f64;
        let accuracy = if total > 0.0 {
            (tp + tn) as f64 / total
        } else {
            0.0
        };
        let precision = if tp + fp > 0 {
            tp as f64 / (tp + fp) as f64
        } else {
            0.0
        };
        let recall = if tp + fn_ > 0 {
            tp as f64 / (tp + fn_) as f64
        } else {
            0.0
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            tp,
            fp,
            tn,
            fn_,
            accuracy,
            precision,
            recall,
            f1,
        }
    }

    /// Macro-average of per-query metrics (the paper averages over test
    /// queries).
    pub fn macro_average(list: &[Metrics]) -> Self {
        if list.is_empty() {
            return Self::default();
        }
        let n = list.len() as f64;
        let mut avg = Self {
            tp: list.iter().map(|m| m.tp).sum(),
            fp: list.iter().map(|m| m.fp).sum(),
            tn: list.iter().map(|m| m.tn).sum(),
            fn_: list.iter().map(|m| m.fn_).sum(),
            ..Default::default()
        };
        avg.accuracy = list.iter().map(|m| m.accuracy).sum::<f64>() / n;
        avg.precision = list.iter().map(|m| m.precision).sum::<f64>() / n;
        avg.recall = list.iter().map(|m| m.recall).sum::<f64>() / n;
        avg.f1 = list.iter().map(|m| m.f1).sum::<f64>() / n;
        avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let t = vec![true, false, true, false];
        let m = Metrics::from_masks(&t, &t);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn all_negative_prediction_has_zero_recall() {
        let pred = vec![false; 4];
        let truth = vec![true, true, false, false];
        let m = Metrics::from_masks(&pred, &truth);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.f1, 0.0);
        assert_eq!(m.accuracy, 0.5);
    }

    #[test]
    fn all_positive_prediction_has_full_recall() {
        let pred = vec![true; 4];
        let truth = vec![true, false, false, false];
        let m = Metrics::from_masks(&pred, &truth);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.precision, 0.25);
        assert!((m.f1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn known_confusion_counts() {
        let m = Metrics::from_counts(3, 1, 5, 1);
        assert_eq!(m.accuracy, 0.8);
        assert_eq!(m.precision, 0.75);
        assert_eq!(m.recall, 0.75);
        assert_eq!(m.f1, 0.75);
    }

    #[test]
    fn threshold_behaviour() {
        let probs = vec![0.9, 0.4, 0.6];
        let truth = vec![true, false, true];
        let strict = Metrics::from_probs(&probs, &truth, 0.7);
        assert_eq!(strict.tp, 1);
        let loose = Metrics::from_probs(&probs, &truth, 0.5);
        assert_eq!(loose.tp, 2);
    }

    #[test]
    fn member_set_conversion() {
        let m = Metrics::from_member_set(&[0, 2], &[true, false, true, false]);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn member_set_skips_out_of_range_ids() {
        // A member id beyond the graph (e.g. a community predicted
        // against the wrong graph) must be ignored, not panic.
        let truth = [true, false, true, false];
        let with_junk = Metrics::from_member_set(&[0, 2, 4, usize::MAX], &truth);
        let clean = Metrics::from_member_set(&[0, 2], &truth);
        assert_eq!(with_junk.tp, clean.tp);
        assert_eq!(with_junk.fp, clean.fp);
        assert_eq!(with_junk.f1, clean.f1);
    }

    #[test]
    fn member_set_all_out_of_range_is_all_negative() {
        let m = Metrics::from_member_set(&[10, 11], &[true, false]);
        assert_eq!(m.tp, 0);
        assert_eq!(m.fp, 0);
        assert_eq!(m.fn_, 1);
        assert_eq!(m.tn, 1);
    }

    #[test]
    fn macro_average_of_mixed() {
        let a = Metrics::from_counts(1, 0, 1, 0); // perfect
        let b = Metrics::from_counts(0, 1, 0, 1); // all wrong
        let avg = Metrics::macro_average(&[a, b]);
        assert!((avg.f1 - 0.5).abs() < 1e-12);
        assert!((avg.accuracy - 0.5).abs() < 1e-12);
        assert_eq!(avg.tp, 1);
    }

    #[test]
    fn empty_average_is_default() {
        let avg = Metrics::macro_average(&[]);
        assert_eq!(avg.f1, 0.0);
    }
}
