//! Evaluation metrics: confusion matrices, per-class precision/recall/F1,
//! ROC-AUC, and calibration (reliability) — the numbers every CampusLab
//! experiment reports.

use crate::data::Dataset;
use crate::model::Classifier;

/// A confusion matrix: `m[actual][predicted]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    pub m: Vec<Vec<u64>>,
}

impl ConfusionMatrix {
    /// Build from label pairs.
    pub fn from_pairs(n_classes: usize, pairs: impl Iterator<Item = (usize, usize)>) -> Self {
        let mut m = vec![vec![0u64; n_classes]; n_classes];
        for (actual, predicted) in pairs {
            m[actual][predicted] += 1;
        }
        ConfusionMatrix { m }
    }

    /// Evaluate a classifier over a dataset.
    pub fn evaluate(model: &dyn Classifier, data: &Dataset) -> Self {
        Self::from_pairs(
            data.n_classes.max(model.n_classes()),
            data.x.iter().zip(&data.y).map(|(row, &y)| (y, model.predict(row))),
        )
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.m.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.m.len()).map(|i| self.m[i][i]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Precision for one class (0 when the class is never predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.m[class][class];
        let predicted: u64 = (0..self.m.len()).map(|i| self.m[i][class]).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f64 / predicted as f64
        }
    }

    /// Recall for one class (0 when the class never occurs).
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.m[class][class];
        let actual: u64 = self.m[class].iter().sum();
        if actual == 0 {
            0.0
        } else {
            tp as f64 / actual as f64
        }
    }

    /// F1 for one class.
    pub fn f1(&self, class: usize) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged F1 over classes that occur.
    pub fn macro_f1(&self) -> f64 {
        let classes: Vec<usize> = (0..self.m.len())
            .filter(|&c| self.m[c].iter().sum::<u64>() > 0)
            .collect();
        if classes.is_empty() {
            return 0.0;
        }
        classes.iter().map(|&c| self.f1(c)).sum::<f64>() / classes.len() as f64
    }
}

/// ROC-AUC for a binary problem given `(score_for_positive, is_positive)`
/// pairs, via the rank-sum (Mann–Whitney) formulation with tie handling.
pub fn roc_auc(pairs: &[(f64, bool)]) -> f64 {
    let mut sorted: Vec<&(f64, bool)> = pairs.iter().collect();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let n_pos = sorted.iter().filter(|(_, p)| *p).count() as f64;
    let n_neg = sorted.len() as f64 - n_pos;
    if n_pos == 0.0 || n_neg == 0.0 {
        return 0.5;
    }
    // Average ranks over ties.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    let mut rank = 1.0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j].0 == sorted[i].0 {
            j += 1;
        }
        let avg_rank = (rank + rank + (j - i) as f64 - 1.0) / 2.0;
        for item in &sorted[i..j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        rank += (j - i) as f64;
        i = j;
    }
    (rank_sum_pos - n_pos * (n_pos + 1.0) / 2.0) / (n_pos * n_neg)
}

/// One calibration bin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationBin {
    /// Mean predicted confidence in the bin.
    pub mean_confidence: f64,
    /// Empirical accuracy in the bin.
    pub accuracy: f64,
    pub count: u64,
}

/// Reliability diagram data: bin predictions by confidence and compare to
/// empirical accuracy. Returns the bins and the expected calibration error.
pub fn calibration(
    pairs: &[(f64, bool)], // (confidence in prediction, prediction was correct)
    n_bins: usize,
) -> (Vec<CalibrationBin>, f64) {
    assert!(n_bins > 0);
    let mut bins = vec![(0.0f64, 0u64, 0u64); n_bins]; // (conf sum, correct, count)
    for &(conf, correct) in pairs {
        let b = ((conf * n_bins as f64) as usize).min(n_bins - 1);
        bins[b].0 += conf;
        bins[b].1 += u64::from(correct);
        bins[b].2 += 1;
    }
    let total: u64 = bins.iter().map(|b| b.2).sum();
    let mut out = Vec::new();
    let mut ece = 0.0;
    for (conf_sum, correct, count) in bins {
        if count == 0 {
            continue;
        }
        let mean_confidence = conf_sum / count as f64;
        let accuracy = correct as f64 / count as f64;
        ece += (count as f64 / total as f64) * (mean_confidence - accuracy).abs();
        out.push(CalibrationBin { mean_confidence, accuracy, count });
    }
    (out, ece)
}

/// Agreement rate between two classifiers over a dataset — the *fidelity*
/// metric of model extraction (paper §5, step (ii)).
pub fn fidelity(teacher: &dyn Classifier, student: &dyn Classifier, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let agree = data
        .x
        .iter()
        .filter(|row| teacher.predict(row) == student.predict(row))
        .count();
    agree as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> ConfusionMatrix {
        // actual 0: 8 right, 2 called 1. actual 1: 3 wrong, 7 right.
        ConfusionMatrix { m: vec![vec![8, 2], vec![3, 7]] }
    }

    #[test]
    fn accuracy_precision_recall_f1() {
        let c = cm();
        assert_eq!(c.total(), 20);
        assert!((c.accuracy() - 0.75).abs() < 1e-12);
        assert!((c.precision(1) - 7.0 / 9.0).abs() < 1e-12);
        assert!((c.recall(1) - 0.7).abs() < 1e-12);
        let f1 = c.f1(1);
        let expected = 2.0 * (7.0 / 9.0) * 0.7 / (7.0 / 9.0 + 0.7);
        assert!((f1 - expected).abs() < 1e-12);
        assert!(c.macro_f1() > 0.7);
    }

    #[test]
    fn degenerate_matrix_is_zero_not_nan() {
        let c = ConfusionMatrix { m: vec![vec![0, 0], vec![0, 0]] };
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(0), 0.0);
        assert_eq!(c.recall(1), 0.0);
        assert_eq!(c.f1(0), 0.0);
    }

    #[test]
    fn auc_perfect_and_random_and_inverted() {
        let perfect: Vec<(f64, bool)> = (0..100)
            .map(|i| (i as f64 / 100.0, i >= 50))
            .collect();
        assert!((roc_auc(&perfect) - 1.0).abs() < 1e-12);
        let inverted: Vec<(f64, bool)> = perfect.iter().map(|&(s, p)| (1.0 - s, p)).collect();
        assert!(roc_auc(&inverted) < 1e-12);
        let constant: Vec<(f64, bool)> = (0..100).map(|i| (0.5, i % 2 == 0)).collect();
        assert!((roc_auc(&constant) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_handles_ties_correctly() {
        // Two positives at 0.8, two negatives at 0.8, one negative at 0.1:
        // P(pos > neg) + 0.5 P(tie) = (2*1 + 0.5*2*2) / (2*3)... compute:
        // pairs: pos vs neg@0.1: 2 wins; pos vs neg@0.8: 4 ties -> 2.
        // AUC = (2 + 2) / 6.
        let pairs = vec![(0.8, true), (0.8, true), (0.8, false), (0.8, false), (0.1, false)];
        assert!((roc_auc(&pairs) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_of_a_perfect_model() {
        let pairs: Vec<(f64, bool)> = (0..1000).map(|_| (0.9, true)).collect();
        let (bins, ece) = calibration(&pairs, 10);
        assert_eq!(bins.len(), 1);
        // Confidence 0.9 but accuracy 1.0 -> ECE 0.1.
        assert!((ece - 0.1).abs() < 1e-9);
    }

    #[test]
    fn calibration_mixed_bins() {
        let mut pairs = Vec::new();
        for i in 0..100 {
            pairs.push((0.75, i % 4 != 0)); // 75% correct at 75% confidence
        }
        let (bins, ece) = calibration(&pairs, 4);
        assert_eq!(bins.len(), 1);
        assert!(ece < 1e-9, "well-calibrated data must have ~0 ECE, got {ece}");
        assert_eq!(bins[0].count, 100);
    }

    #[test]
    fn fidelity_of_identical_models_is_one() {
        struct Threshold(f64);
        impl Classifier for Threshold {
            fn n_classes(&self) -> usize {
                2
            }
            fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
                if row[0] > self.0 {
                    vec![0.0, 1.0]
                } else {
                    vec![1.0, 0.0]
                }
            }
        }
        let data = Dataset::new(
            (0..100).map(|i| vec![i as f64]).collect(),
            vec![0; 100],
            vec!["v".into()],
        );
        assert_eq!(fidelity(&Threshold(50.0), &Threshold(50.0), &data), 1.0);
        let f = fidelity(&Threshold(50.0), &Threshold(60.0), &data);
        assert!((f - 0.9).abs() < 0.02, "fidelity {f}");
    }
}
