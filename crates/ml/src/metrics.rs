//! Evaluation metrics: confusion matrices, per-class precision/recall/F1,
//! and teacher/student fidelity — the numbers every CampusLab experiment
//! reports.

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
