//! The common classifier interface.

/// An object-safe classifier over f64 feature rows.
pub trait Classifier {
    /// Number of classes the model distinguishes.
    fn n_classes(&self) -> usize;

    /// Class probability estimates for one row (sums to 1).
    fn predict_proba(&self, row: &[f64]) -> Vec<f64>;

    /// The argmax class.
    fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// The winning class and its probability — the "confidence" the
    /// paper's mitigation gate thresholds on.
    fn predict_with_confidence(&self, row: &[f64]) -> (usize, f64) {
        let p = self.predict_proba(row);
        let class = argmax(&p);
        (class, p.get(class).copied().unwrap_or(0.0))
    }

    /// Predictions for a batch of rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<usize> {
        rows.iter().map(|r| self.predict(r)).collect()
    }
}

/// The index of the largest probability, the last of equal maxima (0 when
/// empty).
pub(crate) fn argmax(p: &[f64]) -> usize {
    p.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<f64>);
    impl Classifier for Fixed {
        fn n_classes(&self) -> usize {
            self.0.len()
        }
        fn predict_proba(&self, _: &[f64]) -> Vec<f64> {
            self.0.clone()
        }
    }

    #[test]
    fn default_methods_agree() {
        let c = Fixed(vec![0.2, 0.7, 0.1]);
        assert_eq!(c.predict(&[]), 1);
        let (class, conf) = c.predict_with_confidence(&[]);
        assert_eq!(class, 1);
        assert!((conf - 0.7).abs() < 1e-12);
        assert_eq!(c.predict_batch(&[vec![], vec![]]), vec![1, 1]);
    }
}
