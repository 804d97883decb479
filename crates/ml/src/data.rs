//! Datasets: row-major feature matrices with integer class labels.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Row-major features.
    pub x: Vec<Vec<f64>>,
    /// Class labels in `0..n_classes`.
    pub y: Vec<usize>,
    /// Number of classes (at least `max(y) + 1`).
    pub n_classes: usize,
    /// Column names, for explanations and reports.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Build from parts; validates shapes.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<usize>, feature_names: Vec<String>) -> Self {
        assert_eq!(x.len(), y.len(), "row/label count mismatch");
        if let Some(first) = x.first() {
            assert_eq!(first.len(), feature_names.len(), "feature/name count mismatch");
            assert!(x.iter().all(|r| r.len() == first.len()), "ragged rows");
        }
        let n_classes = y.iter().copied().max().map_or(0, |m| m + 1);
        Dataset { x, y, n_classes, feature_names }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Per-class row counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &label in &self.y {
            counts[label] += 1;
        }
        counts
    }

    /// Split preserving row order: the first `train_frac` of rows train,
    /// the rest test. Right for time-ordered network data (no leakage from
    /// the future).
    pub fn split_by_order(&self, train_frac: f64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac {train_frac} is not in [0, 1]");
        let cut = (self.len() as f64 * train_frac).round() as usize;
        let train = self.subset(0..cut);
        let test = self.subset(cut..self.len());
        (train, test)
    }

    /// Shuffled split for i.i.d. evaluation.
    pub fn split_shuffled(&self, train_frac: f64, rng: &mut StdRng) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac {train_frac} is not in [0, 1]");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        let cut = (self.len() as f64 * train_frac).round() as usize;
        (self.select(&idx[..cut]), self.select(&idx[cut..]))
    }

    /// Rows at `range`, preserving order.
    pub fn subset(&self, range: std::ops::Range<usize>) -> Dataset {
        Dataset {
            x: self.x[range.clone()].to_vec(),
            y: self.y[range].to_vec(),
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        }
    }

    /// Rows at the given indexes.
    pub fn select(&self, idx: &[usize]) -> Dataset {
        Dataset {
            x: idx.iter().map(|&i| self.x[i].clone()).collect(),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            n_classes: self.n_classes,
            feature_names: self.feature_names.clone(),
        }
    }

    /// Downsample the majority class to at most `ratio` times the minority
    /// count (class imbalance is brutal in attack detection). Panics unless
    /// `ratio` is finite and at least 1.
    pub fn balance(&self, ratio: f64, rng: &mut StdRng) -> Dataset {
        assert!((1.0..f64::INFINITY).contains(&ratio), "balance ratio {ratio} is not in [1, inf)");
        let counts = self.class_counts();
        let minority = counts.iter().copied().filter(|&c| c > 0).min().unwrap_or(0);
        let cap = ((minority as f64) * ratio).ceil() as usize;
        let mut kept: Vec<usize> = Vec::new();
        let mut per_class = vec![0usize; self.n_classes];
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        for i in idx {
            let c = self.y[i];
            if counts[c] <= cap || per_class[c] < cap {
                per_class[c] += 1;
                kept.push(i);
            }
        }
        kept.sort_unstable();
        self.select(&kept)
    }
}

/// Feature standardization fit on training data, applied everywhere —
/// required by the linear and neural models.
#[derive(Debug, Clone)]
pub struct Normalizer {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
}

impl Normalizer {
    /// Fit means and stds per column.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.len().max(1) as f64;
        let d = data.n_features();
        let mut means = vec![0.0; d];
        for row in &data.x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for row in &data.x {
            for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Normalizer { means, stds }
    }

    /// Transform one row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Transform a whole dataset.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        Dataset {
            x: data.x.iter().map(|r| self.transform_row(r)).collect(),
            y: data.y.clone(),
            n_classes: data.n_classes,
            feature_names: data.feature_names.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::new(
            (0..10).map(|i| vec![i as f64, (i * 2) as f64]).collect(),
            (0..10).map(|i| usize::from(i >= 5)).collect(),
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn construction_and_counts() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes, 2);
        assert_eq!(d.class_counts(), vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "row/label count mismatch")]
    fn shape_mismatch_panics() {
        Dataset::new(vec![vec![1.0]], vec![], vec!["a".into()]);
    }

    #[test]
    fn ordered_split_preserves_time() {
        let d = toy();
        let (train, test) = d.split_by_order(0.7);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.x[0][0], 0.0);
        assert_eq!(test.x[0][0], 7.0);
    }

    #[test]
    fn shuffled_split_partitions() {
        let d = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = d.split_shuffled(0.5, &mut rng);
        assert_eq!(train.len() + test.len(), 10);
        let mut all: Vec<f64> = train.x.iter().chain(&test.x).map(|r| r[0]).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn balancing_caps_majority() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(vec![i as f64]);
            y.push(0);
        }
        for i in 0..5 {
            x.push(vec![i as f64]);
            y.push(1);
        }
        let d = Dataset::new(x, y, vec!["f".into()]);
        let mut rng = StdRng::seed_from_u64(3);
        let b = d.balance(2.0, &mut rng);
        let counts = b.class_counts();
        assert_eq!(counts[1], 5);
        assert_eq!(counts[0], 10);
    }

    /// 100 rows, 75 of class 0 then 25 of class 1.
    fn skewed() -> Dataset {
        Dataset::new(
            (0..100).map(|i| vec![i as f64]).collect(),
            (0..100).map(|i| usize::from(i >= 75)).collect(),
            vec!["f".into()],
        )
    }

    #[test]
    #[should_panic(expected = "train_frac 1.5 is not in [0, 1]")]
    fn ordered_split_refuses_a_fraction_above_one() {
        skewed().split_by_order(1.5);
    }

    #[test]
    #[should_panic(expected = "train_frac NaN is not in [0, 1]")]
    fn ordered_split_refuses_nan() {
        skewed().split_by_order(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "train_frac 1.5 is not in [0, 1]")]
    fn shuffled_split_refuses_a_fraction_above_one() {
        skewed().split_shuffled(1.5, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "train_frac NaN is not in [0, 1]")]
    fn shuffled_split_refuses_nan() {
        skewed().split_shuffled(f64::NAN, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "balance ratio NaN is not in [1, inf)")]
    fn balance_refuses_nan() {
        skewed().balance(f64::NAN, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "balance ratio -1 is not in [1, inf)")]
    fn balance_refuses_a_negative_ratio() {
        skewed().balance(-1.0, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "balance ratio 0.5 is not in [1, inf)")]
    fn balance_refuses_a_ratio_below_one() {
        skewed().balance(0.5, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "balance ratio inf is not in [1, inf)")]
    fn balance_refuses_an_infinite_ratio() {
        skewed().balance(f64::INFINITY, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn balance_at_ratio_one_keeps_the_minority_whole() {
        let counts = skewed().balance(1.0, &mut StdRng::seed_from_u64(1)).class_counts();
        assert_eq!(counts, vec![25, 25]);
    }

    #[test]
    fn normalizer_zero_means_unit_stds() {
        let d = toy();
        let norm = Normalizer::fit(&d);
        let t = norm.transform(&d);
        let mean: f64 = t.x.iter().map(|r| r[0]).sum::<f64>() / 10.0;
        assert!(mean.abs() < 1e-9);
        let var: f64 = t.x.iter().map(|r| r[0] * r[0]).sum::<f64>() / 10.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalizer_handles_constant_columns() {
        let d = Dataset::new(
            vec![vec![5.0], vec![5.0], vec![5.0]],
            vec![0, 0, 1],
            vec!["c".into()],
        );
        let norm = Normalizer::fit(&d);
        let t = norm.transform(&d);
        assert!(t.x.iter().all(|r| r[0].is_finite()));
    }
}
