//! Random forests: the heavyweight "black-box" model of the paper's
//! development loop (§5, step (i)) — accurate, but far too large and
//! branchy to run per-packet in a data plane.

use crate::data::Dataset;
use crate::model::Classifier;
use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub tree: TreeConfig,
    /// Fraction of rows bootstrapped per tree.
    pub sample_frac: f64,
    /// Number of features considered per tree (0 = all). Feature bagging
    /// happens per tree by masking columns, which keeps the tree code
    /// simple.
    pub max_features: usize,
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 40,
            tree: TreeConfig::default(),
            sample_frac: 0.8,
            max_features: 0,
            seed: 0xF0_4E57,
        }
    }
}

/// A bagged ensemble of CART trees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    /// Per-tree active-feature masks (empty = all features).
    masks: Vec<Vec<usize>>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Train a forest.
    pub fn fit(data: &Dataset, cfg: ForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(cfg.n_trees > 0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = data.len();
        let sample = ((n as f64) * cfg.sample_frac).max(1.0) as usize;
        let mut trees = Vec::with_capacity(cfg.n_trees);
        let mut masks = Vec::with_capacity(cfg.n_trees);
        for _ in 0..cfg.n_trees {
            let idx: Vec<usize> = (0..sample).map(|_| rng.gen_range(0..n)).collect();
            let mut boot = data.select(&idx);
            let mask: Vec<usize> = if cfg.max_features == 0 || cfg.max_features >= data.n_features()
            {
                Vec::new()
            } else {
                let mut features: Vec<usize> = (0..data.n_features()).collect();
                // Partial Fisher-Yates for a random subset.
                for i in 0..cfg.max_features {
                    let j = rng.gen_range(i..features.len());
                    features.swap(i, j);
                }
                features.truncate(cfg.max_features);
                features.sort_unstable();
                features
            };
            if !mask.is_empty() {
                // Zero out inactive columns so splits can't use them.
                for row in &mut boot.x {
                    for (f, v) in row.iter_mut().enumerate() {
                        if !mask.contains(&f) {
                            *v = 0.0;
                        }
                    }
                }
            }
            trees.push(DecisionTree::fit(&boot, cfg.tree));
            masks.push(mask);
        }
        RandomForest {
            trees,
            masks,
            n_classes: data.n_classes.max(1),
            n_features: data.n_features(),
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees, read-only: per-tree cost accounting (the
    /// comparisons a forest spends on one decision) needs each tree's
    /// decision path, not just the vote.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Total node count across trees — the "model size" a data plane
    /// cannot hold.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes()).sum()
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        let mut masked = vec![0.0; row.len()];
        for (tree, mask) in self.trees.iter().zip(&self.masks) {
            let p = if mask.is_empty() {
                tree.predict_proba(row)
            } else {
                masked.iter_mut().for_each(|v| *v = 0.0);
                for &f in mask {
                    masked[f] = row[f];
                }
                tree.predict_proba(&masked)
            };
            for (a, v) in acc.iter_mut().zip(p) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_data(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..600 {
            let class = rng.gen_range(0..2usize);
            let center = if class == 0 { 2.0 } else { 6.0 };
            x.push(vec![
                center + rng.gen_range(-2.0..2.0),
                rng.gen_range(0.0..1.0), // noise column
            ]);
            y.push(class);
        }
        Dataset::new(x, y, vec!["signal".into(), "noise".into()])
    }

    #[test]
    fn forest_beats_chance_substantially() {
        let d = noisy_data(1);
        let (train, test) = d.split_by_order(0.7);
        let f = RandomForest::fit(&train, ForestConfig { n_trees: 15, ..Default::default() });
        let correct = test
            .x
            .iter()
            .zip(&test.y)
            .filter(|(r, &l)| f.predict(r) == l)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "forest accuracy {acc}");
    }

    #[test]
    fn probabilities_are_normalized() {
        let d = noisy_data(2);
        let f = RandomForest::fit(&d, ForestConfig { n_trees: 7, ..Default::default() });
        for row in d.x.iter().take(20) {
            let p = f.predict_proba(row);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = noisy_data(3);
        let f1 = RandomForest::fit(&d, ForestConfig::default());
        let f2 = RandomForest::fit(&d, ForestConfig::default());
        for row in d.x.iter().take(50) {
            assert_eq!(f1.predict(row), f2.predict(row));
        }
    }

    #[test]
    fn feature_bagging_limits_columns() {
        let d = noisy_data(4);
        let f = RandomForest::fit(
            &d,
            ForestConfig { n_trees: 5, max_features: 1, ..Default::default() },
        );
        assert_eq!(f.n_trees(), 5);
        for mask in &f.masks {
            assert_eq!(mask.len(), 1);
        }
    }

    #[test]
    fn forest_is_much_bigger_than_a_shallow_tree() {
        let d = noisy_data(5);
        let f = RandomForest::fit(&d, ForestConfig::default());
        let shallow = DecisionTree::fit(&d, TreeConfig::shallow(4));
        assert!(f.total_nodes() > 10 * shallow.n_nodes());
    }
}
