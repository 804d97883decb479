//! Random forests: the heavyweight "black-box" model of the paper's
//! development loop (§5, step (i)) — accurate, but far too large and
//! branchy to run per-packet in a data plane.

use crate::data::Dataset;
use crate::model::Classifier;
use crate::tree::{DecisionTree, Grower, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of rows bootstrapped per tree.
const SAMPLE_FRAC: f64 = 0.8;
/// Bootstrap seed: a forest is a pure function of its data and config.
const SEED: u64 = 0xF0_4E57;

/// Forest hyperparameters. Every tree grows under `TreeConfig::default()`
/// and may split on every feature.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    pub n_trees: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 40 }
    }
}

/// A bagged ensemble of CART trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Train a forest. The columns are sorted once for all trees; each
    /// tree's bootstrap is a count per row (see the `tree` module doc).
    pub fn fit(data: &Dataset, cfg: ForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(cfg.n_trees > 0);
        let mut rng = StdRng::seed_from_u64(SEED);
        let n = data.len();
        let sample = ((n as f64) * SAMPLE_FRAC).max(1.0) as usize;
        let mut grower = Grower::new(data);
        let mut copies = vec![0u32; n];
        let trees = (0..cfg.n_trees)
            .map(|_| {
                copies.fill(0);
                for _ in 0..sample {
                    copies[rng.gen_range(0..n)] += 1;
                }
                grower.tree(&copies, TreeConfig::default())
            })
            .collect();
        RandomForest { trees, n_classes: data.n_classes.max(1) }
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
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.leaf_dist(row)) {
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
        let f = RandomForest::fit(&train, ForestConfig { n_trees: 15 });
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
        let f = RandomForest::fit(&d, ForestConfig { n_trees: 7 });
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
    fn forest_is_much_bigger_than_a_shallow_tree() {
        let d = noisy_data(5);
        let f = RandomForest::fit(&d, ForestConfig::default());
        let shallow = DecisionTree::fit(&d, TreeConfig::shallow(4));
        assert!(f.total_nodes() > 10 * shallow.n_nodes());
    }
}
