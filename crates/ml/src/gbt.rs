//! Gradient-boosted regression trees (binary logistic loss) — the third
//! "heavyweight black box" family for the development loop, with a very
//! different inductive bias from bagging.

use crate::data::Dataset;
use crate::model::Classifier;

/// Shrinkage applied to every stage's contribution.
const LEARNING_RATE: f64 = 0.2;
/// Depth of each weak regression tree.
const DEPTH: usize = 3;
/// Smallest child a weak-tree split may leave.
const MIN_SAMPLES_LEAF: usize = 4;
/// Candidate thresholds per feature per node (quantile subsampling).
const MAX_THRESHOLDS: usize = 32;

/// Boosting hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GbtConfig {
    pub n_rounds: usize,
}

impl Default for GbtConfig {
    fn default() -> Self {
        GbtConfig { n_rounds: 60 }
    }
}

/// A node of the weak regression tree.
#[derive(Debug, Clone)]
enum RegNode {
    /// Newton-step leaf value.
    Leaf(f64),
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A variance-reduction regression tree whose leaves hold Newton-step
/// values for the logistic loss.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RegNode>,
    root: usize,
}

impl RegTree {
    fn value(&self, row: &[f64]) -> f64 {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                RegNode::Leaf(v) => return *v,
                RegNode::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Fit context for one weak tree.
struct RegFit<'a> {
    x: &'a [Vec<f64>],
    /// Negative gradients (`y - p`).
    grad: &'a [f64],
    /// Hessians (`p (1 - p)`).
    hess: &'a [f64],
}

impl RegFit<'_> {
    fn fit(&self) -> RegTree {
        let idx: Vec<usize> = (0..self.x.len()).collect();
        let mut tree = RegTree { nodes: Vec::new(), root: 0 };
        tree.root = self.grow(&mut tree.nodes, &idx, 0);
        tree
    }

    fn leaf_value(&self, idx: &[usize]) -> f64 {
        let g: f64 = idx.iter().map(|&i| self.grad[i]).sum();
        let h: f64 = idx.iter().map(|&i| self.hess[i]).sum();
        (g / (h + 1e-9)).clamp(-4.0, 4.0)
    }

    fn grow(&self, nodes: &mut Vec<RegNode>, idx: &[usize], depth: usize) -> usize {
        if depth >= DEPTH || idx.len() < 2 * MIN_SAMPLES_LEAF {
            nodes.push(RegNode::Leaf(self.leaf_value(idx)));
            return nodes.len() - 1;
        }
        // Best split by squared-error reduction of the gradients.
        let total_g: f64 = idx.iter().map(|&i| self.grad[i]).sum();
        let total_n = idx.len() as f64;
        let parent_score = total_g * total_g / total_n;
        let n_features = self.x[0].len();
        let mut best: Option<(usize, f64, f64)> = None; // (feature, thr, score gain)
        for f in 0..n_features {
            let mut vals: Vec<(f64, f64)> =
                idx.iter().map(|&i| (self.x[i][f], self.grad[i])).collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut candidates: Vec<(usize, f64)> = Vec::new();
            for w in 1..vals.len() {
                if vals[w].0 > vals[w - 1].0 {
                    candidates.push((w, (vals[w].0 + vals[w - 1].0) / 2.0));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let stride = (candidates.len() / MAX_THRESHOLDS).max(1);
            let mut left_g = 0.0;
            let mut consumed = 0usize;
            for (ci, &(pos, thr)) in candidates.iter().enumerate() {
                while consumed < pos {
                    left_g += vals[consumed].1;
                    consumed += 1;
                }
                if ci % stride != 0 {
                    continue;
                }
                let nl = pos as f64;
                let nr = total_n - nl;
                if (nl as usize) < MIN_SAMPLES_LEAF || (nr as usize) < MIN_SAMPLES_LEAF {
                    continue;
                }
                let right_g = total_g - left_g;
                let gain = left_g * left_g / nl + right_g * right_g / nr - parent_score;
                if gain > 1e-12 && best.is_none_or(|(_, _, b)| gain > b) {
                    best = Some((f, thr, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(RegNode::Leaf(self.leaf_value(idx)));
            return nodes.len() - 1;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| self.x[i][feature] <= threshold);
        let left = self.grow(nodes, &li, depth + 1);
        let right = self.grow(nodes, &ri, depth + 1);
        nodes.push(RegNode::Split { feature, threshold, left, right });
        nodes.len() - 1
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Gradient-boosted trees for binary classification.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    stages: Vec<RegTree>,
    base_score: f64,
}

impl GradientBoostedTrees {
    /// Train on a binary dataset (labels 0/1).
    pub fn fit(data: &Dataset, cfg: GbtConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(
            data.y.iter().all(|&y| y < 2),
            "GBT is binary; labels must be 0/1"
        );
        let n = data.len();
        let pos = data.y.iter().filter(|&&y| y == 1).count() as f64;
        let prior = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        let base_score = (prior / (1.0 - prior)).ln();
        let mut scores = vec![base_score; n];
        let mut stages = Vec::with_capacity(cfg.n_rounds);
        for _ in 0..cfg.n_rounds {
            let probs: Vec<f64> = scores.iter().map(|&s| sigmoid(s)).collect();
            let grad: Vec<f64> = data
                .y
                .iter()
                .zip(&probs)
                .map(|(&y, &p)| f64::from(y as u8) - p)
                .collect();
            let hess: Vec<f64> = probs.iter().map(|&p| (p * (1.0 - p)).max(1e-9)).collect();
            let tree = RegFit { x: &data.x, grad: &grad, hess: &hess }.fit();
            for (i, row) in data.x.iter().enumerate() {
                scores[i] += LEARNING_RATE * tree.value(row);
            }
            stages.push(tree);
        }
        GradientBoostedTrees { stages, base_score }
    }

    /// The raw additive score (log-odds).
    pub fn decision_function(&self, row: &[f64]) -> f64 {
        self.base_score + LEARNING_RATE * self.stages.iter().map(|t| t.value(row)).sum::<f64>()
    }

    /// Number of boosting stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total nodes across stages (model size).
    pub fn total_nodes(&self) -> usize {
        self.stages.iter().map(RegTree::n_nodes).sum()
    }
}

impl Classifier for GradientBoostedTrees {
    fn n_classes(&self) -> usize {
        2
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let p = sigmoid(self.decision_function(row));
        vec![1.0 - p, p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ring_data(seed: u64, n: usize) -> Dataset {
        // Class 1 inside an annulus: not linearly separable, needs an
        // ensemble of axis splits.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(-2.0..2.0);
            let b: f64 = rng.gen_range(-2.0..2.0);
            let r = (a * a + b * b).sqrt();
            x.push(vec![a, b]);
            y.push(usize::from(r > 0.7 && r < 1.5));
        }
        Dataset::new(x, y, vec!["a".into(), "b".into()])
    }

    #[test]
    fn learns_a_nonlinear_boundary() {
        let d = ring_data(1, 1200);
        let (train, test) = d.split_by_order(0.75);
        let model = GradientBoostedTrees::fit(&train, GbtConfig::default());
        let acc = test
            .x
            .iter()
            .zip(&test.y)
            .filter(|(r, &l)| model.predict(r) == l)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.85, "GBT accuracy {acc}");
    }

    #[test]
    fn boosting_improves_over_one_round() {
        let d = ring_data(2, 800);
        let (train, test) = d.split_by_order(0.75);
        let weak =
            GradientBoostedTrees::fit(&train, GbtConfig { n_rounds: 1 });
        let strong = GradientBoostedTrees::fit(&train, GbtConfig::default());
        let acc = |m: &GradientBoostedTrees| {
            test.x
                .iter()
                .zip(&test.y)
                .filter(|(r, &l)| m.predict(r) == l)
                .count() as f64
                / test.len() as f64
        };
        assert!(acc(&strong) > acc(&weak) + 0.05, "{} vs {}", acc(&strong), acc(&weak));
        assert_eq!(strong.n_stages(), 60);
        assert!(strong.total_nodes() > weak.total_nodes());
    }

    #[test]
    fn probabilities_are_valid_and_deterministic() {
        let d = ring_data(3, 400);
        let m1 = GradientBoostedTrees::fit(&d, GbtConfig { n_rounds: 10 });
        let m2 = GradientBoostedTrees::fit(&d, GbtConfig { n_rounds: 10 });
        for row in d.x.iter().take(50) {
            let p = m1.predict_proba(row);
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
            assert!(p[1] >= 0.0 && p[1] <= 1.0);
            assert_eq!(m1.predict(row), m2.predict(row));
        }
    }

    #[test]
    fn base_score_reflects_class_prior() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            x.push(vec![i as f64]);
            y.push(usize::from(i < 10)); // 10% positive
        }
        let d = Dataset::new(x, y, vec!["v".into()]);
        let m = GradientBoostedTrees::fit(&d, GbtConfig { n_rounds: 0 });
        // With zero rounds the probability equals the prior.
        let p = m.predict_proba(&[50.0])[1];
        assert!((p - 0.1).abs() < 1e-9, "prior {p}");
    }

    #[test]
    fn overfits_less_with_fewer_rounds_than_with_many() {
        // Sanity on train accuracy monotonicity: more rounds fit train at
        // least as well.
        let d = ring_data(5, 600);
        let few = GradientBoostedTrees::fit(&d, GbtConfig { n_rounds: 3 });
        let many = GradientBoostedTrees::fit(&d, GbtConfig { n_rounds: 80 });
        let train_acc = |m: &GradientBoostedTrees| {
            d.x.iter().zip(&d.y).filter(|(r, &l)| m.predict(r) == l).count() as f64 / d.len() as f64
        };
        assert!(train_acc(&many) >= train_acc(&few));
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn multiclass_labels_are_rejected() {
        let d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![0, 1, 2],
            vec!["v".into()],
        );
        GradientBoostedTrees::fit(&d, GbtConfig::default());
    }
}
