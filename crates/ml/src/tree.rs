//! CART decision trees: the workhorse of both the black-box ensemble
//! (bagged) and the *deployable* distilled model (shallow, compilable to
//! match-action rules).

use crate::data::Dataset;
use crate::model::Classifier;
use serde::{Deserialize, Serialize};

/// Nodes with fewer rows than this become leaves.
const MIN_SAMPLES_SPLIT: usize = 4;
/// Cap on candidate thresholds per feature (quantile subsampling).
const MAX_THRESHOLDS: usize = 64;

/// Tree growth limits.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 12, min_samples_leaf: 2 }
    }
}

impl TreeConfig {
    /// A shallow, deployable tree (the paper's step (ii) target).
    pub fn shallow(max_depth: usize) -> Self {
        TreeConfig { max_depth, ..Default::default() }
    }
}

/// Tree nodes, stored in an arena for cheap traversal and compilation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Node {
    /// A leaf with a class distribution (counts normalized to sum 1).
    Leaf { dist: Vec<f64>, n: usize },
    /// An internal split: rows with `x[feature] <= threshold` go left.
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// One step of a decision path, for evidence lists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    pub feature: usize,
    pub threshold: f64,
    /// True when the sample satisfied `x[feature] <= threshold`.
    pub went_left: bool,
}

/// A root-to-leaf predicate, for rule compilation: the conjunction of
/// per-feature intervals that routes a packet to this leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafRule {
    /// `(feature, lower_exclusive, upper_inclusive)` bounds; a feature
    /// missing from the map is unconstrained.
    pub bounds: Vec<(usize, f64, f64)>,
    pub class: usize,
    pub confidence: f64,
    pub support: usize,
}

/// A CART decision tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    root: usize,
    n_classes: usize,
    n_features: usize,
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / total) * (c / total)).sum::<f64>()
}

impl DecisionTree {
    /// Grow a tree on `data`.
    pub fn fit(data: &Dataset, cfg: TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            root: 0,
            n_classes: data.n_classes.max(1),
            n_features: data.n_features(),
        };
        tree.root = tree.grow(data, &idx, 0, &cfg);
        tree
    }

    fn leaf(&mut self, data: &Dataset, idx: &[usize]) -> usize {
        let mut counts = vec![0.0; self.n_classes];
        for &i in idx {
            counts[data.y[i]] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let dist: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();
        self.nodes.push(Node::Leaf { dist, n: idx.len() });
        self.nodes.len() - 1
    }

    fn grow(&mut self, data: &Dataset, idx: &[usize], depth: usize, cfg: &TreeConfig) -> usize {
        let mut counts = vec![0.0; self.n_classes];
        for &i in idx {
            counts[data.y[i]] += 1.0;
        }
        let total = idx.len() as f64;
        let pure = counts.contains(&total);
        if depth >= cfg.max_depth || idx.len() < MIN_SAMPLES_SPLIT || pure {
            return self.leaf(data, idx);
        }
        let parent_gini = gini(&counts, total);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, thr, impurity)
        // Fallback: the best zero-gain split. Symmetric data (XOR) has no
        // single split with positive gini decrease, yet splitting is still
        // the right move — the gain appears one level deeper.
        let mut best_any: Option<(usize, f64, f64)> = None;
        for f in 0..self.n_features {
            let mut values: Vec<(f64, usize)> = idx.iter().map(|&i| (data.x[i][f], data.y[i])).collect();
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            // Candidate thresholds: midpoints between distinct consecutive
            // values, subsampled to the cap.
            let mut candidates: Vec<(usize, f64)> = Vec::new();
            for w in 1..values.len() {
                if values[w].0 > values[w - 1].0 {
                    candidates.push((w, (values[w].0 + values[w - 1].0) / 2.0));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let stride = (candidates.len() / MAX_THRESHOLDS).max(1);
            let mut left = vec![0.0; self.n_classes];
            let mut consumed = 0usize;
            for (ci, &(pos, thr)) in candidates.iter().enumerate() {
                while consumed < pos {
                    left[values[consumed].1] += 1.0;
                    consumed += 1;
                }
                if ci % stride != 0 {
                    continue;
                }
                let nl = pos as f64;
                let nr = total - nl;
                if (nl as usize) < cfg.min_samples_leaf || (nr as usize) < cfg.min_samples_leaf {
                    continue;
                }
                let right: Vec<f64> = counts.iter().zip(&left).map(|(t, l)| t - l).collect();
                let impurity = (nl / total) * gini(&left, nl) + (nr / total) * gini(&right, nr);
                if impurity < parent_gini - 1e-12
                    && best.is_none_or(|(_, _, b)| impurity < b)
                {
                    best = Some((f, thr, impurity));
                }
                if best_any.is_none_or(|(_, _, b)| impurity < b) {
                    best_any = Some((f, thr, impurity));
                }
            }
        }
        // Prefer a positive-gain split; fall back to the best zero-gain
        // split only when the node is impure and depth remains for the
        // children to realize the gain.
        let chosen = best.or(if depth + 2 <= cfg.max_depth { best_any } else { None });
        let Some((feature, threshold, _)) = chosen else {
            return self.leaf(data, idx);
        };
        let (li, ri): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| data.x[i][feature] <= threshold);
        if li.is_empty() || ri.is_empty() {
            return self.leaf(data, idx);
        }
        let left = self.grow(data, &li, depth + 1, cfg);
        let right = self.grow(data, &ri, depth + 1, cfg);
        self.nodes.push(Node::Split { feature, threshold, left, right });
        self.nodes.len() - 1
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Maximum depth (root = 0).
    pub fn depth(&self) -> usize {
        fn d(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(nodes, *left).max(d(nodes, *right)),
            }
        }
        d(&self.nodes, self.root)
    }

    /// The decision path for one sample — the "list of pieces of evidence"
    /// the paper wants operators to be able to query (§5, step (iv)).
    pub fn decision_path(&self, row: &[f64]) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { .. } => return path,
                Node::Split { feature, threshold, left, right } => {
                    let went_left = row[*feature] <= *threshold;
                    path.push(PathStep { feature: *feature, threshold: *threshold, went_left });
                    at = if went_left { *left } else { *right };
                }
            }
        }
    }

    /// Every root-to-leaf rule, for compilation to match-action entries.
    pub fn leaf_rules(&self) -> Vec<LeafRule> {
        let mut rules = Vec::new();
        let mut bounds: Vec<(f64, f64)> = vec![(f64::NEG_INFINITY, f64::INFINITY); self.n_features];
        self.collect_rules(self.root, &mut bounds, &mut rules);
        rules
    }

    fn collect_rules(
        &self,
        at: usize,
        bounds: &mut Vec<(f64, f64)>,
        out: &mut Vec<LeafRule>,
    ) {
        match &self.nodes[at] {
            Node::Leaf { dist, n } => {
                let (class, &frac) = dist
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("non-empty distribution");
                // Laplace-smoothed confidence: a pure-but-thin leaf is NOT
                // high confidence. This is what downstream confidence gates
                // ("act only if >= 90% sure") threshold on, so it must
                // account for evidence volume, not just purity.
                let confidence =
                    (frac * (*n as f64) + 1.0) / (*n as f64 + dist.len() as f64);
                let constrained: Vec<(usize, f64, f64)> = bounds
                    .iter()
                    .enumerate()
                    .filter(|(_, (lo, hi))| lo.is_finite() || hi.is_finite())
                    .map(|(f, (lo, hi))| (f, *lo, *hi))
                    .collect();
                out.push(LeafRule { bounds: constrained, class, confidence, support: *n });
            }
            Node::Split { feature, threshold, left, right } => {
                let saved = bounds[*feature];
                bounds[*feature].1 = saved.1.min(*threshold);
                self.collect_rules(*left, bounds, out);
                bounds[*feature] = saved;
                bounds[*feature].0 = saved.0.max(*threshold);
                self.collect_rules(*right, bounds, out);
                bounds[*feature] = saved;
            }
        }
    }
}

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { dist, .. } => return dist.clone(),
                Node::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Classifier;

    /// Two clusters split on feature 0 at ~5.
    fn separable() -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            x.push(vec![i as f64 / 10.0, 1.0]);
            y.push(0);
        }
        for i in 0..50 {
            x.push(vec![10.0 + i as f64 / 10.0, 1.0]);
            y.push(1);
        }
        Dataset::new(x, y, vec!["f0".into(), "f1".into()])
    }

    #[test]
    fn fits_separable_data_perfectly() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default());
        let acc = d
            .x
            .iter()
            .zip(&d.y)
            .filter(|(row, &label)| t.predict(row) == label)
            .count();
        assert_eq!(acc, d.len());
        assert!(t.depth() >= 1);
    }

    #[test]
    fn shallow_config_caps_depth() {
        // XOR-ish data needs depth 2; cap at 1 and verify the cap holds.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..25 {
                    x.push(vec![a as f64, b as f64]);
                    y.push(a ^ b);
                }
            }
        }
        let d = Dataset::new(x, y, vec!["a".into(), "b".into()]);
        let t = DecisionTree::fit(&d, TreeConfig::shallow(1));
        assert!(t.depth() <= 1);
        let deep = DecisionTree::fit(&d, TreeConfig::shallow(3));
        assert!(deep.depth() <= 3);
        // Depth 3 solves XOR.
        let acc = d.x.iter().zip(&d.y).filter(|(r, &l)| deep.predict(r) == l).count();
        assert_eq!(acc, d.len());
    }

    #[test]
    fn proba_sums_to_one_and_matches_predict() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default());
        for row in &d.x {
            let p = t.predict_proba(row);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let argmax = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, t.predict(row));
        }
    }

    #[test]
    fn decision_path_is_consistent() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default());
        let path = t.decision_path(&[0.1, 1.0]);
        assert!(!path.is_empty());
        // Walking the recorded path reproduces the comparisons.
        for step in &path {
            let val = [0.1, 1.0][step.feature];
            assert_eq!(val <= step.threshold, step.went_left);
        }
    }

    #[test]
    fn leaf_rules_partition_the_space() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default());
        let rules = t.leaf_rules();
        assert_eq!(rules.len(), t.n_leaves());
        // Every training sample matches exactly one rule, and that rule
        // predicts the tree's output.
        for (row, _) in d.x.iter().zip(&d.y) {
            let hits: Vec<&LeafRule> = rules
                .iter()
                .filter(|r| {
                    r.bounds
                        .iter()
                        .all(|&(f, lo, hi)| row[f] > lo && row[f] <= hi)
                })
                .collect();
            assert_eq!(hits.len(), 1, "row {row:?} hit {} rules", hits.len());
            assert_eq!(hits[0].class, t.predict(row));
        }
    }

    #[test]
    fn min_samples_leaf_is_respected() {
        let d = separable();
        let t = DecisionTree::fit(
            &d,
            TreeConfig { min_samples_leaf: 30, ..TreeConfig::default() },
        );
        for rule in t.leaf_rules() {
            assert!(rule.support >= 30, "leaf with support {}", rule.support);
        }
    }

    #[test]
    fn serializes_round_trip() {
        let d = separable();
        let t = DecisionTree::fit(&d, TreeConfig::default());
        let back: DecisionTree = serde::bin::from_slice(&serde::bin::to_vec(&t)).unwrap();
        for row in &d.x {
            assert_eq!(t.predict(row), back.predict(row));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        DecisionTree::fit(&Dataset::default(), TreeConfig::default());
    }
}
