//! CART decision trees: the workhorse of both the black-box ensemble
//! (bagged) and the *deployable* distilled model (shallow, compilable to
//! match-action rules).
//!
//! **Sort once.** A split depends only on the multiset of a node's
//! `(value, label)` rows: cuts fall only where the sorted value strictly
//! increases, so candidates, midpoints and side counts ignore the order of
//! ties. Columns are therefore sorted once per fit and split by stable
//! partition; a forest shares that order, repeating each row by its
//! bootstrap count. The sort is `f64::total_cmp`, so a NaN cannot make it
//! panic (NaN sorts last and goes right); its −0.0 < 0.0 changes no tree,
//! since `>` ties them and `x + 0.0 == x + -0.0` for every non-zero `x`.

use crate::data::Dataset;
use crate::model::{argmax, Classifier};
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

fn gini(counts: impl Iterator<Item = f64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.map(|c| (c / total) * (c / total)).sum::<f64>()
}

/// Grows trees from one dataset: a column-major copy whose columns are
/// sorted once (see the module doc), plus the buffers each tree reuses.
/// Segment `f` of `lists` (`m` rows) is sorted by feature `f`, and a node
/// owns the same range `lo..hi` of every segment. `go_left` marks each
/// row's side of the split being applied, `scratch` takes a partition's
/// right side and `left` counts classes left of the cut being scored.
pub(crate) struct Grower<'a> {
    data: &'a Dataset,
    /// `cols[f][row]`.
    cols: Vec<Vec<f64>>,
    /// `order[f]`: rows ascending by `cols[f]` under `f64::total_cmp`.
    order: Vec<Vec<u32>>,
    cfg: TreeConfig,
    lists: Vec<u32>,
    m: usize,
    go_left: Vec<bool>,
    scratch: Vec<u32>,
    left: Vec<f64>,
    nodes: Vec<Node>,
}

impl<'a> Grower<'a> {
    pub(crate) fn new(data: &'a Dataset) -> Self {
        assert!(u32::try_from(data.len()).is_ok(), "row index exceeds u32");
        let cols: Vec<Vec<f64>> =
            (0..data.n_features()).map(|f| data.x.iter().map(|row| row[f]).collect()).collect();
        let sorted = |col: &Vec<f64>| {
            let mut rows: Vec<u32> = (0..col.len() as u32).collect();
            rows.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            rows
        };
        Grower {
            data, order: cols.iter().map(sorted).collect(), cols, cfg: TreeConfig::default(),
            lists: Vec::new(), m: 0, go_left: vec![false; data.len()], scratch: Vec::new(),
            left: vec![0.0; data.n_classes.max(1)], nodes: Vec::new(),
        }
    }

    /// Grow a tree on the multiset holding row `i` `copies[i]` times.
    pub(crate) fn tree(&mut self, copies: &[u32], cfg: TreeConfig) -> DecisionTree {
        let m: usize = copies.iter().map(|&c| c as usize).sum();
        (self.m, self.cfg) = (m, cfg);
        self.lists.resize(self.cols.len() * m, 0);
        self.scratch.resize(m + 2, 0);
        // Each segment repeats the shared order's rows `copies[row]` times;
        // two slack slots make the common counts (0, 1, 2) branch-free.
        for (segment, order) in self.lists.chunks_exact_mut(m).zip(&self.order) {
            let mut at = 0;
            for &row in order {
                let c = copies[row as usize] as usize;
                self.scratch[at] = row;
                self.scratch[at + 1] = row;
                if c > 2 {
                    self.scratch[at + 2..at + c].fill(row);
                }
                at += c;
            }
            segment.copy_from_slice(&self.scratch[..m]);
        }
        let mut counts = vec![0.0; self.left.len()];
        for (&label, &c) in self.data.y.iter().zip(copies) {
            counts[label] += f64::from(c);
        }
        let root = self.grow(0, m, counts, 0);
        let (nodes, n_classes) = (std::mem::take(&mut self.nodes), self.left.len());
        DecisionTree { nodes, root, n_classes, n_features: self.data.n_features() }
    }

    fn leaf(&mut self, mut counts: Vec<f64>, n: usize) -> usize {
        let total: f64 = counts.iter().sum();
        counts.iter_mut().for_each(|c| *c /= total.max(1.0));
        self.nodes.push(Node::Leaf { dist: counts, n });
        self.nodes.len() - 1
    }

    /// Grow the node owning `lo..hi`, whose per-class row counts are `counts`.
    fn grow(&mut self, lo: usize, hi: usize, counts: Vec<f64>, depth: usize) -> usize {
        let (y, cfg) = (&self.data.y, self.cfg);
        let total = (hi - lo) as f64;
        let pure = counts.contains(&total);
        if depth >= cfg.max_depth || hi - lo < MIN_SAMPLES_SPLIT || pure {
            return self.leaf(counts, hi - lo);
        }
        let parent_gini = gini(counts.iter().copied(), total);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, thr, impurity)
        // Fallback: the best zero-gain split. Symmetric data (XOR) has no
        // single split with positive gini decrease, yet splitting is still
        // the right move — the gain appears one level deeper.
        let mut best_any: Option<(usize, f64, f64)> = None;
        for (f, col) in self.cols.iter().enumerate() {
            let rows = &self.lists[f * self.m + lo..f * self.m + hi];
            // Candidate thresholds: midpoints between distinct consecutive
            // values, every `stride`-th kept so at most the cap are scored.
            let cut = |w: usize| col[rows[w] as usize] > col[rows[w - 1] as usize];
            let stride = ((1..rows.len()).filter(|&w| cut(w)).count() / MAX_THRESHOLDS).max(1);
            self.left.fill(0.0);
            let mut ci = 0;
            for pos in 1..rows.len() {
                self.left[y[rows[pos - 1] as usize]] += 1.0;
                if !cut(pos) {
                    continue;
                }
                ci += 1;
                if (ci - 1) % stride != 0 {
                    continue;
                }
                let thr = (col[rows[pos] as usize] + col[rows[pos - 1] as usize]) / 2.0;
                let nl = pos as f64;
                let nr = total - nl;
                if (nl as usize) < cfg.min_samples_leaf || (nr as usize) < cfg.min_samples_leaf {
                    continue;
                }
                let right = counts.iter().zip(&self.left).map(|(t, l)| t - l);
                let impurity = (nl / total) * gini(self.left.iter().copied(), nl)
                    + (nr / total) * gini(right, nr);
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
            return self.leaf(counts, hi - lo);
        };
        let col = &self.cols[feature];
        let mut left_counts = vec![0.0; counts.len()];
        let mut mid = lo;
        for &row in &self.lists[feature * self.m + lo..feature * self.m + hi] {
            let goes_left = col[row as usize] <= threshold;
            self.go_left[row as usize] = goes_left;
            if goes_left {
                left_counts[y[row as usize]] += 1.0;
                mid += 1;
            }
        }
        if mid == lo || mid == hi {
            return self.leaf(counts, hi - lo);
        }
        // Stable and branch-free: each row is written to both sides and
        // only its own side's cursor advances.
        for segment in self.lists.chunks_exact_mut(self.m) {
            let segment = &mut segment[lo..hi];
            let (mut l, mut r) = (0, 0);
            for j in 0..segment.len() {
                let row = segment[j];
                let goes_left = self.go_left[row as usize];
                segment[l] = row;
                self.scratch[r] = row;
                l += usize::from(goes_left);
                r += usize::from(!goes_left);
            }
            segment[l..].copy_from_slice(&self.scratch[..r]);
        }
        let right_counts = counts.iter().zip(&left_counts).map(|(t, l)| t - l).collect();
        let left = self.grow(lo, mid, left_counts, depth + 1);
        let right = self.grow(mid, hi, right_counts, depth + 1);
        self.nodes.push(Node::Split { feature, threshold, left, right });
        self.nodes.len() - 1
    }
}

impl DecisionTree {
    /// Grow a tree on `data`.
    pub fn fit(data: &Dataset, cfg: TreeConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        Grower::new(data).tree(&vec![1; data.len()], cfg)
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

    /// The class distribution of the leaf `row` reaches, borrowed.
    pub fn leaf_dist(&self, row: &[f64]) -> &[f64] {
        let mut at = self.root;
        loop {
            match &self.nodes[at] {
                Node::Leaf { dist, .. } => return dist,
                Node::Split { feature, threshold, left, right } => {
                    at = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
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
                let class = argmax(dist);
                let frac = dist[class];
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
        self.leaf_dist(row).to_vec()
    }

    fn predict(&self, row: &[f64]) -> usize {
        argmax(self.leaf_dist(row))
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

    /// A column holding NaN, 0.0 and −0.0 (`src_entropy` can yield −0.0)
    /// fits without panicking, as a tree and as a forest, and grows exactly
    /// what the same data grows with every −0.0 written as 0.0.
    #[test]
    fn nan_and_negative_zero_fit_like_plain_zero() {
        use crate::forest::{ForestConfig, RandomForest};
        let col = [f64::NAN, 0.0, -0.0, 1.0, -0.0, 2.0, 0.0, -1.0, f64::NAN, 3.0, -0.0];
        let x: Vec<Vec<f64>> = (0..66).map(|i| vec![col[i % col.len()], (i % 5) as f64]).collect();
        let y: Vec<usize> = (0..66).map(|i| usize::from(col[i % col.len()] > 0.5 || i % 7 == 0)).collect();
        let plain: Vec<Vec<f64>> = x
            .iter()
            .map(|row| row.iter().map(|&v| if v == 0.0 { 0.0 } else { v }).collect())
            .collect();
        assert!(x.iter().any(|row| row[0].is_sign_negative() && row[0] == 0.0));
        let data = |x: Vec<Vec<f64>>| Dataset::new(x, y.clone(), vec!["v".into(), "w".into()]);
        let (signed, plain) = (data(x), data(plain));
        let tree = DecisionTree::fit(&signed, TreeConfig::default());
        assert!(tree.n_leaves() > 1);
        assert_eq!(
            serde::bin::to_vec(&tree),
            serde::bin::to_vec(&DecisionTree::fit(&plain, TreeConfig::default()))
        );
        let cfg = ForestConfig { n_trees: 6 };
        let (a, b) = (RandomForest::fit(&signed, cfg), RandomForest::fit(&plain, cfg));
        for (ta, tb) in a.trees().iter().zip(b.trees()) {
            assert_eq!(serde::bin::to_vec(ta), serde::bin::to_vec(tb));
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        DecisionTree::fit(&Dataset::default(), TreeConfig::default());
    }
}
