//! Differential oracle for the sort-once grower. This file keeps a copy of
//! the per-node-sort CART grower and of the materialised-bootstrap forest
//! it replaced, as the reference only: every tree the crate grows must
//! serialize to the same bytes as the reference's, and the forest's
//! probabilities must equal the reference's to the bit. Inputs are tie-heavy on purpose — a small alphabet of values
//! per column (including −0.0 beside 0.0), duplicated rows, one to four
//! classes — because a tie-order bug shows only where values repeat.

use campuslab_ml::{Classifier, Dataset, DecisionTree, ForestConfig, Node, RandomForest, TreeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const MIN_SAMPLES_SPLIT: usize = 4;
const MAX_THRESHOLDS: usize = 64;
const FOREST_SEED: u64 = 0xF0_4E57;
const SAMPLE_FRAC: f64 = 0.8;

/// `DecisionTree`'s serialized shape, field for field.
#[derive(Serialize)]
struct RefTree {
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

impl RefTree {
    fn fit(data: &Dataset, cfg: TreeConfig) -> Self {
        let idx: Vec<usize> = (0..data.len()).collect();
        let mut tree = RefTree {
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

    /// Every node sorts a fresh `(value, label)` vector per feature.
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
        let mut best: Option<(usize, f64, f64)> = None;
        let mut best_any: Option<(usize, f64, f64)> = None;
        for f in 0..self.n_features {
            let mut values: Vec<(f64, usize)> =
                idx.iter().map(|&i| (data.x[i][f], data.y[i])).collect();
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
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
                if impurity < parent_gini - 1e-12 && best.is_none_or(|(_, _, b)| impurity < b) {
                    best = Some((f, thr, impurity));
                }
                if best_any.is_none_or(|(_, _, b)| impurity < b) {
                    best_any = Some((f, thr, impurity));
                }
            }
        }
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

    fn leaf_dist(&self, row: &[f64]) -> &[f64] {
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
}

/// The forest as it was: each tree fits a materialised bootstrap.
struct RefForest {
    trees: Vec<RefTree>,
    n_classes: usize,
}

impl RefForest {
    fn fit(data: &Dataset, cfg: ForestConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(FOREST_SEED);
        let n = data.len();
        let sample = ((n as f64) * SAMPLE_FRAC).max(1.0) as usize;
        let mut trees = Vec::new();
        for _ in 0..cfg.n_trees {
            let idx: Vec<usize> = (0..sample).map(|_| rng.gen_range(0..n)).collect();
            trees.push(RefTree::fit(&data.select(&idx), TreeConfig::default()));
        }
        RefForest { trees, n_classes: data.n_classes.max(1) }
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

/// Symbol `s` of a column's alphabet: 0 is −0.0, the rest step by 1.5
/// from −1.5 (so 2 is 0.0).
fn value(s: usize) -> f64 {
    if s == 0 {
        -0.0
    } else {
        (s as f64 - 2.0) * 1.5
    }
}

/// Tie-heavy datasets: per-column alphabets of 2–5 symbols (packet-field
/// like), 60–400 (enough distinct values to engage the threshold stride)
/// or a million (effectively continuous); then some rows repeated.
fn tie_heavy() -> impl Strategy<Value = Dataset> {
    (1usize..6, 4usize..260, 1usize..=4).prop_flat_map(|(n_features, n_rows, n_classes)| {
        (
            proptest::collection::vec(
                prop_oneof![2usize..6, 2usize..6, 60usize..400, Just(1_000_000)],
                n_features,
            ),
            proptest::collection::vec(proptest::collection::vec(any::<u64>(), n_features), n_rows),
            proptest::collection::vec(0usize..n_classes, n_rows),
            proptest::collection::vec(0usize..n_rows, 0..n_rows),
        )
            .prop_map(move |(alphabets, draws, mut y, repeats)| {
                let mut x: Vec<Vec<f64>> = draws
                    .iter()
                    .map(|row| {
                        row.iter().zip(&alphabets).map(|(&d, &a)| value(d as usize % a)).collect()
                    })
                    .collect();
                for r in repeats {
                    x.push(x[r].clone());
                    y.push(y[r]);
                }
                let names = (0..n_features).map(|f| format!("f{f}")).collect();
                Dataset::new(x, y, names)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A single tree at any depth and leaf size equals the per-node-sort
    /// reference byte for byte.
    #[test]
    fn tree_bytes_match_the_per_node_sort(
        data in tie_heavy(),
        max_depth in 1usize..=12,
        min_samples_leaf in 1usize..4,
    ) {
        let cfg = TreeConfig { max_depth, min_samples_leaf };
        prop_assert_eq!(
            serde::bin::to_vec(&DecisionTree::fit(&data, cfg)),
            serde::bin::to_vec(&RefTree::fit(&data, cfg))
        );
    }

    /// Every tree of a forest equals the materialised-bootstrap
    /// reference's; so do the probabilities on every row.
    #[test]
    fn forest_matches_the_materialised_bootstrap(
        data in tie_heavy(),
        n_trees in 1usize..6,
    ) {
        let cfg = ForestConfig { n_trees };
        let forest = RandomForest::fit(&data, cfg);
        let reference = RefForest::fit(&data, cfg);
        prop_assert_eq!(forest.n_trees(), reference.trees.len());
        for (tree, ref_tree) in forest.trees().iter().zip(&reference.trees) {
            prop_assert_eq!(serde::bin::to_vec(tree), serde::bin::to_vec(ref_tree));
        }
        for row in &data.x {
            let bits = |p: Vec<f64>| p.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(bits(forest.predict_proba(row)), bits(reference.predict_proba(row)));
        }
    }
}
