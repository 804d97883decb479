//! Property tests for the learning stack: structural invariants that must
//! hold on arbitrary data, not just the curated fixtures.

use campuslab_ml::{Classifier, Dataset, DecisionTree, ForestConfig, RandomForest, TreeConfig};
use proptest::prelude::*;

fn arb_dataset(max_rows: usize) -> impl Strategy<Value = Dataset> {
    (2usize..5, 10usize..max_rows).prop_flat_map(|(n_features, n_rows)| {
        (
            proptest::collection::vec(
                proptest::collection::vec(-100.0f64..100.0, n_features),
                n_rows,
            ),
            proptest::collection::vec(0usize..3, n_rows),
        )
            .prop_map(move |(x, y)| {
                let names = (0..n_features).map(|i| format!("f{i}")).collect();
                Dataset::new(x, y, names)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Trees fit on arbitrary data without panicking, respect depth, and
    /// produce normalized probabilities whose argmax equals predict().
    #[test]
    fn tree_invariants(data in arb_dataset(120), depth in 1usize..6) {
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(depth));
        prop_assert!(tree.depth() <= depth);
        for row in data.x.iter().take(30) {
            let p = tree.predict_proba(row);
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let argmax = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            prop_assert_eq!(argmax, tree.predict(row));
        }
    }

    /// Leaf rules partition the feature space: every training row matches
    /// exactly one rule, and that rule's class is the tree's prediction.
    #[test]
    fn leaf_rules_partition(data in arb_dataset(100)) {
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(4));
        let rules = tree.leaf_rules();
        prop_assert_eq!(rules.len(), tree.n_leaves());
        for row in &data.x {
            let hits: Vec<_> = rules
                .iter()
                .filter(|r| r.bounds.iter().all(|&(f, lo, hi)| row[f] > lo && row[f] <= hi))
                .collect();
            prop_assert_eq!(hits.len(), 1);
            prop_assert_eq!(hits[0].class, tree.predict(row));
        }
    }

    /// Laplace-smoothed rule confidence is always strictly inside (0, 1)
    /// and never exceeds what the support can justify.
    #[test]
    fn rule_confidence_is_smoothed(data in arb_dataset(100)) {
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(4));
        for rule in tree.leaf_rules() {
            prop_assert!(rule.confidence > 0.0 && rule.confidence < 1.0);
            let n = rule.support as f64;
            let cap = (n + 1.0) / (n + data.n_classes.max(2) as f64);
            prop_assert!(rule.confidence <= cap + 1e-12);
        }
    }

    /// Forests never panic and vote within the label space.
    #[test]
    fn forest_predictions_in_range(data in arb_dataset(80)) {
        let forest = RandomForest::fit(
            &data,
            ForestConfig { n_trees: 5 },
        );
        for row in data.x.iter().take(20) {
            prop_assert!(forest.predict(row) < data.n_classes.max(1));
        }
    }

    /// Ordered and shuffled splits both conserve rows.
    #[test]
    fn splits_conserve_rows(data in arb_dataset(100), frac in 0.1f64..0.9) {
        let (a, b) = data.split_by_order(frac);
        prop_assert_eq!(a.len() + b.len(), data.len());
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        let (c, d) = data.split_shuffled(frac, &mut rng);
        prop_assert_eq!(c.len() + d.len(), data.len());
    }
}
