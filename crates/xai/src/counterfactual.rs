//! Counterfactual explanations: the *other* half of operator trust.
//! An evidence list says why the model decided; a counterfactual says what
//! would have had to be different — "had this datagram been under 612
//! bytes, it would have passed". For tree models the minimal axis-aligned
//! counterfactual is computable exactly by searching leaf regions.

use campuslab_ml::{Classifier, DecisionTree};

/// One feature change needed to flip the decision.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureChange {
    pub feature: String,
    pub feature_index: usize,
    pub from: f64,
    pub to: f64,
}

/// A minimal counterfactual for one decision.
#[derive(Debug, Clone)]
pub struct Counterfactual {
    /// The class the changed input would receive.
    pub target_class: usize,
    pub changes: Vec<FeatureChange>,
    /// L0 cost (features changed).
    pub n_changes: usize,
    /// Normalized L1 distance of the change.
    pub distance: f64,
}

impl Counterfactual {
    /// Render for an operator.
    pub fn to_text(&self, class_name: &str) -> String {
        let mut s = format!("would be classified '{}' if:\n", class_name);
        for c in &self.changes {
            s.push_str(&format!(
                "  - {} were {} (observed {})\n",
                c.feature, c.to, c.from
            ));
        }
        s
    }
}

/// Find the minimal-change counterfactual that moves `row` into a leaf of
/// `target_class`. Distance is L1 over per-feature spans estimated from
/// the leaf bounds themselves; ties break on fewer changed features.
/// Returns None when the tree has no leaf of the target class.
pub fn counterfactual(
    tree: &DecisionTree,
    feature_names: &[String],
    row: &[f64],
    target_class: usize,
) -> Option<Counterfactual> {
    if tree.predict(row) == target_class {
        return Some(Counterfactual {
            target_class,
            changes: Vec::new(),
            n_changes: 0,
            distance: 0.0,
        });
    }
    let rules = tree.leaf_rules();
    let mut best: Option<Counterfactual> = None;
    for rule in rules.iter().filter(|r| r.class == target_class) {
        let mut changes = Vec::new();
        let mut distance = 0.0;
        let mut feasible = true;
        for &(f, lo, hi) in &rule.bounds {
            let v = row[f];
            if v > lo && v <= hi {
                continue; // already inside this bound
            }
            // The nearest value inside (lo, hi]: nudge past the violated
            // edge by the smallest sensible amount.
            let to = if v <= lo {
                if lo.is_finite() {
                    lo + 1.0
                } else {
                    feasible = false;
                    break;
                }
            } else if hi.is_finite() {
                hi
            } else {
                feasible = false;
                break;
            };
            // Check it still satisfies both edges (degenerate intervals).
            if !(to > lo && to <= hi) {
                feasible = false;
                break;
            }
            let span = if lo.is_finite() && hi.is_finite() {
                (hi - lo).max(1.0)
            } else {
                (v - to).abs().max(1.0)
            };
            distance += (v - to).abs() / span;
            changes.push(FeatureChange {
                feature: feature_names
                    .get(f)
                    .cloned()
                    .unwrap_or_else(|| format!("f{f}")),
                feature_index: f,
                from: v,
                to,
            });
        }
        if !feasible || changes.is_empty() {
            continue;
        }
        let candidate = Counterfactual {
            target_class,
            n_changes: changes.len(),
            distance,
            changes,
        };
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.n_changes < b.n_changes
                    || (candidate.n_changes == b.n_changes && candidate.distance < b.distance)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best
}

/// Apply a counterfactual to a row (for verification).
pub fn apply(row: &[f64], cf: &Counterfactual) -> Vec<f64> {
    let mut out = row.to_vec();
    for c in &cf.changes {
        out[c.feature_index] = c.to;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::{Dataset, TreeConfig};

    /// Class 1 iff size > 500 && udp == 1.
    fn tree_and_names() -> (DecisionTree, Vec<String>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for size in (0..100).map(|i| i as f64 * 10.0) {
            for udp in [0.0, 1.0] {
                x.push(vec![size, udp]);
                y.push(usize::from(size > 500.0 && udp > 0.5));
            }
        }
        let names = vec!["size".to_string(), "udp".to_string()];
        let d = Dataset::new(x, y, names.clone());
        (DecisionTree::fit(&d, TreeConfig::shallow(3)), names)
    }

    #[test]
    fn flipping_a_benign_packet_requires_the_right_changes() {
        let (tree, names) = tree_and_names();
        // A small TCP packet: benign. What makes it an attack?
        let row = vec![100.0, 0.0];
        assert_eq!(tree.predict(&row), 0);
        let cf = counterfactual(&tree, &names, &row, 1).expect("attack leaf exists");
        assert!(cf.n_changes >= 1 && cf.n_changes <= 2);
        // Verify the counterfactual actually flips the decision.
        let flipped = apply(&row, &cf);
        assert_eq!(tree.predict(&flipped), 1, "cf {cf:?}");
    }

    #[test]
    fn attack_packet_counterfactual_to_benign() {
        let (tree, names) = tree_and_names();
        let row = vec![800.0, 1.0];
        assert_eq!(tree.predict(&row), 1);
        let cf = counterfactual(&tree, &names, &row, 0).expect("benign leaf exists");
        let flipped = apply(&row, &cf);
        assert_eq!(tree.predict(&flipped), 0);
        // The minimal change touches exactly one feature.
        assert_eq!(cf.n_changes, 1, "{cf:?}");
    }

    #[test]
    fn already_target_class_is_the_empty_counterfactual() {
        let (tree, names) = tree_and_names();
        let row = vec![800.0, 1.0];
        let cf = counterfactual(&tree, &names, &row, 1).unwrap();
        assert_eq!(cf.n_changes, 0);
        assert_eq!(cf.distance, 0.0);
    }

    #[test]
    fn missing_target_class_returns_none() {
        // A pure dataset: the tree has only class-0 leaves.
        let d = Dataset::new(
            vec![vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 0, 0],
            vec!["v".into()],
        );
        let tree = DecisionTree::fit(&d, TreeConfig::shallow(2));
        assert!(counterfactual(&tree, &["v".into()], &[1.0], 1).is_none());
    }

    #[test]
    fn rendering_mentions_feature_and_values() {
        let (tree, names) = tree_and_names();
        let cf = counterfactual(&tree, &names, &[100.0, 1.0], 1).unwrap();
        let text = cf.to_text("attack");
        assert!(text.contains("would be classified 'attack'"));
        assert!(text.contains("size"));
    }
}
