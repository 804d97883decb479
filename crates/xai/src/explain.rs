//! Evidence lists: "a learning model ... that could be routinely queried
//! for the list of pieces of evidence that the model used to arrive at its
//! decisions" (paper §5, step (iv)).

use campuslab_ml::{Classifier, DecisionTree};
use std::collections::BTreeSet;

/// One piece of evidence: a satisfied comparison on a named feature.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    pub feature: String,
    pub feature_index: usize,
    /// The comparison the sample satisfied, e.g. `wire_len > 612`.
    pub condition: String,
    /// The sample's actual value.
    pub value: f64,
}

/// A queryable explanation of one decision.
#[derive(Debug, Clone)]
pub struct Explanation {
    pub predicted_class: usize,
    pub confidence: f64,
    /// Root-to-leaf evidence, in the order the model consulted it.
    pub evidence: Vec<Evidence>,
}

impl Explanation {
    /// The set of feature indexes the decision rested on.
    pub fn features_used(&self) -> BTreeSet<usize> {
        self.evidence.iter().map(|e| e.feature_index).collect()
    }

    /// Render as an operator-facing bullet list.
    pub fn to_text(&self, class_name: &str) -> String {
        let mut s = format!(
            "verdict: {} (confidence {:.1}%)\n",
            class_name,
            self.confidence * 100.0
        );
        for e in &self.evidence {
            s.push_str(&format!("  - {} (observed {})\n", e.condition, e.value));
        }
        s
    }
}

/// Explain one decision of a tree over named features.
pub fn explain(tree: &DecisionTree, feature_names: &[String], row: &[f64]) -> Explanation {
    let (predicted_class, confidence) = tree.predict_with_confidence(row);
    let evidence = tree
        .decision_path(row)
        .into_iter()
        .map(|step| {
            let name = feature_names
                .get(step.feature)
                .cloned()
                .unwrap_or_else(|| format!("f{}", step.feature));
            let condition = if step.went_left {
                format!("{} <= {:.6}", name, step.threshold)
            } else {
                format!("{} > {:.6}", name, step.threshold)
            };
            Evidence {
                feature: name,
                feature_index: step.feature,
                condition,
                value: row[step.feature],
            }
        })
        .collect();
    Explanation { predicted_class, confidence, evidence }
}

/// Does the evidence rest on the features a domain expert would expect for
/// this phenomenon? The trust metric of experiment E9: operators trust a
/// model whose stated evidence matches the known cause.
pub fn evidence_matches_expectation(
    explanation: &Explanation,
    expected_features: &[usize],
) -> bool {
    let used = explanation.features_used();
    expected_features.iter().any(|f| used.contains(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_ml::{Dataset, TreeConfig};

    fn tree_and_names() -> (DecisionTree, Vec<String>) {
        // Class 1 iff size > 500.
        let x: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i) * 10.0, 1.0]).collect();
        let y: Vec<usize> = (0..100).map(|i| usize::from(i * 10 > 500)).collect();
        let names = vec!["size".to_string(), "flag".to_string()];
        let d = Dataset::new(x, y, names.clone());
        (DecisionTree::fit(&d, TreeConfig::shallow(3)), names)
    }

    #[test]
    fn explanation_names_the_deciding_feature() {
        let (tree, names) = tree_and_names();
        let ex = explain(&tree, &names, &[800.0, 1.0]);
        assert_eq!(ex.predicted_class, 1);
        assert!(!ex.evidence.is_empty());
        assert!(ex.evidence.iter().all(|e| e.feature == "size"));
        assert!(ex.evidence[0].condition.contains("size >"));
        assert_eq!(ex.evidence[0].value, 800.0);
        assert!(ex.confidence > 0.9);
    }

    #[test]
    fn text_rendering_contains_verdict_and_evidence() {
        let (tree, names) = tree_and_names();
        let ex = explain(&tree, &names, &[100.0, 1.0]);
        let text = ex.to_text("benign");
        assert!(text.contains("verdict: benign"));
        assert!(text.contains("size <="));
    }

    #[test]
    fn expectation_matching() {
        let (tree, names) = tree_and_names();
        let ex = explain(&tree, &names, &[800.0, 1.0]);
        assert!(evidence_matches_expectation(&ex, &[0]));
        assert!(!evidence_matches_expectation(&ex, &[1]));
        assert!(evidence_matches_expectation(&ex, &[1, 0]));
    }

    #[test]
    fn features_used_is_the_path_set() {
        let (tree, names) = tree_and_names();
        let ex = explain(&tree, &names, &[505.0, 1.0]);
        let used = ex.features_used();
        assert!(used.contains(&0));
        assert!(!used.contains(&1));
    }
}
