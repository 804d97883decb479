//! # campuslab-xai
//!
//! Explainable-AI tooling for the paper's road to deployment (§5):
//!
//! * [`mod@distill`] — model extraction: a DAgger loop that queries a
//!   heavyweight black box (forest, MLP) and fits a shallow decision tree
//!   "that is explainable or interpretable, lightweight and closely
//!   approximates the original model" (step (ii)), with fidelity reports.
//! * [`mod@explain`] — per-decision evidence lists (step (iv)): the exact
//!   comparisons the deployed model made, rendered for an operator, plus
//!   the does-the-evidence-match-the-known-cause trust check of
//!   experiment E9.
//! * [`mod@counterfactual`] — minimal what-would-flip-it explanations, the
//!   complementary query operators ask after "why?": "what if?".

//!
//! ```
//! use campuslab_ml::{Dataset, DecisionTree, TreeConfig};
//! use campuslab_xai::explain;
//!
//! let data = Dataset::new(
//!     vec![vec![100.0], vec![200.0], vec![3_000.0], vec![4_000.0]],
//!     vec![0, 0, 1, 1],
//!     vec!["wire_len".into()],
//! );
//! let tree = DecisionTree::fit(&data, TreeConfig::shallow(2));
//! let why = explain(&tree, &data.feature_names, &[3_500.0]);
//! assert_eq!(why.predicted_class, 1);
//! assert!(why.evidence[0].condition.contains("wire_len"));
//! ```

pub mod distill;
pub mod explain;
pub mod counterfactual;

pub use counterfactual::{apply, counterfactual, Counterfactual, FeatureChange};
pub use distill::{distill, DistillConfig, DistillationReport};
pub use explain::{evidence_matches_expectation, explain, Evidence, Explanation};
