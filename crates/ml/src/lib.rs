//! # campuslab-ml
//!
//! From-scratch supervised learning for the paper's development loop:
//! heavyweight "black-box" models (random forest, MLP), a lightweight
//! interpretable model (shallow CART tree — the distillation target), and
//! the metrics every experiment reports.
//!
//! Everything is seeded and deterministic: the same dataset and config
//! always produce the same model, which is what makes CampusLab's
//! cross-campus reproducibility protocol (experiment E7) meaningful.
//!
//! ```
//! use campuslab_ml::{Classifier, Dataset, DecisionTree, TreeConfig};
//!
//! let data = Dataset::new(
//!     vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
//!     vec![0, 0, 1, 1],
//!     vec!["bytes".into()],
//! );
//! let tree = DecisionTree::fit(&data, TreeConfig::shallow(2));
//! assert_eq!(tree.predict(&[1.5]), 0);
//! assert_eq!(tree.predict(&[10.5]), 1);
//! ```

pub mod data;
pub mod model;
pub mod tree;
pub mod forest;
pub mod mlp;
pub mod metrics;

pub use data::{Dataset, Normalizer};
pub use forest::{ForestConfig, RandomForest};
pub use metrics::{fidelity, ConfusionMatrix};
pub use mlp::{Mlp, MlpConfig, NormalizedMlp};
pub use model::Classifier;
pub use tree::{DecisionTree, LeafRule, Node, PathStep, TreeConfig};
