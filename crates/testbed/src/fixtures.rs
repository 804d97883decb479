//! The one developed-model fixture the workspace's test suites share: a
//! compiled pipeline program plus a window model, trained the way E1
//! trains them. Public (and hidden from the docs) only because the
//! integration suites of this crate and of `campuslab-plaza` link against
//! the library, not against its `#[cfg(test)]` items.

use crate::scenario::{collect, Scenario};
use campuslab_control::{run_development_loop, DevLoopConfig};
use campuslab_dataplane::PipelineProgram;
use campuslab_features::{window_dataset, LabelMode, WindowConfig};
use campuslab_ml::{DecisionTree, TreeConfig};

/// Collect `scenario`, run the development loop over the capture and fit
/// the controller's window model on the same data.
pub fn train(scenario: &Scenario) -> (PipelineProgram, DecisionTree) {
    let data = collect(scenario);
    let dev = run_development_loop(&data.packets, &DevLoopConfig::default());
    let wd = window_dataset(
        &data.packets,
        WindowConfig { window_ns: 1_000_000_000, min_packets: 5 },
        LabelMode::BinaryAttack,
    );
    (dev.program, DecisionTree::fit(&wd, TreeConfig::shallow(4)))
}

/// [`train`] on [`Scenario::small`], once per process: the dev loop is
/// the expensive part of most suites, and every test only needs its
/// (deterministic) output.
pub fn trained() -> &'static (PipelineProgram, DecisionTree) {
    static TRAINED: std::sync::OnceLock<(PipelineProgram, DecisionTree)> =
        std::sync::OnceLock::new();
    TRAINED.get_or_init(|| train(&Scenario::small()))
}
