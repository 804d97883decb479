//! `campuslab-suite` is the workspace-root package hosting two runnable
//! examples that assert what they print (`examples/`) and the cross-crate
//! integration tests (`tests/`). Experiments run through `exp <id>`.
//! The library surface lives in the [`campuslab`] facade crate.
pub use campuslab;
