//! Parallel experiment runner: fans [`crate::EXPERIMENTS`] out across
//! cores and returns the reports in table order.
//!
//! Every experiment is a pure `fn() -> ObsBundle` with its own internal
//! seeds, so running them concurrently cannot change any byte; only the
//! wall-clock time of a full regeneration drops. Worker count follows
//! `CAMPUSLAB_JOBS` / available parallelism (see
//! [`campuslab::netsim::par::worker_count`]).

use crate::obs_export::ObsBundle;
use campuslab::netsim::par::parallel_map;

/// One regenerated experiment.
pub struct ExperimentReport {
    /// Table id, e.g. `"E7"`.
    pub id: &'static str,
    /// Human-readable title from the table.
    pub title: &'static str,
    /// What the run produced: table, metrics dump, trace.
    pub obs: ObsBundle,
}

/// Regenerate every experiment in parallel, preserving table order.
pub fn run_all() -> Vec<ExperimentReport> {
    parallel_map(&crate::EXPERIMENTS, |_, &(id, title, run)| ExperimentReport {
        id,
        title,
        obs: run(),
    })
}
