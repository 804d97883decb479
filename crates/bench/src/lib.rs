//! # campuslab-bench
//!
//! The experiment harness: one module per figure/experiment in
//! `EXPERIMENTS.md`, each exposing `run() -> ObsBundle` (the printed table
//! plus its telemetry), listed once in [`EXPERIMENTS`]. Nothing here reads
//! a clock: every byte an experiment prints is golden-pinned, and
//! wall-clock performance is the PerfLedger's job (`benchmark/`,
//! `BENCHMARK.json`).

pub mod docs;
pub mod experiments;
pub mod obs_export;
pub mod runner;
pub mod table;

use experiments::*;

pub use obs_export::ObsBundle;

/// Every experiment in report order: `(id, title, runner)`. Each runner
/// is a pure function of its internal seeds — it reads no clock, and
/// `CAMPUSLAB_JOBS` picks an executor without moving a byte — returning the table plus whatever telemetry the run produced
/// (empty `prom`/`trace` when it produced none). `exp`, `runner::run_all`,
/// `gen_golden` and the replay test in `tests/golden_replay.rs` all
/// iterate this one table, so an experiment cannot be listed without
/// being pinned, or a golden regenerated without being replayed.
#[allow(clippy::type_complexity)] // spelled out: the entry's shape is the table's documentation
pub const EXPERIMENTS: [(&str, &str, fn() -> ObsBundle); 21] = [
    ("F1", "Figure 1: the dual role (data source + testbed)", fig1_dual_role::run),
    ("F2", "Figure 2: slow development loop vs fast control loop", fig2_loops::run),
    ("E1", "DDoS mitigation confidence gate (\u{2265}90% rule)", e1_ddos_gate::run),
    ("E2", "Lossless full packet capture envelope", e2_lossless_capture::run),
    ("E3", "Data store: indexed vs full-scan search", e3_datastore_query::run),
    ("E4", "Privacy: prefix preservation and model utility", e4_privacy_utility::run),
    ("E5", "Model extraction: fidelity vs tree depth", e5_distillation::run),
    ("E6", "Data-plane compilation and concurrent-task ceiling", e6_dataplane_compile::run),
    ("E7", "Cross-campus reproducibility matrix", e7_cross_campus::run),
    ("E8", "Inference placement: latency vs suppression", e8_placement::run),
    ("E9", "Operator trust: evidence audits", e9_trust_report::run),
    ("E10", "Ablation: hard drop vs rate-limit policing", e10_mitigation_styles::run),
    ("E11", "Failure injection: road-testing through an outage", e11_resilience::run),
    ("E12", "Multi-class attack identification, five concurrent tasks", e12_multiclass::run),
    ("E13", "Performance pinpointing from passive handshake RTTs", e13_perf_pinpoint::run),
    ("E14", "Robustness under chaos: graceful degradation sweep", e14_chaos::run),
    ("E15", "Guarded deployment under chaos: shadow/canary rollback", e15_rollout_guard::run),
    ("E16", "Resolver under water torture: degrade, defend, recover", e16_resolver::run),
    ("E17", "Always-on pipeline under drift: DriftPilot", e17_driftpilot::run),
    ("E18", "Multi-tenant experimentation-as-a-service: TenantPlaza", e18_tenant_plaza::run),
    ("E19", "PhoenixRun: crash-fault tolerance (checkpoint/restore + WAL)", e19_phoenix::run),
];

#[cfg(test)]
mod tests {
    #[test]
    fn ids_are_unique() {
        let ids: std::collections::HashSet<&str> =
            super::EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids.len(), super::EXPERIMENTS.len());
    }
}
