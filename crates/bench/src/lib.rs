//! # campuslab-bench
//!
//! The experiment harness: one module per figure/experiment in
//! `EXPERIMENTS.md`, each exposing `run() -> String` (the printed table)
//! so `exp <id>` and `exp all` share one implementation. Wall-clock
//! performance is the PerfLedger's job (`benchmark/`, `BENCHMARK.json`).

pub mod table;
pub mod experiments;
pub mod obs_export;
pub mod runner;

pub use experiments::{
    e10_mitigation_styles, e11_resilience, e12_multiclass, e13_perf_pinpoint, e14_chaos,
    e15_rollout_guard, e16_resolver, e17_driftpilot, e18_tenant_plaza, e19_phoenix, e1_ddos_gate, e2_lossless_capture, e3_datastore_query,
    e4_privacy_utility, e5_distillation, e6_dataplane_compile, e7_cross_campus, e8_placement,
    e9_trust_report, fig1_dual_role, fig2_loops,
};

pub use obs_export::ObsBundle;

/// One registry entry: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// One [`PINNED`] entry: `(id, Observatory-instrumented runner)`.
pub type Pinned = (&'static str, fn() -> ObsBundle);

/// The golden-pinned experiments: each id's Observatory-instrumented
/// runner. These run the *same* code as the plain `run()` (which
/// delegates to them), returning the table plus the metrics dump and
/// sim-time trace. [`observed`], `gen_golden` and the replay test in
/// `tests/golden_replay.rs` all iterate this one table, so a golden
/// cannot be regenerated without being replayed, or the reverse.
pub const PINNED: [Pinned; 9] = [
    ("E1", e1_ddos_gate::run_observed),
    ("E3", e3_datastore_query::run_observed),
    ("E7", e7_cross_campus::run_observed),
    ("E14", e14_chaos::run_observed),
    ("E15", e15_rollout_guard::run_observed),
    ("E16", e16_resolver::run_observed),
    ("E17", e17_driftpilot::run_observed),
    ("E18", e18_tenant_plaza::run_observed),
    ("E19", e19_phoenix::run_observed),
];

/// The instrumented runner for an experiment id, when it is [`PINNED`].
pub fn observed(id: &str) -> Option<fn() -> ObsBundle> {
    PINNED.iter().find(|(pinned, _)| *pinned == id).map(|&(_, run)| run)
}

/// Every experiment, in report order.
pub fn all() -> Vec<Experiment> {
    vec![
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
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_is_complete_and_unique() {
        let all = super::all();
        assert_eq!(all.len(), 21);
        let ids: std::collections::HashSet<&str> = all.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids.len(), 21);
    }
}
