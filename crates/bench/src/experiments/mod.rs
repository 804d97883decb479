//! One module per figure/experiment. Every module exposes
//! `pub fn run() -> ObsBundle` — the rendered report section plus the run's
//! telemetry — and is listed once in [`crate::EXPERIMENTS`].

pub mod fig1_dual_role;
pub mod fig2_loops;
pub mod e1_ddos_gate;
pub mod e2_lossless_capture;
pub mod e3_datastore_query;
pub mod e4_privacy_utility;
pub mod e5_distillation;
pub mod e6_dataplane_compile;
pub mod e7_cross_campus;
pub mod e8_placement;
pub mod e9_trust_report;
pub mod e10_mitigation_styles;
pub mod e11_resilience;
pub mod e12_multiclass;
pub mod e13_perf_pinpoint;
pub mod e14_chaos;
pub mod e15_rollout_guard;
pub mod e16_resolver;
pub mod e17_driftpilot;
pub mod e18_tenant_plaza;
pub mod e19_phoenix;
