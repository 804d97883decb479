//! # campuslab-testbed
//!
//! The campus as testbed (the paper's Part-2 proposal): scenario
//! definitions, data collection into the store, road tests with
//! placement-dependent mitigation, the cross-campus reproducibility
//! protocol, operator trust reports, and the deployment gate that stands
//! in for the researcher↔IT "support contract".
//!
//! * [`scenario`] — describe + run a campus day (workload, attacks,
//!   monitoring), collect records, land them in a [`campuslab_datastore::DataStore`].
//! * [`roadtest`] — deploy a developed model against a fresh attack and
//!   measure time-to-mitigation, suppression, and collateral damage.
//! * [`crosscampus`] — train the shared algorithm privately at N campuses,
//!   evaluate every model everywhere (experiment E7).
//! * [`trust`] — evidence audits: does the model cite the features an
//!   analyst expects? (experiment E9)
//! * [`mod@chaos_sweep`] — robustness under chaos: sweep a fault-intensity
//!   knob and measure how detection recall, mitigation latency and
//!   delivery degrade (experiment E14).
//! * [`rollout`] — SLO-guarded deployment: shadow → canary → full
//!   promotion of candidate programs with automatic rollback
//!   (experiment E15).
//! * [`resolverlab`] — the caching recursive resolver as a live campus
//!   service under a water-torture flood, its give-ups surfaced to the
//!   rollout guard as rollback evidence (experiment E16).
//! * [`driftpilot`] — the always-on learn → distill → compile → deploy
//!   loop under traffic drift, as a resumable [`DriftSession`]
//!   (experiment E17).
//! * [`phoenix`] — crash-fault tolerance: the checkpoint envelope and the
//!   kill-point harness over any [`Session`] (experiment E19).
//! * [`session`] — the one way to compose a run: a [`Stack`] of optional
//!   hook members and the [`Session`] lifecycle every driver above goes
//!   through.
//!
//! ```no_run
//! use campuslab_testbed::{collect, Scenario};
//!
//! // One call runs the campus and captures everything at the border.
//! let data = collect(&Scenario::small());
//! assert!(data.packets.len() > 0);
//! ```

pub mod observe;
pub mod scenario;
pub mod session;
pub mod roadtest;
pub mod resolverlab;
pub mod rollout;
pub mod crosscampus;
pub mod trust;
pub mod chaos_sweep;
pub mod driftpilot;
pub mod phoenix;
#[doc(hidden)]
pub mod fixtures;

pub use chaos_sweep::{
    chaos_road_test_config, chaos_sweep, chaos_sweep_observed, ChaosPoint, ChaosSweepConfig,
};
pub use crosscampus::{cross_campus, cross_campus_observed, CampusSite, CrossCampusResult};
pub use driftpilot::{drift_road_test, DriftRunConfig, DriftRunOutcome, DriftSession};
pub use phoenix::{
    decode_checkpoint, encode_checkpoint, fingerprint, CrashCart, Fingerprint, PhoenixCheckpoint,
    PhoenixError, PHOENIX_MAGIC, PHOENIX_VERSION,
};
pub use observe::{metric_catalogue, FilterObs, RunObs};
pub use roadtest::{
    deployment_decision, road_test, DeploymentDecision, GateCriteria, RoadTestConfig,
    RoadTestOutcome,
};
pub use resolverlab::{resolver_run, ResolverRunConfig, ResolverRunOutcome};
pub use rollout::{canary_hosts, guarded_road_test, GuardedRunConfig, GuardedRunOutcome};
pub use scenario::{
    build_schedule, build_store, collect, shard_by_second, AttackScenario, CollectedData, Scenario,
};
pub use session::{
    timeline, Finished, FrozenStack, GuardSpec, Members, Session, SliceFreezeError, Stack,
};
pub use trust::{expected_features, trust_report, AuditedDecision, TrustReport};
