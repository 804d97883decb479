//! # campuslab-control
//!
//! The two loops of the paper's Figure 2:
//!
//! * **Development loop (slow, offline)** — [`devloop`]: data store →
//!   black-box training → XAI model extraction → compilation to a switch
//!   program, producing a *deployable learning model* with fidelity and
//!   accuracy reports.
//! * **Control loop (fast, online)** — [`fastloop`], [`detector`],
//!   [`controller`]: the deployed program sensing/inferring/reacting per
//!   packet at the switch (the controller's filter bank; [`fastloop`] is
//!   its shadow on mirrored traffic), the window detector at the controller
//!   or cloud tier, and the mitigation controller that closes detection
//!   into victim-scoped rule installation with placement-dependent latency
//!   (experiment E8).

//!
//! ```
//! use campuslab_control::Placement;
//!
//! // The three inference tiers of experiment E8, ordered by reaction time.
//! assert!(Placement::Switch.install_delay() < Placement::Controller.install_delay());
//! assert!(Placement::Controller.install_delay() < Placement::Cloud.install_delay());
//! ```

pub mod fastloop;
pub mod detector;
pub mod devloop;
pub mod controller;
pub mod rollout;
pub mod driftpilot;
pub mod observe;

pub use controller::{
    BankEntry, BankFilter, BankHandle, ControllerState, FastLoopStatsSnapshot, FrozenBank,
    FrozenController, GiveUpReason, InstallGiveUp, InstallPolicy, MitigationController,
    MitigationControllerConfig, MitigationEvent, PendingInstall, Placement, ProgramScope,
};
pub use detector::{Detection, DetectorState, FrozenDetector, StreamingWindowDetector};
pub use devloop::{
    run_development_loop, DevLoopConfig, DevLoopResult, ModelEval, Student, Teacher, TeacherKind,
    TeacherModel,
};
pub use driftpilot::{
    records_hash, retrain_window, DriftEpisode, DriftPilot, FrozenDriftPilot,
    PilotState, RetrainOutcome, RetrainRecord, RetrainTrigger,
};
pub use fastloop::{ShadowMirror, ShadowWindow};
pub use observe::{ControllerObs, DetectorObs, DriftObs, PlazaObs, PlazaTally, RolloutObs};
pub use rollout::{
    BreakerState, Candidate, CircuitBreaker, CircuitBreakerPolicy, FrozenGuard, GuardState,
    ProgramRegistry, RejectReason, RolloutConfig, RolloutEvent, RolloutEventKind, RolloutGuard,
    RolloutStage, SloViolation, PROMOTE_AFTER,
};
