//! # campuslab-plaza
//!
//! TenantPlaza: multi-tenant Experimentation-as-a-Service on one shared
//! campus (experiment E18). The paper's democratization pitch is that a
//! campus can serve *many* researchers as a testbed at once; this crate
//! supplies the service layer that makes that safe:
//!
//! * [`service`] — the [`Plaza`]: a tenant registry and admission
//!   controller accounting every tenant's dataplane demand (stage slots +
//!   TCAM) against the shared Tofino-like budget, admitting, queueing
//!   (strict FIFO) or rejecting with typed decisions; plus the scheduler
//!   that multiplexes admitted slices — interleaved on one worker or
//!   parallel across workers — with byte-identical tenant outcomes on
//!   either executor.
//! * [`tenant`] — per-tenant namespacing through the existing layers:
//!   each [`TenantSpec`] builds a private campus slice (own simulator,
//!   traffic, chaos, filter bank), its guard telemetry prefixed with the
//!   tenant name, its capture landed in a per-tenant datastore view, and
//!   its whole run rendered into a [`TenantOutcome::fingerprint`] the
//!   isolation suite can diff solo vs co-scheduled.
//!
//! ```
//! use campuslab_plaza::{Plaza, PlazaConfig, TenantSpec};
//!
//! let mut plaza = Plaza::new(PlazaConfig::default());
//! plaza.submit(TenantSpec::probe("alice"));
//! plaza.submit(TenantSpec::probe("bob"));
//! let report = plaza.run();
//! assert_eq!(report.outcomes.len(), 2);
//! assert_eq!(report.obs.admitted(), 2);
//! ```

#![deny(rust_2018_idioms)]

pub mod service;
pub mod tenant;

pub use service::{Plaza, PlazaConfig, PlazaReport, TenantRecord};
pub use tenant::{
    FrozenSlice, SliceFreezeError, TenantJob, TenantOutcome, TenantSlice, TenantSpec,
};
