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
//!   that runs each admission round's tenants across `CAMPUSLAB_JOBS`
//!   workers, with byte-identical tenant outcomes at any worker count.
//! * [`tenant`] — per-tenant namespacing through the existing layers:
//!   each [`TenantSpec`] builds one private campus
//!   [`campuslab_testbed::Session`] (own simulator, traffic, chaos,
//!   filter bank) and runs it once to its deadline, its guard telemetry
//!   prefixed with the tenant name, its capture landed in a per-tenant
//!   datastore view, and its whole run rendered into a
//!   [`TenantOutcome::fingerprint`] the isolation suite can diff solo vs
//!   co-scheduled. A tenant freezes the way every run does: through its
//!   session's checkpoint and the PHNX envelope.
//!
//! ```
//! use campuslab_plaza::{Plaza, TenantSpec};
//!
//! let mut plaza = Plaza::new();
//! plaza.submit(TenantSpec::probe("alice"));
//! plaza.submit(TenantSpec::probe("bob"));
//! let report = plaza.run();
//! assert_eq!(report.outcomes.len(), 2);
//! assert_eq!(report.obs.admitted(), 2);
//! ```

pub mod service;
pub mod tenant;

pub use service::{Plaza, PlazaReport, TenantRecord};
pub use tenant::{TenantJob, TenantOutcome, TenantSpec};
