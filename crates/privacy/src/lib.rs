//! # campuslab-privacy
//!
//! Privacy-preserving data collection (Figure 1's gate between the campus
//! network and the data store): prefix-preserving address anonymization,
//! record scrubbing, and the governance policy the paper assigns to the
//! university IT organization.
//!
//! * [`speck`] — SPECK64/128 as a keyed PRF (validated against the
//!   published test vector).
//! * [`cryptopan`] — Crypto-PAn-style prefix-preserving anonymization:
//!   subnet structure survives, identities don't (the property experiment
//!   E4 verifies and then measures the model-utility cost of).
//! * [`scrub`] — record-level scrubbing policies (addresses, ports).
//! * [`policy`] — the role/purpose/data-class decision matrix with an
//!   audit log; encodes "internal use only".
//! * [`dp`] — Laplace-mechanism aggregate release with a privacy-budget
//!   ledger, for the one data class that might ever leave the university.

//!
//! ```
//! use campuslab_privacy::{common_prefix_len_v4, PrefixPreservingAnon};
//! use std::net::Ipv4Addr;
//!
//! let anon = PrefixPreservingAnon::new(0xfeed_beef);
//! let a = anon.anonymize_v4(Ipv4Addr::new(10, 1, 7, 20));
//! let b = anon.anonymize_v4(Ipv4Addr::new(10, 1, 7, 99));
//! // Same /24 before, same /24 after — identities gone, structure kept.
//! assert!(common_prefix_len_v4(a, b) >= 24);
//! ```

pub mod speck;
pub mod cryptopan;
pub mod scrub;
pub mod policy;
pub mod dp;

pub use dp::{BudgetLedger, NoisedValue, ReleaseRefused};
pub use cryptopan::{common_prefix_len_v4, PrefixPreservingAnon};
pub use policy::{AuditEntry, DataClass, PolicyEngine, Purpose, Role, Verdict};
pub use scrub::{ScrubPolicy, Scrubber};
pub use speck::Speck64;
