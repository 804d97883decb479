//! # campuslab-resolver
//!
//! ResolverLab: a deterministic caching DNS resolver running as a simulated
//! campus service. The paper's running network-automation example attacks
//! DNS; this crate gives the campus an actual resolver to attack — a
//! fault-bearing service endpoint rather than a packet sink — so
//! experiments can measure *service* degradation (cache-hit collapse,
//! rate-limited floods, stale answers) and not just packet counts.
//!
//! The crate is split along a purity boundary:
//!
//! - [`service::ResolverService`] is pure, deterministic logic: bytes in,
//!   typed actions out. It owns the cache, the rate limiter, the zone data
//!   and the upstream model, and it **never panics** on untrusted input —
//!   every malformed shape ends in a typed response path (`FormErr`,
//!   `ServFail`) or a counted drop.
//! - [`actor::ResolverActor`] adapts the service onto the simulator's
//!   [`campuslab_netsim::SimHooks`], turning actions into packet
//!   injections and timers.
//!
//! Behaviours (each with its own RFC anchor):
//!
//! - positive **and negative caching** with sim-time TTL expiry (RFC 2308:
//!   NXDOMAIN answers are cached too, which is exactly what a
//!   random-subdomain "water torture" flood is designed to defeat);
//! - per-client token-bucket **response rate limiting** (RRL), the
//!   classic defence against spoofed-source amplification;
//! - **serve-stale** on upstream timeout (RFC 8767): a recently expired
//!   answer beats a `ServFail` when the upstream is drowning;
//! - typed `ServFail`/`FormErr` paths when handed garbage.
//!
//! Determinism contract: the service derives every decision from sim-time
//! and its own state — no wall clock, no ambient randomness — and the
//! actor schedules every reaction from a delivery hook at least
//! [`service::ResolverConfig::proc_delay`] in the future (see
//! DESIGN.md §12).

#![deny(rust_2018_idioms)]
#![deny(unreachable_pub)]

pub mod actor;
pub mod cache;
pub mod observe;
pub mod rrl;
pub mod service;
pub mod zone;

pub use actor::{ResolverActor, TOKEN_BASE};
pub use cache::{CacheLookup, DnsCache};
pub use observe::RsvObs;
pub use rrl::RateLimiter;
pub use service::{
    Action, Respond, ResolverConfig, ResolverGiveUp, ResolverService, ResponseKind, WindowStat,
};
pub use zone::{ZoneAnswer, ZoneDb};
