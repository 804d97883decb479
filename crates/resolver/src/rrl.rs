//! Response rate limiting: a per-client token bucket debited when a query
//! arrives (budgeting the *response* before any work is done for it).
//!
//! All arithmetic is integer-only on nano-tokens so refill order can never
//! perturb determinism; elapsed sim-time times the rate goes through a
//! `u128` intermediate so even absurd idle gaps cannot overflow. The
//! bucket table is bounded — when it outgrows `max_clients`, buckets idle
//! longer than ten seconds are dropped, so a spoofed-source flood
//! cycling through addresses churns the table instead of growing it.

use campuslab_netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One token, in nano-token units.
const SCALE: u128 = 1_000_000_000;

/// Buckets untouched for this long are eligible for pruning.
fn idle_prune() -> SimDuration {
    SimDuration::from_secs(10)
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Nano-tokens currently available, capped at `burst * SCALE`.
    tokens: u128,
    /// Last refill instant.
    last: SimTime,
}

/// Per-client token-bucket rate limiter over source IPv4 addresses.
#[derive(Debug, Clone)]
pub struct RateLimiter {
    /// Tokens added per second of sim-time.
    rate: u64,
    /// Bucket capacity in whole tokens.
    burst: u64,
    buckets: BTreeMap<Ipv4Addr, Bucket>,
    max_clients: usize,
}

impl RateLimiter {
    /// A limiter granting `rate` responses/second with bursts up to
    /// `burst`, tracking at most `max_clients` distinct sources.
    pub fn new(rate: u64, burst: u64, max_clients: usize) -> Self {
        RateLimiter { rate, burst: burst.max(1), buckets: BTreeMap::new(), max_clients: max_clients.max(1) }
    }

    /// Debit one token for `client` at `now`; `false` means the response
    /// budget is spent and the query should be dropped.
    pub fn allow(&mut self, now: SimTime, client: Ipv4Addr) -> bool {
        if self.buckets.len() >= self.max_clients && !self.buckets.contains_key(&client) {
            self.prune(now);
        }
        let cap = u128::from(self.burst) * SCALE;
        let b = self
            .buckets
            .entry(client)
            .or_insert(Bucket { tokens: cap, last: now });
        let elapsed_ns = u128::from(now.since(b.last).as_nanos());
        b.tokens = cap.min(b.tokens + elapsed_ns * u128::from(self.rate));
        b.last = now;
        if b.tokens >= SCALE {
            b.tokens -= SCALE;
            true
        } else {
            false
        }
    }

    fn prune(&mut self, now: SimTime) {
        self.buckets.retain(|_, b| b.last + idle_prune() >= now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn burst_then_denial_then_refill() {
        let mut rrl = RateLimiter::new(2, 4, 16);
        let c = Ipv4Addr::new(10, 0, 0, 1);
        let t0 = at(0);
        for _ in 0..4 {
            assert!(rrl.allow(t0, c));
        }
        assert!(!rrl.allow(t0, c), "burst exhausted");
        // One second later the 2/s rate has restored two tokens.
        let t1 = at(1);
        assert!(rrl.allow(t1, c));
        assert!(rrl.allow(t1, c));
        assert!(!rrl.allow(t1, c));
    }

    #[test]
    fn clients_are_independent() {
        let mut rrl = RateLimiter::new(1, 1, 16);
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        let t0 = at(0);
        assert!(rrl.allow(t0, a));
        assert!(!rrl.allow(t0, a));
        assert!(rrl.allow(t0, b), "a's exhaustion must not affect b");
    }

    #[test]
    fn fractional_refill_accumulates() {
        let mut rrl = RateLimiter::new(2, 1, 16);
        let c = Ipv4Addr::new(10, 0, 0, 1);
        assert!(rrl.allow(at(0), c));
        // 250 ms at 2/s is half a token: not enough.
        let t = SimTime::ZERO + SimDuration::from_millis(250);
        assert!(!rrl.allow(t, c));
        // Another 250 ms completes the token.
        let t = SimTime::ZERO + SimDuration::from_millis(500);
        assert!(rrl.allow(t, c));
    }

    #[test]
    fn spoofed_flood_churns_the_table_instead_of_growing_it() {
        let mut rrl = RateLimiter::new(1, 1, 8);
        // 8 early clients, then 10 s of silence, then a sweep of fresh
        // sources: the idle buckets get pruned to make room.
        for i in 0..8u8 {
            rrl.allow(at(0), Ipv4Addr::new(10, 0, 0, i));
        }
        assert_eq!(rrl.buckets.len(), 8);
        for i in 0..100u8 {
            rrl.allow(at(20), Ipv4Addr::new(192, 0, 2, i));
        }
        assert!(rrl.buckets.len() <= 101);
        assert!(!rrl.buckets.contains_key(&Ipv4Addr::new(10, 0, 0, 0)));
    }
}
