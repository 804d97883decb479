//! The resolver cache: positive answers keyed by `(name, qtype)` and
//! negative (NXDOMAIN) entries keyed by name, both expiring on sim-time
//! TTLs (RFC 2308 for the negative side).
//!
//! Entries are retained for a grace window past their TTL so the service
//! can serve stale data when the upstream times out (RFC 8767); a lookup
//! distinguishes fresh, stale and absent so that policy stays in the
//! service, not here. Both maps are bounded: at capacity the entry with
//! the earliest expiry is evicted, which under a random-subdomain flood
//! makes the negative cache churn instead of grow — the cache-pollution
//! half of the water-torture story.

use campuslab_netsim::{SimDuration, SimTime};
use campuslab_wire::{DnsRecord, DnsType};
use std::collections::BTreeMap;

/// Positive-cache key: owner name plus the numeric query type.
type Key = (String, u16);

#[derive(Debug, Clone)]
struct PosEntry {
    records: Vec<DnsRecord>,
    expires_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct NegEntry {
    expires_at: SimTime,
}

/// What a cache lookup found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// A positive answer within its TTL.
    Fresh(Vec<DnsRecord>),
    /// A positive answer past its TTL but inside the stale window; the
    /// service may serve it only after the upstream refresh times out.
    Stale(Vec<DnsRecord>),
    /// A fresh RFC 2308 negative entry: the name is known not to exist.
    Negative,
    /// Nothing usable.
    Miss,
}

/// Bounded positive + negative cache with sim-time TTLs.
#[derive(Debug, Clone)]
pub struct DnsCache {
    pos: BTreeMap<Key, PosEntry>,
    neg: BTreeMap<String, NegEntry>,
    capacity: usize,
    neg_capacity: usize,
    stale_window: SimDuration,
}

impl DnsCache {
    /// An empty cache holding at most `capacity` positive and
    /// `neg_capacity` negative entries, with stale retention `stale_window`.
    pub fn new(capacity: usize, neg_capacity: usize, stale_window: SimDuration) -> Self {
        DnsCache {
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            capacity: capacity.max(1),
            neg_capacity: neg_capacity.max(1),
            stale_window,
        }
    }

    /// Look up `name`/`qtype` at `now`, removing entries that are past
    /// even their stale window.
    pub fn lookup(&mut self, now: SimTime, name: &str, qtype: DnsType) -> CacheLookup {
        let key = (name.to_string(), u16::from(qtype));
        if let Some(e) = self.pos.get(&key) {
            if now < e.expires_at {
                return CacheLookup::Fresh(e.records.clone());
            }
            if now < e.expires_at + self.stale_window {
                return CacheLookup::Stale(e.records.clone());
            }
            self.pos.remove(&key);
        }
        if let Some(e) = self.neg.get(name) {
            if now < e.expires_at {
                return CacheLookup::Negative;
            }
            // Stale negatives are not served: a wrongly-lingering NXDOMAIN
            // is worse than a refetch.
            self.neg.remove(name);
        }
        CacheLookup::Miss
    }

    /// Store a positive answer with `ttl_secs` freshness.
    pub fn insert_positive(
        &mut self,
        now: SimTime,
        name: &str,
        qtype: DnsType,
        records: Vec<DnsRecord>,
        ttl_secs: u32,
    ) {
        if self.pos.len() >= self.capacity {
            Self::evict_earliest(&mut self.pos);
        }
        self.pos.insert(
            (name.to_string(), u16::from(qtype)),
            PosEntry { records, expires_at: now + SimDuration::from_secs(u64::from(ttl_secs)) },
        );
    }

    /// Store an RFC 2308 negative entry with `ttl_secs` freshness.
    pub fn insert_negative(&mut self, now: SimTime, name: &str, ttl_secs: u32) {
        if self.neg.len() >= self.neg_capacity {
            let earliest = self
                .neg
                .iter()
                .min_by_key(|(_, e)| e.expires_at)
                .map(|(k, _)| k.clone());
            if let Some(k) = earliest {
                self.neg.remove(&k);
            }
        }
        self.neg.insert(
            name.to_string(),
            NegEntry { expires_at: now + SimDuration::from_secs(u64::from(ttl_secs)) },
        );
    }

    fn evict_earliest(map: &mut BTreeMap<Key, PosEntry>) {
        let earliest = map.iter().min_by_key(|(_, e)| e.expires_at).map(|(k, _)| k.clone());
        if let Some(k) = earliest {
            map.remove(&k);
        }
    }

    /// Positive entries currently held.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// True when no positive entry is held.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_wire::DnsRecordData;
    use std::net::Ipv4Addr;

    fn rec(name: &str, ttl: u32) -> DnsRecord {
        DnsRecord {
            name: name.to_string(),
            ttl,
            data: DnsRecordData::A(Ipv4Addr::new(192, 0, 2, 1)),
        }
    }

    fn cache() -> DnsCache {
        DnsCache::new(4, 4, SimDuration::from_secs(30))
    }

    #[test]
    fn fresh_then_stale_then_gone() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert_positive(t0, "a.example.com", DnsType::A, vec![rec("a.example.com", 2)], 2);
        assert!(matches!(c.lookup(t0, "a.example.com", DnsType::A), CacheLookup::Fresh(_)));
        let t_stale = t0 + SimDuration::from_secs(3);
        assert!(matches!(c.lookup(t_stale, "a.example.com", DnsType::A), CacheLookup::Stale(_)));
        let t_gone = t0 + SimDuration::from_secs(2 + 31);
        assert_eq!(c.lookup(t_gone, "a.example.com", DnsType::A), CacheLookup::Miss);
        assert!(c.is_empty());
    }

    #[test]
    fn qtype_is_part_of_the_key() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert_positive(t0, "a.example.com", DnsType::A, vec![rec("a.example.com", 5)], 5);
        assert_eq!(c.lookup(t0, "a.example.com", DnsType::Txt), CacheLookup::Miss);
    }

    #[test]
    fn negative_entries_expire_without_a_stale_window() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        c.insert_negative(t0, "nope.example.com", 1);
        assert_eq!(c.lookup(t0, "nope.example.com", DnsType::A), CacheLookup::Negative);
        let t1 = t0 + SimDuration::from_secs(2);
        assert_eq!(c.lookup(t1, "nope.example.com", DnsType::A), CacheLookup::Miss);
        assert_eq!(c.neg.len(), 0);
    }

    #[test]
    fn positive_eviction_removes_earliest_expiry() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        for (i, ttl) in [10u32, 2, 8, 6].iter().enumerate() {
            let name = format!("svc{i}.example.com");
            c.insert_positive(t0, &name, DnsType::A, vec![rec(&name, *ttl)], *ttl);
        }
        // Full at 4; the 5th insert evicts the ttl-2 entry.
        c.insert_positive(t0, "new.example.com", DnsType::A, vec![rec("new.example.com", 9)], 9);
        assert_eq!(c.len(), 4);
        assert_eq!(c.lookup(t0, "svc1.example.com", DnsType::A), CacheLookup::Miss);
        assert!(matches!(c.lookup(t0, "svc0.example.com", DnsType::A), CacheLookup::Fresh(_)));
    }

    #[test]
    fn negative_cache_churns_instead_of_growing() {
        let mut c = cache();
        let t0 = SimTime::ZERO;
        for i in 0..100 {
            c.insert_negative(t0, &format!("x{i}.torture.example.net"), 1);
        }
        assert_eq!(c.neg.len(), 4);
    }
}
