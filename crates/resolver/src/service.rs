//! The pure resolver state machine: untrusted bytes in, typed actions out.
//!
//! `ResolverService` owns the cache, the rate limiter, the zone data and a
//! model of a finite upstream (a fixed number of concurrent recursive
//! lookups, each taking one configured round trip). It never performs I/O
//! and never panics on input: every datagram ends in a typed response
//! ([`ResponseKind`]), a counted drop, or a counted ignore. The actor
//! layer (see [`crate::actor`]) turns the returned [`Action`]s into packet
//! injections and simulator timers.
//!
//! ## Failure ladder
//!
//! A query that cannot be answered from cache walks down a ladder rather
//! than falling off a cliff:
//!
//! 1. fresh cache entry → immediate answer;
//! 2. upstream slot free → resolve, cache, answer;
//! 3. upstream saturated → wait out the deadline, then serve a **stale**
//!    entry if one exists (RFC 8767);
//! 4. nothing stale → typed `ServFail`, recorded as a **give-up** that
//!    rollout guards can treat as rollback evidence.
//!
//! ## Determinism
//!
//! Every decision derives from sim-time and prior state, the delays the
//! service stamps on its actions ([`PROC_DELAY`] and up) included
//! (DESIGN.md §12).

use crate::cache::{CacheLookup, DnsCache};
use crate::observe::RsvObs;
use crate::rrl::RateLimiter;
use crate::zone::{ZoneAnswer, ZoneDb};
use campuslab_netsim::{GroundTruth, SimDuration, SimTime};
use campuslab_wire::{DnsFlags, DnsMessage, DnsRcode, DnsRecord, DnsType};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

// The three delays are pinned by E16's golden: `PROC_DELAY` was sized
// above the border link's 5 ms propagation when a sharded executor
// replayed delivery hooks a window late, and `UPSTREAM_RTT` and
// `UPSTREAM_TIMEOUT` sit above it. No executor defers a hook now; the
// values stay because moving them moves every E16 byte.

/// Local processing delay stamped on cache-served responses.
pub const PROC_DELAY: SimDuration = SimDuration::from_millis(6);
/// Modelled round trip for one upstream recursive lookup.
pub const UPSTREAM_RTT: SimDuration = SimDuration::from_millis(20);
/// Deadline after which a lookup that never got an upstream slot is
/// abandoned (serve-stale or ServFail).
const UPSTREAM_TIMEOUT: SimDuration = SimDuration::from_millis(60);
/// How long an expired positive entry stays eligible for serve-stale.
const STALE_WINDOW: SimDuration = SimDuration::from_secs(30);
/// Positive-cache capacity, entries.
const CACHE_CAPACITY: usize = 512;
/// Negative-cache capacity, entries.
const NEG_CAPACITY: usize = 256;
/// RRL refill rate, responses per client per second.
const RRL_RATE: u64 = 20;
/// RRL bucket size, responses.
const RRL_BURST: u64 = 40;
/// Distinct client buckets tracked before idle pruning kicks in.
const RRL_MAX_CLIENTS: usize = 1024;

/// Tunables for one resolver instance.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Concurrent upstream lookups the resolver can have in flight.
    pub upstream_concurrency: usize,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig { upstream_concurrency: 8 }
    }
}

/// How a response came to be — the label on `rsv_responses_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Fresh positive answer (cache or upstream).
    Answer,
    /// NXDOMAIN, fresh (cache or upstream, RFC 2308).
    Negative,
    /// Expired positive answer served because the upstream timed out
    /// (RFC 8767).
    Stale,
    /// Upstream timed out and nothing stale was available.
    ServFail,
    /// The query itself was malformed.
    FormErr,
}

/// A response the actor should put on the wire.
#[derive(Debug, Clone)]
pub struct Respond {
    /// When to inject the response packet.
    pub at: SimTime,
    /// Client address the response goes back to.
    pub to: Ipv4Addr,
    /// Client source port the response goes back to.
    pub dport: u16,
    /// The DNS message to emit.
    pub msg: DnsMessage,
    /// Outcome label (already counted in the service's metrics).
    pub kind: ResponseKind,
    /// Ground truth echoed from the query so labels survive the round trip.
    pub truth: GroundTruth,
}

/// One instruction from the service to the actor.
#[derive(Debug, Clone)]
pub enum Action {
    /// Inject this response.
    Respond(Respond),
    /// Arm a timer; when it fires, call
    /// [`ResolverService::on_timer`] with `seq`.
    Arm {
        /// When the timer should fire.
        at: SimTime,
        /// Pending-lookup sequence number to resolve then.
        seq: u64,
    },
}

/// A query the resolver abandoned — the service-level failure signal
/// rollout guards consume as rollback evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolverGiveUp {
    /// When the deadline expired.
    pub at: SimTime,
    /// Client whose query was abandoned.
    pub client: Ipv4Addr,
    /// The name that could not be resolved.
    pub name: String,
}

/// Per-second query/hit tally, for hit-rate-over-time curves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStat {
    /// Queries that reached the cache in this second.
    pub queries: u64,
    /// Of those, answered from a fresh (positive or negative) entry.
    pub cache_hits: u64,
}

#[derive(Debug, Clone)]
enum PendingKind {
    /// Holds an upstream slot; resolves at the armed deadline.
    Resolving,
    /// Never got a slot; at the deadline, serve stale or give up.
    Starved { stale: Option<Vec<DnsRecord>> },
}

#[derive(Debug, Clone)]
struct Pending {
    client: Ipv4Addr,
    dport: u16,
    query: DnsMessage,
    name: String,
    qtype: DnsType,
    truth: GroundTruth,
    kind: PendingKind,
}

/// The resolver: deterministic, allocation-bounded, panic-free on any
/// input byte sequence.
#[derive(Debug)]
pub struct ResolverService {
    cfg: ResolverConfig,
    cache: DnsCache,
    rrl: RateLimiter,
    zone: ZoneDb,
    obs: RsvObs,
    pending: BTreeMap<u64, Pending>,
    next_seq: u64,
    inflight: usize,
    giveups: Vec<ResolverGiveUp>,
    windows: BTreeMap<u64, WindowStat>,
}

impl ResolverService {
    /// A resolver over `zone` with the given tunables.
    pub fn new(cfg: ResolverConfig, zone: ZoneDb) -> Self {
        let cache = DnsCache::new(CACHE_CAPACITY, NEG_CAPACITY, STALE_WINDOW);
        let rrl = RateLimiter::new(RRL_RATE, RRL_BURST, RRL_MAX_CLIENTS);
        ResolverService {
            cfg,
            cache,
            rrl,
            zone,
            obs: RsvObs::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            inflight: 0,
            giveups: Vec::new(),
            windows: BTreeMap::new(),
        }
    }

    /// A resolver with default tunables over the default campus zone.
    pub fn campus_default() -> Self {
        ResolverService::new(ResolverConfig::default(), ZoneDb::campus_default())
    }

    /// Handle one UDP datagram addressed to port 53.
    ///
    /// `data` is untrusted; every shape of garbage is absorbed into a
    /// typed outcome. Returns the actions the actor must carry out
    /// (possibly none: ignored or rate-limited traffic dies here).
    pub fn handle_packet(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        sport: u16,
        data: &[u8],
        truth: GroundTruth,
    ) -> Vec<Action> {
        self.obs.on_query();
        // Too short to carry a DNS header, or already a response (the
        // reflection shape amplification abuse produces): not answerable,
        // not worth a FormErr that would itself amplify.
        if data.len() < 12 || data[2] & 0x80 != 0 {
            self.obs.on_ignored();
            return Vec::new();
        }
        // Budget the response before doing any work for it (RRL).
        if !self.rrl.allow(now, client) {
            self.obs.on_rrl_drop();
            return Vec::new();
        }
        let reply_at = now + PROC_DELAY;
        let msg = match DnsMessage::parse(data) {
            Ok(msg) => msg,
            Err(_) => {
                // Header was readable, body was garbage: echo the id with
                // a typed FormErr instead of going silent, so well-meaning
                // but buggy clients still get a signal.
                let id = u16::from_be_bytes([data[0], data[1]]);
                let msg = DnsMessage {
                    id,
                    flags: DnsFlags::response(DnsRcode::FormErr),
                    questions: Vec::new(),
                    answers: Vec::new(),
                    authorities: Vec::new(),
                    additionals: Vec::new(),
                };
                return vec![self.respond(reply_at, client, sport, msg, ResponseKind::FormErr, truth)];
            }
        };
        if msg.questions.len() != 1 {
            let resp = msg.answer(Vec::new(), DnsRcode::FormErr);
            return vec![self.respond(reply_at, client, sport, resp, ResponseKind::FormErr, truth)];
        }
        let name = msg.questions[0].name.clone();
        let qtype = msg.questions[0].qtype;
        self.window_mut(now).queries += 1;
        match self.cache.lookup(now, &name, qtype) {
            CacheLookup::Fresh(records) => {
                self.obs.on_cache_hit();
                self.window_mut(now).cache_hits += 1;
                let resp = msg.answer(records, DnsRcode::NoError);
                vec![self.respond(reply_at, client, sport, resp, ResponseKind::Answer, truth)]
            }
            CacheLookup::Negative => {
                self.obs.on_cache_negative_hit();
                self.window_mut(now).cache_hits += 1;
                let resp = msg.answer(Vec::new(), DnsRcode::NxDomain);
                vec![self.respond(reply_at, client, sport, resp, ResponseKind::Negative, truth)]
            }
            CacheLookup::Stale(records) => {
                self.obs.on_cache_miss();
                self.upstream(now, client, sport, msg, name, qtype, truth, Some(records))
            }
            CacheLookup::Miss => {
                self.obs.on_cache_miss();
                self.upstream(now, client, sport, msg, name, qtype, truth, None)
            }
        }
    }

    /// Resolve the pending lookup a timer was armed for. `seq` is the
    /// value carried in the matching [`Action::Arm`].
    pub fn on_timer(&mut self, now: SimTime, seq: u64) -> Option<Respond> {
        let p = self.pending.remove(&seq)?;
        match p.kind {
            PendingKind::Resolving => {
                self.inflight = self.inflight.saturating_sub(1);
                self.obs.on_upstream_latency(UPSTREAM_RTT.as_nanos());
                match self.zone.lookup(&p.name, p.qtype) {
                    ZoneAnswer::Records(records) => {
                        if !records.is_empty() {
                            let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0);
                            self.cache.insert_positive(now, &p.name, p.qtype, records.clone(), ttl);
                        }
                        // NODATA (name exists, wrong type) still counts as
                        // a positive outcome; it is just empty.
                        let resp = p.query.answer(records, DnsRcode::NoError);
                        Some(self.respond_inner(now, p.client, p.dport, resp, ResponseKind::Answer, p.truth))
                    }
                    ZoneAnswer::NxDomain => {
                        let neg_ttl = self.zone.neg_ttl;
                        self.cache.insert_negative(now, &p.name, neg_ttl);
                        let resp = p.query.answer(Vec::new(), DnsRcode::NxDomain);
                        Some(self.respond_inner(now, p.client, p.dport, resp, ResponseKind::Negative, p.truth))
                    }
                }
            }
            PendingKind::Starved { stale } => {
                self.obs.on_upstream_timeout();
                match stale {
                    Some(records) => {
                        // RFC 8767: a recently expired answer beats an error.
                        let resp = p.query.answer(records, DnsRcode::NoError);
                        Some(self.respond_inner(now, p.client, p.dport, resp, ResponseKind::Stale, p.truth))
                    }
                    None => {
                        self.obs.on_giveup();
                        self.giveups.push(ResolverGiveUp {
                            at: now,
                            client: p.client,
                            name: p.name,
                        });
                        let resp = p.query.answer(Vec::new(), DnsRcode::ServFail);
                        Some(self.respond_inner(now, p.client, p.dport, resp, ResponseKind::ServFail, p.truth))
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn upstream(
        &mut self,
        now: SimTime,
        client: Ipv4Addr,
        dport: u16,
        query: DnsMessage,
        name: String,
        qtype: DnsType,
        truth: GroundTruth,
        stale: Option<Vec<DnsRecord>>,
    ) -> Vec<Action> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (kind, at) = if self.inflight < self.cfg.upstream_concurrency {
            self.inflight += 1;
            self.obs.on_upstream_query();
            (PendingKind::Resolving, now + UPSTREAM_RTT)
        } else {
            // No slot: hold the query until the deadline, then fall back.
            (PendingKind::Starved { stale }, now + UPSTREAM_TIMEOUT)
        };
        self.pending.insert(seq, Pending { client, dport, query, name, qtype, truth, kind });
        vec![Action::Arm { at, seq }]
    }

    fn respond(
        &mut self,
        at: SimTime,
        to: Ipv4Addr,
        dport: u16,
        msg: DnsMessage,
        kind: ResponseKind,
        truth: GroundTruth,
    ) -> Action {
        Action::Respond(self.respond_inner(at, to, dport, msg, kind, truth))
    }

    fn respond_inner(
        &mut self,
        at: SimTime,
        to: Ipv4Addr,
        dport: u16,
        msg: DnsMessage,
        kind: ResponseKind,
        truth: GroundTruth,
    ) -> Respond {
        self.obs.on_response(kind, msg.wire_len() as u64);
        self.obs.set_cache_entries(self.cache.len() as i64);
        Respond { at, to, dport, msg, kind, truth }
    }

    fn window_mut(&mut self, now: SimTime) -> &mut WindowStat {
        self.windows.entry(now.as_nanos() / 1_000_000_000).or_default()
    }

    /// Drain the give-ups recorded since the last call.
    pub fn take_giveups(&mut self) -> Vec<ResolverGiveUp> {
        std::mem::take(&mut self.giveups)
    }

    /// Per-second query/hit tallies keyed by sim-second.
    pub fn windows(&self) -> &BTreeMap<u64, WindowStat> {
        &self.windows
    }

    /// Cache-hit rate per window second, in time order (windows that saw
    /// no queries are skipped) — the collapse-and-recovery curve of a
    /// flood.
    pub fn hit_rate_series(&self) -> Vec<(u64, f64)> {
        self.windows
            .iter()
            .filter(|(_, w)| w.queries > 0)
            .map(|(sec, w)| (*sec, w.cache_hits as f64 / w.queries as f64))
            .collect()
    }

    /// The resolver's metric bundle.
    pub fn obs(&self) -> &RsvObs {
        &self.obs
    }

    /// The configuration this resolver runs with.
    pub fn config(&self) -> &ResolverConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_wire::DnsRecordData;

    fn truth() -> GroundTruth {
        GroundTruth { flow_id: 7, app_class: 1, attack: None }
    }

    fn client() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 1, 10)
    }

    fn query_bytes(id: u16, name: &str, qtype: DnsType) -> Vec<u8> {
        let mut buf = Vec::new();
        DnsMessage::query(id, name, qtype).emit(&mut buf).expect("valid query");
        buf
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Walk a single query through miss → upstream → answer and return the
    /// response.
    fn resolve_once(svc: &mut ResolverService, now: SimTime, name: &str) -> Respond {
        let acts = svc.handle_packet(now, client(), 5353, &query_bytes(1, name, DnsType::A), truth());
        assert_eq!(acts.len(), 1);
        match &acts[0] {
            Action::Arm { at, seq } => svc.on_timer(*at, *seq).expect("pending resolves"),
            Action::Respond(_) => panic!("expected an upstream trip"),
        }
    }

    #[test]
    fn miss_resolves_then_hits_from_cache() {
        let mut svc = ResolverService::campus_default();
        let r = resolve_once(&mut svc, at_ms(0), "svc0.example0.com");
        assert_eq!(r.kind, ResponseKind::Answer);
        assert_eq!(r.msg.answers.len(), 1);
        assert_eq!(svc.obs().cache_misses(), 1);
        // Second query inside the TTL is served from cache.
        let acts =
            svc.handle_packet(at_ms(100), client(), 5353, &query_bytes(2, "svc0.example0.com", DnsType::A), truth());
        match &acts[0] {
            Action::Respond(r) => {
                assert_eq!(r.kind, ResponseKind::Answer);
                assert_eq!(r.at, at_ms(100) + PROC_DELAY);
            }
            Action::Arm { .. } => panic!("expected a cache hit"),
        }
        assert_eq!(svc.obs().cache_hits(), 1);
    }

    #[test]
    fn nxdomain_is_cached_negatively() {
        let mut svc = ResolverService::campus_default();
        let r = resolve_once(&mut svc, at_ms(0), "junk123.example0.com");
        assert_eq!(r.kind, ResponseKind::Negative);
        assert_eq!(r.msg.flags.rcode, DnsRcode::NxDomain);
        // Refetch within the negative TTL hits the negative cache.
        let acts = svc.handle_packet(
            at_ms(100),
            client(),
            5353,
            &query_bytes(2, "junk123.example0.com", DnsType::A),
            truth(),
        );
        match &acts[0] {
            Action::Respond(r) => assert_eq!(r.kind, ResponseKind::Negative),
            Action::Arm { .. } => panic!("expected a negative cache hit"),
        }
        assert_eq!(svc.obs().cache_negative_hits(), 1);
    }

    #[test]
    fn malformed_bytes_get_a_typed_formerr_never_a_panic() {
        let mut svc = ResolverService::campus_default();
        // Claims one question but carries no body.
        let mut bad = vec![0u8; 12];
        bad[0] = 0xde;
        bad[1] = 0xad;
        bad[5] = 1;
        let acts = svc.handle_packet(at_ms(0), client(), 5353, &bad, truth());
        match &acts[0] {
            Action::Respond(r) => {
                assert_eq!(r.kind, ResponseKind::FormErr);
                assert_eq!(r.msg.id, 0xdead, "id echoed from the broken query");
                assert_eq!(r.msg.flags.rcode, DnsRcode::FormErr);
            }
            Action::Arm { .. } => panic!("garbage must not reach the upstream"),
        }
    }

    #[test]
    fn short_datagrams_and_responses_are_ignored() {
        let mut svc = ResolverService::campus_default();
        assert!(svc.handle_packet(at_ms(0), client(), 5353, &[0u8; 5], truth()).is_empty());
        // A response (QR bit set) aimed at the server port: reflection bait.
        let mut resp = query_bytes(9, "svc0.example0.com", DnsType::A);
        resp[2] |= 0x80;
        assert!(svc.handle_packet(at_ms(0), client(), 5353, &resp, truth()).is_empty());
        assert_eq!(svc.obs().ignored(), 2);
    }

    #[test]
    fn rrl_drops_over_budget_clients_silently() {
        let mut svc = ResolverService::campus_default();
        let mut dropped = 0;
        for i in 0..(RRL_BURST + 10) {
            let acts = svc.handle_packet(
                at_ms(0),
                client(),
                5353,
                &query_bytes(i as u16, "svc0.example0.com", DnsType::A),
                truth(),
            );
            if acts.is_empty() {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 10);
        assert_eq!(svc.obs().rrl_dropped(), 10);
    }

    #[test]
    fn saturated_upstream_serves_stale_when_available() {
        // Zero concurrency models a permanently saturated upstream.
        let cfg = ResolverConfig { upstream_concurrency: 0 };
        let mut svc = ResolverService::new(cfg, ZoneDb::campus_default());
        // Seed a cache entry by hand, already expired but within the
        // stale window at query time.
        let rec = DnsRecord {
            name: "svc0.example0.com".into(),
            ttl: 2,
            data: DnsRecordData::A(Ipv4Addr::new(203, 0, 113, 1)),
        };
        svc.cache.insert_positive(at_ms(0), "svc0.example0.com", DnsType::A, vec![rec], 2);
        let t = at_ms(5_000); // TTL (2 s) expired, stale window (30 s) open
        let acts =
            svc.handle_packet(t, client(), 5353, &query_bytes(1, "svc0.example0.com", DnsType::A), truth());
        let r = match &acts[0] {
            Action::Arm { at, seq } => {
                assert_eq!(*at, t + UPSTREAM_TIMEOUT);
                svc.on_timer(*at, *seq).expect("starved lookup resolves")
            }
            Action::Respond(_) => panic!("saturated upstream cannot answer immediately"),
        };
        assert_eq!(r.kind, ResponseKind::Stale);
        assert_eq!(r.msg.answers.len(), 1);
        assert_eq!(svc.obs().upstream_timeouts(), 1);
        assert!(svc.take_giveups().is_empty(), "stale service is not a give-up");
    }

    #[test]
    fn saturated_upstream_without_stale_gives_up_with_servfail() {
        let cfg = ResolverConfig { upstream_concurrency: 0 };
        let mut svc = ResolverService::new(cfg, ZoneDb::campus_default());
        let acts =
            svc.handle_packet(at_ms(0), client(), 5353, &query_bytes(1, "x9z.torture.net", DnsType::A), truth());
        let r = match &acts[0] {
            Action::Arm { at, seq } => svc.on_timer(*at, *seq).expect("resolves"),
            Action::Respond(_) => panic!("expected starvation"),
        };
        assert_eq!(r.kind, ResponseKind::ServFail);
        assert_eq!(r.msg.flags.rcode, DnsRcode::ServFail);
        let giveups = svc.take_giveups();
        assert_eq!(giveups.len(), 1);
        assert_eq!(giveups[0].name, "x9z.torture.net");
        assert_eq!(giveups[0].client, client());
        assert_eq!(svc.obs().giveups(), 1);
    }

    #[test]
    fn upstream_concurrency_is_a_hard_cap() {
        let mut svc = ResolverService::campus_default();
        let cap = svc.config().upstream_concurrency;
        // Distinct clients so RRL never interferes; distinct junk names so
        // nothing caches.
        let mut starved = 0;
        for i in 0..(cap + 3) {
            let c = Ipv4Addr::new(10, 0, 2, i as u8);
            let acts =
                svc.handle_packet(at_ms(0), c, 5353, &query_bytes(i as u16, &format!("j{i}.nowhere.org"), DnsType::A), truth());
            match &acts[0] {
                Action::Arm { at, .. } => {
                    if *at == at_ms(0) + UPSTREAM_TIMEOUT {
                        starved += 1;
                    }
                }
                Action::Respond(_) => panic!("junk names cannot hit cache"),
            }
        }
        assert_eq!(starved, 3);
        assert_eq!(svc.obs().upstream_queries(), cap as u64);
    }

    #[test]
    fn windows_track_hit_rate_per_second() {
        let mut svc = ResolverService::campus_default();
        let _ = resolve_once(&mut svc, at_ms(0), "svc0.example0.com");
        let _ = svc.handle_packet(
            at_ms(500),
            client(),
            5353,
            &query_bytes(2, "svc0.example0.com", DnsType::A),
            truth(),
        );
        let w0 = svc.windows()[&0];
        assert_eq!(w0.queries, 2);
        assert_eq!(w0.cache_hits, 1);
    }

    #[test]
    fn hit_rate_series_skips_windows_without_queries() {
        let mut svc = ResolverService::campus_default();
        let _ = resolve_once(&mut svc, at_ms(0), "svc0.example0.com");
        let _ = svc.handle_packet(
            at_ms(500),
            client(),
            5353,
            &query_bytes(2, "svc0.example0.com", DnsType::A),
            truth(),
        );
        // A second with a tally but no queries (no handler path makes one;
        // the series must not divide by it), then a miss in second 2.
        svc.windows.insert(1, WindowStat::default());
        let _ = svc.handle_packet(
            at_ms(2_000),
            client(),
            5353,
            &query_bytes(3, "svc1.example0.com", DnsType::A),
            truth(),
        );
        assert_eq!(svc.windows().len(), 3);
        assert_eq!(svc.hit_rate_series(), vec![(0, 0.5), (2, 0.0)]);
    }
}
