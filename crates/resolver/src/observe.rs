//! ResolverLab's Observatory schema: an [`RsvObs`] is one
//! [`campuslab_obs::schema!`] table — the registry describing every `rsv_*`
//! metric plus the sink the service bumps. One `RsvObs` per
//! [`crate::service::ResolverService`] — no globals, no locks; parallel
//! runs each own their sink, same as the simulator's `NetObs`.
//!
//! The schema is the experiment's measurement surface: E16 reads
//! cache-hit collapse and recovery, rate-limit drops and serve-stale
//! events out of these families, so names and registration order are part
//! of the golden-replay contract — append new metrics, never reorder.

/// Response-size histogram bounds, bytes (≤64 .. ≤4 KB, then +Inf).
pub const RESPONSE_BYTES_BOUNDS: [u64; 6] = [64, 128, 256, 512, 1024, 4096];

/// Upstream-latency histogram bounds, microseconds (≤1 ms .. ≤100 ms, then +Inf).
pub const UPSTREAM_LATENCY_BOUNDS: [u64; 5] = [1_000, 5_000, 20_000, 50_000, 100_000];

/// Stable index of a [`crate::service::ResponseKind`] into the
/// `rsv_responses_total` label set.
pub fn response_index(kind: crate::service::ResponseKind) -> usize {
    use crate::service::ResponseKind::*;
    match kind {
        Answer => 0,
        Negative => 1,
        Stale => 2,
        ServFail => 3,
        FormErr => 4,
    }
}

campuslab_obs::schema! {
    /// Metrics registry + sink for one resolver instance. The sink is
    /// public so the service writes without an extra indirection.
    pub struct RsvObs {
        /// Queries arrived.
        counter queries: "rsv_queries_total", "DNS queries arriving at the resolver";
        /// Indexed by [`response_index`].
        counter responses: "rsv_responses_total"
            {outcome = ["answer", "negative", "stale", "servfail", "formerr"]},
            "responses sent, by outcome";
        /// Fresh positive cache hits.
        counter cache_hits: "rsv_cache_hits_total", "queries answered from a fresh positive entry";
        /// Fresh negative cache hits.
        counter cache_negative_hits: "rsv_cache_negative_hits_total",
            "queries answered from a fresh RFC 2308 negative entry";
        /// Cache misses (upstream consulted).
        counter cache_misses: "rsv_cache_misses_total",
            "queries that had to consult the upstream";
        /// Queries dropped by rate limiting.
        counter rrl_dropped: "rsv_rrl_dropped_total",
            "queries dropped by per-client response rate limiting";
        /// Datagrams ignored without a response.
        counter ignored: "rsv_ignored_total",
            "datagrams ignored without response (too short, or already a response)";
        /// Upstream lookups issued.
        counter upstream_queries: "rsv_upstream_queries_total", "recursive lookups sent upstream";
        /// Upstream lookups that timed out.
        counter upstream_timeouts: "rsv_upstream_timeouts_total",
            "recursive lookups abandoned after the upstream deadline";
        /// Give-ups (timeouts with no stale fallback).
        counter giveups: "rsv_giveups_total",
            "queries the resolver gave up on (timed out with no stale fallback)";
        /// Positive cache entries at the last update.
        gauge cache_entries: "rsv_cache_entries", "positive cache entries currently held";
        /// Upstream round-trip latency (microseconds).
        histogram upstream_latency_us: "rsv_upstream_latency_us",
            "upstream round-trip latency in microseconds", &UPSTREAM_LATENCY_BOUNDS;
        /// Wire size of emitted responses.
        histogram response_bytes: "rsv_response_bytes", "wire size of emitted responses",
            &RESPONSE_BYTES_BOUNDS;
    }
}

impl RsvObs {
    #[inline]
    pub(crate) fn on_query(&mut self) {
        self.sink.inc(self.queries);
    }

    #[inline]
    pub(crate) fn on_response(&mut self, kind: crate::service::ResponseKind, wire_bytes: u64) {
        self.sink.inc(self.responses[response_index(kind)]);
        self.sink.observe(self.response_bytes, wire_bytes);
    }

    #[inline]
    pub(crate) fn on_cache_hit(&mut self) {
        self.sink.inc(self.cache_hits);
    }

    #[inline]
    pub(crate) fn on_cache_negative_hit(&mut self) {
        self.sink.inc(self.cache_negative_hits);
    }

    #[inline]
    pub(crate) fn on_cache_miss(&mut self) {
        self.sink.inc(self.cache_misses);
    }

    #[inline]
    pub(crate) fn on_rrl_drop(&mut self) {
        self.sink.inc(self.rrl_dropped);
    }

    #[inline]
    pub(crate) fn on_ignored(&mut self) {
        self.sink.inc(self.ignored);
    }

    #[inline]
    pub(crate) fn on_upstream_query(&mut self) {
        self.sink.inc(self.upstream_queries);
    }

    #[inline]
    pub(crate) fn on_upstream_timeout(&mut self) {
        self.sink.inc(self.upstream_timeouts);
    }

    #[inline]
    pub(crate) fn on_giveup(&mut self) {
        self.sink.inc(self.giveups);
    }

    #[inline]
    pub(crate) fn on_upstream_latency(&mut self, latency_ns: u64) {
        self.sink.observe(self.upstream_latency_us, latency_ns / 1_000);
    }

    #[inline]
    pub(crate) fn set_cache_entries(&mut self, entries: i64) {
        self.sink.set(self.cache_entries, entries);
    }

    /// Responses sent with one outcome.
    pub fn responses(&self, kind: crate::service::ResponseKind) -> u64 {
        self.sink.counter(self.responses[response_index(kind)])
    }

    /// Responses summed over every outcome.
    pub fn responses_total(&self) -> u64 {
        self.responses.iter().map(|&c| self.sink.counter(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ResponseKind;

    #[test]
    fn response_indices_are_dense_and_distinct() {
        use ResponseKind::*;
        let mut seen: Vec<usize> =
            [Answer, Negative, Stale, ServFail, FormErr].iter().map(|&k| response_index(k)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
