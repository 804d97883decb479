//! Observatory schema for the data store: one [`StoreObs`] per
//! [`crate::DataStore`], bumped by ingest, query, and retention paths.
//!
//! Query "latency" is the deterministic work metric `records_examined`
//! (see [`crate::QueryStats`]), recorded into `ds_query_cost_records` —
//! a histogram in units of records, not wall time. Wall clocks would make
//! golden-replay bundles machine-dependent; examined-record counts are a
//! faithful, reproducible proxy for query cost in the simulated world.

use crate::query::QueryStats;

campuslab_obs::schema! {
    /// Metrics registry + sink for one data store.
    pub struct StoreObs {
        /// Records ingested into the packet table.
        counter ingested_packets: "ds_ingested_records_total" {table = "packets"}, INGESTED_HELP;
        /// Records ingested into the flow table.
        counter ingested_flows: "ds_ingested_records_total" {table = "flows"}, INGESTED_HELP;
        /// Records ingested into the DNS table.
        counter ingested_dns: "ds_ingested_records_total" {table = "dns"}, INGESTED_HELP;
        /// Non-empty ingest batches across all tables.
        counter ingest_batches: "ds_ingest_batches_total",
            "ingest calls that landed at least one record";
        /// Queries served by the indexed planner.
        counter queries_indexed: "ds_queries_total" {path = "indexed"}, QUERIES_HELP;
        /// Queries served by the full-scan baseline.
        counter queries_scan: "ds_queries_total" {path = "scan"}, QUERIES_HELP;
        /// Segments skipped wholesale by query planning.
        counter segments_pruned: "ds_query_segments_total" {outcome = "pruned"}, SEGMENTS_HELP;
        /// Segments a query actually examined records in.
        counter segments_scanned: "ds_query_segments_total" {outcome = "scanned"}, SEGMENTS_HELP;
        /// Records dropped by retention.
        counter retired_records: "ds_retired_records_total",
            "records dropped by retention enforcement";
        /// Live packet-chain segments (last published value).
        gauge packet_segments: "ds_packet_segments", "live segments in the packet chain";
        /// Live flow-chain segments (last published value).
        gauge flow_segments: "ds_flow_segments", "live segments in the flow chain";
        /// Records examined per query.
        histogram query_cost: "ds_query_cost_records",
            "records examined per query (deterministic sim-time cost proxy)",
            &[1, 8, 64, 512, 4096, 32768, 262144];
        // Last row: ids are positional, and appending keeps every
        // previously committed golden bundle's counter layout intact.
        /// Corruption events detected while recovering persisted state.
        counter persist_corrupt: "ds_persist_corrupt_total",
            "corruption events detected while recovering persisted state \
             (WAL frames, sealed segments, snapshots)";
    }
}

const INGESTED_HELP: &str = "records ingested, by table";
const QUERIES_HELP: &str = "packet/flow queries served, by plan";
const SEGMENTS_HELP: &str = "segments a query planner visited, by outcome";

impl StoreObs {
    #[inline]
    pub(crate) fn on_ingest_packets(&mut self, n: u64) {
        self.sink.add(self.ingested_packets, n);
        self.sink.inc(self.ingest_batches);
    }

    #[inline]
    pub(crate) fn on_ingest_flows(&mut self, n: u64) {
        self.sink.add(self.ingested_flows, n);
        self.sink.inc(self.ingest_batches);
    }

    #[inline]
    pub(crate) fn on_ingest_dns(&mut self, n: u64) {
        self.sink.add(self.ingested_dns, n);
        self.sink.inc(self.ingest_batches);
    }

    /// Record one served query: plan kind plus its [`QueryStats`].
    #[inline]
    pub(crate) fn on_query(&mut self, indexed: bool, stats: &QueryStats) {
        self.sink.inc(if indexed { self.queries_indexed } else { self.queries_scan });
        self.sink.add(self.segments_pruned, stats.segments_pruned as u64);
        self.sink
            .add(self.segments_scanned, (stats.segments_total - stats.segments_pruned) as u64);
        self.sink.observe(self.query_cost, stats.records_examined as u64);
    }

    #[inline]
    pub(crate) fn on_retired(&mut self, n: u64) {
        self.sink.add(self.retired_records, n);
    }

    /// Record `n` corruption events found while recovering persisted
    /// state (a torn WAL tail).
    /// Bumped by [`crate::wal::WalStore::open`] after a lossy
    /// recovery so the damage is visible on the metrics surface, not just
    /// in a return value somebody may have dropped.
    #[inline]
    pub(crate) fn on_persist_corrupt(&mut self, n: u64) {
        self.sink.add(self.persist_corrupt, n);
    }

    #[inline]
    pub(crate) fn set_segments(&mut self, packets: usize, flows: usize) {
        self.sink.set(self.packet_segments, packets as i64);
        self.sink.set(self.flow_segments, flows as i64);
    }

    /// Total records examined across all queries (histogram sum).
    pub fn query_cost_total(&self) -> u128 {
        self.query_cost().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_bookkeeping_lands_in_all_three_families() {
        let mut obs = StoreObs::new();
        obs.on_ingest_packets(100);
        obs.on_query(
            true,
            &QueryStats { segments_total: 8, segments_pruned: 6, records_examined: 42, hits: 5 },
        );
        obs.on_query(
            false,
            &QueryStats { segments_total: 8, segments_pruned: 0, records_examined: 100, hits: 5 },
        );
        obs.set_segments(8, 2);
        assert_eq!(obs.queries_indexed(), 1);
        assert_eq!(obs.queries_scan(), 1);
        assert_eq!(obs.segments_pruned(), 6);
        assert_eq!(obs.segments_scanned(), 10);
        assert_eq!(obs.query_cost_total(), 142);
        let text = obs.render();
        assert!(text.contains("ds_ingested_records_total{table=\"packets\"} 100"));
        assert!(text.contains("ds_queries_total{path=\"indexed\"} 1"));
        assert!(text.contains("ds_packet_segments 8"));
        assert!(text.contains("ds_query_cost_records_count 2"));
    }
}
