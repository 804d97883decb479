//! # campuslab-datastore
//!
//! The campus data store of the paper's Part-1 proposal: every record the
//! monitoring plane produces — packets, flows and DNS metadata —
//! "cleaned, curated, time-synchronized and (where possible) labelled,
//! but also linked and indexed to provide fast and flexible search
//! capabilities" (§5).
//!
//! * [`DataStore`] — one generic chain of time-partitioned segments per
//!   table; the packet table's segments carry an index sidecar of exact
//!   host/port/attack postings. O(segments) retention and storage
//!   accounting. Global order is `(timestamp, seq)`: equal timestamps keep
//!   capture order deterministically, and parallel batch ingest is
//!   byte-identical to sequential (DESIGN.md §9).
//! * [`PacketQuery`]/[`FlowQuery`] — composable predicates; every indexed
//!   query has an equivalent full-scan path so experiment E3 can measure
//!   the speedup honestly, and reports its work in [`QueryStats`].
//! * [`WalStore`] — the store made durable: a segment-granular
//!   write-ahead log, and [`WalStore::open`] the one way a store comes
//!   back from disk, with typed [`PersistError`]s for every kind of damage
//!   (DESIGN.md §15).
//! * [`StoreObs`] — the store's Observatory surface: ingest/query
//!   counters, segment gauges, a deterministic query-cost histogram.
//! * [`stats`] — the mining layer: summaries, top talkers, volume series.
//!
//! ```
//! use campuslab_datastore::{DataStore, PacketQuery};
//!
//! let ds = DataStore::new();
//! let hits = ds.query_packets(&PacketQuery::default().port(53));
//! assert!(hits.is_empty()); // nothing ingested yet
//! ```

pub mod observe;
pub mod query;
pub mod segment;
pub mod stats;
pub mod store;
pub mod wal;

pub use observe::StoreObs;
pub use wal::{PersistError, RecoveryReport, SealedSegment, WalConfig, WalStore};
pub use query::{FlowQuery, PacketQuery, QueryStats};
pub use segment::{SegmentStats, SEGMENT_CAPACITY};
pub use stats::{summarize, top_talkers, StoreSummary};
pub use store::{DataStore, StorageReport};
