//! # campuslab-capture
//!
//! The monitoring plane of CampusLab: "enterprise-wide, continuous,
//! lossless, full packet capture at scale ... with full payload, with no
//! sampling" (paper §5), modeled end to end:
//!
//! * [`ring`] — multi-queue capture rings with explicit drop accounting,
//!   so "lossless" is a measured property, not an assumption (experiment E2).
//! * [`records`] — the packet/flow/DNS record vocabulary shared with
//!   the data store; ground-truth labels ride along explicitly marked as
//!   generator-provided. Beside it, the packet schema: the 13 header
//!   fields and the one function that computes them, which the feature
//!   row and the switch's match key both are.
//! * [`flow`] — bidirectional flow assembly with idle/active timeouts and
//!   FIN/RST fast paths.
//! * [`meta`] — on-the-fly metadata extraction (DNS transactions, TCP
//!   handshake RTTs), the appliance's enrichment stage.
//! * [`sketch`] — count-min + heavy-hitter sketches: constant-memory
//!   telemetry of the kind switches and appliances compute in-line.
//! * [`monitor`] — the composed appliance plus the `SimHooks` adapter that
//!   attaches it to the simulated campus border tap.

//!
//! ```
//! use campuslab_capture::{CaptureRing, RingConfig};
//! use campuslab_netsim::SimTime;
//!
//! // A ring drained faster than it is offered never drops.
//! let mut ring = CaptureRing::new(RingConfig::default());
//! for i in 0..1_000u64 {
//!     assert!(ring.offer(SimTime(i * 10_000))); // 100k pps vs 1.5M pps drain
//! }
//! assert_eq!(ring.stats.dropped, 0);
//! ```


#![deny(unreachable_pub)]

pub mod records;
pub mod ring;
pub mod flow;
pub mod meta;
pub mod sketch;
pub mod monitor;
pub mod observe;

pub use flow::{FlowTable, FlowTableConfig};
pub use campuslab_netsim::fxhash::{self, FxBuildHasher, FxHashMap, FxHasher};
pub use meta::{extract_dns, TcpRttEstimator};
pub use monitor::{BorderTapHooks, Monitor, MonitorConfig, MonitorStats};
pub use observe::CaptureObs;
pub use records::{
    fields_from_record, Direction, DnsMetaRecord, FieldValues, FlowKey, FlowRecord, HeaderField,
    PacketRecord, TcpFlags, TcpRttRecord, FIELD_NAMES, FIELD_ORDER,
};
pub use ring::{CaptureArray, CaptureRing, RingConfig, RingStats};
pub use sketch::{CountMinSketch, HeavyHitters};
