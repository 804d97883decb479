//! # campuslab-features
//!
//! Feature engineering over the data store — the activity the paper says
//! access to an IMAGENET-like store finally makes "a first-class citizen"
//! (§2). Three feature granularities, matched to where a model can run:
//!
//! * [`packet`] — per-packet, header-only, integer-valued: evaluable by a
//!   programmable data plane, and exactly what the tree→match-action
//!   compiler consumes.
//! * [`flowfeat`] — per-flow aggregates from the flow table: the control
//!   plane's feature set.
//! * [`window`] — per-destination time-window aggregates: the richest (and
//!   slowest) view, natural for a controller or cloud tier.
//!
//! All builders produce seeded-deterministic [`campuslab_ml::Dataset`]s
//! with ground-truth labels chosen by [`LabelMode`].

//!
//! ```
//! use campuslab_features::{PACKET_FEATURES, packet_feature_index};
//!
//! // The packet schema is the switch's match key, by construction.
//! assert_eq!(PACKET_FEATURES.len(), 13);
//! assert_eq!(PACKET_FEATURES[packet_feature_index("src_port_is_dns")],
//!            "src_port_is_dns");
//! ```

pub mod label;
pub mod packet;
pub mod flowfeat;
pub mod window;

pub use flowfeat::{flow_dataset, flow_feature_index, flow_features, FLOW_FEATURES};
pub use label::LabelMode;
pub use packet::{packet_dataset, packet_feature_index, packet_features, PACKET_FEATURES};
pub use window::{
    aggregate, window_dataset, WindowCell, WindowConfig, WindowStream,
    WINDOW_FEATURES,
};
