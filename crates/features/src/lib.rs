//! # campuslab-features
//!
//! Feature engineering over the data store — the activity the paper says
//! access to an IMAGENET-like store finally makes "a first-class citizen"
//! (§2). Two feature granularities, matched to where a model can run:
//!
//! * [`packet`] — per-packet, header-only, integer-valued: evaluable by a
//!   programmable data plane, and exactly what the tree→match-action
//!   compiler consumes. The columns and their values are the packet
//!   schema declared beside `campuslab_capture::PacketRecord`.
//! * [`window`] — per-destination time-window aggregates: the richest (and
//!   slowest) view, natural for a controller or cloud tier.
//!
//! All builders produce seeded-deterministic [`campuslab_ml::Dataset`]s
//! with ground-truth labels chosen by [`LabelMode`].

//!
//! ```
//! use campuslab_capture::{HeaderField, FIELD_ORDER};
//! use campuslab_features::PACKET_FEATURES;
//!
//! // The packet schema is the switch's match key, by construction: one
//! // declaration of the fields, one extraction of their values.
//! assert_eq!(PACKET_FEATURES.len(), FIELD_ORDER.len());
//! assert_eq!(PACKET_FEATURES[HeaderField::SrcPortIsDns.index()],
//!            HeaderField::SrcPortIsDns.name());
//! ```

pub mod label;
pub mod packet;
pub mod window;

pub use label::LabelMode;
pub use packet::{packet_dataset, packet_features, PACKET_FEATURES};
pub use window::{
    aggregate, window_dataset, WindowCell, WindowConfig, WindowFeature, WINDOW_FEATURES,
    WINDOW_ORDER,
};
