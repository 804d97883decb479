//! # campuslab-dataplane
//!
//! The programmable data plane substrate: a P4-flavored match-action
//! pipeline, the decision-tree→TCAM compiler (the paper's road-map step
//! (iii)), and a Tofino-like resource model that turns the paper's §2
//! scale claim into a measurable number.
//!
//! * [`fields`] — the match key: the packet schema declared beside
//!   `campuslab_capture::PacketRecord`, plus the live extractor.
//! * [`ternary`] — minimal range→ternary prefix expansion (exhaustively
//!   tested over all 8-bit ranges).
//! * [`program`] — prioritized ternary tables with an executor that
//!   polices rate-limit entries.
//! * [`compiler`] — leaf rules → cross-products of ternary blocks, with a
//!   confidence gate ("drop ... if confidence ... is at least 90%").
//! * [`resources`] — stages/TCAM/table-slot envelope; answers "how many
//!   concurrent automation tasks fit?" (experiment E6).
//! * [`admission`] — FIFO tenant admission over that envelope; the
//!   plaza's arbiter for multi-tenant experimentation (experiment E18).

//!
//! ```
//! use campuslab_dataplane::{range_to_ternary, SwitchModel};
//!
//! // An aligned port range costs one TCAM cell; a ragged one expands.
//! assert_eq!(range_to_ternary(1024, 2047, 16).len(), 1);
//! assert!(range_to_ternary(1000, 2000, 16).len() > 1);
//! // And the switch has a finite envelope for concurrent tasks.
//! let switch = SwitchModel::default();
//! assert_eq!(switch.total_slots(), 96);
//! ```

pub mod fields;
pub mod ternary;
pub mod program;
pub mod compiler;
pub mod resources;
pub mod admission;

pub use admission::{AdmissionController, AdmissionDecision, TenantDemand};
pub use compiler::{compile_tree, CompileConfig, CompileReport};
pub use fields::{fields_from_record, FieldExtractor, FieldValues, HeaderField, FIELD_ORDER};
pub use program::{Action, PipelineProgram, PipelineRuntime, ProgramVersion, TableEntry};
pub use resources::{Allocation, ProgramFootprint, ResourceError, SwitchModel};
pub use ternary::{range_to_ternary, TernaryMatch};
