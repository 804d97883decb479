//! The pipeline program: a prioritized ternary match-action table plus the
//! software executor that evaluates it per packet, policing rate-limit
//! entries with per-entry token buckets.

use crate::fields::{FieldValues, HeaderField, FIELD_ORDER};
use crate::ternary::TernaryMatch;
use campuslab_netsim::fxhash::FxHasher;
use serde::{Deserialize, Serialize};
use std::hash::Hasher;

/// What an entry does on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Pass the packet on.
    Forward,
    /// Drop at ingress.
    Drop,
    /// Police matching traffic to a rate with a per-entry token bucket —
    /// the gentler mitigation real operators often prefer to a hard drop.
    RateLimit { bits_per_sec: u64 },
}

/// One match-action entry: a ternary cell per field (wildcards for
/// unconstrained fields).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableEntry {
    /// One cell per canonical field, in order.
    pub matches: [TernaryMatch; FIELD_ORDER.len()],
    pub action: Action,
    /// Higher wins.
    pub priority: i32,
    /// The model confidence that produced this entry (for reports).
    pub confidence: f64,
}

impl TableEntry {
    /// An entry that matches each listed field exactly, at that field's
    /// width, and every other field by wildcard.
    pub fn exact(fields: &[(HeaderField, u32)], action: Action, priority: i32, confidence: f64) -> Self {
        let mut matches = [TernaryMatch::ANY; FIELD_ORDER.len()];
        for &(field, value) in fields {
            let mask = field.max_value();
            matches[field.index()] = TernaryMatch { value: value & mask, mask };
        }
        TableEntry { matches, action, priority, confidence }
    }

    /// A catch-all entry with the given action at the lowest priority.
    pub fn default_entry(action: Action) -> Self {
        TableEntry::exact(&[], action, i32::MIN, 1.0)
    }

    /// Whether the entry matches a parsed packet.
    pub fn matches(&self, fields: &FieldValues) -> bool {
        self.matches
            .iter()
            .zip(fields.iter())
            .all(|(cell, &value)| cell.matches(value))
    }
}

/// A compiled pipeline program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineProgram {
    /// Entries sorted by descending priority.
    pub entries: Vec<TableEntry>,
    /// Human-readable provenance ("distilled-tree depth=5 gate=0.9").
    pub name: String,
}

/// A program's deployment identity: the human-readable name plus a
/// content fingerprint. Two programs with the same version are
/// byte-equivalent match-action tables; a rollout registry keys on this,
/// so rollback can remove exactly the entries one candidate installed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProgramVersion {
    /// Provenance name (`PipelineProgram::name`).
    pub name: String,
    /// Deterministic content hash over entries (order, matches, actions,
    /// priorities, confidences) and the name.
    pub fingerprint: u64,
}

impl std::fmt::Display for ProgramVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{:08x}", self.name, self.fingerprint & 0xFFFF_FFFF)
    }
}

/// A per-entry policer: a classic token bucket over bits.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct TokenBucket {
    rate_bps: u64,
    burst_bits: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    fn new(rate_bps: u64) -> Self {
        // A 50 ms burst allowance, the common default.
        let burst_bits = (rate_bps as f64 * 0.05).max(12_000.0);
        TokenBucket { rate_bps, burst_bits, tokens: burst_bits, last_ns: 0 }
    }

    /// Try to send `bits` at `now_ns`; true = conforms (forward).
    fn conform(&mut self, now_ns: u64, bits: f64) -> bool {
        if now_ns > self.last_ns {
            let dt = (now_ns - self.last_ns) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_bps as f64).min(self.burst_bits);
            self.last_ns = now_ns;
        }
        if self.tokens >= bits {
            self.tokens -= bits;
            true
        } else {
            false
        }
    }
}

/// Runtime state: the program plus one token bucket per policing entry.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PipelineRuntime {
    program: PipelineProgram,
    /// Token-bucket state per entry (None for non-policing entries).
    meters: Vec<Option<TokenBucket>>,
}

impl PipelineProgram {
    /// Create a program; sorts entries by priority.
    pub fn new(name: impl Into<String>, mut entries: Vec<TableEntry>) -> Self {
        entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
        PipelineProgram { entries, name: name.into() }
    }

    /// Number of TCAM entries.
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// Deterministic content fingerprint: hashes the name and every entry
    /// (matches, action, priority, confidence bits) with the cross-platform
    /// Fx hasher, so the same program hashes identically across processes
    /// and runs — the identity a rollout registry and the filter bank key
    /// on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(self.name.as_bytes());
        h.write_usize(self.entries.len());
        for e in &self.entries {
            for cell in &e.matches {
                h.write_u32(cell.value);
                h.write_u32(cell.mask);
            }
            match e.action {
                Action::Forward => h.write_u8(0),
                Action::Drop => h.write_u8(1),
                Action::RateLimit { bits_per_sec } => {
                    h.write_u8(2);
                    h.write_u64(bits_per_sec);
                }
            }
            h.write_i32(e.priority);
            h.write_u64(e.confidence.to_bits());
        }
        h.finish()
    }

    /// The program's deployment identity (name + content fingerprint).
    pub fn version(&self) -> ProgramVersion {
        ProgramVersion { name: self.name.clone(), fingerprint: self.fingerprint() }
    }

    /// First-match lookup.
    pub fn lookup(&self, fields: &FieldValues) -> Option<(usize, Action)> {
        self.entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.matches(fields))
            .map(|(i, e)| (i, e.action))
    }

    /// A copy of this program with every Drop entry converted into a
    /// policer at `bits_per_sec` — the "rate-limit instead of drop"
    /// mitigation variant operators often prefer for lower blast radius.
    pub fn with_drops_as_policers(&self, bits_per_sec: u64) -> PipelineProgram {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut e = e.clone();
                if e.action == Action::Drop {
                    e.action = Action::RateLimit { bits_per_sec };
                }
                e
            })
            .collect();
        PipelineProgram::new(format!("{}-policed", self.name), entries)
    }

    /// Wrap into a runtime with a token bucket per policing entry.
    pub fn into_runtime(self) -> PipelineRuntime {
        let meters = self
            .entries
            .iter()
            .map(|e| match e.action {
                Action::RateLimit { bits_per_sec } => Some(TokenBucket::new(bits_per_sec)),
                _ => None,
            })
            .collect();
        PipelineRuntime { program: self, meters }
    }
}

impl PipelineRuntime {
    /// Process one parsed packet; returns the action (Forward on miss,
    /// as switches default-permit unless told otherwise). Rate-limit
    /// entries act as plain Forward here because no clock is supplied;
    /// use [`PipelineRuntime::process_at`] to enforce policing.
    pub fn process(&mut self, fields: &FieldValues) -> Action {
        self.program.lookup(fields).map_or(Action::Forward, |(_, action)| action)
    }

    /// Process with a clock and packet size: rate-limit entries police via
    /// their token buckets; the returned action is the *effective* verdict
    /// (a policed-out packet returns Drop).
    pub fn process_at(&mut self, now_ns: u64, fields: &FieldValues, wire_len: u32) -> Action {
        match self.program.lookup(fields) {
            Some((idx, Action::RateLimit { .. })) => {
                // Meters are built per-entry in `into_runtime`, so a
                // policing entry always has one; treat a missing meter as
                // an unpoliced forward rather than panicking the per-packet
                // path on a malformed runtime.
                let conforms = self
                    .meters
                    .get_mut(idx)
                    .and_then(Option::as_mut)
                    .is_none_or(|meter| meter.conform(now_ns, f64::from(wire_len) * 8.0));
                if conforms {
                    Action::Forward
                } else {
                    Action::Drop
                }
            }
            Some((_, action)) => action,
            None => Action::Forward,
        }
    }

    /// The wrapped program.
    pub fn program(&self) -> &PipelineProgram {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_on(field: HeaderField, value: u32, action: Action, priority: i32) -> TableEntry {
        TableEntry::exact(&[(field, value)], action, priority, 1.0)
    }

    fn fields_with(field: HeaderField, value: u32) -> FieldValues {
        let mut f = [0u32; FIELD_ORDER.len()];
        f[field.index()] = value;
        f
    }

    #[test]
    fn first_match_by_priority() {
        let drop_dns = entry_on(HeaderField::SrcPort, 53, Action::Drop, 10);
        let allow_all = TableEntry::default_entry(Action::Forward);
        let program = PipelineProgram::new("test", vec![allow_all, drop_dns]);
        // Sorting put the drop first.
        assert_eq!(program.entries[0].action, Action::Drop);
        assert_eq!(program.lookup(&fields_with(HeaderField::SrcPort, 53)), Some((0, Action::Drop)));
        assert_eq!(program.lookup(&fields_with(HeaderField::SrcPort, 80)), Some((1, Action::Forward)));
        let mut rt = program.into_runtime();
        assert_eq!(rt.process(&fields_with(HeaderField::SrcPort, 53)), Action::Drop);
        assert_eq!(rt.process(&fields_with(HeaderField::SrcPort, 80)), Action::Forward);
    }

    #[test]
    fn miss_defaults_to_forward() {
        let program = PipelineProgram::new(
            "only-drop",
            vec![entry_on(HeaderField::DstPort, 22, Action::Drop, 0)],
        );
        assert_eq!(program.lookup(&fields_with(HeaderField::DstPort, 443)), None);
        let mut rt = program.into_runtime();
        assert_eq!(rt.process(&fields_with(HeaderField::DstPort, 443)), Action::Forward);
    }

    #[test]
    fn multi_field_entries_require_all_cells() {
        let udp_dns = [(HeaderField::Protocol, 17), (HeaderField::SrcPort, 53)];
        let e = TableEntry::exact(&udp_dns, Action::Drop, 0, 0.95);
        let mut yes = [0u32; FIELD_ORDER.len()];
        for (field, value) in udp_dns {
            yes[field.index()] = value;
        }
        assert!(e.matches(&yes));
        let mut no = yes;
        no[HeaderField::Protocol.index()] = 6;
        assert!(!e.matches(&no));
    }

    #[test]
    fn rate_limit_polices_to_the_configured_rate() {
        // 1 Mbps policer against a 10 Mbps offered stream of 1250-byte
        // packets (10 kbit each @ 1 ms apart): ~10% should conform.
        let program = PipelineProgram::new(
            "police",
            vec![TableEntry::default_entry(Action::RateLimit { bits_per_sec: 1_000_000 })],
        );
        let mut rt = program.into_runtime();
        let fields = [0u32; FIELD_ORDER.len()];
        let n = 2_000u64;
        let (mut forwarded, mut policed) = (0, 0);
        for i in 0..n {
            match rt.process_at(i * 1_000_000, &fields, 1_250) {
                Action::Forward => forwarded += 1,
                Action::Drop => policed += 1,
                other => panic!("a policer answered {other:?}"),
            }
        }
        let rate = forwarded as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.03, "conform rate {rate}");
        assert_eq!(policed + forwarded, n);
    }

    #[test]
    fn rate_limit_allows_bursts_within_the_bucket() {
        let program = PipelineProgram::new(
            "police",
            vec![TableEntry::default_entry(Action::RateLimit { bits_per_sec: 10_000_000 })],
        );
        let mut rt = program.into_runtime();
        let fields = [0u32; FIELD_ORDER.len()];
        // Burst of 40 x 1250B = 400 kbit <= 500 kbit bucket: all conform.
        for _ in 0..40 {
            assert_eq!(rt.process_at(0, &fields, 1_250), Action::Forward);
        }
        // The 50th kills the bucket.
        let mut dropped = false;
        for _ in 0..20 {
            if rt.process_at(0, &fields, 1_250) == Action::Drop {
                dropped = true;
            }
        }
        assert!(dropped);
    }

    #[test]
    fn process_without_clock_treats_policers_as_forward() {
        let program = PipelineProgram::new(
            "police",
            vec![TableEntry::default_entry(Action::RateLimit { bits_per_sec: 8 })],
        );
        let mut rt = program.into_runtime();
        let fields = [0u32; FIELD_ORDER.len()];
        assert_eq!(rt.process(&fields), Action::RateLimit { bits_per_sec: 8 });
    }

    #[test]
    fn drops_convert_to_policers() {
        let program = PipelineProgram::new(
            "p",
            vec![
                TableEntry::default_entry(Action::Drop),
                entry_on(HeaderField::DstPort, 22, Action::Forward, 5),
            ],
        );
        let policed = program.with_drops_as_policers(2_000_000);
        assert_eq!(policed.name, "p-policed");
        let actions: Vec<Action> = policed.entries.iter().map(|e| e.action).collect();
        assert!(actions.contains(&Action::RateLimit { bits_per_sec: 2_000_000 }));
        assert!(actions.contains(&Action::Forward));
        assert!(!actions.contains(&Action::Drop));
    }

    #[test]
    fn fingerprint_is_content_identity() {
        let a = PipelineProgram::new(
            "p",
            vec![entry_on(HeaderField::SrcPort, 53, Action::Drop, 1)],
        );
        // Same content, same fingerprint — across clones and rebuilds.
        let b = PipelineProgram::new(
            "p",
            vec![entry_on(HeaderField::SrcPort, 53, Action::Drop, 1)],
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.version(), b.version());
        // Any content drift moves the fingerprint: name, match, action,
        // priority, confidence.
        let renamed = PipelineProgram::new("q", a.entries.clone());
        assert_ne!(a.fingerprint(), renamed.fingerprint());
        let other_match = PipelineProgram::new(
            "p",
            vec![entry_on(HeaderField::SrcPort, 54, Action::Drop, 1)],
        );
        assert_ne!(a.fingerprint(), other_match.fingerprint());
        let policed = a.with_drops_as_policers(1_000_000);
        assert_ne!(a.fingerprint(), policed.fingerprint());
        let mut conf = a.clone();
        conf.entries[0].confidence = 0.5;
        assert_ne!(a.fingerprint(), conf.fingerprint());
        // Display form is stable and human-scannable.
        assert!(a.version().to_string().starts_with("p@"));
    }

    #[test]
    fn malformed_runtime_forwards_instead_of_panicking() {
        // A runtime whose meter table was clobbered (models a malformed
        // deserialized program): the policing entry must degrade to
        // Forward, never panic the per-packet path.
        let program = PipelineProgram::new(
            "police",
            vec![TableEntry::default_entry(Action::RateLimit { bits_per_sec: 8 })],
        );
        let mut rt = program.into_runtime();
        rt.meters.clear();
        let fields = [0u32; FIELD_ORDER.len()];
        assert_eq!(rt.process_at(0, &fields, 1_500), Action::Forward);
    }

    #[test]
    fn serializes_round_trip() {
        let program = PipelineProgram::new(
            "p",
            vec![TableEntry::default_entry(Action::Drop)],
        );
        let back: PipelineProgram = serde::bin::from_slice(&serde::bin::to_vec(&program)).unwrap();
        assert_eq!(back.entries, program.entries);
    }
}
