//! Record scrubbing: applies the anonymization policy to the record types
//! before they are released beyond the IT organization's enclave.

use crate::cryptopan::PrefixPreservingAnon;
use campuslab_capture::PacketRecord;

/// What survives scrubbing. There is one policy: IP addresses are
/// prefix-preservingly anonymized and ephemeral ports pseudonymized
/// (well-known ports survive); labels and volume fields stay intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubPolicy;

impl ScrubPolicy {
    /// The policy for researchers inside the university: anonymized
    /// identities, labels intact (labels are synthetic anyway).
    pub fn internal_research() -> Self {
        ScrubPolicy
    }
}

/// A scrubber bound to a key, applying [`ScrubPolicy`].
pub struct Scrubber {
    anon: PrefixPreservingAnon,
}

impl Scrubber {
    /// Create a scrubber.
    pub fn new(key: u128, _policy: ScrubPolicy) -> Self {
        Scrubber { anon: PrefixPreservingAnon::new(key) }
    }

    /// Scrub one packet record.
    pub fn scrub_packet(&self, mut rec: PacketRecord) -> PacketRecord {
        rec.src = self.anon.anonymize(rec.src);
        rec.dst = self.anon.anonymize(rec.dst);
        rec.src_port = self.anon.pseudonymize_port(rec.src_port);
        rec.dst_port = self.anon.pseudonymize_port(rec.dst_port);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};

    fn packet() -> PacketRecord {
        PacketRecord {
            ts_ns: 1,
            direction: Direction::Inbound,
            src: "203.0.113.7".parse().unwrap(),
            dst: "10.1.1.10".parse().unwrap(),
            protocol: 17,
            src_port: 53,
            dst_port: 49_152,
            wire_len: 100,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 77,
            label_app: 1,
            label_attack: 1,
        }
    }

    #[test]
    fn internal_policy_recodes_identity_keeps_labels() {
        let s = Scrubber::new(42, ScrubPolicy::internal_research());
        let out = s.scrub_packet(packet());
        assert_ne!(out.src, packet().src);
        assert_ne!(out.dst, packet().dst);
        assert_eq!(out.src_port, 53, "well-known port preserved");
        assert_ne!(out.dst_port, 49_152, "ephemeral port recoded");
        assert_eq!(out.label_attack, 1, "labels preserved for research");
        assert_eq!(out.wire_len, 100, "volume features preserved");
    }

    #[test]
    fn scrubbing_is_deterministic_per_key() {
        let s1 = Scrubber::new(42, ScrubPolicy::internal_research());
        let s2 = Scrubber::new(42, ScrubPolicy::internal_research());
        let s3 = Scrubber::new(43, ScrubPolicy::internal_research());
        assert_eq!(s1.scrub_packet(packet()), s2.scrub_packet(packet()));
        assert_ne!(s1.scrub_packet(packet()).src, s3.scrub_packet(packet()).src);
    }
}
