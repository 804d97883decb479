//! Per-packet features — the feature set a programmable data plane can
//! evaluate at line rate, because every column is a header field or a
//! trivial function of one. The columns are the packet schema declared
//! beside `PacketRecord` (`campuslab_capture::HeaderField`), and a row is
//! that schema's one extraction as `f64`: the switch key a compiled tree
//! matches on, value for value.

use crate::label::LabelMode;
use campuslab_capture::{fields_from_record, PacketRecord, FIELD_NAMES};
use campuslab_ml::Dataset;

/// Column names, in order. Every feature is integer-valued on purpose:
/// tree thresholds over integers compile exactly to range matches.
pub const PACKET_FEATURES: [&str; 13] = FIELD_NAMES;

/// Extract the feature row for one captured packet.
pub fn packet_features(rec: &PacketRecord) -> Vec<f64> {
    fields_from_record(rec).iter().map(|&v| f64::from(v)).collect()
}

/// Build a per-packet dataset from captured records, labeled per `mode`.
/// Records are assumed time-ordered (as the capture plane produces them),
/// so `split_by_order` gives leakage-free train/test splits.
pub fn packet_dataset(records: &[PacketRecord], mode: LabelMode) -> Dataset {
    let x: Vec<Vec<f64>> = records.iter().map(packet_features).collect();
    let y: Vec<usize> = records.iter().map(|r| mode.label_packet(r)).collect();
    let mut d = Dataset::new(
        x,
        y,
        PACKET_FEATURES.iter().map(|s| s.to_string()).collect(),
    );
    d.n_classes = d.n_classes.max(mode.min_classes());
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, HeaderField, TcpFlags};
    use std::net::IpAddr;

    fn rec(protocol: u8, sport: u16, dport: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: 0,
            direction: Direction::Inbound,
            src: IpAddr::from([203, 0, 113, 1]),
            dst: IpAddr::from([10, 1, 1, 10]),
            protocol,
            src_port: sport,
            dst_port: dport,
            wire_len: 1200,
            ttl: 60,
            tcp_flags: TcpFlags { syn: protocol == 6, ..Default::default() },
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    #[test]
    fn schema_and_row_agree() {
        let row = packet_features(&rec(17, 53, 40_000, 1));
        let at = |f: HeaderField| row[f.index()];
        assert_eq!(row.len(), PACKET_FEATURES.len());
        assert_eq!(at(HeaderField::Protocol), 17.0);
        assert_eq!(at(HeaderField::SrcPort), 53.0);
        assert_eq!(at(HeaderField::DstPort), 40_000.0);
        assert_eq!(at(HeaderField::WireLen), 1200.0);
        assert_eq!(at(HeaderField::DirectionInbound), 1.0);
        assert_eq!(at(HeaderField::IsUdp), 1.0);
        assert_eq!(at(HeaderField::IsTcp), 0.0);
        assert_eq!(at(HeaderField::SrcPortIsDns), 1.0);
    }

    #[test]
    fn tcp_flags_are_featurized() {
        let row = packet_features(&rec(6, 50_000, 443, 0));
        assert_eq!(row[HeaderField::TcpSyn.index()], 1.0);
        assert_eq!(row[HeaderField::IsTcp.index()], 1.0);
        assert_eq!(row[HeaderField::SrcPortIsDns.index()], 0.0);
    }

    /// The feature row and the switch key are one extraction, so a length
    /// past the key's 16 bits reads the same in both.
    #[test]
    fn oversized_wire_len_reads_the_same_in_row_and_key() {
        let mut r = rec(17, 53, 40_000, 1);
        r.wire_len = 70_000;
        let key = fields_from_record(&r);
        let row = packet_features(&r);
        let wire_len = HeaderField::WireLen.index();
        assert_eq!(row[wire_len], f64::from(key[wire_len]));
        assert_eq!(row[wire_len], 65_535.0);
    }

    #[test]
    fn dataset_binary_labels() {
        let records = vec![rec(17, 53, 40_000, 1), rec(6, 50_000, 443, 0)];
        let d = packet_dataset(&records, LabelMode::BinaryAttack);
        assert_eq!(d.len(), 2);
        assert_eq!(d.y, vec![1, 0]);
        assert_eq!(d.n_classes, 2);
        assert_eq!(d.feature_names.len(), PACKET_FEATURES.len());
    }
}
