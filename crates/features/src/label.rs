//! Label extraction policies shared by the feature builders.

use campuslab_capture::PacketRecord;

/// How records map to class labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// 0 = benign, 1 = any attack.
    BinaryAttack,
    /// 0 = benign, k = attack kind id (1..=5).
    AttackKind,
    /// Application class id (0 = unlabeled).
    AppClass,
}

impl LabelMode {
    /// Label for a packet record.
    pub fn label_packet(self, rec: &PacketRecord) -> usize {
        match self {
            LabelMode::BinaryAttack => usize::from(rec.label_attack != 0),
            LabelMode::AttackKind => usize::from(rec.label_attack),
            LabelMode::AppClass => usize::from(rec.label_app),
        }
    }

    /// Lower bound on the class count (so datasets with one class present
    /// still declare the full label space).
    pub fn min_classes(self) -> usize {
        match self {
            LabelMode::BinaryAttack => 2,
            LabelMode::AttackKind => 6,
            LabelMode::AppClass => 9,
        }
    }

    /// Human-readable class name.
    pub fn class_name(self, class: usize) -> String {
        match self {
            LabelMode::BinaryAttack => ["benign", "attack"]
                .get(class)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("class-{class}")),
            LabelMode::AttackKind => match class {
                0 => "benign".to_string(),
                1 => "dns-amplification".to_string(),
                2 => "syn-flood".to_string(),
                3 => "port-scan".to_string(),
                4 => "ssh-brute-force".to_string(),
                5 => "exfiltration".to_string(),
                6 => "nxdomain-flood".to_string(),
                other => format!("attack-{other}"),
            },
            LabelMode::AppClass => match class {
                0 => "unlabeled".to_string(),
                1 => "dns".to_string(),
                2 => "web".to_string(),
                3 => "video".to_string(),
                4 => "ssh".to_string(),
                5 => "mail".to_string(),
                6 => "backup".to_string(),
                7 => "ntp".to_string(),
                8 => "icmp".to_string(),
                other => format!("app-{other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};
    use std::net::IpAddr;

    fn rec(app: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: 0,
            direction: Direction::Inbound,
            src: IpAddr::from([1, 1, 1, 1]),
            dst: IpAddr::from([2, 2, 2, 2]),
            protocol: 6,
            src_port: 1,
            dst_port: 2,
            wire_len: 60,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: app,
            label_attack: attack,
        }
    }

    #[test]
    fn binary_labels() {
        assert_eq!(LabelMode::BinaryAttack.label_packet(&rec(2, 0)), 0);
        assert_eq!(LabelMode::BinaryAttack.label_packet(&rec(2, 3)), 1);
    }

    #[test]
    fn multiclass_labels() {
        assert_eq!(LabelMode::AttackKind.label_packet(&rec(0, 4)), 4);
        assert_eq!(LabelMode::AppClass.label_packet(&rec(7, 0)), 7);
    }

    #[test]
    fn class_names() {
        assert_eq!(LabelMode::BinaryAttack.class_name(1), "attack");
        assert_eq!(LabelMode::AttackKind.class_name(1), "dns-amplification");
        assert_eq!(LabelMode::AppClass.class_name(2), "web");
        assert_eq!(LabelMode::AttackKind.class_name(9), "attack-9");
    }

    #[test]
    fn min_classes_cover_label_space() {
        assert_eq!(LabelMode::BinaryAttack.min_classes(), 2);
        assert_eq!(LabelMode::AttackKind.min_classes(), 6);
        assert_eq!(LabelMode::AppClass.min_classes(), 9);
    }
}
