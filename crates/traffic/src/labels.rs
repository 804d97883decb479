//! Ground-truth label vocabulary: application classes and attack kinds.
//!
//! These are the labels the paper laments real networks never give you
//! ("labelled data ... is largely non-existent", §2). The generator stamps
//! them into [`GroundTruth`](campuslab_netsim::GroundTruth) so every
//! downstream experiment has perfect ground truth to train and score
//! against.

/// Benign application classes in the campus mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// Recursive DNS lookups to the campus resolver.
    Dns,
    /// HTTPS web browsing to external services.
    Web,
    /// Long paced video streams from external CDNs.
    Video,
    /// Interactive SSH sessions.
    Ssh,
    /// SMTP to and from the campus mail server.
    Mail,
    /// Bulk off-site backup uploads.
    Backup,
    /// NTP time synchronization.
    Ntp,
    /// ICMP echo (operations monitoring pings).
    Icmp,
}

impl AppClass {
    /// All classes, in id order.
    pub const ALL: [AppClass; 8] = [
        AppClass::Dns,
        AppClass::Web,
        AppClass::Video,
        AppClass::Ssh,
        AppClass::Mail,
        AppClass::Backup,
        AppClass::Ntp,
        AppClass::Icmp,
    ];

    /// Stable numeric id (1-based; 0 means "unlabeled").
    pub fn id(self) -> u16 {
        match self {
            AppClass::Dns => 1,
            AppClass::Web => 2,
            AppClass::Video => 3,
            AppClass::Ssh => 4,
            AppClass::Mail => 5,
            AppClass::Backup => 6,
            AppClass::Ntp => 7,
            AppClass::Icmp => 8,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Dns => "dns",
            AppClass::Web => "web",
            AppClass::Video => "video",
            AppClass::Ssh => "ssh",
            AppClass::Mail => "mail",
            AppClass::Backup => "backup",
            AppClass::Ntp => "ntp",
            AppClass::Icmp => "icmp",
        }
    }
}

/// Attack campaign kinds the generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttackKind {
    /// Spoofed-source DNS reflection/amplification flood at a campus victim
    /// — the paper's §2 running example.
    DnsAmplification,
    /// TCP SYN flood at a campus server.
    SynFlood,
    /// Horizontal/vertical TCP port scan of campus hosts.
    PortScan,
    /// Repeated failed SSH logins against a campus host.
    SshBruteForce,
    /// Slow bulk exfiltration from a compromised campus host.
    Exfiltration,
    /// Random-subdomain NXDOMAIN "water torture" flood against the campus
    /// recursive resolver: every junk name defeats the cache and forces an
    /// upstream round trip.
    NxdomainFlood,
}

impl AttackKind {
    /// All kinds, in id order.
    pub const ALL: [AttackKind; 6] = [
        AttackKind::DnsAmplification,
        AttackKind::SynFlood,
        AttackKind::PortScan,
        AttackKind::SshBruteForce,
        AttackKind::Exfiltration,
        AttackKind::NxdomainFlood,
    ];

    /// Stable numeric id (1-based).
    pub fn id(self) -> u16 {
        match self {
            AttackKind::DnsAmplification => 1,
            AttackKind::SynFlood => 2,
            AttackKind::PortScan => 3,
            AttackKind::SshBruteForce => 4,
            AttackKind::Exfiltration => 5,
            AttackKind::NxdomainFlood => 6,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::DnsAmplification => "dns-amplification",
            AttackKind::SynFlood => "syn-flood",
            AttackKind::PortScan => "port-scan",
            AttackKind::SshBruteForce => "ssh-brute-force",
            AttackKind::Exfiltration => "exfiltration",
            AttackKind::NxdomainFlood => "nxdomain-flood",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse of [`AppClass::id`].
    fn app_from_id(id: u16) -> Option<AppClass> {
        AppClass::ALL.into_iter().find(|c| c.id() == id)
    }

    /// Inverse of [`AttackKind::id`].
    fn attack_from_id(id: u16) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.id() == id)
    }

    #[test]
    fn app_ids_round_trip() {
        for c in AppClass::ALL {
            assert_eq!(app_from_id(c.id()), Some(c));
        }
        assert_eq!(app_from_id(0), None);
        assert_eq!(app_from_id(99), None);
    }

    #[test]
    fn attack_ids_round_trip() {
        for k in AttackKind::ALL {
            assert_eq!(attack_from_id(k.id()), Some(k));
        }
        assert_eq!(attack_from_id(0), None);
    }

    #[test]
    fn ids_are_unique() {
        let mut app_ids: Vec<u16> = AppClass::ALL.iter().map(|c| c.id()).collect();
        app_ids.dedup();
        assert_eq!(app_ids.len(), AppClass::ALL.len());
        let mut atk_ids: Vec<u16> = AttackKind::ALL.iter().map(|k| k.id()).collect();
        atk_ids.dedup();
        assert_eq!(atk_ids.len(), AttackKind::ALL.len());
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            AppClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), AppClass::ALL.len());
    }
}
