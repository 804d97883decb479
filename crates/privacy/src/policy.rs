//! The data-governance policy engine: "arbitrating what data can or cannot
//! be made available to which of the university's many different
//! constituents" (paper §5), with an audit log.


/// Who is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The IT organization: owns the store, sees everything.
    ItOperator,
    /// University networking researchers (the paper's primary audience).
    Researcher,
    /// Internal audit / compliance.
    Auditor,
    /// Anyone outside the university.
    External,
}

/// Why they are asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Operating and defending the network.
    SecurityOperations,
    /// Developing and evaluating learning models.
    Research,
    /// Compliance review.
    Audit,
}

/// What they are asking for, ordered from most to least sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataClass {
    /// Raw packets with payloads — full identifying power.
    RawPackets,
    /// Packet/flow/DNS records with identities intact but payloads gone.
    IdentifiedRecords,
    /// Prefix-preservingly anonymized records.
    AnonymizedRecords,
    /// Aggregates only (counts, histograms, rates).
    AggregateStats,
}

/// The engine's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Allow,
    Deny,
}

/// One entry in the access audit log.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    pub ts_ns: u64,
    pub role: Role,
    pub purpose: Purpose,
    pub class: DataClass,
    pub verdict: Verdict,
}

/// The policy engine. The matrix encodes the paper's stance: data stays
/// internal; researchers get anonymized records; only the IT organization
/// touches raw packets, and only for security operations.
#[derive(Debug, Default)]
pub struct PolicyEngine {
    audit: Vec<AuditEntry>,
}

impl PolicyEngine {
    /// A fresh engine with an empty audit log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision matrix, side-effect free.
    pub fn decide(role: Role, purpose: Purpose, class: DataClass) -> Verdict {
        use DataClass::*;
        use Purpose::*;
        use Role::*;
        let allow = match (role, purpose) {
            // IT operators defending the network see everything.
            (ItOperator, SecurityOperations) => true,
            // IT operators doing research follow the researcher rules.
            (ItOperator, Research) => class >= AnonymizedRecords,
            (ItOperator, Audit) => class >= IdentifiedRecords,
            // Researchers never see raw payloads or unanonymized records.
            (Researcher, Research) => class >= AnonymizedRecords,
            (Researcher, SecurityOperations) => false,
            (Researcher, Audit) => false,
            // Auditors review identified records but not payloads.
            (Auditor, Audit) => class >= IdentifiedRecords,
            (Auditor, _) => false,
            // The paper: the data store is "only meant for internal use".
            (External, _) => false,
        };
        if allow {
            Verdict::Allow
        } else {
            Verdict::Deny
        }
    }

    /// Decide and record the access attempt.
    pub fn check(&mut self, ts_ns: u64, role: Role, purpose: Purpose, class: DataClass) -> Verdict {
        let verdict = Self::decide(role, purpose, class);
        self.audit.push(AuditEntry { ts_ns, role, purpose, class, verdict });
        verdict
    }

    /// The audit log so far.
    pub fn audit_log(&self) -> &[AuditEntry] {
        &self.audit
    }

    /// Denied attempts in the log.
    pub fn denials(&self) -> impl Iterator<Item = &AuditEntry> {
        self.audit.iter().filter(|e| e.verdict == Verdict::Deny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DataClass::*;
    use Purpose::*;
    use Role::*;

    #[test]
    fn external_parties_get_nothing() {
        for purpose in [SecurityOperations, Research, Audit] {
            for class in [RawPackets, IdentifiedRecords, AnonymizedRecords, AggregateStats] {
                assert_eq!(PolicyEngine::decide(External, purpose, class), Verdict::Deny);
            }
        }
    }

    #[test]
    fn researchers_get_anonymized_not_raw() {
        assert_eq!(
            PolicyEngine::decide(Researcher, Research, AnonymizedRecords),
            Verdict::Allow
        );
        assert_eq!(
            PolicyEngine::decide(Researcher, Research, AggregateStats),
            Verdict::Allow
        );
        assert_eq!(
            PolicyEngine::decide(Researcher, Research, IdentifiedRecords),
            Verdict::Deny
        );
        assert_eq!(PolicyEngine::decide(Researcher, Research, RawPackets), Verdict::Deny);
    }

    #[test]
    fn it_sec_ops_sees_everything() {
        for class in [RawPackets, IdentifiedRecords, AnonymizedRecords, AggregateStats] {
            assert_eq!(
                PolicyEngine::decide(ItOperator, SecurityOperations, class),
                Verdict::Allow
            );
        }
        // ...but an IT operator doing research is treated as a researcher.
        assert_eq!(
            PolicyEngine::decide(ItOperator, Research, RawPackets),
            Verdict::Deny
        );
    }

    #[test]
    fn auditors_see_identified_but_not_raw() {
        assert_eq!(
            PolicyEngine::decide(Auditor, Audit, IdentifiedRecords),
            Verdict::Allow
        );
        assert_eq!(PolicyEngine::decide(Auditor, Audit, RawPackets), Verdict::Deny);
        assert_eq!(
            PolicyEngine::decide(Auditor, Research, AggregateStats),
            Verdict::Deny
        );
    }

    #[test]
    fn audit_log_records_all_attempts() {
        let mut engine = PolicyEngine::new();
        engine.check(1, Researcher, Research, AnonymizedRecords);
        engine.check(2, Researcher, Research, RawPackets);
        engine.check(3, External, Research, AggregateStats);
        assert_eq!(engine.audit_log().len(), 3);
        let denials: Vec<_> = engine.denials().collect();
        assert_eq!(denials.len(), 2);
        assert_eq!(denials[0].ts_ns, 2);
        assert_eq!(denials[1].role, External);
    }
}
