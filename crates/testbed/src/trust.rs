//! Operator trust reports (paper §5, step (iv) and experiment E9): for
//! each decision the deployed model makes, produce the evidence list and
//! check whether it rests on the features a human analyst associates with
//! the attack — "if ... they would have made the same decision, their
//! level of trust in the learning model would increase".

use campuslab_capture::{HeaderField, PacketRecord};
use campuslab_features::packet_features;
use campuslab_ml::DecisionTree;
use campuslab_xai::{evidence_matches_expectation, explain, Explanation};

/// The packet features an analyst expects to see cited for each attack
/// kind (by attack id).
pub fn expected_features(attack_id: u16) -> Vec<usize> {
    use HeaderField::*;
    let fields: &[HeaderField] = match attack_id {
        // DNS amplification: big UDP datagrams sourced from port 53.
        1 => &[SrcPortIsDns, SrcPort, IsUdp, WireLen, Protocol],
        // SYN flood: bare SYNs at a TCP service.
        2 => &[TcpSyn, IsTcp, DstPort, Protocol, WireLen],
        // Port scan: small TCP SYN/RST probes across ports.
        3 => &[TcpSyn, TcpRst, DstPort, WireLen, IsTcp],
        // SSH brute force: repeated short exchanges on port 22.
        4 => &[DstPort, SrcPort, IsTcp, WireLen],
        // Exfiltration: sustained outbound bulk on 443.
        5 => &[DstPort, WireLen, DirectionInbound, IsTcp],
        _ => &[],
    };
    fields.iter().map(|f| f.index()).collect()
}

/// One audited decision.
#[derive(Debug, Clone)]
pub struct AuditedDecision {
    pub predicted_attack: bool,
    pub truly_attack: bool,
    pub confidence: f64,
    pub evidence_matches: bool,
    pub rendered: String,
}

/// Aggregate trust metrics for a model over labeled traffic.
#[derive(Debug, Clone)]
pub struct TrustReport {
    pub decisions_audited: usize,
    pub true_positives: usize,
    pub false_positives: usize,
    pub false_negatives: usize,
    /// Among true positives, how often the evidence cites expected
    /// features — the operator-trust proxy.
    pub evidence_match_rate: f64,
    /// A few rendered explanations for the report appendix.
    pub samples: Vec<AuditedDecision>,
}

/// Audit a deployed tree over labeled records for one attack kind.
pub fn trust_report(
    student: &DecisionTree,
    feature_names: &[String],
    records: &[PacketRecord],
    attack_id: u16,
    max_samples: usize,
) -> TrustReport {
    let expected = expected_features(attack_id);
    let mut tp = 0;
    let mut fp = 0;
    let mut fne = 0;
    let mut matched = 0;
    let mut samples = Vec::new();
    let mut audited = 0;
    for rec in records {
        let row = packet_features(rec);
        let ex: Explanation = explain(student, feature_names, &row);
        let predicted_attack = ex.predicted_class != 0;
        let truly_attack = rec.label_attack == attack_id;
        if !predicted_attack && !truly_attack {
            continue; // true negatives are not audited
        }
        audited += 1;
        let evidence_ok = evidence_matches_expectation(&ex, &expected);
        match (predicted_attack, truly_attack) {
            (true, true) => {
                tp += 1;
                if evidence_ok {
                    matched += 1;
                }
            }
            (true, false) => fp += 1,
            (false, true) => fne += 1,
            (false, false) => unreachable!(),
        }
        // Keep a diverse sample set: prefer one of each outcome kind
        // (TP, FP, FN) before repeating kinds.
        let kind_count = samples
            .iter()
            .filter(|s: &&AuditedDecision| {
                s.predicted_attack == predicted_attack && s.truly_attack == truly_attack
            })
            .count();
        if samples.len() < max_samples && kind_count == 0 {
            let verdict_name = if predicted_attack { "attack" } else { "benign" };
            samples.push(AuditedDecision {
                predicted_attack,
                truly_attack,
                confidence: ex.confidence,
                evidence_matches: evidence_ok,
                rendered: ex.to_text(verdict_name),
            });
        }
    }
    TrustReport {
        decisions_audited: audited,
        true_positives: tp,
        false_positives: fp,
        false_negatives: fne,
        evidence_match_rate: if tp > 0 { matched as f64 / tp as f64 } else { 0.0 },
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{collect, Scenario};
    use campuslab_control::{run_development_loop, DevLoopConfig};

    #[test]
    fn expected_features_cover_all_attack_kinds() {
        for id in 1..=5u16 {
            assert!(!expected_features(id).is_empty(), "kind {id}");
        }
        assert!(expected_features(0).is_empty());
        assert!(expected_features(99).is_empty());
    }

    #[test]
    fn amplification_model_cites_the_right_evidence() {
        let data = collect(&Scenario::small());
        let dev = run_development_loop(&data.packets, &DevLoopConfig::default());
        let report = trust_report(&dev.student, &dev.feature_names, &data.packets, 1, 5);
        assert!(report.true_positives > 50, "{report:?}");
        assert!(
            report.evidence_match_rate > 0.9,
            "evidence match rate {}",
            report.evidence_match_rate
        );
        assert!(!report.samples.is_empty());
        assert!(report.samples[0].rendered.contains("verdict"));
    }
}
