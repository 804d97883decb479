//! The tree→pipeline compiler: step (iii) of the paper's road to
//! deployment — "compile the deployable learning model ... into a
//! target-specific program (e.g., P4) and configure the programmable
//! switches" (§5).
//!
//! Every root-to-leaf rule of a distilled decision tree is a conjunction of
//! integer intervals over header fields; each interval expands to ternary
//! prefix blocks, and the cross-product of the per-field blocks becomes
//! TCAM entries. Tree depth therefore costs *multiplicatively* in entries —
//! the concrete mechanism behind the paper's claim that data planes cannot
//! host hundreds of concurrent tasks.

use crate::fields::{HeaderField, FIELD_ORDER};
use crate::program::{Action, PipelineProgram, TableEntry};
use crate::ternary::{range_to_ternary, TernaryMatch};
use campuslab_ml::{DecisionTree, LeafRule};

/// Compilation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CompileConfig {
    /// The class whose prediction means "drop" (1 = attack in the binary
    /// packet schema).
    pub drop_class: usize,
    /// Only compile drop rules whose leaf confidence reaches this gate —
    /// the paper's "if confidence in detection is at least 90%".
    pub confidence_gate: f64,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig { drop_class: 1, confidence_gate: 0.9 }
    }
}

/// What compilation produced.
#[derive(Debug, Clone)]
pub struct CompileReport {
    pub leaves_total: usize,
    pub leaves_drop: usize,
    pub leaves_gated_out: usize,
    /// Leaves whose bounds referenced a feature index outside the schema
    /// (a malformed or stale tree); skipped rather than panicking.
    pub leaves_malformed: usize,
    pub tcam_entries: usize,
    /// Worst single-leaf expansion factor.
    pub max_expansion: usize,
}

/// Compile a decision tree over the canonical packet-feature schema into a
/// drop/forward pipeline program.
pub fn compile_tree(
    tree: &DecisionTree,
    cfg: CompileConfig,
    name: impl Into<String>,
) -> (PipelineProgram, CompileReport) {
    let rules = tree.leaf_rules();
    let mut entries = Vec::new();
    let mut report = CompileReport {
        leaves_total: rules.len(),
        leaves_drop: 0,
        leaves_gated_out: 0,
        leaves_malformed: 0,
        tcam_entries: 0,
        max_expansion: 0,
    };
    for rule in &rules {
        if rule.class != cfg.drop_class {
            continue;
        }
        if rule.confidence < cfg.confidence_gate {
            report.leaves_gated_out += 1;
            continue;
        }
        let Some(expanded) = expand_rule(rule) else {
            report.leaves_malformed += 1;
            continue;
        };
        report.leaves_drop += 1;
        report.max_expansion = report.max_expansion.max(expanded.len());
        for matches in expanded {
            entries.push(TableEntry {
                matches,
                action: Action::Drop,
                priority: 0,
                confidence: rule.confidence,
            });
        }
    }
    report.tcam_entries = entries.len();
    (PipelineProgram::new(name, entries), report)
}

/// Expand one leaf rule into the cross-product of per-field ternary
/// blocks. Returns an empty vec for infeasible rules (empty intervals)
/// and `None` when a bound references a feature index outside the schema
/// (a malformed tree must not panic the compiler path).
fn expand_rule(rule: &LeafRule) -> Option<Vec<[TernaryMatch; FIELD_ORDER.len()]>> {
    // Per-field expansions, starting from "unconstrained".
    let mut per_field: Vec<Vec<TernaryMatch>> = vec![vec![TernaryMatch::ANY]; FIELD_ORDER.len()];
    for &(feature, lo, hi) in &rule.bounds {
        let field = HeaderField::try_from_feature_index(feature)?;
        let max = field.max_value();
        // Features are integers: `x > lo` means `x >= floor(lo) + 1`,
        // `x <= hi` means `x <= floor(hi)`.
        let lo_int = if lo.is_finite() {
            (lo.floor() as i64 + 1).max(0) as u32
        } else {
            0
        };
        let hi_int = if hi.is_finite() {
            let h = hi.floor();
            if h < 0.0 {
                return Some(Vec::new());
            }
            (h as u32).min(max)
        } else {
            max
        };
        if lo_int > hi_int || lo_int > max {
            return Some(Vec::new()); // infeasible under this field's width
        }
        per_field[feature] = range_to_ternary(lo_int, hi_int, field.bits());
    }
    // Cross product.
    let mut out: Vec<[TernaryMatch; FIELD_ORDER.len()]> =
        vec![[TernaryMatch::ANY; FIELD_ORDER.len()]];
    for (f, blocks) in per_field.iter().enumerate() {
        if blocks.len() == 1 {
            for entry in &mut out {
                entry[f] = blocks[0];
            }
            continue;
        }
        let mut next = Vec::with_capacity(out.len() * blocks.len());
        for entry in &out {
            for &b in blocks {
                let mut e = *entry;
                e[f] = b;
                next.push(e);
            }
        }
        out = next;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{fields_from_record, FieldValues};
    use campuslab_capture::{Direction, PacketRecord, TcpFlags};
    use campuslab_ml::{Classifier, Dataset, TreeConfig};
    use std::net::IpAddr;

    fn rec(proto: u8, sport: u16, len: u32, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: 0,
            direction: Direction::Inbound,
            src: IpAddr::from([203, 0, 113, 1]),
            dst: IpAddr::from([10, 1, 1, 10]),
            protocol: proto,
            src_port: sport,
            dst_port: 40_000,
            wire_len: len,
            ttl: 60,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    /// Training set where attacks are big UDP packets from port 53.
    fn training_records() -> Vec<PacketRecord> {
        let mut records = Vec::new();
        for i in 0..300u32 {
            records.push(rec(17, 53, 1_500 + (i % 400), 1)); // amplification
            records.push(rec(6, 443, 100 + (i % 1_000), 0)); // benign web
            records.push(rec(17, 53, 80 + (i % 60), 0)); // benign dns answers
        }
        records
    }

    fn feature_row(v: &FieldValues) -> Vec<f64> {
        v.iter().map(|&x| f64::from(x)).collect()
    }

    #[test]
    fn compiled_program_agrees_with_the_tree() {
        let records = training_records();
        let x: Vec<Vec<f64>> = records.iter().map(|r| feature_row(&fields_from_record(r))).collect();
        let y: Vec<usize> = records.iter().map(|r| usize::from(r.label_attack != 0)).collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let data = Dataset::new(x, y, names);
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(5));
        let (program, report) = compile_tree(
            &tree,
            CompileConfig { confidence_gate: 0.5, ..Default::default() },
            "test",
        );
        assert!(report.leaves_drop > 0);
        assert!(report.tcam_entries > 0);
        // Equivalence: for every training record, drop iff tree says 1.
        let mut rt = program.into_runtime();
        for r in &records {
            let fields = fields_from_record(r);
            let tree_says = tree.predict(&feature_row(&fields));
            let action = rt.process(&fields);
            assert_eq!(
                action == Action::Drop,
                tree_says == 1,
                "disagreement on {r:?}"
            );
        }
    }

    #[test]
    fn equivalence_on_random_field_values() {
        // Stronger: the program equals the tree on arbitrary inputs, not
        // just training data (compilation must be semantics-preserving).
        let records = training_records();
        let x: Vec<Vec<f64>> = records.iter().map(|r| feature_row(&fields_from_record(r))).collect();
        let y: Vec<usize> = records.iter().map(|r| usize::from(r.label_attack != 0)).collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let tree = DecisionTree::fit(&Dataset::new(x, y, names), TreeConfig::shallow(6));
        let (program, _) = compile_tree(
            &tree,
            CompileConfig { confidence_gate: 0.5, ..Default::default() },
            "rand",
        );
        let mut rt = program.into_runtime();
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..5_000 {
            let r = next();
            let mut fields: FieldValues = [0; FIELD_ORDER.len()];
            for (i, f) in FIELD_ORDER.iter().enumerate() {
                fields[i] = (next() as u32) & f.max_value();
            }
            let _ = r;
            let tree_says = tree.predict(&feature_row(&fields));
            let action = rt.process(&fields);
            assert_eq!(action == Action::Drop, tree_says == 1);
        }
    }

    #[test]
    fn confidence_gate_prunes_uncertain_leaves() {
        let records = training_records();
        let x: Vec<Vec<f64>> = records.iter().map(|r| feature_row(&fields_from_record(r))).collect();
        // Noisy labels so some leaves are impure.
        let y: Vec<usize> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if i % 11 == 0 {
                    usize::from(r.label_attack == 0)
                } else {
                    usize::from(r.label_attack != 0)
                }
            })
            .collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let tree = DecisionTree::fit(
            &Dataset::new(x, y, names),
            TreeConfig { max_depth: 3, min_samples_leaf: 50 },
        );
        let (strict, strict_report) =
            compile_tree(&tree, CompileConfig { confidence_gate: 0.999, ..Default::default() }, "s");
        let (loose, loose_report) =
            compile_tree(&tree, CompileConfig { confidence_gate: 0.5, ..Default::default() }, "l");
        assert!(strict_report.leaves_gated_out > 0);
        assert!(loose.n_entries() >= strict.n_entries());
        assert!(loose_report.leaves_drop >= strict_report.leaves_drop);
    }

    #[test]
    fn deeper_trees_cost_more_entries() {
        let records = training_records();
        let x: Vec<Vec<f64>> = records.iter().map(|r| feature_row(&fields_from_record(r))).collect();
        // A label with fine structure in wire_len so depth keeps helping.
        let y: Vec<usize> = records
            .iter()
            .map(|r| usize::from((r.wire_len / 100) % 2 == 0))
            .collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let data = Dataset::new(x, y, names);
        let shallow = DecisionTree::fit(&data, TreeConfig::shallow(2));
        let deep = DecisionTree::fit(&data, TreeConfig::shallow(8));
        let cfg = CompileConfig { confidence_gate: 0.5, ..Default::default() };
        let (p_shallow, _) = compile_tree(&shallow, cfg, "shallow");
        let (p_deep, _) = compile_tree(&deep, cfg, "deep");
        assert!(
            p_deep.n_entries() > p_shallow.n_entries(),
            "deep {} vs shallow {}",
            p_deep.n_entries(),
            p_shallow.n_entries()
        );
    }

    #[test]
    fn infeasible_bounds_produce_no_entries() {
        let rule = LeafRule {
            bounds: vec![(4, 300.0, f64::INFINITY)], // ttl > 300: impossible for 8-bit field
            class: 1,
            confidence: 1.0,
            support: 10,
        };
        assert!(expand_rule(&rule).expect("feasibility, not malformedness").is_empty());
    }

    #[test]
    fn malformed_feature_index_is_counted_not_panicked() {
        // A bound referencing a feature outside the 13-field schema models
        // a stale or corrupted tree; compilation must skip the leaf and
        // report it, never index out of bounds.
        let rule = LeafRule {
            bounds: vec![(FIELD_ORDER.len() + 3, 0.0, 10.0)],
            class: 1,
            confidence: 1.0,
            support: 10,
        };
        assert!(expand_rule(&rule).is_none());
        // End to end: a tree fit against a *wider* feature schema (here 16
        // features, splitting on index 15) is exactly the stale-tree case.
        let n = 200;
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0; 16];
                row[15] = f64::from(i % 2);
                row
            })
            .collect();
        let y: Vec<usize> = (0..n).map(|i| (i % 2) as usize).collect();
        let names = (0..16).map(|i| format!("f{i}")).collect();
        let tree = DecisionTree::fit(&Dataset::new(x, y, names), TreeConfig::shallow(2));
        let (program, report) = compile_tree(&tree, CompileConfig::default(), "stale");
        assert!(report.leaves_malformed > 0);
        assert_eq!(report.leaves_drop, 0);
        assert_eq!(program.n_entries(), 0);
    }
}
