//! Property tests for the compilation chain: on random trees and random
//! packets, the compiled pipeline must agree with the tree exactly — the
//! semantics-preservation contract behind the paper's road-map step (iii).

use campuslab_dataplane::{
    compile_tree, range_to_ternary, Action, CompileConfig, FieldValues, FIELD_ORDER,
};
use campuslab_ml::{Classifier, Dataset, DecisionTree, TreeConfig};
use proptest::prelude::*;

fn feature_row(v: &FieldValues) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

/// Random field vectors respecting each field's width.
fn arb_fields() -> impl Strategy<Value = FieldValues> {
    proptest::array::uniform13(any::<u32>()).prop_map(|raw| {
        let mut out = [0u32; FIELD_ORDER.len()];
        for (i, f) in FIELD_ORDER.iter().enumerate() {
            out[i] = raw[i] & f.max_value();
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Train a tree on random labeled field vectors, compile it with no
    /// confidence gate, and check agreement on fresh random packets.
    #[test]
    fn compiled_program_always_equals_the_tree(
        train in proptest::collection::vec((arb_fields(), any::<bool>()), 30..150),
        probes in proptest::collection::vec(arb_fields(), 100),
    ) {
        let x: Vec<Vec<f64>> = train.iter().map(|(v, _)| feature_row(v)).collect();
        let y: Vec<usize> = train.iter().map(|(_, l)| usize::from(*l)).collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let mut data = Dataset::new(x, y, names);
        data.n_classes = 2;
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(5));
        // The compiler skips no leaf for thin support: a fitted leaf holds
        // at least one training row.
        prop_assert!(tree.leaf_rules().iter().all(|rule| rule.support >= 1));
        let (program, _) = compile_tree(
            &tree,
            CompileConfig { drop_class: 1, confidence_gate: 0.0 },
            "prop",
        );
        let mut rt = program.into_runtime();
        for fields in &probes {
            let tree_says = tree.predict(&feature_row(fields)) == 1;
            let dropped = rt.process(fields) == Action::Drop;
            prop_assert_eq!(tree_says, dropped, "fields {:?}", fields);
        }
    }

    /// Range expansion covers exactly the requested interval for random
    /// 16-bit ranges (the port/length fields).
    #[test]
    fn range_expansion_is_exact_16bit(a in any::<u16>(), b in any::<u16>(), probes in proptest::collection::vec(any::<u16>(), 200)) {
        let (lo, hi) = (a.min(b) as u32, a.max(b) as u32);
        let cells = range_to_ternary(lo, hi, 16);
        // Worst-case bound from the classic result.
        prop_assert!(cells.len() <= 30);
        for &p in &probes {
            let p = u32::from(p);
            let member = (lo..=hi).contains(&p);
            let hits = cells.iter().filter(|c| c.matches(p)).count();
            prop_assert_eq!(hits > 0, member, "p={} range=[{},{}]", p, lo, hi);
            prop_assert!(hits <= 1, "overlapping cells for {}", p);
        }
    }

    /// Compiling with a gate never *adds* drops relative to gate zero.
    #[test]
    fn gates_only_remove_entries(
        train in proptest::collection::vec((arb_fields(), any::<bool>()), 30..100),
    ) {
        let x: Vec<Vec<f64>> = train.iter().map(|(v, _)| feature_row(v)).collect();
        let y: Vec<usize> = train.iter().map(|(_, l)| usize::from(*l)).collect();
        let names: Vec<String> = FIELD_ORDER.iter().map(|f| f.name().to_string()).collect();
        let mut data = Dataset::new(x, y, names);
        data.n_classes = 2;
        let tree = DecisionTree::fit(&data, TreeConfig::shallow(4));
        let mut prev = usize::MAX;
        for gate in [0.0, 0.5, 0.9, 0.99, 0.999] {
            let (program, _) = compile_tree(
                &tree,
                CompileConfig { drop_class: 1, confidence_gate: gate },
                "gate",
            );
            prop_assert!(program.n_entries() <= prev, "entries grew with the gate");
            prev = program.n_entries();
        }
    }
}
