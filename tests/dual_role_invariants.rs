//! Property-style integration invariants spanning crates: conservation
//! laws the whole system must obey regardless of scenario parameters.

use campuslab::netsim::SimDuration;
use campuslab::testbed::{collect, AttackScenario, Scenario};
use proptest::prelude::*;

fn scenario(seed: u64, sessions_per_sec: f64, qps: f64) -> Scenario {
    let mut s = Scenario::small();
    s.campus.seed = seed;
    s.workload.seed = seed;
    s.workload.sessions_per_sec = sessions_per_sec;
    s.workload.duration = SimDuration::from_secs(3);
    s.attack = if qps > 0.0 {
        AttackScenario::DnsAmplification {
            victim_index: 0,
            qps,
            start_frac: 0.2,
            duration_frac: 0.6,
        }
    } else {
        AttackScenario::None
    };
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Packet conservation: everything injected is delivered or dropped,
    /// and the monitor never sees more than crossed the border.
    #[test]
    fn conservation_holds(seed in 1u64..500, rate in 2.0f64..12.0, qps in 0.0f64..300.0) {
        let s = scenario(seed, rate, qps);
        let data = collect(&s);
        prop_assert_eq!(
            data.net.injected,
            data.net.delivered + data.net.dropped_total(),
            "packets must be conserved"
        );
        prop_assert!(data.monitor.observed <= data.net.injected);
        prop_assert_eq!(data.monitor.captured + data.monitor.ring_dropped, data.monitor.observed);
        // Flow assembly conserves captured packets.
        let flow_packets: u64 = data.flows.iter().map(|f| f.total_packets()).sum();
        prop_assert_eq!(flow_packets, data.monitor.captured);
    }

    /// Label soundness: malicious counts in the capture match the ground
    /// truth the generator injected (no labels invented or lost en route).
    #[test]
    fn labels_survive_the_pipeline(seed in 1u64..500, qps in 50.0f64..400.0) {
        let s = scenario(seed, 4.0, qps);
        let data = collect(&s);
        let malicious = data.packets.iter().filter(|p| p.is_malicious()).count();
        // Responses cross the border; query volume equals response volume.
        let expected = (qps * (3.0 * 0.6)).round() as usize;
        // Allow for network drops and edge effects but demand the bulk.
        prop_assert!(malicious > 0);
        prop_assert!(
            malicious <= expected + 2,
            "more malicious packets captured ({malicious}) than generated ({expected})"
        );
        prop_assert!(
            malicious * 10 >= expected * 8,
            "too many attack packets vanished: {malicious} of {expected}"
        );
    }

    /// Determinism: the same scenario collects the same data, always.
    #[test]
    fn collection_is_deterministic(seed in 1u64..100) {
        let a = collect(&scenario(seed, 5.0, 100.0));
        let b = collect(&scenario(seed, 5.0, 100.0));
        prop_assert_eq!(a.packets.len(), b.packets.len());
        prop_assert_eq!(a.net.delivered, b.net.delivered);
        prop_assert_eq!(a.flows.len(), b.flows.len());
        let bytes_a: u64 = a.packets.iter().map(|p| u64::from(p.wire_len)).sum();
        let bytes_b: u64 = b.packets.iter().map(|p| u64::from(p.wire_len)).sum();
        prop_assert_eq!(bytes_a, bytes_b);
    }
}

/// The training schema and the switch's match key are two hand-kept
/// 13-entry lists: a tree trained on `packet_features` columns compiles
/// field-for-field onto `fields_from_record` values, so the names must
/// agree index by index and every captured record must read the same
/// through both extractors (the switch side alone clamps `wire_len` to 16
/// bits — this is where it would show).
#[test]
fn feature_schema_matches_the_switch_schema() {
    use campuslab::dataplane::{fields_from_record, FIELD_ORDER};
    use campuslab::features::{packet_features, PACKET_FEATURES};

    let switch_names: Vec<&str> = FIELD_ORDER.iter().map(|f| f.name()).collect();
    assert_eq!(switch_names, PACKET_FEATURES);
    for (i, f) in FIELD_ORDER.iter().enumerate() {
        assert_eq!(f.index(), i, "{} is out of canonical order", f.name());
    }
    let data = collect(&Scenario::small());
    assert!(!data.packets.is_empty());
    for r in &data.packets {
        let row = packet_features(r);
        let key = fields_from_record(r);
        assert_eq!(row.len(), key.len());
        for (i, name) in PACKET_FEATURES.iter().enumerate() {
            assert_eq!(row[i], f64::from(key[i]), "{name} disagrees for {r:?}");
        }
    }
}
