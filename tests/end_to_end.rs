//! Cross-crate integration: the full Figure-1/Figure-2 pipeline, driven
//! through the public `campuslab` facade the way a downstream user would.

use campuslab::control::Placement;
use campuslab::datastore::{summarize, PacketQuery};
use campuslab::testbed::{deployment_decision, GateCriteria, Scenario};
use campuslab::Platform;

/// One shared collection pass for the whole file (collection is the
/// expensive step; the tests exercise different halves of the pipeline).
fn platform_and_data() -> (Platform, campuslab::testbed::CollectedData) {
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    (platform, data)
}

#[test]
fn figure1_data_source_half() {
    let (platform, data) = platform_and_data();
    // Lossless capture at campus scale.
    assert_eq!(data.ring.dropped, 0);
    assert_eq!(data.monitor.captured, data.monitor.observed);
    // The store is indexed and queryable.
    let store = platform.store(&data);
    let summary = summarize(&store);
    assert_eq!(summary.packets as usize, data.packets.len());
    assert!(summary.malicious_packets > 500);
    let victim = std::net::IpAddr::V4(data.victim.expect("scenario has a victim"));
    let indexed = store.query_packets(&PacketQuery::for_host(victim).malicious());
    let scanned = store.scan_packets(&PacketQuery::for_host(victim).malicious());
    assert_eq!(indexed.len(), scanned.len());
    assert!(!indexed.is_empty());
    // Flow assembly accounted for every captured packet.
    let flow_packets: u64 = data.flows.iter().map(|f| f.total_packets()).sum();
    assert_eq!(flow_packets, data.monitor.captured);
}

#[test]
fn figure2_development_and_deployment() {
    let (platform, data) = platform_and_data();
    let dev = platform.develop(&data);
    // The distilled model closely approximates the black box...
    assert!(dev.fidelity > 0.9, "fidelity {}", dev.fidelity);
    // ...is dramatically smaller...
    assert!(dev.distillation.student_nodes < 200);
    // ...and compiles into the switch's budget.
    let switch = campuslab::dataplane::SwitchModel::default();
    assert!(switch.max_concurrent(&dev.program) >= 1);
    // Road test: the deployed rules suppress the attack with near-zero
    // collateral, and the deployment gate approves.
    let outcome = platform.road_test_switch(&dev);
    assert!(outcome.suppression() > 0.9, "suppression {}", outcome.suppression());
    assert!(outcome.filter.drop_precision() > 0.95);
    let decision = deployment_decision(&outcome, GateCriteria::default());
    assert!(decision.approved, "{:?}", decision.reasons);
}

#[test]
fn placement_ordering_is_stable() {
    let (platform, data) = platform_and_data();
    let dev = platform.develop(&data);
    let controller =
        platform.road_test_at(&dev, platform.train_window_model(&data), Placement::Controller);
    let cloud = platform.road_test_at(&dev, platform.train_window_model(&data), Placement::Cloud);
    let switch = platform.road_test_switch(&dev);
    let t_switch = switch.time_to_mitigation.expect("switch mitigates");
    let t_controller = controller.time_to_mitigation.expect("controller mitigates");
    let t_cloud = cloud.time_to_mitigation.expect("cloud mitigates");
    assert!(t_switch < t_controller);
    assert!(t_controller < t_cloud);
    assert!(switch.attack_packets_passed <= controller.attack_packets_passed);
    assert!(controller.attack_packets_passed <= cloud.attack_packets_passed);
}

#[test]
fn privacy_pipeline_composes_with_learning() {
    use campuslab::privacy::{ScrubPolicy, Scrubber};
    let (_platform, data) = platform_and_data();
    let scrubber = Scrubber::new(0x7E57, ScrubPolicy::internal_research());
    let scrubbed: Vec<_> = data
        .packets
        .iter()
        .map(|r| scrubber.scrub_packet(r.clone()))
        .collect();
    // No raw campus address survives scrubbing.
    let campus = Scenario::small().campus.campus_prefix();
    for rec in &scrubbed {
        for addr in [rec.src, rec.dst] {
            if let std::net::IpAddr::V4(v4) = addr {
                // The prefix-preserved image of 10.x/16 is a fixed other /16;
                // a scrubbed record must never expose a real host address
                // that the raw capture contained at the same position.
                let _ = v4;
            }
        }
    }
    let raw_hosts: std::collections::BTreeSet<_> = data
        .packets
        .iter()
        .filter(|r| campus.contains(r.dst))
        .map(|r| r.dst)
        .collect();
    let scrubbed_hosts: std::collections::BTreeSet<_> =
        scrubbed.iter().map(|r| r.dst).collect();
    assert!(raw_hosts.iter().all(|h| !scrubbed_hosts.contains(h)));
    // And the anonymized view still trains a working detector.
    let dev = campuslab::control::run_development_loop(
        &scrubbed,
        &campuslab::control::DevLoopConfig::default(),
    );
    assert!(dev.student_eval.f1_attack > 0.8, "{:?}", dev.student_eval);
}

#[test]
fn compiled_program_is_equivalent_to_the_tree_on_capture() {
    use campuslab::dataplane::{fields_from_record, Action};
    use campuslab::features::packet_features;
    use campuslab::ml::Classifier;
    let (platform, data) = platform_and_data();
    let mut cfg = campuslab::control::DevLoopConfig::default();
    // Disable the gate so the program mirrors the tree exactly.
    cfg.compile.confidence_gate = 0.0;
    let dev = campuslab::control::run_development_loop(&data.packets, &cfg);
    let mut runtime = dev.program.clone().into_runtime();
    for rec in data.packets.iter().take(20_000) {
        let tree_says = dev.student.predict(&packet_features(rec));
        let action = runtime.process(&fields_from_record(rec));
        assert_eq!(action == Action::Drop, tree_says == 1, "{rec:?}");
    }
    let _ = platform;
}
