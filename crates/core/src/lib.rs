//! # CampusLab
//!
//! A full-system reproduction of *"An Effort to Democratize Networking
//! Research in the Era of AI/ML"* (Gupta, Mac-Stoker & Willinger,
//! HotNets'19): a campus network treated simultaneously as a **data
//! source** — privacy-preserving collection into an indexed data store —
//! and as a **testbed** — where AI/ML-based network-automation tools are
//! developed, distilled, compiled into the data plane, road-tested, and
//! explained to operators.
//!
//! The platform decomposes into substrate crates, re-exported here:
//!
//! | module | role |
//! |---|---|
//! | [`wire`] | UDP/TCP/ICMP header structs and the DNS codec |
//! | [`netsim`] | deterministic packet-level campus network simulator |
//! | [`traffic`] | labeled workload + attack generation |
//! | [`capture`] | border monitoring: rings, flows, metadata |
//! | [`datastore`] | the indexed campus data store |
//! | [`privacy`] | prefix-preserving anonymization + governance policy |
//! | [`features`] | packet/window feature engineering |
//! | [`ml`] | from-scratch models: tree, forest, MLP |
//! | [`xai`] | model extraction (distillation) + evidence lists |
//! | [`dataplane`] | P4-style pipeline, tree→TCAM compiler, Tofino-like resources |
//! | [`control`] | Figure 2's fast control loop and slow development loop |
//! | [`resolver`] | ResolverLab: a fault-tolerant caching DNS resolver service |
//! | [`testbed`] | scenarios, road tests, cross-campus protocol, trust reports |
//! | [`plaza`] | TenantPlaza: multi-tenant experimentation-as-a-service |
//!
//! ## The platform in one pass
//!
//! [`Platform`] wires the whole Figure-1/Figure-2 story together:
//!
//! ```
//! use campuslab::{Platform, testbed::Scenario};
//!
//! let platform = Platform::new(Scenario::small());
//! // Part 1: the campus as data source.
//! let data = platform.collect();
//! assert!(data.packets.len() > 100);
//! // Part 2: develop on the store, then road-test on the live campus.
//! let dev = platform.develop(&data);
//! assert!(dev.fidelity > 0.8);            // student closely approximates teacher
//! assert!(dev.program.n_entries() > 0);   // and compiles to the switch
//! let outcome = platform.road_test_switch(&dev);
//! assert!(outcome.suppression() > 0.5);
//! ```

pub use campuslab_capture as capture;
pub use campuslab_control as control;
pub use campuslab_dataplane as dataplane;
pub use campuslab_datastore as datastore;
pub use campuslab_features as features;
pub use campuslab_ml as ml;
pub use campuslab_netsim as netsim;
pub use campuslab_obs as obs;
pub use campuslab_plaza as plaza;
pub use campuslab_privacy as privacy;
pub use campuslab_resolver as resolver;
pub use campuslab_testbed as testbed;
pub use campuslab_traffic as traffic;
pub use campuslab_wire as wire;
pub use campuslab_xai as xai;

use campuslab_control::{run_development_loop, DevLoopConfig, DevLoopResult};
use campuslab_datastore::DataStore;
use campuslab_ml::DecisionTree;
use campuslab_testbed::{
    build_store, collect, road_test, train_window_model, CollectedData, RoadTestConfig,
    RoadTestOutcome, Scenario,
};

/// The one-stop platform handle: a scenario plus the configuration of the
/// development loop that will run over its collected data.
pub struct Platform {
    pub scenario: Scenario,
    pub dev_config: DevLoopConfig,
}

impl Platform {
    /// A platform around a scenario with default development settings.
    pub fn new(scenario: Scenario) -> Self {
        Platform { scenario, dev_config: DevLoopConfig::default() }
    }

    /// Part 1 (Figure 1, left): run the campus, capture at the border,
    /// return every record the monitoring plane produced.
    pub fn collect(&self) -> CollectedData {
        collect(&self.scenario)
    }

    /// Land collected data in a fresh indexed data store.
    pub fn store(&self, data: &CollectedData) -> DataStore {
        build_store(data)
    }

    /// Figure 2's slow loop: black box → distilled tree → compiled program.
    pub fn develop(&self, data: &CollectedData) -> DevLoopResult {
        run_development_loop(&data.packets, &self.dev_config)
    }

    /// Train the control-plane window model on the collected data
    /// (used by the Controller/Cloud placements).
    pub fn train_window_model(&self, data: &CollectedData) -> DecisionTree {
        train_window_model(&data.packets)
    }

    /// Part 2 (Figure 1, right): road-test the developed model with the
    /// compiled rules pre-installed in the border switch.
    pub fn road_test_switch(&self, dev: &DevLoopResult) -> RoadTestOutcome {
        road_test(
            &self.scenario,
            dev.program.clone(),
            None,
            RoadTestConfig { placement: control::Placement::Switch, ..Default::default() },
        )
    }

    /// Road-test with the detector at the given placement tier; needs the
    /// window model trained from collected data.
    pub fn road_test_at(
        &self,
        dev: &DevLoopResult,
        window_model: DecisionTree,
        placement: control::Placement,
    ) -> RoadTestOutcome {
        road_test(
            &self.scenario,
            dev.program.clone(),
            Some(Box::new(window_model)),
            RoadTestConfig { placement, ..Default::default() },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_end_to_end() {
        let platform = Platform::new(Scenario::small());
        let data = platform.collect();
        let ds = platform.store(&data);
        assert_eq!(ds.packet_count(), data.packets.len());
        let dev = platform.develop(&data);
        assert!(dev.fidelity > 0.8);
        let outcome = platform.road_test_switch(&dev);
        assert!(outcome.suppression() > 0.5, "suppression {}", outcome.suppression());
    }

    #[test]
    fn placements_are_available_from_the_facade() {
        let platform = Platform::new(Scenario::small());
        let data = platform.collect();
        let dev = platform.develop(&data);
        let wm = platform.train_window_model(&data);
        let outcome = platform.road_test_at(&dev, wm, control::Placement::Controller);
        assert!(outcome.time_to_mitigation.is_some());
    }
}
