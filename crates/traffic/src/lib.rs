//! # campuslab-traffic
//!
//! Labeled workload generation for a simulated campus network: benign
//! application mixes (web, video, DNS, SSH, mail, backup, NTP) with
//! heavy-tailed sizes and diurnal load, plus attack campaigns (DNS
//! amplification, SYN flood, port scan, SSH brute force, exfiltration).
//!
//! Every generated packet carries ground-truth labels — the thing the paper
//! says real networks almost never provide ("labelled data that is key to
//! applying some of the existing AI/ML techniques to network-specific
//! problems is largely non-existent", §2). Because CampusLab's campus is
//! simulated, labels are perfect by construction, and experiments measure
//! how well the monitoring + learning pipeline recovers them.
//!
//! ```
//! use campuslab_netsim::{Campus, CampusConfig, SimDuration};
//! use campuslab_traffic::{TrafficGenerator, WorkloadConfig};
//!
//! let campus = Campus::build(CampusConfig {
//!     dist_count: 1, access_per_dist: 2, hosts_per_access: 4,
//!     external_hosts: 8, ..CampusConfig::default()
//! });
//! let mut gen = TrafficGenerator::new(&campus, WorkloadConfig {
//!     duration: SimDuration::from_secs(1),
//!     sessions_per_sec: 10.0,
//!     ..WorkloadConfig::default()
//! });
//! let schedule = gen.generate();
//! assert!(schedule.len() > 0);
//! // Benign until attacks are added.
//! assert!(schedule.iter().all(|i| !i.packet.truth.is_malicious()));
//! ```

pub mod distributions;
pub mod labels;
pub mod schedule;
pub mod apps;
pub mod attacks;
pub mod workload;

pub use apps::{Endpoint, SessionEnv, MSS};
pub use labels::{AppClass, AttackKind};
pub use schedule::{Injection, Schedule};
pub use workload::{default_mix, TrafficGenerator, WorkloadConfig};
