//! The two scenarios the workloads run on, and the constants that size
//! them. Both are product `Scenario` values, so every workload hands them
//! to `testbed::collect`, `testbed::road_test`, `build_schedule` and
//! `DriftSession::new` unchanged; the benchmark never edits a schedule.
//!
//! `campus_day` is the issue's `campus30` (`Scenario::small()` on the
//! default campus, 30 sessions/s, the same DNS-amplification campaign)
//! cut from 30 to [`DAY_SECS`] simulated seconds, because the driver's
//! cap of 136 runs in 3,420 s leaves about 20 s for a run and `campus30`
//! needs 30 s for one iteration of each workload (README, "Sizing").
//!
//! The seed picks the campaign's victim, not the day. The traffic
//! generator is heavy-tailed: ten `campus30` days generated from ten
//! `WorkloadConfig::seed`s hold 390k–674k packets and take `pipeline_e1`
//! 4.4–8.8 s, and ten days chosen to hold the same number of packets
//! (±1 %) still take it 1.9–2.7 s, because what a learner builds differs
//! with the day. The driver accepts a benchmark only if ten runs on ten
//! seeds agree within the metric's bound. Moving only the campaign's
//! start by a seed-chosen tenth of the day keeps the volume fixed, but
//! the forest a learner grows from the changed capture costs ±8 % to fit
//! and query, and `learn_sweep` then spreads 12.5 % over ten seeds. So a
//! seed here decides who is attacked and nothing else: the addresses in
//! the capture, the store and the installed rules follow it; packet
//! counts, timing and therefore the work do not. The benign day is
//! `WorkloadConfig::default().seed`. Every digest starts from
//! [`victim_index`], since two hosts on one switch are otherwise
//! indistinguishable in simulated statistics.

use campuslab::netsim::{CampusConfig, SimDuration};
use campuslab::testbed::{AttackScenario, Scenario};
use campuslab::traffic::WorkloadConfig;

/// Simulated seconds of the campus day; the smoke mode runs a tenth of
/// the issue's 30 s, the shortest day on which a one-second detector
/// window still closes inside the campaign.
pub const DAY_SECS: u64 = 15;
pub const SMOKE_DAY_SECS: u64 = 3;
pub const SESSIONS_PER_SEC: f64 = 30.0;
/// Shards requested by `sim_sharded`.
pub const SHARDS: usize = 8;
/// Compile-time confidence gates of E1's sweep, replayed by `learn_sweep`.
pub const GATES: [f64; 3] = [0.5, 0.9, 0.99];
/// Width of one `store_mixed` append batch in capture time.
pub const STORE_BATCH_NS: u64 = 250_000_000;
/// One in this many indexed queries is re-answered by a full scan.
pub const SCAN_CHECK_EVERY: usize = 16;
/// Simulated second at which `phoenix_ckpt` kills its session, of the 14
/// a drift day lasts; the smoke mode kills at 2 of 5.
pub const PHOENIX_BARRIER_SECS: u64 = 6;
pub const SMOKE_DRIFT_DAY_SECS: u64 = 5;
pub const SMOKE_PHOENIX_BARRIER_SECS: u64 = 2;

fn hosts(campus: &CampusConfig) -> u64 {
    (campus.dist_count * campus.access_per_dist * campus.hosts_per_access) as u64
}

/// The shared scenario: the default campus (4×4×12 hosts, 24 external),
/// [`SESSIONS_PER_SEC`] for the day's length, and a 600 qps
/// DNS-amplification campaign over its middle 80 % aimed at host
/// `seed mod 192`.
pub fn campus_day(seed: u64, smoke: bool) -> Scenario {
    let campus = CampusConfig::default();
    let victim_index = (seed % hosts(&campus)) as usize;
    Scenario {
        campus,
        workload: WorkloadConfig {
            duration: SimDuration::from_secs(if smoke { SMOKE_DAY_SECS } else { DAY_SECS }),
            sessions_per_sec: SESSIONS_PER_SEC,
            ..WorkloadConfig::default()
        },
        attack: AttackScenario::DnsAmplification {
            victim_index,
            qps: 600.0,
            start_frac: 0.15,
            duration_frac: 0.8,
        },
        ..Scenario::small()
    }
}

/// `Scenario::drift_rotation()` with the rotating campaign aimed at host
/// `seed mod 16`.
pub fn drift_day(seed: u64, smoke: bool) -> Scenario {
    let mut scenario = Scenario::drift_rotation();
    if smoke {
        scenario.workload.duration = SimDuration::from_secs(SMOKE_DRIFT_DAY_SECS);
    }
    let hosts = hosts(&scenario.campus);
    match &mut scenario.attack {
        AttackScenario::RotatingReflection { victim_index, .. } => {
            *victim_index = (seed % hosts) as usize;
        }
        other => unreachable!("drift_rotation carries a rotating reflection, not {other:?}"),
    }
    scenario
}

/// The host a scenario's campaign is aimed at: what the seed chose.
pub fn victim_index(scenario: &Scenario) -> u64 {
    match scenario.attack {
        AttackScenario::DnsAmplification { victim_index, .. }
        | AttackScenario::RotatingReflection { victim_index, .. } => victim_index as u64,
        ref other => unreachable!("the benchmark's scenarios carry no {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab::netsim::Campus;
    use campuslab::testbed::build_schedule;

    #[test]
    fn a_seed_moves_the_victim_and_leaves_the_volume_alone() {
        let day = |seed| {
            let scenario = campus_day(seed, true);
            let campus = Campus::build(scenario.campus.clone());
            let (schedule, victim, _) = build_schedule(&campus, &scenario);
            (schedule.len(), victim.expect("a campaign has a victim"))
        };
        let (packets, victim) = day(42);
        assert_eq!(day(42), (packets, victim));
        let (other_packets, other_victim) = day(43);
        assert_eq!(other_packets, packets);
        assert_ne!(other_victim, victim);
    }
}
