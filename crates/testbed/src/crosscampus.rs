//! Cross-campus reproducibility (paper §5): open-source the *algorithm*,
//! train it on each campus's own (never-shared) data store, and compare
//! the resulting models across production networks.

use crate::observe::RunObs;
use crate::scenario::{collect, AttackScenario, Scenario};
use campuslab_control::{run_development_loop, DevLoopConfig};
use campuslab_ml::{Classifier, ConfusionMatrix};
use campuslab_netsim::par::parallel_map;
use campuslab_netsim::CampusConfig;
use campuslab_traffic::{AppClass, WorkloadConfig};

/// One participating campus: a name plus its private environment.
pub struct CampusSite {
    pub name: String,
    pub scenario: Scenario,
}

impl CampusSite {
    /// Three differently-shaped campuses for the reproducibility study:
    /// they differ in size, application mix and attack intensity, the way
    /// real universities do.
    pub fn default_trio() -> Vec<CampusSite> {
        let base_workload = WorkloadConfig {
            duration: campuslab_netsim::SimDuration::from_secs(8),
            sessions_per_sec: 10.0,
            ..WorkloadConfig::default()
        };
        let attack = AttackScenario::DnsAmplification {
            victim_index: 0,
            qps: 500.0,
            start_frac: 0.2,
            duration_frac: 0.7,
        };
        let mk = |name: &str, index: u8, mix: Vec<(AppClass, f64)>, seed: u64, qps: f64| CampusSite {
            name: name.to_string(),
            scenario: Scenario {
                campus: CampusConfig {
                    name: name.to_string(),
                    index,
                    dist_count: 2,
                    access_per_dist: 2,
                    hosts_per_access: 4,
                    external_hosts: 12,
                    seed,
                    ..CampusConfig::default()
                },
                workload: WorkloadConfig { mix, seed, ..base_workload.clone() },
                attack: match attack.clone() {
                    AttackScenario::DnsAmplification { victim_index, start_frac, duration_frac, .. } => {
                        AttackScenario::DnsAmplification { victim_index, qps, start_frac, duration_frac }
                    }
                    other => other,
                },
                monitor: Default::default(),
            },
        };
        vec![
            // Hillside: web-heavy liberal-arts campus.
            mk(
                "hillside",
                1,
                vec![
                    (AppClass::Dns, 0.3),
                    (AppClass::Web, 0.45),
                    (AppClass::Video, 0.1),
                    (AppClass::Mail, 0.1),
                    (AppClass::Ntp, 0.05),
                ],
                11,
                500.0,
            ),
            // Bayview: research campus with bulk transfers and SSH.
            mk(
                "bayview",
                2,
                vec![
                    (AppClass::Dns, 0.2),
                    (AppClass::Web, 0.2),
                    (AppClass::Ssh, 0.25),
                    (AppClass::Backup, 0.15),
                    (AppClass::Mail, 0.1),
                    (AppClass::Ntp, 0.1),
                ],
                22,
                900.0,
            ),
            // Northtech: streaming-heavy residential campus.
            mk(
                "northtech",
                3,
                vec![
                    (AppClass::Dns, 0.25),
                    (AppClass::Web, 0.25),
                    (AppClass::Video, 0.3),
                    (AppClass::Ssh, 0.05),
                    (AppClass::Ntp, 0.15),
                ],
                33,
                300.0,
            ),
        ]
    }
}

/// The reproducibility matrix: F1 of a model trained at row-campus,
/// evaluated at column-campus.
#[derive(Debug, Clone)]
pub struct CrossCampusResult {
    pub names: Vec<String>,
    /// `f1[train][eval]` for the attack class.
    pub f1: Vec<Vec<f64>>,
    /// Rows collected per campus.
    pub records: Vec<usize>,
}

impl CrossCampusResult {
    /// Mean of the diagonal (in-campus) cells.
    pub fn mean_in_campus(&self) -> f64 {
        let n = self.names.len();
        (0..n).map(|i| self.f1[i][i]).sum::<f64>() / n as f64
    }

    /// Mean of the off-diagonal (cross-campus) cells.
    pub fn mean_cross_campus(&self) -> f64 {
        let n = self.names.len();
        let mut sum = 0.0;
        let mut count = 0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sum += self.f1[i][j];
                    count += 1;
                }
            }
        }
        sum / count.max(1) as f64
    }
}

/// Run the full protocol: collect per-campus data, run the (shared,
/// "open-sourced") development loop at each campus, evaluate every
/// deployable model on every campus's held-out data. Each site's
/// collection-run Observatory bundle comes back beside the result (in
/// site order), deliberately outside [`CrossCampusResult`]: the matrix is
/// the shareable artifact, the per-campus dumps stay local like the data
/// they describe.
pub fn cross_campus(
    sites: &[CampusSite],
    dev: &DevLoopConfig,
) -> (CrossCampusResult, Vec<RunObs>) {
    assert!(sites.len() >= 2, "need at least two campuses");
    // Each campus is a self-seeded simulation, so collection fans out
    // across cores; parallel_map keeps site order, so results are
    // byte-identical to a sequential sweep.
    let (collected, obs): (Vec<_>, Vec<_>) = parallel_map(sites, |_, s| {
        let data = collect(&s.scenario);
        (data.packets, data.obs)
    })
    .into_iter()
    .unzip();
    // Each campus runs the shared algorithm privately. The protocol uses a
    // shuffled split so every campus's held-out set contains both classes
    // regardless of where the attack fell in its trace.
    let dev = DevLoopConfig { shuffle_split: true, ..dev.clone() };
    let results: Vec<_> = parallel_map(&collected, |_, records| run_development_loop(records, &dev));
    let mut f1 = vec![vec![0.0; sites.len()]; sites.len()];
    for (i, trained) in results.iter().enumerate() {
        let student: &dyn Classifier = &trained.student;
        for (j, other) in results.iter().enumerate() {
            let cm = ConfusionMatrix::evaluate(student, &other.test);
            f1[i][j] = cm.f1(1);
        }
    }
    let result = CrossCampusResult {
        names: sites.iter().map(|s| s.name.clone()).collect(),
        f1,
        records: collected.iter().map(Vec::len).collect(),
    };
    (result, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trio_has_distinct_environments() {
        let trio = CampusSite::default_trio();
        assert_eq!(trio.len(), 3);
        let prefixes: std::collections::BTreeSet<_> = trio
            .iter()
            .map(|s| s.scenario.campus.campus_prefix().to_string())
            .collect();
        assert_eq!(prefixes.len(), 3);
    }

    #[test]
    fn matrix_diagonal_beats_chance_and_models_transfer() {
        let trio = CampusSite::default_trio();
        let (result, _) = cross_campus(&trio, &DevLoopConfig::default());
        assert_eq!(result.f1.len(), 3);
        for i in 0..3 {
            assert!(
                result.f1[i][i] > 0.7,
                "in-campus F1 too low at {}: {}",
                result.names[i],
                result.f1[i][i]
            );
        }
        // The DNS-amplification signature is structural, so transfer should
        // work reasonably — but in-campus should not lose to cross-campus.
        let in_c = result.mean_in_campus();
        let cross = result.mean_cross_campus();
        assert!(cross > 0.4, "models failed to transfer at all: {cross}");
        assert!(in_c >= cross - 0.1, "in-campus {in_c} vs cross {cross}");
    }
}
