//! ResolverLab (experiment E16): the caching recursive resolver deployed
//! as a live campus service actor, composed with the rollout-guard and
//! mitigation-controller members of one [`Session`] stack.
//!
//! The load-bearing wiring is the stack's evidence pass: every client the
//! resolver abandons (a ServFail with no stale fallback) is forwarded to
//! the rollout guard as [`campuslab_control::GiveUpReason::ServiceFailure`]
//! — the same rollback-evidence channel [`crate::guarded_road_test`] feeds
//! with controller install give-ups. A rollout that starves the resolver
//! is rollback-eligible evidence, not an invisible outage.
//!
//! [`resolver_run`] returns the session's [`Finished`]: the resolver's
//! per-second windows ([`campuslab_resolver::ResolverService::hit_rate_series`]),
//! the surfaced give-ups ([`crate::session::Stack::surfaced_giveups`]) and
//! the controller's mitigations are read off its stack.

use crate::roadtest::RoadTestConfig;
use crate::scenario::Scenario;
use crate::session::{Finished, GuardSpec, Members, Session};
use campuslab_control::PROMOTE_AFTER;
use campuslab_dataplane::PipelineProgram;
use campuslab_ml::Classifier;

/// Parameters of a resolver scenario run. The defended path takes the
/// default road-test knobs; a run under chaos is a [`Session`] built
/// with one.
#[derive(Default)]
pub struct ResolverRunConfig {
    /// Defend the campus with the mitigation controller: the developed
    /// pipeline program plus a window model. `None` runs undefended — the
    /// resolver rides out the flood on rate limiting and stale answers
    /// alone.
    pub defense: Option<(PipelineProgram, Box<dyn Classifier + Send>)>,
}

/// Run a resolver scenario: the campus resolver serves live port-53
/// traffic while the rollout guard collects service-failure evidence and,
/// when a defense is supplied, the mitigation controller watches the
/// border tap and installs rules against the flood.
pub fn resolver_run(scenario: &Scenario, cfg: ResolverRunConfig) -> Finished {
    let mut session = session(scenario, cfg);
    session.run_to_end();
    session.finish()
}

/// The guard + resolver (+ controller when defended) [`Session`] a
/// resolver run drives.
fn session(scenario: &Scenario, cfg: ResolverRunConfig) -> Session {
    let (known_good, window_model) = match cfg.defense {
        Some((program, model)) => (program, Some(model)),
        None => (PipelineProgram::new("resolver-undefended", vec![]), None),
    };
    Session::new(
        "resolverlab",
        scenario,
        known_good,
        &RoadTestConfig::default(),
        Members {
            guard: Some(GuardSpec {
                promote_after: PROMOTE_AFTER,
                canary_fraction: 0.0,
                submissions: Vec::new(),
            }),
            resolver: true,
            window_model,
            ..Members::default()
        },
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Stack;
    use campuslab_netsim::SimTime;
    use campuslab_control::{BankFilter, RolloutConfig, RolloutGuard};
    use campuslab_dataplane::FieldExtractor;
    use campuslab_netsim::{Campus, CampusConfig, GroundTruth, PacketBuilder, Payload};
    use campuslab_resolver::{
        ResolverActor, ResolverConfig, ResolverService, ResponseKind, ZoneDb,
    };
    use campuslab_wire::{DnsMessage, DnsType};

    fn hit_rate_series(run: &Finished) -> Vec<(u64, f64)> {
        run.stack.resolver.as_ref().expect("resolver stack has a resolver").service().hit_rate_series()
    }

    /// The satellite interaction contract: a resolver that abandons
    /// clients feeds the same rollback-evidence channel install give-ups
    /// use, and the guard's Observatory shows the failures.
    #[test]
    fn resolver_giveups_reach_the_guard_as_rollback_evidence() {
        let campus = Campus::build(CampusConfig {
            dist_count: 1,
            access_per_dist: 1,
            hosts_per_access: 2,
            external_hosts: 2,
            ..CampusConfig::default()
        });
        let client = campus.hosts[0];
        let client_ip = campus.addr_of(client);
        let resolver_ip = campus.addr_of(campus.servers.dns);
        let mut net = campus.net;

        // Five cold-cache queries against a resolver with zero upstream
        // slots: every one must end as a typed give-up, never a panic.
        let mut b = PacketBuilder::new();
        for i in 0..5u16 {
            let msg = DnsMessage::query(i, &format!("host{i}.example.com"), DnsType::A);
            let mut bytes = Vec::new();
            msg.emit(&mut bytes).expect("emit");
            net.inject(
                SimTime::from_millis(10 * u64::from(i)),
                client,
                b.udp_v4(
                    client_ip,
                    resolver_ip,
                    40_000 + i,
                    53,
                    Payload::from(bytes),
                    64,
                    GroundTruth::default(),
                ),
            );
        }

        let extractor = FieldExtractor::new(campus.config.campus_prefix());
        let (bank, handle) = BankFilter::new(extractor.clone());
        net.install_filter(campus.border, bank);
        let guard = RolloutGuard::new(
            RolloutConfig {
                tap: campus.border_link,
                extractor,
                promote_after: PROMOTE_AFTER,
                canary_hosts: Vec::new(),
                tap_blackouts: Vec::new(),
                submissions: Vec::new(),
            },
            PipelineProgram::new("known-good", vec![]),
            handle,
        );
        let starved = ResolverService::new(
            ResolverConfig { upstream_concurrency: 0 },
            ZoneDb::campus_default(),
        );
        let mut guarded = Stack {
            guard: Some(guard),
            resolver: Some(ResolverActor::new(campus.servers.dns, resolver_ip, starved)),
            ..Stack::default()
        };
        net.run(&mut guarded, None);

        assert_eq!(guarded.surfaced_giveups(), 5);
        let rsv = guarded.resolver.as_ref().unwrap().service().obs();
        assert_eq!(rsv.giveups(), 5);
        assert_eq!(rsv.responses(ResponseKind::ServFail), 5);
        // Same channel, same metric family guarded_road_test exercises.
        let robs = guarded.guard.as_mut().unwrap().take_obs();
        assert_eq!(robs.giveups_observed(), 5);
        assert!(robs.render().contains("rollout_giveups_observed_total 5"));
    }

    #[test]
    fn water_torture_degrades_the_undefended_resolver() {
        let outcome = resolver_run(&Scenario::resolver_lab(), ResolverRunConfig::default());
        let rsv = outcome.obs.resolver.as_ref().expect("resolver obs");
        assert!(rsv.queries() > 5_000, "queries {}", rsv.queries());
        // Per-client rate limiting sheds the bulk of the flood...
        assert!(rsv.rrl_dropped() > 1_000, "rrl dropped {}", rsv.rrl_dropped());
        // ...but what leaks through still starves the upstream path.
        assert!(rsv.upstream_timeouts() > 0, "no upstream starvation");
        assert!(
            rsv.responses(ResponseKind::Stale) + rsv.giveups() > 0,
            "flood never degraded service"
        );
        // Every abandoned client became guard evidence.
        assert_eq!(outcome.stack.surfaced_giveups(), rsv.giveups());
        assert_eq!(
            outcome.obs.rollout.as_ref().expect("rollout obs").giveups_observed(),
            rsv.giveups()
        );
        // The hit-rate curve collapses under the flood and recovers after.
        let series = hit_rate_series(&outcome);
        let pre = series.iter().find(|(sec, _)| *sec == 2).map(|(_, r)| *r).unwrap_or(0.0);
        let during = series
            .iter()
            .filter(|(sec, _)| (4..=8).contains(sec))
            .map(|(_, r)| *r)
            .fold(f64::INFINITY, f64::min);
        let last = series.last().map(|(_, r)| *r).unwrap_or(0.0);
        assert!(pre > 0.5, "pre-flood hit rate {pre}");
        assert!(during < pre, "flood never dented the hit rate: {during} vs {pre}");
        assert!(last > during, "hit rate never recovered: {last} vs {during}");
        // And the dump carries the resolver section.
        assert!(outcome.obs.prom().contains("rsv_queries_total"));
    }

    /// Window-by-window driving equals the one-shot run for the resolver
    /// composition too — and its stack, hosting the resolver actor, is
    /// refused a checkpoint with a typed error instead of a lossy one.
    #[test]
    fn windowed_resolver_session_equals_the_one_shot_run() {
        let print = |o: &Finished| {
            (crate::phoenix::fingerprint(o), o.stack.surfaced_giveups(), hit_rate_series(o))
        };
        let scenario = Scenario::resolver_lab();
        let one_shot = resolver_run(&scenario, ResolverRunConfig::default());
        let mut windowed = session(&scenario, ResolverRunConfig::default());
        for s in 1..=6 {
            windowed.run_until(SimTime::from_secs(s));
        }
        windowed.run_to_end();
        assert_eq!(
            windowed.checkpoint().err(),
            Some(crate::session::FreezeError::ResolverActor)
        );
        assert_eq!(print(&windowed.finish()), print(&one_shot));
    }

    #[test]
    fn resolver_run_is_deterministic() {
        let run = || {
            let outcome = resolver_run(&Scenario::resolver_lab(), ResolverRunConfig::default());
            (crate::phoenix::fingerprint(&outcome), outcome.stack.surfaced_giveups())
        };
        assert_eq!(run(), run(), "resolver run must be bit-identical across runs");
    }
}
