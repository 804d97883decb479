//! ChaosLab: campaign-driven fault injection.
//!
//! A [`ChaosPlan`] is a schedule of timed fault transitions — link flaps,
//! node crashes/recoveries, rate brownouts — plus static bursty-loss
//! assignments. It is the only way a link or node fails: every outage,
//! crash and brownout is a transition on the event queue, counted in
//! `sim_chaos_transitions_total`. [`ChaosPlan::apply_to`] compiles the
//! schedule into the network's ordinary event queue, so a chaos run
//! replays byte-for-byte under [`crate::par::parallel_map`] exactly like a
//! fault-free one: every transition occupies one deterministic
//! `(time, seq)` slot and all randomness flows through seeded generators.
//!
//! Determinism contract: two networks built identically, given the same
//! plan and the same injection schedule, produce identical statistics and
//! identical per-packet observable sequences, sequential or parallel.

use crate::link::{GilbertElliott, LinkId, Outage};
use crate::network::Network;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault transition applied at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ChaosAction {
    /// The link hard-fails: every offer is dropped until `LinkUp`.
    LinkDown(LinkId),
    /// The link recovers.
    LinkUp(LinkId),
    /// The node crashes: it swallows everything it would receive or
    /// originate until `NodeUp`.
    NodeDown(NodeId),
    /// The node recovers.
    NodeUp(NodeId),
    /// The link's rate degrades to `factor` × nominal.
    BrownoutStart { link: LinkId, factor: f64 },
    /// The link's rate recovers to nominal.
    BrownoutEnd(LinkId),
}

/// A campaign of scheduled fault events plus static loss-channel
/// assignments. Build one by hand or derive one from a [`ChaosConfig`].
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Timed transitions, not necessarily sorted until applied.
    pub events: Vec<(SimTime, ChaosAction)>,
    /// Gilbert–Elliott channels installed on links at apply time.
    pub burst: Vec<(LinkId, GilbertElliott)>,
}

impl ChaosPlan {
    /// An empty plan (no chaos).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.burst.is_empty()
    }

    /// Flap `link` down over `[from, until)`.
    pub fn link_flap(&mut self, link: LinkId, from: SimTime, until: SimTime) -> &mut Self {
        self.events.push((from, ChaosAction::LinkDown(link)));
        self.events.push((until, ChaosAction::LinkUp(link)));
        self
    }

    /// Crash `node` over `[from, until)`.
    pub fn node_outage(&mut self, node: NodeId, from: SimTime, until: SimTime) -> &mut Self {
        self.events.push((from, ChaosAction::NodeDown(node)));
        self.events.push((until, ChaosAction::NodeUp(node)));
        self
    }

    /// Degrade `link` to `factor` × nominal rate over `[from, until)`.
    pub fn brownout(
        &mut self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> &mut Self {
        self.events.push((from, ChaosAction::BrownoutStart { link, factor }));
        self.events.push((until, ChaosAction::BrownoutEnd(link)));
        self
    }

    /// Install a bursty loss channel on `link` for the whole run.
    pub fn burst_loss(&mut self, link: LinkId, model: GilbertElliott) -> &mut Self {
        self.burst.push((link, model));
        self
    }

    /// Compile the plan into `net`'s event queue and install each loss
    /// channel into both directions of its link. Events are sorted by time
    /// (stable, so same-instant events keep their plan order) before
    /// scheduling, which pins each transition to a deterministic queue
    /// slot.
    pub fn apply_to(&self, net: &mut Network) {
        for (link, model) in &self.burst {
            net.link_mut(*link).install_burst(model);
        }
        let mut events = self.events.clone();
        events.sort_by_key(|(t, _)| *t);
        for (at, action) in events {
            net.schedule_chaos(at, action);
        }
    }

    /// The down windows this plan schedules for `link`, reconstructed by
    /// counting `LinkDown`/`LinkUp` transitions the way the network does:
    /// a window opens when the count leaves zero and closes when it
    /// returns, so overlapping flaps read back as their union. Used by
    /// tests to assert drops never happen outside scheduled windows.
    pub fn link_outages(&self, link: LinkId) -> Vec<Outage> {
        Self::counted_windows(&self.events, |a| match a {
            ChaosAction::LinkDown(l) if *l == link => Some(true),
            ChaosAction::LinkUp(l) if *l == link => Some(false),
            _ => None,
        })
    }

    /// The down windows this plan schedules for `node`.
    pub fn node_outages(&self, node: NodeId) -> Vec<Outage> {
        Self::counted_windows(&self.events, |a| match a {
            ChaosAction::NodeDown(n) if *n == node => Some(true),
            ChaosAction::NodeUp(n) if *n == node => Some(false),
            _ => None,
        })
    }

    fn counted_windows(
        events: &[(SimTime, ChaosAction)],
        classify: impl Fn(&ChaosAction) -> Option<bool>,
    ) -> Vec<Outage> {
        let mut sorted: Vec<(SimTime, bool)> = events
            .iter()
            .filter_map(|(t, a)| classify(a).map(|down| (*t, down)))
            .collect();
        sorted.sort_by_key(|(t, _)| *t);
        let mut windows = Vec::new();
        let (mut depth, mut from) = (0u32, SimTime::ZERO);
        for (t, down) in sorted {
            if down {
                if depth == 0 {
                    from = t;
                }
                depth += 1;
            } else if depth > 0 {
                depth -= 1;
                if depth == 0 {
                    windows.push(Outage { from, until: t });
                }
            }
        }
        if depth > 0 {
            windows.push(Outage { from, until: SimTime(u64::MAX) });
        }
        windows
    }
}

/// Length of each generated link flap.
const FLAP_LEN: SimDuration = SimDuration::from_millis(400);
/// Length of each generated node outage.
const CRASH_LEN: SimDuration = SimDuration::from_millis(600);
/// Length of each generated brownout.
const BROWNOUT_LEN: SimDuration = SimDuration::from_millis(700);
/// Rate multiplier during a generated brownout.
const BROWNOUT_FACTOR: f64 = 0.25;

/// Knobs for deriving a seed-driven chaos campaign over a run of
/// `duration`. Counts are exact; placements and targets are drawn from a
/// `StdRng` seeded with `seed`, so the same config always yields the same
/// plan. Every flap lasts 400 ms, every crash 600 ms and every brownout
/// 700 ms at 0.25 × nominal rate, each clipped to the run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    /// Length of the run the campaign covers.
    pub duration: SimDuration,
    /// Number of link flaps to scatter over the run.
    pub link_flaps: usize,
    /// Number of node crash/recover cycles.
    pub node_crashes: usize,
    /// Number of rate brownouts.
    pub brownouts: usize,
    /// Bursty loss channel installed on every candidate link, if any.
    pub burst: Option<GilbertElliott>,
}

impl ChaosConfig {
    /// Derive a plan over the given candidate links and nodes. Targets and
    /// start times are sampled uniformly; windows are clipped to the run.
    pub fn generate(&self, links: &[LinkId], nodes: &[NodeId]) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = ChaosPlan::new();
        let total = self.duration.as_nanos();
        let window = |rng: &mut StdRng, len: SimDuration| {
            let len = len.as_nanos().min(total);
            let latest_start = total - len;
            let from = if latest_start == 0 { 0 } else { rng.gen_range(0..latest_start) };
            (SimTime(from), SimTime(from + len))
        };
        if !links.is_empty() {
            for _ in 0..self.link_flaps {
                let link = links[rng.gen_range(0..links.len())];
                let (from, until) = window(&mut rng, FLAP_LEN);
                plan.link_flap(link, from, until);
            }
            for _ in 0..self.brownouts {
                let link = links[rng.gen_range(0..links.len())];
                let (from, until) = window(&mut rng, BROWNOUT_LEN);
                plan.brownout(link, from, until, BROWNOUT_FACTOR);
            }
            if let Some(model) = &self.burst {
                for link in links {
                    plan.burst_loss(*link, model.clone());
                }
            }
        }
        if !nodes.is_empty() {
            for _ in 0..self.node_crashes {
                let node = nodes[rng.gen_range(0..nodes.len())];
                let (from, until) = window(&mut rng, CRASH_LEN);
                plan.node_outage(node, from, until);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_paired_windows() {
        let mut plan = ChaosPlan::new();
        plan.link_flap(LinkId(3), SimTime::from_secs(1), SimTime::from_secs(2))
            .node_outage(NodeId(7), SimTime::from_secs(4), SimTime::from_secs(5))
            .brownout(LinkId(3), SimTime::from_secs(6), SimTime::from_secs(7), 0.5);
        assert_eq!(
            plan.link_outages(LinkId(3)),
            vec![Outage { from: SimTime::from_secs(1), until: SimTime::from_secs(2) }]
        );
        assert_eq!(
            plan.node_outages(NodeId(7)),
            vec![Outage { from: SimTime::from_secs(4), until: SimTime::from_secs(5) }]
        );
        assert!(plan.link_outages(LinkId(0)).is_empty());
        assert!(!plan.is_empty());
        assert!(ChaosPlan::new().is_empty());
    }

    #[test]
    fn generate_is_deterministic_for_a_seed() {
        let cfg = ChaosConfig {
            seed: 0xC4A05,
            duration: SimDuration::from_secs(8),
            link_flaps: 4,
            node_crashes: 2,
            brownouts: 3,
            burst: Some(GilbertElliott::new(0.01, 0.2, 0.0, 0.8)),
        };
        let links: Vec<LinkId> = (0..10).map(LinkId).collect();
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        let a = cfg.generate(&links, &nodes);
        let b = cfg.generate(&links, &nodes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.burst.len(), 10);
        assert_eq!(a.events.len(), 2 * (4 + 2 + 3));
    }

    #[test]
    fn generated_windows_stay_inside_the_run() {
        let cfg = ChaosConfig {
            seed: 0xC4A05,
            duration: SimDuration::from_secs(3),
            link_flaps: 20,
            node_crashes: 20,
            brownouts: 0,
            burst: None,
        };
        let links: Vec<LinkId> = (0..4).map(LinkId).collect();
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let plan = cfg.generate(&links, &nodes);
        let end = SimTime::from_secs(3);
        for (t, _) in &plan.events {
            assert!(*t <= end, "event at {t:?} beyond run end");
        }
    }

    #[test]
    fn overlapping_windows_read_back_as_their_union() {
        let mut plan = ChaosPlan::new();
        plan.link_flap(LinkId(1), SimTime::from_secs(1), SimTime::from_secs(3))
            .link_flap(LinkId(1), SimTime::from_secs(2), SimTime::from_secs(4))
            .link_flap(LinkId(1), SimTime::from_secs(6), SimTime::from_secs(7));
        // A stray recovery with nothing open closes nothing.
        plan.events.push((SimTime::from_secs(5), ChaosAction::LinkUp(LinkId(1))));
        assert_eq!(
            plan.link_outages(LinkId(1)),
            vec![
                Outage { from: SimTime::from_secs(1), until: SimTime::from_secs(4) },
                Outage { from: SimTime::from_secs(6), until: SimTime::from_secs(7) },
            ]
        );
    }

    #[test]
    fn unpaired_down_extends_to_infinity() {
        let mut plan = ChaosPlan::new();
        plan.events.push((SimTime::from_secs(2), ChaosAction::NodeDown(NodeId(1))));
        let w = plan.node_outages(NodeId(1));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].from, SimTime::from_secs(2));
        assert_eq!(w[0].until, SimTime(u64::MAX));
    }
}
