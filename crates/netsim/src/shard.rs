//! The sharded execution engine: per-shard event loops synchronized by a
//! conservative time-window barrier.
//!
//! The topology is partitioned into shards — one per access/distribution
//! subtree in the campus — by cutting the highest-latency links (the
//! partitioner maximizes the cut threshold, because the minimum cut-link
//! propagation *is* the lookahead). Each shard owns its nodes, its internal
//! links, its sending directions of cross-shard links, and a private
//! [`EventQueue`](crate::event::EventQueue); shards execute windows of
//! simulated time `[T, T + lookahead)` one after another on the calling
//! thread and exchange cross-shard arrivals at the window barrier.
//!
//! The engine is hook-free: it runs [`NullHooks`] simulations only, and a
//! run with observers takes the sequential loop (reported as
//! [`ShardReport::fell_back`]). What it keeps is the count that decided
//! that — [`ShardReport::work_events`] over [`ShardReport::span_events`]
//! is the speed-up a perfect executor with free barriers could reach, and
//! on the campus it is 1.18–1.38× at 8 shards (DESIGN.md §11).
//!
//! # The determinism contract
//!
//! Sharded execution reproduces the sequential engine byte-for-byte:
//! identical `NetStats`, identical Observatory bundles, identical final
//! clock. Two mechanisms carry the contract:
//!
//! 1. **Canonical event keys.** Every event's `(time, class, lane, seq)`
//!    key (see [`crate::event::EventKey`]) depends only on causal
//!    structure, so the union of N shard queues pops in exactly the order
//!    one queue would. Per-(link, direction) RNG streams make loss and RED
//!    draws a function of the lane, not of global interleaving.
//! 2. **Serial micro-phases for global events.** Timers and chaos
//!    transitions live on the master queue; a chaos transition mutates
//!    fault state every shard reads. The coordinator never lets one fire
//!    inside a window: the next master-queue event bounds the window end,
//!    and at that bound the coordinator dispatches every event at that
//!    instant one at a time, in canonical key order across the master and
//!    all shard queues — exactly the sequential loop. The window-edge
//!    invariant makes windows sound: any *newly created* cross-shard
//!    arrival fires at least `lookahead` after the window start, so it can
//!    never pop inside the window that created it.

use std::cmp::Reverse;

use crate::event::EventKey;
use crate::link::{Dir, Link, LinkId, QueueDiscipline};
use crate::network::{Commands, DropReason, Event, NetStats, Network, NullHooks, SimHooks};
use crate::node::{Node, NodeId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Sentinel in [`Splice::remote`] marking a lane whose arrivals stay local.
const LOCAL: u32 = u32::MAX;

/// A packet arrival crossing a shard boundary, exchanged at window barriers.
pub(crate) struct CrossPacket {
    pub(crate) dst_shard: u32,
    pub(crate) key: EventKey,
    pub(crate) link: LinkId,
    pub(crate) dir: Dir,
    pub(crate) packet: Box<Packet>,
}

/// Cross-shard plumbing attached to a [`Network`] while it runs as one
/// shard: the per-lane routing table and the outbox drained at barriers.
pub(crate) struct Splice {
    /// `lane -> destination shard` for cross-shard lanes; [`LOCAL`] for
    /// lanes whose arrivals schedule locally.
    remote: Vec<u32>,
    /// Arrivals bound for other shards, routed by the coordinator.
    pub(crate) outbox: Vec<CrossPacket>,
}

impl Splice {
    fn new(lanes: usize) -> Self {
        Splice { remote: vec![LOCAL; lanes], outbox: Vec::new() }
    }

    /// The shard that owns arrivals on `lane`, when it is not this one.
    pub(crate) fn remote_shard(&self, lane: u32) -> Option<u32> {
        let s = self.remote[lane as usize];
        (s != LOCAL).then_some(s)
    }
}

/// Counters describing one sharded run, for benches, tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shards the partitioner produced (may be fewer than requested).
    pub shards: usize,
    /// Conservative lookahead in nanoseconds (`u64::MAX` when unbounded).
    pub lookahead_ns: u64,
    /// Windows executed.
    pub windows: u64,
    /// Serial micro-phases executed.
    pub serial_phases: u64,
    /// Packet arrivals exchanged across shard boundaries.
    pub cross_packets: u64,
    /// Always zero: the engine runs no hooks. Kept because the PerfLedger
    /// reports it by name.
    pub replayed_hooks: u64,
    /// Events dispatched: every window's sum over shards, plus one per
    /// serial-phase event. Equals the run's `sim_events_total`.
    pub work_events: u64,
    /// Events on the critical path: every window's maximum over shards,
    /// plus one per serial-phase event. `work_events / span_events` bounds
    /// what any executor could gain from running a window's shards at once.
    pub span_events: u64,
    /// True when the engine did not shard this run — observers attached,
    /// or packets already in flight — and took the sequential loop.
    pub fell_back: bool,
}

/// How the partitioner assigned nodes to shards.
pub(crate) struct ShardPlan {
    pub(crate) shards: usize,
    /// Owning shard of each node.
    pub(crate) owner: Vec<u32>,
}

/// Union-find over node indices.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: usize) -> u32 {
        let mut root = x as u32;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x as u32;
        while self.parent[cur as usize] != root {
            cur = std::mem::replace(&mut self.parent[cur as usize], root);
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: the smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }

    /// Dense component ids in node order, plus the component count.
    fn components(&mut self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut id_of_root = vec![u32::MAX; n];
        let mut comp = vec![0u32; n];
        let mut count = 0u32;
        for (i, c) in comp.iter_mut().enumerate() {
            let r = self.find(i) as usize;
            if id_of_root[r] == u32::MAX {
                id_of_root[r] = count;
                count += 1;
            }
            *c = id_of_root[r];
        }
        (comp, count as usize)
    }
}

impl ShardPlan {
    /// Partition `net` into up to `wanted` shards.
    ///
    /// Candidate cut thresholds are the distinct link propagation delays,
    /// tried in descending order: cutting only links with propagation
    /// `>= thr` and taking connected components of the rest. The largest
    /// threshold yielding at least `wanted` components wins — it maximizes
    /// the lookahead, since every cross-shard link is a cut link. If no
    /// threshold reaches `wanted`, the one with the most components wins.
    /// Components are then bin-packed onto shards: largest first (ties by
    /// smallest node id) onto the least-loaded shard (ties by lowest
    /// index). Every step is deterministic.
    pub(crate) fn compute(net: &Network, wanted: usize) -> ShardPlan {
        let n = net.node_count();
        let single = ShardPlan { shards: 1, owner: vec![0; n] };
        if wanted <= 1 || n == 0 {
            return single;
        }
        let mut thresholds: Vec<u64> =
            (0..net.link_count()).map(|l| net.link(LinkId(l)).propagation.as_nanos()).collect();
        thresholds.sort_unstable();
        thresholds.dedup();
        thresholds.reverse();
        let mut best: Option<(Vec<u32>, usize)> = None;
        for &thr in &thresholds {
            let mut dsu = Dsu::new(n);
            for l in 0..net.link_count() {
                let link = net.link(LinkId(l));
                if link.propagation.as_nanos() < thr {
                    dsu.union(link.a.0, link.b.0);
                }
            }
            let (comp, count) = dsu.components();
            let reached = count >= wanted;
            if best.as_ref().is_none_or(|&(_, c)| count > c) {
                best = Some((comp, count));
            }
            if reached {
                break;
            }
        }
        let Some((comp, count)) = best else { return single };
        if count <= 1 {
            return single;
        }
        // Bin-pack components onto shards.
        let shard_count = wanted.min(count);
        let mut size = vec![0usize; count];
        let mut min_id = vec![usize::MAX; count];
        for (i, &c) in comp.iter().enumerate() {
            size[c as usize] += 1;
            min_id[c as usize] = min_id[c as usize].min(i);
        }
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_by_key(|&c| (Reverse(size[c]), min_id[c]));
        let mut load = vec![0usize; shard_count];
        let mut shard_of_comp = vec![0u32; count];
        for c in order {
            let s = (0..shard_count).min_by_key(|&s| (load[s], s)).expect("shard_count >= 1");
            shard_of_comp[c] = s as u32;
            load[s] += size[c];
        }
        let owner = comp.iter().map(|&c| shard_of_comp[c as usize]).collect();
        ShardPlan { shards: shard_count, owner }
    }
}

/// Run one shard's event loop up to (exclusive) `cap` nanoseconds;
/// returns the events dispatched.
fn run_window(net: &mut Network, cap: u64) -> u64 {
    let mut cmds = Commands::default();
    let mut events = 0;
    while net.queue.peek_time().is_some_and(|t| t.0 < cap) {
        let (key, ev) = net.queue.pop().expect("peeked event vanished");
        net.dispatch(key.time, ev, &mut NullHooks, &mut cmds);
        events += 1;
    }
    events
}

/// Move every outboxed cross-shard arrival into its destination shard's
/// queue.
fn route_outboxes(shards: &mut [Network], report: &mut ShardReport) {
    for i in 0..shards.len() {
        let out = std::mem::take(&mut shards[i].splice.as_mut().expect("shard without splice").outbox);
        for cp in out {
            shards[cp.dst_shard as usize]
                .queue
                .schedule(cp.key, Event::Arrive { link: cp.link, dir: cp.dir, packet: cp.packet });
            report.cross_packets += 1;
        }
    }
}

/// A placeholder node for slots a shard (or the master, mid-run) does not
/// own. Chaos toggles may touch it; nothing else does.
fn stub_node(i: usize) -> Node {
    Node::switch(NodeId(i), String::new())
}

/// A placeholder link preserving identity and endpoints only.
fn stub_link(link: &Link) -> Link {
    Link::new(
        link.id,
        link.a,
        link.b,
        1,
        SimDuration::ZERO,
        QueueDiscipline::DropTail { capacity_bytes: 0 },
    )
}

fn add_net_stats(into: &mut NetStats, mut from: NetStats) {
    into.injected += from.injected;
    into.delivered += from.delivered;
    into.delivered_bytes += from.delivered_bytes;
    for reason in DropReason::ALL {
        *into.dropped_mut(reason) += *from.dropped_mut(reason);
    }
    into.latency_sum += from.latency_sum;
}

impl Network {
    /// Counters from the most recent sharded run, if any.
    pub fn shard_report(&self) -> Option<ShardReport> {
        self.shard_report
    }

    /// Run under the sharded engine with up to `shards` shards.
    ///
    /// Byte-identical to [`Network::run_sequential`]; see the module docs.
    /// Takes the sequential loop itself, and says so in
    /// [`ShardReport::fell_back`], when `hooks` observe anything (the
    /// engine is hook-free) or when the simulation cannot be partitioned
    /// (packets already in flight).
    pub fn run_sharded(&mut self, hooks: &mut dyn SimHooks, until: Option<SimTime>, shards: usize) {
        // The engine calls no hooks, and splitting moves per-direction link
        // state between networks, which is only sound while no packet is
        // queued or on the wire.
        let splittable =
            hooks.is_null() && (0..self.link_count()).all(|l| self.link(LinkId(l)).is_quiescent());
        let pending = if splittable { self.queue.drain_sorted() } else { Vec::new() };
        let only_roots =
            pending.iter().all(|(_, e)| matches!(e, Event::Inject { .. } | Event::Timer { .. } | Event::Chaos { .. }));
        if !splittable || !only_roots || self.node_count() == 0 {
            for (k, e) in pending {
                self.queue.schedule(k, e);
            }
            self.shard_report = Some(ShardReport { shards: 1, fell_back: true, ..Default::default() });
            self.run_sequential(hooks, until);
            return;
        }

        let plan = ShardPlan::compute(self, shards);
        let n = plan.shards;
        let owner = &plan.owner;

        let mut cross = vec![false; self.link_count()];
        let mut min_prop = u64::MAX;
        for (li, c) in cross.iter_mut().enumerate() {
            let l = self.link(LinkId(li));
            *c = owner[l.a.0] != owner[l.b.0];
            if *c {
                min_prop = min_prop.min(l.propagation.as_nanos());
            }
        }
        // Any event dispatched at `t` schedules its earliest cross-shard
        // arrival no sooner than `t + 1 (serialization floor) +
        // propagation`, so windows of this length never miss one.
        let lookahead = min_prop.saturating_add(1);

        // Carve the master network into shard slices.
        let now0 = self.queue.now();
        let mut slices: Vec<Network> = (0..n)
            .map(|s| {
                let s = s as u32;
                let mut net = Network::new(self.seed);
                net.queue.set_now(now0);
                net.nodes = self
                    .nodes
                    .iter_mut()
                    .enumerate()
                    .map(|(i, node)| {
                        if owner[i] == s {
                            std::mem::replace(node, stub_node(i))
                        } else {
                            stub_node(i)
                        }
                    })
                    .collect();
                net.links = self
                    .links
                    .iter_mut()
                    .enumerate()
                    .map(|(li, link)| {
                        if cross[li] {
                            if owner[link.a.0] == s || owner[link.b.0] == s {
                                link.shard_clone()
                            } else {
                                stub_link(link)
                            }
                        } else if owner[link.a.0] == s {
                            let stub = stub_link(link);
                            std::mem::replace(link, stub)
                        } else {
                            stub_link(link)
                        }
                    })
                    .collect();
                // A tap reports to the hooks, and there are none.
                net.tapped = vec![false; self.tapped.len()];
                let mut sp = Splice::new(net.links.len() * 2);
                for (li, l) in net.links.iter().enumerate() {
                    if cross[li] {
                        if owner[l.a.0] == s {
                            sp.remote[li * 2] = owner[l.b.0];
                        }
                        if owner[l.b.0] == s {
                            sp.remote[li * 2 + 1] = owner[l.a.0];
                        }
                    }
                }
                net.splice = Some(Box::new(sp));
                net
            })
            .collect();

        // Distribute the pending root schedule: injections to their owning
        // shard, timers and chaos transitions back to the master queue.
        for (key, ev) in pending {
            match ev {
                Event::Inject { node, packet } => {
                    slices[owner[node.0] as usize].queue.schedule(key, Event::Inject { node, packet });
                }
                ev => self.queue.schedule(key, ev),
            }
        }

        let mut report = ShardReport { shards: n, lookahead_ns: lookahead, ..Default::default() };
        self.coordinate(until, &mut slices, &mut report);

        // Reassemble the master network from the shard slices.
        let mut final_now = self.queue.now();
        let mut leftovers: Vec<(EventKey, Event)> = Vec::new();
        for (s, slice) in slices.into_iter().enumerate() {
            let s = s as u32;
            let Network { nodes, links, mut queue, stats, obs, .. } = slice;
            final_now = final_now.max(queue.now());
            leftovers.extend(queue.drain_sorted());
            add_net_stats(&mut self.stats, stats);
            self.obs.merge_from(&obs);
            for (i, node) in nodes.into_iter().enumerate() {
                if owner[i] == s {
                    self.nodes[i] = node;
                }
            }
            for (li, mut link) in links.into_iter().enumerate() {
                if cross[li] {
                    if owner[link.a.0] == s {
                        self.links[li].adopt_dir(Dir::AtoB, &mut link);
                    }
                    if owner[link.b.0] == s {
                        self.links[li].adopt_dir(Dir::BtoA, &mut link);
                    }
                } else if owner[link.a.0] == s {
                    self.links[li] = link;
                }
            }
        }
        self.queue.set_now(final_now);
        leftovers.sort_unstable_by_key(|e| e.0);
        for (k, e) in leftovers {
            self.queue.schedule(k, e);
        }
        self.shard_report = Some(report);
    }

    /// The conservative window / serial-phase alternation at the heart of
    /// the engine. `self` is the master: it holds the root-event queue
    /// (timers, chaos) and the root sequence counter.
    fn coordinate(&mut self, until: Option<SimTime>, shards: &mut [Network], report: &mut ShardReport) {
        let until_cap = until.map(|u| u.as_nanos().saturating_add(1)).unwrap_or(u64::MAX);
        let lookahead = report.lookahead_ns;
        loop {
            let t_shard =
                shards.iter_mut().filter_map(|s| s.queue.peek_time()).map(|t| t.0).min().unwrap_or(u64::MAX);
            let t_master = self.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX);
            let t = t_shard.min(t_master);
            if t >= until_cap || t == u64::MAX {
                break;
            }
            let cap = t.saturating_add(lookahead).min(t_master).min(until_cap);
            if cap > t {
                report.windows += 1;
                let mut span = 0;
                for shard in shards.iter_mut() {
                    let events = run_window(shard, cap);
                    report.work_events += events;
                    span = span.max(events);
                }
                report.span_events += span;
            } else {
                report.serial_phases += 1;
                let events = self.serial_phase(shards, t);
                report.work_events += events;
                report.span_events += events;
            }
            route_outboxes(shards, report);
        }
    }

    /// Dispatch every event at exactly instant `t`, one at a time in
    /// canonical key order across the master and all shard queues — the
    /// sequential loop, narrowed to one instant. Returns the events
    /// dispatched.
    fn serial_phase(&mut self, shards: &mut [Network], t: u64) -> u64 {
        let mut cmds = Commands::default();
        let mut events = 0;
        loop {
            let mut best: Option<(EventKey, usize)> =
                self.queue.peek_key().filter(|k| k.time.0 == t).map(|k| (k, usize::MAX));
            for (i, shard) in shards.iter_mut().enumerate() {
                if let Some(k) = shard.queue.peek_key() {
                    if k.time.0 == t && best.is_none_or(|(b, _)| k < b) {
                        best = Some((k, i));
                    }
                }
            }
            let Some((_, src)) = best else { break };
            events += 1;
            if src == usize::MAX {
                let (key, ev) = self.queue.pop().expect("peeked event vanished");
                let chaos = if let Event::Chaos { action } = &ev { Some(*action) } else { None };
                self.dispatch(key.time, ev, &mut NullHooks, &mut cmds);
                if let Some(action) = chaos {
                    // Fault state is replicated: every shard's copy of the
                    // affected element flips, but telemetry counts once
                    // (on the master, in `dispatch` above).
                    for shard in shards.iter_mut() {
                        shard.apply_chaos_quiet(action);
                    }
                }
            } else {
                let (key, ev) = shards[src].queue.pop().expect("peeked event vanished");
                shards[src].dispatch(key.time, ev, &mut NullHooks, &mut cmds);
            }
        }
        events
    }
}
