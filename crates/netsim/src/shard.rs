//! The sharded execution engine: per-shard event loops synchronized by a
//! conservative time-window barrier.
//!
//! The topology is partitioned into shards — one per access/distribution
//! subtree in the campus — by cutting the highest-latency links (the
//! partitioner maximizes the cut threshold, because the minimum cut-link
//! propagation *is* the lookahead). Each shard owns its nodes, its internal
//! links, its sending directions of cross-shard links, and a private
//! [`EventQueue`](crate::event::EventQueue); shards execute windows of
//! simulated time `[T, T + lookahead)` in parallel and exchange cross-shard
//! arrivals at the window barrier.
//!
//! # The determinism contract
//!
//! Sharded execution reproduces the sequential engine byte-for-byte:
//! identical `NetStats`, identical Observatory bundles, identical hook
//! callbacks in identical order. Three mechanisms carry the contract:
//!
//! 1. **Canonical event keys.** Every event's `(time, class, lane, seq)`
//!    key (see [`crate::event::EventKey`]) depends only on causal
//!    structure, so the union of N shard queues pops in exactly the order
//!    one queue would. Per-(link, direction) RNG streams make loss and RED
//!    draws a function of the lane, not of global interleaving.
//! 2. **Serial micro-phases for exact-effect events.** Timers, chaos
//!    transitions and tapped-link arrivals may issue commands (or mutate
//!    global fault state) whose effects sequential execution applies
//!    *immediately*. The coordinator never lets those fire inside a
//!    window: master-queue events and queued tapped arrivals bound the
//!    window end, and at that bound the coordinator dispatches every event
//!    at that instant one at a time, in canonical key order, with live
//!    hooks and immediate command routing — exactly the sequential loop.
//!    The window-edge invariant makes this sound: any *newly created*
//!    tapped or cross-shard arrival fires at least `lookahead` after the
//!    window start, so it can never pop inside the window that created it.
//! 3. **Ordered hook replay at barriers.** Deliver/drop callbacks raised
//!    inside a window are logged per shard with their event key and
//!    replayed at the barrier in globally merged key order, so observer
//!    state sees the sequential callback sequence. Commands issued from
//!    replayed hooks are routed with their requested times (clamped to the
//!    shard clock) and counted as [`ShardReport::late_commands`]; none of
//!    the repo's experiments issue commands from deliver/drop hooks, so
//!    the counter doubles as a contract check.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

use crate::event::EventKey;
use crate::link::{Dir, Link, LinkId, QueueDiscipline};
use crate::network::{
    Command, Commands, DropReason, Event, NetStats, Network, SimHooks, PACKET_POOL_CAP,
};
use crate::node::{Node, NodeId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};

/// Sentinel in [`Splice::remote`] marking a lane whose arrivals stay local.
const LOCAL: u32 = u32::MAX;

/// Shard count requested through the `CAMPUSLAB_SHARDS` environment
/// variable, if set to a positive integer.
pub(crate) fn shards_from_env() -> Option<usize> {
    std::env::var("CAMPUSLAB_SHARDS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// A packet arrival crossing a shard boundary, exchanged at window barriers.
pub(crate) struct CrossPacket {
    pub(crate) dst_shard: u32,
    pub(crate) key: EventKey,
    pub(crate) link: LinkId,
    pub(crate) dir: Dir,
    pub(crate) packet: Box<Packet>,
}

/// Cross-shard plumbing attached to a [`Network`] while it runs as one
/// shard: the per-lane routing table, the outbox drained at barriers, and
/// the min-heap of queued tapped-arrival times that bounds window ends.
pub(crate) struct Splice {
    /// `lane -> destination shard` for cross-shard lanes; [`LOCAL`] for
    /// lanes whose arrivals schedule locally.
    remote: Vec<u32>,
    /// Arrivals bound for other shards, routed by the coordinator.
    pub(crate) outbox: Vec<CrossPacket>,
    /// Fire times of tapped arrivals currently queued in this shard.
    tap_times: BinaryHeap<Reverse<u64>>,
}

impl Splice {
    fn new(lanes: usize) -> Self {
        Splice { remote: vec![LOCAL; lanes], outbox: Vec::new(), tap_times: BinaryHeap::new() }
    }

    /// The shard that owns arrivals on `lane`, when it is not this one.
    pub(crate) fn remote_shard(&self, lane: u32) -> Option<u32> {
        let s = self.remote[lane as usize];
        (s != LOCAL).then_some(s)
    }

    /// Record a tapped arrival queued for `at`; tapped arrivals must
    /// dispatch in serial phases, so their times cap window ends.
    pub(crate) fn note_tapped_arrival(&mut self, at: SimTime) {
        self.tap_times.push(Reverse(at.0));
    }

    fn next_tap_time(&self) -> Option<u64> {
        self.tap_times.peek().map(|&Reverse(t)| t)
    }
}

/// Counters describing one sharded run, for benches, tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shards the partitioner produced (may be fewer than requested).
    pub shards: usize,
    /// Conservative lookahead in nanoseconds (`u64::MAX` when unbounded).
    pub lookahead_ns: u64,
    /// Parallel windows executed.
    pub windows: u64,
    /// Serial micro-phases executed.
    pub serial_phases: u64,
    /// Packet arrivals exchanged across shard boundaries.
    pub cross_packets: u64,
    /// Hook callbacks replayed at barriers.
    pub replayed_hooks: u64,
    /// Commands issued from replayed (window-phase) hooks — applied after
    /// the window that raised them, so potentially later than sequential
    /// execution would have applied them. Zero for every experiment in
    /// this repo; nonzero values flag hooks outside the exact contract.
    pub late_commands: u64,
    /// True when the engine could not shard this run (packets already in
    /// flight) and fell back to the sequential loop.
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

/// One deliver/drop callback captured inside a window.
enum HookRecord {
    Deliver { node: NodeId, packet: Packet, latency: SimDuration },
    Drop { reason: DropReason, packet: Packet },
}

struct LogEntry {
    key: EventKey,
    ordinal: u32,
    now: SimTime,
    record: HookRecord,
}

/// The buffering hook adapter shards dispatch through inside a window.
/// Tap and timer callbacks are engine invariants, not loggable events —
/// the coordinator routes them to serial phases, so seeing one here means
/// the window bound was computed wrong.
struct WindowLog {
    enabled: bool,
    key: EventKey,
    ordinal: u32,
    entries: Vec<LogEntry>,
}

impl WindowLog {
    fn new(enabled: bool) -> Self {
        WindowLog { enabled, key: EventKey::root(SimTime::ZERO, 0), ordinal: 0, entries: Vec::new() }
    }

    fn push(&mut self, now: SimTime, record: HookRecord) {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        self.entries.push(LogEntry { key: self.key, ordinal, now, record });
    }
}

impl SimHooks for WindowLog {
    fn on_tap(&mut self, _: SimTime, _: LinkId, _: Dir, _: &Packet, _: &mut Commands) {
        unreachable!("tapped arrival dispatched inside a shard window");
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        _: &mut Commands,
    ) {
        if self.enabled {
            self.push(now, HookRecord::Deliver { node, packet: packet.clone(), latency });
        }
    }

    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, _: &mut Commands) {
        if self.enabled {
            self.push(now, HookRecord::Drop { reason, packet: packet.clone() });
        }
    }

    fn on_timer(&mut self, _: SimTime, _: u64, _: &mut Commands) {
        unreachable!("timer dispatched inside a shard window");
    }
}

/// One shard: its network slice plus its window hook log.
struct ShardState {
    net: Network,
    log: WindowLog,
}

impl ShardState {
    /// Run this shard's event loop up to (exclusive) `cap` nanoseconds,
    /// buffering hook callbacks.
    fn run_window(&mut self, cap: u64) {
        let mut cmds = Commands::default();
        while let Some(k) = self.net.queue.peek_key() {
            if k.time.0 >= cap {
                break;
            }
            let (key, ev) = self.net.queue.pop().expect("peeked event vanished");
            #[cfg(debug_assertions)]
            if let Event::Arrive { link, .. } = &ev {
                debug_assert!(!self.net.tapped[link.0], "tapped arrival popped inside a window");
            }
            self.log.key = key;
            self.log.ordinal = 0;
            self.net.dispatch(key.time, ev, &mut self.log, &mut cmds);
            debug_assert!(cmds.items.is_empty(), "window hooks must not issue commands");
        }
    }
}

/// Worker/coordinator handshake for the persistent window executor.
#[derive(Default)]
struct Ctrl {
    state: Mutex<CtrlState>,
    work: Condvar,
    done: Condvar,
}

#[derive(Default)]
struct CtrlState {
    gen: u64,
    cap: u64,
    done: usize,
    quit: bool,
}

/// How many threads drive a window's shards: [`crate::par::executor_workers`]
/// over the machine's `cores` and an explicit `CAMPUSLAB_JOBS`, and never
/// more threads than shards, so every worker's range is non-empty. Inline
/// (one) means on the coordinating thread: on two cores, two pool workers
/// measured 1.83–1.90× the sequential engine's wall-clock against 0.99×
/// inline — the window barrier costs more than the second core returns.
fn window_workers(cores: usize, jobs: Option<usize>, shards: usize) -> usize {
    crate::par::executor_workers(cores, jobs).clamp(1, shards.max(1))
}

/// The contiguous shard range worker `w` of `workers` drives. Balanced
/// splitting (`⌊w·n/workers⌋ .. ⌊(w+1)·n/workers⌋`) keeps every range
/// non-empty whenever `workers <= n` — which [`window_workers`]
/// guarantees — so exactly `workers` threads are spawned. `run_windows`
/// waits for `workers` completions per window; a skipped (empty-range)
/// worker would deadlock the first parallel window.
fn worker_range(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    debug_assert!(0 < workers && workers <= n);
    (w * n / workers)..((w + 1) * n / workers)
}

fn worker_loop(cells: &[Mutex<ShardState>], range: std::ops::Range<usize>, ctrl: &Ctrl) {
    let mut seen = 0u64;
    loop {
        let cap = {
            let mut g = ctrl.state.lock().expect("ctrl poisoned");
            while g.gen == seen && !g.quit {
                g = ctrl.work.wait(g).expect("ctrl poisoned");
            }
            if g.quit {
                return;
            }
            seen = g.gen;
            g.cap
        };
        for i in range.clone() {
            cells[i].lock().expect("shard poisoned").run_window(cap);
        }
        let _g = {
            let mut g = ctrl.state.lock().expect("ctrl poisoned");
            g.done += 1;
            g
        };
        ctrl.done.notify_all();
    }
}

/// Dispatch one window `[.., cap)` across every shard.
fn run_windows(cells: &[Mutex<ShardState>], cap: u64, workers: usize, ctrl: &Ctrl) {
    if workers <= 1 {
        for cell in cells {
            cell.lock().expect("shard poisoned").run_window(cap);
        }
        return;
    }
    let mut g = ctrl.state.lock().expect("ctrl poisoned");
    g.gen += 1;
    g.cap = cap;
    g.done = 0;
    ctrl.work.notify_all();
    while g.done < workers {
        g = ctrl.done.wait(g).expect("ctrl poisoned");
    }
}

/// Apply hook-issued commands, routing each to its owner: timers to the
/// master root queue, injections to the owning shard (keyed by the master
/// root counter, so sequence numbers match sequential assignment), filter
/// changes to the owning shard's node.
///
/// `phase_now` is `Some(t)` when routing live from a serial phase at
/// global instant `t`, and `None` when replaying window-buffered hooks
/// (whose commands are late by construction).
fn route_commands(
    master: &mut Network,
    cells: &[Mutex<ShardState>],
    owner: &[u32],
    items: Vec<Command>,
    phase_now: Option<SimTime>,
    report: &mut ShardReport,
) {
    for cmd in items {
        if phase_now.is_none() {
            report.late_commands += 1;
        }
        match cmd {
            Command::InstallFilter(node, filter) => {
                cells[owner[node.0] as usize]
                    .lock()
                    .expect("shard poisoned")
                    .net
                    .install_filter(node, filter);
            }
            Command::RemoveFilter(node) => {
                cells[owner[node.0] as usize].lock().expect("shard poisoned").net.remove_filter(node);
            }
            Command::SetTimer(at, token) => master.set_timer(at, token),
            Command::Inject(at, node, packet) => {
                let mut key = master.next_root_key(at);
                let mut st = cells[owner[node.0] as usize].lock().expect("shard poisoned");
                key.time = match phase_now {
                    // Live routing matches the sequential engine's
                    // `EventQueue::schedule` clamp: a request in the past
                    // fires at the global serial-phase instant, not at
                    // the (possibly older) shard-local clock. In-contract
                    // the shard clock never runs ahead of `t`, so the
                    // extra max is a safety net for late-command chains.
                    Some(t) => key.time.max(t).max(st.net.queue.now()),
                    // A replayed hook may request a time the shard clock
                    // has already passed; clamp (the command is already
                    // counted as late).
                    None => key.time.max(st.net.queue.now()),
                };
                let packet = st.net.box_packet(packet);
                st.net.queue.schedule(key, Event::Inject { node, packet });
            }
        }
    }
}

/// Replay window-buffered hook callbacks in globally merged canonical
/// order, routing any commands they issue.
fn replay_window_hooks(
    master: &mut Network,
    cells: &[Mutex<ShardState>],
    owner: &[u32],
    hooks: &mut dyn SimHooks,
    report: &mut ShardReport,
) {
    let mut all: Vec<LogEntry> = Vec::new();
    for cell in cells {
        let mut st = cell.lock().expect("shard poisoned");
        all.append(&mut st.log.entries);
    }
    if all.is_empty() {
        return;
    }
    all.sort_unstable_by_key(|e| (e.key, e.ordinal));
    let mut cmds = Commands::default();
    for e in &all {
        match &e.record {
            HookRecord::Deliver { node, packet, latency } => {
                hooks.on_deliver(e.now, *node, packet, *latency, &mut cmds);
            }
            HookRecord::Drop { reason, packet } => {
                hooks.on_drop(e.now, *reason, packet, &mut cmds);
            }
        }
        report.replayed_hooks += 1;
        if !cmds.items.is_empty() {
            route_commands(master, cells, owner, std::mem::take(&mut cmds.items), None, report);
        }
    }
}

/// Move every outboxed cross-shard arrival into its destination shard's
/// queue, maintaining the destination's tapped-arrival index.
fn route_outboxes(cells: &[Mutex<ShardState>], report: &mut ShardReport) {
    for i in 0..cells.len() {
        let out = {
            let mut st = cells[i].lock().expect("shard poisoned");
            std::mem::take(&mut st.net.splice.as_mut().expect("shard without splice").outbox)
        };
        for cp in out {
            let mut st = cells[cp.dst_shard as usize].lock().expect("shard poisoned");
            if st.net.tapped[cp.link.0] {
                st.net
                    .splice
                    .as_mut()
                    .expect("shard without splice")
                    .note_tapped_arrival(cp.key.time);
            }
            st.net.queue.schedule(cp.key, Event::Arrive { link: cp.link, dir: cp.dir, packet: cp.packet });
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
    /// Byte-identical to [`Network::run_sequential`] for hooks honouring
    /// the engine contract (commands only from tap/timer callbacks); see
    /// the module docs. Falls back to the sequential loop when the
    /// simulation cannot be partitioned (packets already in flight).
    pub fn run_sharded(&mut self, hooks: &mut dyn SimHooks, until: Option<SimTime>, shards: usize) {
        // Splitting moves per-direction link state between networks, which
        // is only sound while no packet is queued or on the wire.
        let splittable = (0..self.link_count()).all(|l| self.link(LinkId(l)).is_quiescent());
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

        // With null hooks a tap fires a no-op, so tapped links need no
        // serialization — they neither bound the lookahead nor force
        // serial phases, and the shard copies simply drop the tap flags.
        let enabled = !hooks.is_null();
        let mut cross = vec![false; self.link_count()];
        let mut min_prop = u64::MAX;
        for (li, c) in cross.iter_mut().enumerate() {
            let l = self.link(LinkId(li));
            *c = owner[l.a.0] != owner[l.b.0];
            if *c || (enabled && self.tapped[li]) {
                min_prop = min_prop.min(l.propagation.as_nanos());
            }
        }
        // Any event dispatched at `t` schedules its earliest cross-shard
        // or tapped arrival no sooner than `t + 1 (serialization floor) +
        // propagation`, so windows of this length never miss one.
        let lookahead = min_prop.saturating_add(1);

        // Carve the master network into shard slices.
        let now0 = self.queue.now();
        let states: Vec<ShardState> = (0..n)
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
                net.tapped =
                    if enabled { self.tapped.clone() } else { vec![false; self.tapped.len()] };
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
                ShardState { net, log: WindowLog::new(enabled) }
            })
            .collect();
        let cells: Vec<Mutex<ShardState>> = states.into_iter().map(Mutex::new).collect();

        // Distribute the pending root schedule: injections to their owning
        // shard, timers and chaos transitions back to the master queue.
        for (key, ev) in pending {
            match ev {
                Event::Inject { node, packet } => {
                    cells[owner[node.0] as usize]
                        .lock()
                        .expect("shard poisoned")
                        .net
                        .queue
                        .schedule(key, Event::Inject { node, packet });
                }
                ev => self.queue.schedule(key, ev),
            }
        }

        let mut report = ShardReport { shards: n, lookahead_ns: lookahead, ..Default::default() };
        let workers = window_workers(crate::par::cores(), crate::par::jobs_from_env(), n);
        let ctrl = Ctrl::default();
        std::thread::scope(|scope| {
            if workers > 1 {
                for w in 0..workers {
                    let range = worker_range(n, workers, w);
                    let (cells, ctrl) = (&cells, &ctrl);
                    scope.spawn(move || worker_loop(cells, range, ctrl));
                }
            }
            self.coordinate(hooks, until, &cells, owner, workers, &ctrl, &mut report);
            let mut g = ctrl.state.lock().expect("ctrl poisoned");
            g.quit = true;
            drop(g);
            ctrl.work.notify_all();
        });

        // Reassemble the master network from the shard slices.
        let mut final_now = self.queue.now();
        let mut leftovers: Vec<(EventKey, Event)> = Vec::new();
        for (s, cell) in cells.into_iter().enumerate() {
            let s = s as u32;
            let st = cell.into_inner().expect("shard poisoned");
            let Network { nodes, links, mut queue, stats, obs, mut pool, .. } = st.net;
            final_now = final_now.max(queue.now());
            leftovers.extend(queue.drain_sorted());
            add_net_stats(&mut self.stats, stats);
            self.obs.merge_from(&obs);
            self.pool.append(&mut pool);
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
        self.pool.truncate(PACKET_POOL_CAP);
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
    #[allow(clippy::too_many_arguments)] // internal plumbing of one run
    fn coordinate(
        &mut self,
        hooks: &mut dyn SimHooks,
        until: Option<SimTime>,
        cells: &[Mutex<ShardState>],
        owner: &[u32],
        workers: usize,
        ctrl: &Ctrl,
        report: &mut ShardReport,
    ) {
        let until_cap = until.map(|u| u.as_nanos().saturating_add(1)).unwrap_or(u64::MAX);
        let lookahead = report.lookahead_ns;
        loop {
            let mut t_shard = u64::MAX;
            let mut t_tap = u64::MAX;
            for cell in cells {
                let mut st = cell.lock().expect("shard poisoned");
                if let Some(t) = st.net.queue.peek_time() {
                    t_shard = t_shard.min(t.0);
                }
                if let Some(t) = st.net.splice.as_ref().expect("shard without splice").next_tap_time()
                {
                    t_tap = t_tap.min(t);
                }
            }
            let t_master = self.queue.peek_time().map(|t| t.0).unwrap_or(u64::MAX);
            let t = t_shard.min(t_master);
            if t >= until_cap || t == u64::MAX {
                break;
            }
            let cap = t.saturating_add(lookahead).min(t_master).min(t_tap).min(until_cap);
            if cap > t {
                report.windows += 1;
                run_windows(cells, cap, workers, ctrl);
                replay_window_hooks(self, cells, owner, hooks, report);
            } else {
                report.serial_phases += 1;
                self.serial_phase(hooks, cells, owner, t, report);
            }
            route_outboxes(cells, report);
        }
    }

    /// Dispatch every event at exactly instant `t`, one at a time in
    /// canonical key order across the master and all shard queues, with
    /// live hooks and immediate command routing — the sequential loop,
    /// narrowed to one instant. Commands that schedule new work at `t`
    /// are picked up within the same phase, exactly as sequential
    /// execution would.
    fn serial_phase(
        &mut self,
        hooks: &mut dyn SimHooks,
        cells: &[Mutex<ShardState>],
        owner: &[u32],
        t: u64,
        report: &mut ShardReport,
    ) {
        let mut cmds = Commands::default();
        loop {
            let mut best: Option<(EventKey, usize)> = self
                .queue
                .peek_key()
                .filter(|k| k.time.0 == t)
                .map(|k| (k, usize::MAX));
            for (i, cell) in cells.iter().enumerate() {
                let mut st = cell.lock().expect("shard poisoned");
                if let Some(k) = st.net.queue.peek_key() {
                    if k.time.0 == t && best.is_none_or(|(b, _)| k < b) {
                        best = Some((k, i));
                    }
                }
            }
            let Some((_, src)) = best else { break };
            if src == usize::MAX {
                let (key, ev) = self.queue.pop().expect("peeked event vanished");
                let chaos = if let Event::Chaos { action } = &ev { Some(*action) } else { None };
                self.dispatch(key.time, ev, hooks, &mut cmds);
                if let Some(action) = chaos {
                    // Fault state is replicated: every shard's copy of the
                    // affected element flips, but telemetry counts once
                    // (on the master, in `dispatch` above).
                    for cell in cells {
                        cell.lock().expect("shard poisoned").net.apply_chaos_quiet(action);
                    }
                }
            } else {
                let mut st = cells[src].lock().expect("shard poisoned");
                let (key, ev) = st.net.queue.pop().expect("peeked event vanished");
                if let Event::Arrive { link, .. } = &ev {
                    if st.net.tapped[link.0] {
                        let popped =
                            st.net.splice.as_mut().expect("shard without splice").tap_times.pop();
                        debug_assert_eq!(popped, Some(Reverse(key.time.0)));
                    }
                }
                st.net.dispatch(key.time, ev, hooks, &mut cmds);
            }
            if !cmds.items.is_empty() {
                route_commands(self, cells, owner, std::mem::take(&mut cmds.items), Some(SimTime(t)), report);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{window_workers, worker_range};

    /// The executor rule: an explicit job count wins on any box (the
    /// golden replays' `CAMPUSLAB_JOBS=4` rows must keep reaching the
    /// pool on two cores), an unset one means inline below four cores and
    /// one thread per core from there, and the shard count caps both.
    #[test]
    fn window_executor_is_inline_below_four_cores_unless_told() {
        for cores in 1..=3 {
            assert_eq!(window_workers(cores, None, 8), 1, "{cores} cores");
            assert_eq!(window_workers(cores, Some(4), 8), 4, "{cores} cores, JOBS=4");
            assert_eq!(window_workers(cores, Some(1), 8), 1);
        }
        assert_eq!(window_workers(4, None, 8), 4);
        assert_eq!(window_workers(16, None, 8), 8, "capped at the shard count");
        assert_eq!(window_workers(16, Some(1), 8), 1, "JOBS=1 stays inline on a wide box");
        assert_eq!(window_workers(2, Some(64), 8), 8);
        assert_eq!(window_workers(8, None, 1), 1);
        assert_eq!(window_workers(8, None, 0), 1, "no shards still means one thread");
    }

    /// Every `(n, workers)` combination with `workers <= n` must yield
    /// exactly `workers` non-empty ranges tiling `0..n`: `run_windows`
    /// waits for `workers` completions, so a skipped worker deadlocks the
    /// first parallel window (regression: ceil-chunking left the third of
    /// three workers empty at 4 shards, hanging any 3-core run).
    #[test]
    fn worker_ranges_tile_without_empties() {
        for n in 1..=32 {
            for workers in 1..=n {
                let mut next = 0;
                for w in 0..workers {
                    let r = worker_range(n, workers, w);
                    assert_eq!(r.start, next, "gap or overlap at n={n} workers={workers} w={w}");
                    assert!(!r.is_empty(), "empty range at n={n} workers={workers} w={w}");
                    next = r.end;
                }
                assert_eq!(next, n, "ranges do not cover 0..{n} with {workers} workers");
            }
        }
    }
}
