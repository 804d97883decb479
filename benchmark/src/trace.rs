//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A workload wraps every call it times in [`Trace::span`]. The timed
//! region of an iteration is the union of its top-level spans; whatever
//! runs between them (temp-dir housekeeping, reference scans used only to
//! check an answer) is not measured. With recording off a span costs two
//! clock reads and nothing is kept, which is how end-to-end numbers are
//! taken; with recording on every span lands in a `Vec` that is written
//! out when the workload ends.

use campuslab::netsim::{
    Commands, Dir, DropReason, LinkId, Network, NodeId, Packet, SimDuration, SimHooks, SimTime,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Iteration the span belongs to; set-up spans carry run 0.
    pub run_id: u32,
}

/// Span recorder plus the wall-clock accumulator of the current iteration.
pub struct Trace {
    epoch: Instant,
    recording: bool,
    run_id: u32,
    spans: Vec<Span>,
    /// Indices of the currently open recorded spans, innermost last.
    open: Vec<u32>,
    depth: u32,
    wall: Duration,
    ops: u64,
    /// Named counts and derived values a workload reports beside its spans.
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new(recording: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            recording,
            run_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            wall: Duration::ZERO,
            ops: 0,
            values: BTreeMap::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn set_recording(&mut self, on: bool) {
        assert_eq!(self.depth, 0, "recording toggled inside a span");
        self.recording = on;
    }

    /// Start a new iteration: clears the wall/ops accumulators and moves
    /// later spans to a fresh `run_id`.
    pub fn begin_run(&mut self) {
        assert_eq!(self.depth, 0, "iteration started inside a span");
        self.run_id += 1;
        self.wall = Duration::ZERO;
        self.ops = 0;
    }

    /// Time `f` under `name`. Top-level spans add to the iteration's wall
    /// clock and count as one operation each.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let index = if self.recording {
            let index = self.spans.len() as u32;
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
                run_id: self.run_id,
            });
            self.open.push(index);
            Some(index)
        } else {
            None
        };
        self.depth += 1;
        let started = Instant::now();
        let out = f(self);
        let elapsed = started.elapsed();
        self.depth -= 1;
        if let Some(index) = index {
            self.open.pop();
            let span = &mut self.spans[index as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        if self.depth == 0 {
            self.wall += elapsed;
            self.ops += 1;
        }
        out
    }

    /// Record time a callee spent inside another layer as one aggregate
    /// child of the innermost open span, laid at that span's start. Used
    /// for hook callbacks, which interleave with the simulator thousands
    /// of times per run and are accumulated by [`TimedHooks`].
    pub fn child_busy(&mut self, name: &'static str, busy: Duration) {
        if !self.recording {
            return;
        }
        let parent = *self.open.last().expect("child_busy outside a span");
        let start_ns = self.spans[parent as usize].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            parent: Some(parent),
            run_id: self.run_id,
        });
    }

    /// Wall-clock of the current iteration so far (top-level spans only).
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Top-level spans of the current iteration so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Report a count or derived value; kept only while recording.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.values.insert(name, value);
        }
    }

    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&name, &value)| (name, value))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per span name, over every recorded span.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *by_name.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e9;
        }
        by_name
    }

    /// The span list as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run_id\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.run_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest, touch or overlap; covered
/// time is the length of the union of their intervals clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Wraps a hook set and accumulates the wall-clock spent inside its
/// callbacks, so a simulator run can be split into the event loop's own
/// time and the time of the layer riding on it.
pub struct TimedHooks<'h, H: SimHooks> {
    inner: &'h mut H,
    pub busy: Duration,
}

impl<'h, H: SimHooks> TimedHooks<'h, H> {
    pub fn new(inner: &'h mut H) -> Self {
        TimedHooks {
            inner,
            busy: Duration::ZERO,
        }
    }
}

impl<H: SimHooks> SimHooks for TimedHooks<'_, H> {
    fn on_tap(
        &mut self,
        now: SimTime,
        link: LinkId,
        dir: Dir,
        packet: &Packet,
        cmds: &mut Commands,
    ) {
        let started = Instant::now();
        self.inner.on_tap(now, link, dir, packet, cmds);
        self.busy += started.elapsed();
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: &Packet,
        latency: SimDuration,
        cmds: &mut Commands,
    ) {
        let started = Instant::now();
        self.inner.on_deliver(now, node, packet, latency, cmds);
        self.busy += started.elapsed();
    }

    fn on_drop(&mut self, now: SimTime, reason: DropReason, packet: &Packet, cmds: &mut Commands) {
        let started = Instant::now();
        self.inner.on_drop(now, reason, packet, cmds);
        self.busy += started.elapsed();
    }

    fn on_timer(&mut self, now: SimTime, token: u64, cmds: &mut Commands) {
        let started = Instant::now();
        self.inner.on_timer(now, token, cmds);
        self.busy += started.elapsed();
    }

    fn is_null(&self) -> bool {
        self.inner.is_null()
    }
}

/// Run `net` to completion under `hooks` inside a `netsim.run` span. While
/// recording, callback time is split out as a `hook_layer` child so the
/// span's self time is the event loop alone.
pub fn run_hooked<H: SimHooks>(
    t: &mut Trace,
    net: &mut Network,
    hooks: &mut H,
    hook_layer: &'static str,
) {
    t.span("netsim.run", |t| {
        if t.recording() {
            let mut timed = TimedHooks::new(hooks);
            net.run(&mut timed, None);
            t.child_busy(hook_layer, timed.busy);
        } else {
            net.run(hooks, None);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            run_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,60) > b [20,30)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_handles_adjacent_children() {
        let spans = [
            span(0, 100, None),
            span(0, 40, Some(0)),
            span(40, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![0, 40, 60]);
    }

    #[test]
    fn self_time_counts_overlapping_children_as_their_union() {
        // [10,50) and [30,70) cover [10,70); [20,25) hides inside them.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(20, 25, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 3);
    }

    #[test]
    fn wall_is_the_sum_of_top_level_spans_only() {
        let mut t = Trace::new(true);
        t.begin_run();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        std::thread::sleep(Duration::from_millis(5));
        t.span("second", |_| ());
        assert_eq!(t.ops(), 2);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let top: u64 = t
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(t.wall().as_nanos() as u64, top);
        assert!(
            t.wall() < Duration::from_millis(5),
            "gap between spans was timed"
        );
    }

    #[test]
    fn nothing_is_kept_with_recording_off() {
        let mut t = Trace::new(false);
        t.begin_run();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.child_busy("hook", Duration::from_millis(1));
        });
        t.set("count", 3.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.values().count(), 0);
        assert_eq!(t.ops(), 1);
        assert!(t.wall() > Duration::ZERO);
    }

    #[test]
    fn child_busy_becomes_a_child_of_the_open_span() {
        let mut t = Trace::new(true);
        t.span("run", |t| {
            std::thread::sleep(Duration::from_millis(3));
            t.child_busy("hook", Duration::from_millis(1));
        });
        let own = t.self_seconds();
        assert!((own["hook"] - 0.001).abs() < 1e-9);
        assert!(own["run"] >= 0.002 - 1e-9);
        assert!(t.to_json().contains("\"name\":\"hook\""));
    }
}
