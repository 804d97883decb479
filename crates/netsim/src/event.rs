//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Every event carries an explicit [`EventKey`] assigned by the network at
//! schedule time. The key — `(time, class, lane, seq)` compared
//! lexicographically — is a *canonical* total order: it depends only on the
//! causal structure of the simulation (which transmission on which link
//! direction, which root stimulus), never on scheduler internals. That is
//! the property the sharded engine leans on: a run split across N shard
//! queues pops the union of events in exactly the order a single queue
//! would, so sequential and sharded execution stay byte-identical.
//!
//! Three parts back the queue, and `pop` takes the least of their fronts:
//!
//! * `staged` — a sorted FIFO of root events that absorbs monotone
//!   schedules in O(1). The entire pre-run injection schedule (hundreds
//!   of thousands of events, arriving sorted by time) lands here and
//!   never touches a heap.
//! * `lanes` — one sorted FIFO per packet lane, indexed
//!   `lane * 2 + class - 1` for [`CLASS_TX_DONE`] and [`CLASS_ARRIVE`].
//!   A link direction's events are already in key order: transmission
//!   k+1 starts no earlier than transmission k leaves the wire, so its
//!   transmit-complete and (under the same propagation delay) its arrival
//!   come later, and `seq` grows per lane. A 4-ary min-heap, `heads`,
//!   holds only each non-empty FIFO's front key; popping from a lane
//!   rewrites the top of `heads` and sifts it down once. The heap is as
//!   large as the number of busy lanes, not the number of packets in
//!   flight.
//! * `far` — a 4-ary min-heap of every schedule that is not above the
//!   tail of its FIFO: timers and injections scheduled mid-run behind the
//!   staged schedule, and a packet event that lands before its lane's
//!   tail (a propagation delay shortened mid-run).
//!
//! Neither a timing wheel nor one heap of every packet event does better
//! on this traffic: the campus day averages 0.22 events per µs, so a 1 µs
//! wheel drains about one event per slot, and one heap sifts over every
//! packet in flight (150 on average) where the heap of lane fronts holds
//! 11 (DESIGN.md §11 has the replay figures).

use crate::time::SimTime;
use std::collections::VecDeque;

/// Arity of the `heads` and `far` heaps. Four children per node trades
/// one extra comparison per level for half the levels and fewer cache
/// misses.
const ARITY: usize = 4;

/// Slots a lane FIFO holds from its first event on.
const LANE_SLOTS: usize = 32;

/// Event class of root stimuli (injections, timers, chaos). Root events
/// are numbered by one per-network counter in program order.
pub const CLASS_ROOT: u8 = 0;

/// Event class of transmit-complete events: one per transmission that a
/// packet waits behind, none where the queue is empty when it starts.
pub const CLASS_TX_DONE: u8 = 1;

/// Event class of arrival events (one per transmission, after the wire).
pub const CLASS_ARRIVE: u8 = 2;

/// The canonical identity and ordering of one scheduled event.
///
/// Keys order lexicographically by `(time, class, lane, seq)`:
///
/// * `time` — when the event fires.
/// * `class` — [`CLASS_ROOT`] < [`CLASS_TX_DONE`] < [`CLASS_ARRIVE`],
///   so at one instant stimuli precede transmitter completions precede
///   deliveries, mirroring the causal order a sequential run produces.
/// * `lane` — `0` for root events, `link * 2 + direction` for packet
///   events; ties across lanes break by lane id.
/// * `seq` — the per-lane ordinal: the root-event counter for class 0,
///   the link direction's transmission counter otherwise.
///
/// Two distinct events never compare equal: root seqs are unique within
/// class 0, and a direction's transmission counter is unique within each
/// (class, lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct EventKey {
    /// Fire time.
    pub time: SimTime,
    /// Event class (see [`CLASS_ROOT`] and friends).
    pub class: u8,
    /// Per-class lane id.
    pub lane: u32,
    /// Per-lane sequence number.
    pub seq: u64,
}

impl EventKey {
    /// Key for a root stimulus (inject / timer / chaos).
    #[inline]
    pub fn root(time: SimTime, seq: u64) -> Self {
        EventKey { time, class: CLASS_ROOT, lane: 0, seq }
    }

    /// Key for the transmit-complete of transmission `seq` on `lane`.
    #[inline]
    pub fn tx_done(time: SimTime, lane: u32, seq: u64) -> Self {
        EventKey { time, class: CLASS_TX_DONE, lane, seq }
    }

    /// Key for the arrival of transmission `seq` on `lane`.
    #[inline]
    pub fn arrive(time: SimTime, lane: u32, seq: u64) -> Self {
        EventKey { time, class: CLASS_ARRIVE, lane, seq }
    }
}

/// A deterministic future-event list ordered by [`EventKey`].
pub struct EventQueue<E> {
    /// Sorted FIFO of root events: each entry's key exceeds the one
    /// before it.
    staged: VecDeque<(EventKey, E)>,
    /// One sorted FIFO per packet lane, indexed by [`fifo_index`].
    lanes: Vec<VecDeque<(EventKey, E)>>,
    /// 4-ary min-heap of the front key of every non-empty lane FIFO.
    heads: Vec<EventKey>,
    /// Entries across all lane FIFOs.
    in_lanes: usize,
    /// 4-ary min-heap of every schedule not above its FIFO's tail.
    far: Vec<(EventKey, E)>,
    now: SimTime,
}

/// The part of the queue an entry sits in.
#[derive(Clone, Copy)]
enum Part {
    Staged,
    Lanes,
    Far,
}

/// The lane FIFO a packet-event key belongs to.
#[inline]
fn fifo_index(key: &EventKey) -> usize {
    key.lane as usize * 2 + usize::from(key.class) - 1
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            staged: VecDeque::new(),
            lanes: Vec::new(),
            heads: Vec::new(),
            in_lanes: 0,
            far: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Force the clock (used when handing a queue between engines).
    pub(crate) fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Schedule `event` under `key`. Scheduling in the past is a logic
    /// error; the event is clamped to `now` and fires immediately, which
    /// keeps the clock monotone (and is asserted in debug builds).
    pub fn schedule(&mut self, mut key: EventKey, event: E) {
        debug_assert!(key.time >= self.now, "event scheduled in the past");
        key.time = key.time.max(self.now);
        // A schedule above its FIFO's tail joins that FIFO; the rest sift
        // into the far heap.
        if key.class == CLASS_ROOT {
            if self.staged.back().is_none_or(|(back, _)| *back < key) {
                return self.staged.push_back((key, event));
            }
        } else {
            let i = fifo_index(&key);
            if i >= self.lanes.len() {
                self.lanes.resize_with(i + 1, VecDeque::new);
            }
            let fifo = &mut self.lanes[i];
            if fifo.back().is_none_or(|(back, _)| *back < key) {
                if fifo.is_empty() {
                    heap_push(&mut self.heads, key);
                    // One allocation sized for a busy lane, instead of
                    // regrowing through 4, 8 and 16 slots: with glibc's
                    // malloc, those small blocks freed mid-run among the
                    // packets left the heap fragmented enough to raise a
                    // later learning phase's peak RSS by 11 MB.
                    fifo.reserve(LANE_SLOTS);
                }
                fifo.push_back((key, event));
                self.in_lanes += 1;
                return;
            }
        }
        heap_push(&mut self.far, (key, event));
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.pop_if(|_| true)
    }

    /// Pop the earliest event if `accept` takes its key, advancing the
    /// clock; otherwise leave the queue untouched and return `None`.
    pub fn pop_if(&mut self, accept: impl FnOnce(EventKey) -> bool) -> Option<(EventKey, E)> {
        let (key, part) = self.front()?;
        if !accept(key) {
            return None;
        }
        self.now = key.time;
        self.take(part)
    }

    /// Key of the next event without popping it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.front().map(|(key, _)| key)
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.staged.len() + self.in_lanes + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every pending event, sorted by key.
    pub fn drain_sorted(&mut self) -> Vec<(EventKey, E)> {
        let mut all: Vec<(EventKey, E)> = Vec::with_capacity(self.len());
        all.extend(self.staged.drain(..));
        for fifo in &mut self.lanes {
            all.extend(fifo.drain(..));
        }
        all.append(&mut self.far);
        self.heads.clear();
        self.in_lanes = 0;
        all.sort_unstable_by_key(|e| e.0);
        all
    }

    /// Every pending entry, in key order, left in place: the staged FIFO
    /// is already sorted, so only the lane FIFOs and the far heap, which
    /// hold the events in flight, are sorted before the merge.
    pub(crate) fn sorted(&self) -> Vec<&(EventKey, E)> {
        let mut rest: Vec<&(EventKey, E)> = self.lanes.iter().flatten().chain(&self.far).collect();
        rest.sort_unstable_by_key(|e| e.0);
        let mut all = Vec::with_capacity(self.len());
        let mut rest = rest.into_iter().peekable();
        for staged in &self.staged {
            while let Some(r) = rest.next_if(|r| r.0 < staged.0) {
                all.push(r);
            }
            all.push(staged);
        }
        all.extend(rest);
        all
    }

    /// Drop every pending event but the `keep` greatest, leaving the
    /// clock where it is.
    pub(crate) fn keep_last(&mut self, keep: usize) {
        while self.len() > keep {
            let Some((_, part)) = self.front() else { break };
            drop(self.take(part));
        }
    }

    /// The least pending key, and the part it heads.
    #[inline]
    fn front(&self) -> Option<(EventKey, Part)> {
        let mut best = self.staged.front().map(|e| (e.0, Part::Staged));
        for (key, part) in [(self.heads.first(), Part::Lanes), (self.far.first().map(|e| &e.0), Part::Far)] {
            if let Some(&key) = key {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, part));
                }
            }
        }
        best
    }

    /// Remove the entry heading `part`.
    #[inline]
    fn take(&mut self, part: Part) -> Option<(EventKey, E)> {
        match part {
            Part::Staged => self.staged.pop_front(),
            Part::Lanes => {
                let head = *self.heads.first()?;
                let fifo = &mut self.lanes[fifo_index(&head)];
                let entry = fifo.pop_front();
                match fifo.front() {
                    Some((next, _)) => self.heads[0] = *next,
                    None => drop(self.heads.swap_remove(0)),
                }
                sift_down(&mut self.heads, 0);
                self.in_lanes -= 1;
                entry
            }
            Part::Far => {
                if self.far.is_empty() {
                    return None;
                }
                let top = self.far.swap_remove(0);
                sift_down(&mut self.far, 0);
                Some(top)
            }
        }
    }
}

/// An element of a 4-ary heap ordered by its [`EventKey`].
trait Keyed {
    fn key(&self) -> &EventKey;
}

impl Keyed for EventKey {
    #[inline]
    fn key(&self) -> &EventKey {
        self
    }
}

impl<E> Keyed for (EventKey, E) {
    #[inline]
    fn key(&self) -> &EventKey {
        &self.0
    }
}

fn heap_push<T: Keyed>(heap: &mut Vec<T>, item: T) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[i].key() < heap[parent].key() {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn sift_down<T: Keyed>(heap: &mut [T], mut i: usize) {
    let len = heap.len();
    loop {
        let first = i * ARITY + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let end = (first + ARITY).min(len);
        for c in first + 1..end {
            if heap[c].key() < heap[min].key() {
                min = c;
            }
        }
        if heap[min].key() < heap[i].key() {
            heap.swap(i, min);
            i = min;
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rk(t: u64, seq: u64) -> EventKey {
        EventKey::root(SimTime(t), seq)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(rk(30_000_000, 0), "c");
        q.schedule(rk(10_000_000, 1), "a");
        q.schedule(rk(20_000_000, 2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u64 {
            q.schedule(EventKey::root(t, i), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn class_orders_within_one_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        q.schedule(EventKey::arrive(t, 3, 0), "arrive");
        q.schedule(EventKey::root(t, 9), "root");
        q.schedule(EventKey::tx_done(t, 3, 0), "txdone");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["root", "txdone", "arrive"]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(rk(2_000_000_000, 0), ());
        q.schedule(rk(1_000_000_000, 1), ());
        let (k1, _) = q.pop().unwrap();
        assert_eq!(q.now(), k1.time);
        let (k2, _) = q.pop().unwrap();
        assert!(k2.time >= k1.time);
        assert_eq!(q.now(), k2.time);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(rk(0, 0), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_if_leaves_a_rejected_front_in_place() {
        let mut q = EventQueue::new();
        q.schedule(rk(20, 0), "staged");
        q.schedule(rk(10, 1), "far");
        assert!(q.pop_if(|k| k.time.0 < 10).is_none());
        assert_eq!((q.len(), q.now()), (2, SimTime::ZERO));
        assert_eq!(q.pop_if(|k| k.time.0 <= 10).map(|(_, e)| e), Some("far"));
        assert_eq!(q.now(), SimTime(10));
        assert!(q.pop_if(|k| k.time.0 <= 10).is_none());
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        assert_eq!(q.pop_if(|_| true).map(|(_, e)| e), Some("staged"));
        assert!(q.pop_if(|_| true).is_none());
    }

    #[test]
    fn drain_sorted_returns_everything_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule(rk(30, 0), 0u64);
        q.schedule(EventKey::tx_done(SimTime(10), 4, 7), 1);
        q.schedule(EventKey::arrive(SimTime(10), 4, 7), 2);
        q.schedule(rk(10_000_000_000, 3), 3);
        let drained = q.drain_sorted();
        assert!(q.is_empty());
        let keys: Vec<EventKey> = drained.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(drained.iter().map(|(_, e)| *e).collect::<Vec<u64>>(), [1, 2, 0, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn popped_times_are_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(EventKey::root(SimTime(t), i as u64), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((k, _)) = q.pop() {
                prop_assert!(k.time >= last);
                last = k.time;
            }
        }

        #[test]
        fn all_events_come_back(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(EventKey::root(SimTime(t), i as u64), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }

        /// Pops follow the sorted order of every key pending, with pops
        /// interleaved with schedules at `now` or later in three states:
        /// the up-front batch still pending, the batch just popped, and
        /// the queue refilled from `drain_sorted` mid-run (what the
        /// sharded engine's reassembly does). The schedules mix arbitrary
        /// keys, packet keys above their lane's tail (a lane FIFO) and
        /// packet keys below it (the far heap). `sorted` lists the same
        /// order in place, and `keep_last` leaves exactly the greatest
        /// keys (what a restore does); both run, and `drain_sorted` with
        /// them, while the staged FIFO, a lane FIFO and the far heap all
        /// hold entries.
        #[test]
        fn pops_follow_canonical_key_order(
            batch in proptest::collection::vec((0u64..20_000_000, 0u8..3, 0u32..8), 1..300),
            ops in proptest::collection::vec((0u8..5, 0u64..50_000, 0u8..3, 0u32..8), 0..200)
        ) {
            let mut m = Model::default();
            for &(t, class, lane) in &batch {
                m.schedule(SimTime(t), class, lane);
            }
            prop_assert_eq!(m.q.len(), batch.len());
            prop_assert_eq!(m.q.peek_key(), m.pending.first().copied());
            let batch_last = m.pending.last().copied();
            m.interleave(&ops);
            while m.q.peek_key().is_some_and(|k| Some(k) <= batch_last) {
                m.pop();
            }
            m.interleave(&ops);
            m.fill_every_part();
            let listed: Vec<EventKey> = m.q.sorted().into_iter().map(|(k, _)| *k).collect();
            let drained: Vec<EventKey> = m.q.drain_sorted().into_iter().map(|(k, _)| k).collect();
            prop_assert!(m.q.is_empty());
            prop_assert_eq!(&drained, &m.pending.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(&listed, &drained);
            for key in drained {
                m.q.schedule(key, key.seq);
            }
            m.interleave(&ops);
            m.fill_every_part();
            let keep = m.pending.len() / 2;
            while m.pending.len() > keep {
                m.pending.pop_first();
            }
            m.q.keep_last(keep);
            prop_assert_eq!(m.q.peek_key(), m.pending.first().copied());
            while m.pop().is_some() {}
        }
    }

    impl<E> EventQueue<E> {
        /// Entries in the staged FIFO, the lane FIFOs and the far heap,
        /// after checking that `in_lanes` counts the lane FIFOs and
        /// `heads` holds exactly their fronts.
        fn parts(&self) -> [usize; 3] {
            let mut fronts: Vec<EventKey> = self.lanes.iter().filter_map(|f| f.front().map(|e| e.0)).collect();
            let mut heads = self.heads.clone();
            fronts.sort_unstable();
            heads.sort_unstable();
            assert_eq!(fronts, heads);
            assert_eq!(self.in_lanes, self.lanes.iter().map(VecDeque::len).sum::<usize>());
            [self.staged.len(), self.in_lanes, self.far.len()]
        }
    }

    /// An [`EventQueue`] beside a sorted reference of the keys it holds.
    #[derive(Default)]
    struct Model {
        q: EventQueue<u64>,
        pending: std::collections::BTreeSet<EventKey>,
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, time: SimTime, class: u8, lane: u32) {
            let lane = if class == CLASS_ROOT { 0 } else { lane };
            let key = EventKey { time, class, lane, seq: self.next_seq };
            self.next_seq += 1;
            self.pending.insert(key);
            self.q.schedule(key, key.seq);
        }

        /// The greatest pending key of `(class, lane)`.
        fn tail(&self, class: u8, lane: u32) -> Option<EventKey> {
            self.pending.iter().rev().find(|k| k.class == class && k.lane == lane).copied()
        }

        /// Pop one event and check it against the reference minimum.
        fn pop(&mut self) -> Option<EventKey> {
            let popped = self.q.pop().map(|(k, e)| {
                assert_eq!(k.seq, e, "event separated from its key");
                k
            });
            assert_eq!(popped, self.pending.pop_first());
            assert_eq!(self.q.len(), self.pending.len());
            popped
        }

        /// Op 0 pops; ops 1 and 2 schedule `delta` ns after the clock;
        /// op 3 schedules a packet key `delta` ns after its lane's tail
        /// and op 4 one between the clock and that tail.
        fn interleave(&mut self, ops: &[(u8, u64, u8, u32)]) {
            for &(op, delta, class, lane) in ops {
                let now = self.q.now().0;
                let class = if op >= 3 { class.max(CLASS_TX_DONE) } else { class };
                let tail = self.tail(class, lane).map_or(now, |k| k.time.0);
                let time = match op {
                    0 => {
                        self.pop();
                        continue;
                    }
                    3 => tail.max(now) + delta,
                    4 if tail > now => now + delta % (tail - now),
                    _ => now + delta,
                };
                self.schedule(SimTime(time), class, lane);
            }
        }

        /// Schedule one key into each part: a root key above every key
        /// pending (staged), and on a lane no op uses, a key above the
        /// clock (its FIFO) and one at the clock, below it (far).
        fn fill_every_part(&mut self) {
            let now = self.q.now().0;
            let last = self.pending.last().map_or(now, |k| k.time.0);
            self.schedule(SimTime(last + 1), CLASS_ROOT, 0);
            self.schedule(SimTime(now + 1), CLASS_ARRIVE, 8);
            self.schedule(SimTime(now), CLASS_ARRIVE, 8);
            assert!(self.q.parts().iter().all(|&n| n > 0), "parts {:?}", self.q.parts());
        }
    }
}
