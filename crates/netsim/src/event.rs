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
//! Two lanes back the queue, and `pop` takes the lesser of their fronts:
//!
//! * `staged` — a sorted FIFO that absorbs monotone schedules in O(1).
//!   The entire pre-run injection schedule (hundreds of thousands of
//!   events, arriving sorted by time) lands here and never touches a heap.
//! * `far` — a 4-ary min-heap holding every other schedule: the
//!   mid-run `now + (transmission + propagation)` events. Only the
//!   packets in flight are pending at once, so it stays small (at most
//!   464 events over the ledger's campus day).
//!
//! A timing wheel (1 µs slots × 4,096, an occupancy bitmap, slots sorted
//! and merged as the clock reached them) used to sit between the two. It
//! lost on this traffic: the campus day averages 0.22 events per µs, so
//! nearly every slot drain — bitmap scan, sort, merge, two lane-minimum
//! passes — moved about one event, and every drained slot gave its
//! `Vec` capacity away, so almost every schedule re-allocated. Replaying
//! `sim_forward`'s full queue trace (6,568,782 schedules and pops) cost
//! 145–167 ns per event through the wheel against 69–72 ns through the
//! two lanes alone (DESIGN.md §11).

use crate::time::SimTime;

/// Heap arity for the far lane. Four children per node trades one extra
/// comparison per level for half the levels and fewer cache misses.
const ARITY: usize = 4;

/// Event class of root stimuli (injections, timers, chaos). Root events
/// are numbered by one per-network counter in program order.
pub const CLASS_ROOT: u8 = 0;

/// Event class of transmit-complete events (one per transmission).
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
    /// Sorted FIFO: each entry's key exceeds the one before it.
    staged: std::collections::VecDeque<(EventKey, E)>,
    /// 4-ary min-heap of every schedule that arrived out of order.
    far: Vec<(EventKey, E)>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { staged: std::collections::VecDeque::new(), far: Vec::new(), now: SimTime::ZERO }
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
        // Monotone schedules ride the sorted FIFO lane; the rest sift
        // into the heap.
        if self.staged.back().is_none_or(|(back, _)| *back < key) {
            self.staged.push_back((key, event));
        } else {
            self.far.push((key, event));
            self.sift_up(self.far.len() - 1);
        }
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.pop_if(|_| true)
    }

    /// Pop the earliest event if `accept` takes its key, advancing the
    /// clock; otherwise leave the queue untouched and return `None`.
    pub fn pop_if(&mut self, accept: impl FnOnce(EventKey) -> bool) -> Option<(EventKey, E)> {
        let (key, from_staged) = self.front()?;
        if !accept(key) {
            return None;
        }
        let entry = if from_staged { self.staged.pop_front() } else { self.pop_far() };
        self.now = key.time;
        entry
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
        self.staged.len() + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every pending event, sorted by key.
    pub fn drain_sorted(&mut self) -> Vec<(EventKey, E)> {
        let mut all: Vec<(EventKey, E)> = self.staged.drain(..).collect();
        all.append(&mut self.far);
        all.sort_unstable_by_key(|e| e.0);
        all
    }

    /// The least pending key, and whether it heads the staged lane.
    fn front(&self) -> Option<(EventKey, bool)> {
        match (self.staged.front(), self.far.first()) {
            (Some((s, _)), Some((f, _))) => Some(if s < f { (*s, true) } else { (*f, false) }),
            (Some((s, _)), None) => Some((*s, true)),
            (None, Some((f, _))) => Some((*f, false)),
            (None, None) => None,
        }
    }

    fn pop_far(&mut self) -> Option<(EventKey, E)> {
        if self.far.is_empty() {
            return None;
        }
        let top = self.far.swap_remove(0);
        self.sift_down(0);
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.far[i].0 < self.far[parent].0 {
                self.far.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.far.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let end = (first + ARITY).min(len);
            for c in first + 1..end {
                if self.far[c].0 < self.far[min].0 {
                    min = c;
                }
            }
            if self.far[min].0 < self.far[i].0 {
                self.far.swap(i, min);
                i = min;
            } else {
                break;
            }
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
        /// the staged lane still holding the up-front batch, the staged
        /// lane just emptied, and the queue refilled from `drain_sorted`
        /// mid-run (what a checkpoint does).
        #[test]
        fn pops_follow_canonical_key_order(
            batch in proptest::collection::vec((0u64..20_000_000, 0u8..3, 0u32..8), 1..300),
            ops in proptest::collection::vec((0u8..3, 0u64..50_000, 0u8..3, 0u32..8), 0..200)
        ) {
            let mut m = Model::default();
            for &(t, class, lane) in &batch {
                m.schedule(SimTime(t), class, lane);
            }
            prop_assert!(!m.q.staged.is_empty());
            m.interleave(&ops);
            while !m.q.staged.is_empty() {
                m.pop();
            }
            m.interleave(&ops);
            let drained: Vec<EventKey> = m.q.drain_sorted().into_iter().map(|(k, _)| k).collect();
            prop_assert!(m.q.is_empty());
            prop_assert_eq!(&drained, &m.pending.iter().copied().collect::<Vec<_>>());
            for key in drained {
                m.q.schedule(key, key.seq);
            }
            m.interleave(&ops);
            while m.pop().is_some() {}
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

        /// Op 0 pops; ops 1 and 2 schedule `delta` ns after the clock.
        fn interleave(&mut self, ops: &[(u8, u64, u8, u32)]) {
            for &(op, delta, class, lane) in ops {
                if op == 0 {
                    self.pop();
                } else {
                    self.schedule(SimTime(self.q.now().0 + delta), class, lane);
                }
            }
        }
    }
}
