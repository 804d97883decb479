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
//! Three lanes back the queue:
//!
//! * `staged` — a sorted FIFO that absorbs monotone schedules in O(1).
//!   The entire pre-run injection schedule (tens of thousands of events,
//!   arriving sorted by time) lands here and never touches a heap.
//! * a timing wheel — fixed slots of 2^`GRAN_SHIFT` ns covering the
//!   next `SLOTS` × 2^`GRAN_SHIFT` ns. Mid-run schedules are overwhelmingly
//!   `now + (transmission + propagation)` with sub-millisecond deltas, so
//!   they insert in O(1) here; a slot is sorted only when the clock
//!   reaches it. A hierarchical occupancy bitmap finds the next busy slot
//!   in a handful of word scans.
//! * `far` — a 4-ary min-heap holding the overflow: events beyond the
//!   wheel horizon (WAN propagation, coarse timers). It stays tiny, so
//!   its log factor is irrelevant.

use crate::time::SimTime;

/// Heap arity for the far lane. Four children per node trades one extra
/// comparison per level for half the levels and fewer cache misses.
const ARITY: usize = 4;

/// Timing-wheel slot granularity: 2^10 ns ≈ 1 µs per slot.
const GRAN_SHIFT: u32 = 10;

/// Timing-wheel slot count (4096 slots ≈ 4.2 ms horizon).
const SLOTS: usize = 4096;

/// Words in the occupancy bitmap.
const WORDS: usize = SLOTS / 64;

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
    staged: std::collections::VecDeque<(EventKey, E)>,
    /// Sorted run drained from wheel slots the clock has reached.
    ready: std::collections::VecDeque<(EventKey, E)>,
    slots: Vec<Vec<(EventKey, E)>>,
    occ: [u64; WORDS],
    wheel_len: usize,
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
        EventQueue {
            staged: std::collections::VecDeque::new(),
            ready: std::collections::VecDeque::new(),
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            occ: [0; WORDS],
            wheel_len: 0,
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
        // Monotone schedules ride the sorted FIFO lane.
        if self.staged.back().is_none_or(|(back, _)| *back < key) {
            self.staged.push_back((key, event));
            return;
        }
        // Near-future events go to the wheel; the rest overflow to the
        // far heap. All pending events sit in [now, now + horizon), so
        // the circular slot mapping is unambiguous.
        let delta_slots = (key.time.0 >> GRAN_SHIFT) - (self.now.0 >> GRAN_SHIFT);
        if (delta_slots as usize) < SLOTS {
            let pos = ((key.time.0 >> GRAN_SHIFT) % SLOTS as u64) as usize;
            self.slots[pos].push((key, event));
            self.occ[pos / 64] |= 1u64 << (pos % 64);
            self.wheel_len += 1;
        } else {
            self.far.push((key, event));
            self.sift_up(self.far.len() - 1);
        }
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.settle();
        let best = [
            self.staged.front().map(|(k, _)| *k),
            self.ready.front().map(|(k, _)| *k),
            self.far.first().map(|(k, _)| *k),
        ]
        .into_iter()
        .flatten()
        .min()?;
        let entry = if self.staged.front().is_some_and(|(k, _)| *k == best) {
            self.staged.pop_front().expect("staged front vanished")
        } else if self.ready.front().is_some_and(|(k, _)| *k == best) {
            self.ready.pop_front().expect("ready front vanished")
        } else {
            let e = self.far.swap_remove(0);
            if !self.far.is_empty() {
                self.sift_down(0);
            }
            e
        };
        self.now = entry.0.time;
        Some(entry)
    }

    /// Key of the next event without popping it.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.settle();
        [
            self.staged.front().map(|(k, _)| *k),
            self.ready.front().map(|(k, _)| *k),
            self.far.first().map(|(k, _)| *k),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.peek_key().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.staged.len() + self.ready.len() + self.wheel_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every pending event, sorted by key.
    pub fn drain_sorted(&mut self) -> Vec<(EventKey, E)> {
        let mut all: Vec<(EventKey, E)> = self.staged.drain(..).collect();
        all.extend(self.ready.drain(..));
        for pos in 0..SLOTS {
            all.append(&mut self.slots[pos]);
        }
        self.occ = [0; WORDS];
        self.wheel_len = 0;
        all.append(&mut self.far);
        all.sort_unstable_by_key(|e| e.0);
        all
    }

    /// Drain wheel slots until the earliest undrained slot starts after
    /// the best candidate from the other lanes (or the wheel is empty).
    /// Afterwards the true minimum is at one of the three lane fronts.
    fn settle(&mut self) {
        while self.wheel_len > 0 {
            let cand = [
                self.staged.front().map(|(k, _)| k.time.0),
                self.ready.front().map(|(k, _)| k.time.0),
                self.far.first().map(|(k, _)| k.time.0),
            ]
            .into_iter()
            .flatten()
            .min();
            let now_blk = self.now.0 >> GRAN_SHIFT;
            let cur = (now_blk % SLOTS as u64) as usize;
            let pos = self.next_occupied(cur).expect("wheel_len > 0 but no occupied slot");
            let dist = (pos + SLOTS - cur) % SLOTS;
            let slot_start = (now_blk + dist as u64) << GRAN_SHIFT;
            if cand.is_some_and(|c| c < slot_start) {
                return;
            }
            let mut drained = std::mem::take(&mut self.slots[pos]);
            self.occ[pos / 64] &= !(1u64 << (pos % 64));
            self.wheel_len -= drained.len();
            drained.sort_unstable_by_key(|e| e.0);
            self.merge_ready(drained);
        }
    }

    /// Append a sorted run into `ready`, merging when runs interleave
    /// (only possible when an event was scheduled into the slot currently
    /// being drained — rare).
    fn merge_ready(&mut self, drained: Vec<(EventKey, E)>) {
        if drained.is_empty() {
            return;
        }
        if self.ready.back().is_none_or(|(k, _)| *k < drained[0].0) {
            self.ready.extend(drained);
            return;
        }
        let mut old: Vec<(EventKey, E)> = self.ready.drain(..).collect();
        let mut new = drained.into_iter().peekable();
        let mut oldi = old.drain(..).peekable();
        while let (Some(a), Some(b)) = (oldi.peek(), new.peek()) {
            if a.0 < b.0 {
                let e = oldi.next().expect("peeked");
                self.ready.push_back(e);
            } else {
                let e = new.next().expect("peeked");
                self.ready.push_back(e);
            }
        }
        self.ready.extend(oldi);
        self.ready.extend(new);
    }

    /// Next occupied wheel slot at or circularly after `cur`.
    fn next_occupied(&self, cur: usize) -> Option<usize> {
        let (w0, b0) = (cur / 64, cur % 64);
        let masked = self.occ[w0] & (!0u64 << b0);
        if masked != 0 {
            return Some(w0 * 64 + masked.trailing_zeros() as usize);
        }
        for step in 1..=WORDS {
            let w = (w0 + step) % WORDS;
            let mut bits = self.occ[w];
            if w == w0 {
                bits &= !(!0u64 << b0);
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
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
    fn far_future_overflows_the_wheel_and_comes_back_in_order() {
        let mut q = EventQueue::new();
        // Anchor the staged lane far out, then schedule out of order so
        // later entries exercise the heap (far) and the wheel (near).
        q.schedule(rk(20_000_000_000, 0), "staged");
        q.schedule(rk(10_000_000_000, 1), "far");
        q.schedule(rk(1_000, 2), "wheel-near");
        q.schedule(rk(4_000_000, 3), "wheel-mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["wheel-near", "wheel-mid", "far", "staged"]);
    }

    #[test]
    fn insertion_into_the_current_slot_still_sorts() {
        let mut q = EventQueue::new();
        q.schedule(rk(10_000_000, 0), 0u64);
        q.schedule(rk(500, 1), 1);
        let (k, e) = q.pop().unwrap();
        assert_eq!((k.time.0, e), (500, 1));
        // Same wheel slot as the popped event, scheduled after the slot
        // was already drained into `ready`.
        q.schedule(rk(600, 2), 2);
        q.schedule(rk(550, 3), 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [3, 2, 0]);
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

        #[test]
        fn pops_follow_canonical_key_order(
            specs in proptest::collection::vec(
                (0u64..20_000_000, 0u8..3, 0u32..8), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut keys = Vec::new();
            for (i, &(t, class, lane)) in specs.iter().enumerate() {
                let key = EventKey {
                    time: SimTime(t),
                    class,
                    lane: if class == CLASS_ROOT { 0 } else { lane },
                    seq: i as u64,
                };
                keys.push(key);
                q.schedule(key, i);
            }
            keys.sort_unstable();
            let popped: Vec<EventKey> =
                std::iter::from_fn(|| q.pop().map(|(k, _)| k)).collect();
            prop_assert_eq!(popped, keys);
        }
    }
}
