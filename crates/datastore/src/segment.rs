//! Time-partitioned storage segments: the store's physical layout.
//!
//! Every table is one `Chain` of **segments**. A segment is internally
//! sorted by `(start_ns, seq)` — `seq` being the table's ingest sequence
//! number, so records captured at the same nanosecond keep their capture
//! order deterministically — caches the bounds of its records' end
//! timestamps, and carries an index sidecar `I`. Flows, DNS metadata and
//! sensor events have none (`()`); the packet table's is a
//! `PacketIndex` of exact host/port/attack postings. A query plans as
//! *prune segments by span → let the sidecar narrow or prune → filter*,
//! and retention drops whole segments instead of compacting one flat
//! table.
//!
//! Batch ingest shards segment construction across worker threads with
//! [`campuslab_netsim::par::parallel_map_vec`]: each worker *owns* its
//! batch, sorts it in place and moves the records into segments, so the
//! parallel path allocates no more than the sequential one. Construction
//! of one batch's segments depends only on the batch and its pre-assigned
//! sequence range, so the resulting store is byte-identical at any worker
//! count (the same contract the experiment runner keeps, pinned by
//! `tests/par_ingest.rs`).

use crate::query::{PacketQuery, QueryStats};
use campuslab_capture::{DnsMetaRecord, FlowRecord, FxHashMap, PacketRecord, SensorRecord};
use campuslab_netsim::par;
use std::iter::Peekable;
use std::net::IpAddr;
use std::ops::Range;

/// Records per sealed segment. Small enough that a boundary truncation or
/// a single-segment scan stays cheap, large enough that segment metadata
/// (bounds, postings) amortizes.
pub const SEGMENT_CAPACITY: usize = 4096;

/// Global ordering key: start timestamp, then ingest sequence.
type Key = (u64, u64);

/// Record types the chain can order and prune by: a start timestamp (the
/// sort key) and an end timestamp (the retention key). Point records
/// have one timestamp for both, which is the default.
pub trait TimeSpan {
    fn start_ns(&self) -> u64;
    fn end_ns(&self) -> u64 {
        self.start_ns()
    }
}

impl TimeSpan for PacketRecord {
    fn start_ns(&self) -> u64 {
        self.ts_ns
    }
}

impl TimeSpan for FlowRecord {
    fn start_ns(&self) -> u64 {
        self.first_ts_ns
    }
    fn end_ns(&self) -> u64 {
        self.last_ts_ns
    }
}

impl TimeSpan for DnsMetaRecord {
    fn start_ns(&self) -> u64 {
        self.ts_ns
    }
}

impl TimeSpan for SensorRecord {
    fn start_ns(&self) -> u64 {
        self.ts_ns()
    }
}

// ---------------------------------------------------------------------------
// Segments and their index sidecar
// ---------------------------------------------------------------------------

/// What a segment keeps beside its records to answer queries faster than
/// a walk. It is told about every record as it lands and is rebuilt from
/// scratch, the same way, when retention truncates the segment.
pub(crate) trait Sidecar<T>: Default {
    /// `rec` is about to land at position `pos` of the segment.
    fn note(&mut self, pos: u32, rec: &T);
}

impl<T> Sidecar<T> for () {
    fn note(&mut self, _: u32, _: &T) {}
}

/// Read-only shape of one segment, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    pub records: usize,
    pub min_ts_ns: u64,
    pub max_ts_ns: u64,
}

/// One sealed (or still-filling) run of records sorted by
/// `(start_ns, seq)`, with cached end bounds and an index sidecar.
#[derive(Debug, Clone)]
pub(crate) struct Segment<T, I> {
    recs: Vec<T>,
    seqs: Vec<u64>,
    /// Smallest `end_ns` in the segment (retention fast path).
    min_end_ns: u64,
    /// Largest `end_ns` in the segment (retention / overlap pruning).
    max_end_ns: u64,
    index: I,
}

impl<T: TimeSpan, I: Sidecar<T>> Segment<T, I> {
    fn with_capacity(n: usize) -> Self {
        Segment {
            recs: Vec::with_capacity(n),
            seqs: Vec::with_capacity(n),
            min_end_ns: u64::MAX,
            max_end_ns: 0,
            index: I::default(),
        }
    }

    /// Append one record; the caller guarantees `(rec.start_ns(), seq)`
    /// is greater than every key already present.
    fn push(&mut self, rec: T, seq: u64) {
        debug_assert!(
            self.seqs.last().is_none_or(|&s| (self.max_start(), s) < (rec.start_ns(), seq)),
            "segment append out of (start, seq) order"
        );
        self.index.note(self.recs.len() as u32, &rec);
        self.min_end_ns = self.min_end_ns.min(rec.end_ns());
        self.max_end_ns = self.max_end_ns.max(rec.end_ns());
        self.recs.push(rec);
        self.seqs.push(seq);
    }

    fn min_start(&self) -> u64 {
        self.recs.first().map_or(0, |r| r.start_ns())
    }

    fn max_start(&self) -> u64 {
        self.recs.last().map_or(0, |r| r.start_ns())
    }
}

/// How many of the start-sorted `recs` start before `ns`.
fn starting_before<T: TimeSpan>(recs: &[T], ns: u64) -> usize {
    recs.partition_point(|rec| rec.start_ns() < ns)
}

/// What a segment offers a query after pruning: exact postings positions
/// (already window-sliced) or a contiguous record range.
pub(crate) enum Candidates<'a> {
    Positions(&'a [u32]),
    Range(Range<usize>),
}

/// The packet table's sidecar: exact in-segment postings by endpoint
/// address, by destination port, and for attack-labelled records. There
/// is no membership summary in front of them: a missing key in an
/// in-memory map *is* the prune (DESIGN.md §9).
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketIndex {
    by_host: FxHashMap<IpAddr, Vec<u32>>,
    by_port: FxHashMap<u16, Vec<u32>>,
    attack: Vec<u32>,
}

impl Sidecar<PacketRecord> for PacketIndex {
    fn note(&mut self, pos: u32, rec: &PacketRecord) {
        self.by_host.entry(rec.src).or_default().push(pos);
        if rec.dst != rec.src {
            self.by_host.entry(rec.dst).or_default().push(pos);
        }
        self.by_port.entry(rec.dst_port).or_default().push(pos);
        if rec.is_malicious() {
            self.attack.push(pos);
        }
    }
}

impl PacketIndex {
    /// Plan the contribution of the segment holding `recs` to `q`: the
    /// narrowest access path the query constrains, sliced to its window.
    /// `None` prunes the segment (absent key, or nothing in the window).
    /// The caller guarantees a non-inverted time window.
    fn candidates<'a>(&'a self, q: &PacketQuery, recs: &[PacketRecord]) -> Option<Candidates<'a>> {
        let time = q.time_ns.as_ref();
        let postings: &[u32] = if let Some(h) = q.host.or(q.src).or(q.dst) {
            self.by_host.get(&h)?
        } else if let Some(p) = q.dst_port {
            self.by_port.get(&p)?
        } else if q.malicious_only {
            &self.attack
        } else {
            let range = time.map_or(0..recs.len(), |r| {
                starting_before(recs, r.start)..starting_before(recs, r.end)
            });
            return (!range.is_empty()).then_some(Candidates::Range(range));
        };
        // Postings follow record order, so their timestamps are
        // non-decreasing and the window is a binary-searched slice.
        let pos = match time {
            None => postings,
            Some(r) => {
                let lo = postings.partition_point(|&i| recs[i as usize].ts_ns < r.start);
                let hi = postings.partition_point(|&i| recs[i as usize].ts_ns < r.end);
                &postings[lo..hi]
            }
        };
        (!pos.is_empty()).then_some(Candidates::Positions(pos))
    }
}

// ---------------------------------------------------------------------------
// The chain
// ---------------------------------------------------------------------------

/// One table: a chain of segments plus the table's sequence counter.
#[derive(Debug, Clone)]
pub(crate) struct Chain<T, I = ()> {
    segs: Vec<Segment<T, I>>,
    next_seq: u64,
}

impl<T, I> Default for Chain<T, I> {
    fn default() -> Self {
        Chain { segs: Vec::new(), next_seq: 0 }
    }
}

/// Pair a batch with its sequence numbers (capture order), then sort by
/// `(start_ns, seq)`. The sort is stable in effect: equal timestamps keep
/// ingest-arrival order because their seqs are already ascending.
fn sort_pairs<T: TimeSpan>(batch: Vec<T>, start_seq: u64) -> Vec<(T, u64)> {
    let mut pairs: Vec<(T, u64)> = batch.into_iter().zip(start_seq..).collect();
    pairs.sort_by_key(|(r, s)| (r.start_ns(), *s));
    pairs
}

/// Move one sorted batch into fresh segments, chunked at capacity.
fn seal<T: TimeSpan, I: Sidecar<T>>(pairs: Vec<(T, u64)>) -> Vec<Segment<T, I>> {
    let mut left = pairs.len();
    let mut pairs = pairs.into_iter();
    let mut segs = Vec::with_capacity(left.div_ceil(SEGMENT_CAPACITY));
    while left > 0 {
        let n = left.min(SEGMENT_CAPACITY);
        let mut seg = Segment::with_capacity(n);
        for (rec, seq) in pairs.by_ref().take(n) {
            seg.push(rec, seq);
        }
        segs.push(seg);
        left -= n;
    }
    segs
}

impl<T: TimeSpan, I: Sidecar<T>> Chain<T, I> {
    fn claim_seqs(&mut self, n: usize) -> u64 {
        let start = self.next_seq;
        self.next_seq += n as u64;
        start
    }

    /// Ingest one batch. Batches may arrive unsorted; the batch is sorted
    /// by `(start_ns, seq)` and either appended to the trailing segment
    /// (when it fits and does not travel back in time) or landed as fresh
    /// segments — never by re-sorting the whole table.
    pub fn ingest(&mut self, batch: Vec<T>) {
        if batch.is_empty() {
            return;
        }
        let start = self.claim_seqs(batch.len());
        let pairs = sort_pairs(batch, start);
        match self.segs.last_mut() {
            Some(last)
                if last.recs.len() + pairs.len() <= SEGMENT_CAPACITY
                    && pairs[0].0.start_ns() >= last.max_start() =>
            {
                for (rec, seq) in pairs {
                    last.push(rec, seq);
                }
            }
            _ => self.segs.extend(seal(pairs)),
        }
    }

    /// Ingest many batches, each as its own fresh segments, sharding the
    /// sort-and-index work across `workers` threads. Each batch owns a
    /// pre-assigned sequence range and builds its segments independently,
    /// so the chain is byte-identical at any worker count and appends in
    /// batch order.
    pub fn ingest_batches(&mut self, batches: Vec<Vec<T>>, workers: usize)
    where
        T: Send,
        I: Send,
    {
        let items: Vec<(Vec<T>, u64)> = batches
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|b| {
                let start = self.claim_seqs(b.len());
                (b, start)
            })
            .collect();
        let built = par::parallel_map_vec(items, workers, |_, (b, start)| seal(sort_pairs(b, start)));
        self.segs.extend(built.into_iter().flatten());
    }

    pub fn count(&self) -> usize {
        self.segs.iter().map(|s| s.recs.len()).sum()
    }

    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        self.segs
            .iter()
            .map(|s| SegmentStats {
                records: s.recs.len(),
                min_ts_ns: s.min_start(),
                max_ts_ns: s.max_start(),
            })
            .collect()
    }

    /// All records in global `(start_ns, seq)` order, each with the
    /// sequence number that breaks timestamp ties.
    pub fn iter_seq(&self) -> impl Iterator<Item = (u64, &T)> {
        let runs = self.segs.iter().map(|seg| {
            seg.recs.iter().zip(&seg.seqs).map(|(r, &seq)| ((r.start_ns(), seq), r))
        });
        ordered_iter(runs).map(|((_, seq), r)| (seq, r))
    }

    /// Indexed query: skip every segment whose span misses `time`, let
    /// `plan` narrow (or prune) each survivor, run `matches` over the
    /// candidates, and merge the hits into global order.
    ///
    /// No inverted-window special case here: overlap matching is
    /// `end >= start && start < end`, which a long-lived span can satisfy
    /// even when `time.start > time.end`, and the span prune stays sound
    /// for such ranges (pinned by the flow differential test).
    fn query<'a>(
        &'a self,
        time: Option<&Range<u64>>,
        limit: usize,
        plan: impl Fn(&'a Segment<T, I>) -> Option<Candidates<'a>>,
        matches: impl Fn(&T) -> bool,
    ) -> (Vec<&'a T>, QueryStats) {
        let mut stats = QueryStats { segments_total: self.segs.len(), ..QueryStats::default() };
        let mut lists: Vec<Vec<(Key, &T)>> = Vec::new();
        for seg in &self.segs {
            let outside =
                time.is_some_and(|r| seg.max_end_ns < r.start || seg.min_start() >= r.end);
            let Some(candidates) = (if outside { None } else { plan(seg) }) else {
                stats.segments_pruned += 1;
                continue;
            };
            let mut hits: Vec<(Key, &T)> = Vec::new();
            // Positions and ranges walk the same examine-filter loop; the
            // iterator erases which plan fed it.
            let positions: Box<dyn Iterator<Item = usize>> = match candidates {
                Candidates::Positions(ps) => Box::new(ps.iter().map(|&p| p as usize)),
                Candidates::Range(range) => Box::new(range),
            };
            for i in positions {
                if hits.len() >= limit {
                    break;
                }
                stats.records_examined += 1;
                let r = &seg.recs[i];
                if matches(r) {
                    hits.push(((r.start_ns(), seg.seqs[i]), r));
                }
            }
            lists.push(hits);
        }
        let runs = lists.iter().map(|hits| hits.iter().copied());
        let merged: Vec<&T> = ordered_iter(runs).take(limit).map(|(_, r)| r).collect();
        stats.hits = merged.len();
        (merged, stats)
    }

    /// Full linear scan in global order — the honest baseline every
    /// indexed query is differential-tested (and benchmarked) against.
    pub fn scan(&self, limit: usize, matches: impl Fn(&T) -> bool) -> (Vec<&T>, QueryStats) {
        let mut stats = QueryStats { segments_total: self.segs.len(), ..QueryStats::default() };
        let mut out = Vec::new();
        for (_, r) in self.iter_seq() {
            if out.len() >= limit {
                break;
            }
            stats.records_examined += 1;
            if matches(r) {
                out.push(r);
            }
        }
        stats.hits = out.len();
        (out, stats)
    }

    /// Retention by end timestamp: whole segments older than the cutoff
    /// drop in O(1) each; only segments straddling it are rebuilt from
    /// their survivors, sidecar included. Returns records dropped.
    pub fn retain_since(&mut self, cutoff_ns: u64) -> u64 {
        let mut dropped = 0;
        self.segs.retain_mut(|seg| {
            if seg.min_end_ns >= cutoff_ns {
                return true;
            }
            let before = seg.recs.len();
            if seg.max_end_ns < cutoff_ns {
                seg.recs.clear();
            } else {
                let old = std::mem::replace(seg, Segment::with_capacity(before));
                for (rec, seq) in old.recs.into_iter().zip(old.seqs) {
                    if rec.end_ns() >= cutoff_ns {
                        seg.push(rec, seq);
                    }
                }
            }
            dropped += (before - seg.recs.len()) as u64;
            !seg.recs.is_empty()
        });
        dropped
    }
}

impl<T: TimeSpan> Chain<T> {
    /// Overlap query over an unindexed table. Records are start-sorted,
    /// so each surviving segment stops at the first record starting past
    /// the window's end; it cannot skip the early starters, which may
    /// still end inside the window.
    pub fn query_overlap(
        &self,
        time: Option<&Range<u64>>,
        limit: usize,
        matches: impl Fn(&T) -> bool,
    ) -> (Vec<&T>, QueryStats) {
        let until = |recs: &[T]| time.map_or(recs.len(), |r| starting_before(recs, r.end));
        self.query(time, limit, |seg| Some(Candidates::Range(0..until(&seg.recs))), matches)
    }
}

impl Chain<PacketRecord, PacketIndex> {
    /// The packet planner: prune by time bounds, then by postings.
    pub fn query_packets(&self, q: &PacketQuery) -> (Vec<&PacketRecord>, QueryStats) {
        let time = q.time_ns.as_ref();
        // An inverted or empty window matches no point record; prune
        // everything before the binary-search slicing would slice
        // lo > hi. Queries are untrusted input.
        if time.is_some_and(|r| r.start >= r.end) {
            let all = self.segs.len();
            let stats =
                QueryStats { segments_total: all, segments_pruned: all, ..QueryStats::default() };
            return (Vec::new(), stats);
        }
        let limit = q.limit.unwrap_or(usize::MAX);
        self.query(time, limit, |seg| seg.index.candidates(q, &seg.recs), |r| q.matches(r))
    }
}

// ---------------------------------------------------------------------------
// Ordered merge machinery
// ---------------------------------------------------------------------------

/// Key-sorted runs merged into one key-ordered stream. Disjoint runs — the
/// overwhelmingly common case, since the chain seals segments in time
/// order — stream one after another; overlapping runs (out-of-order
/// ingest) fall back to a per-item minimum scan over the run heads.
pub(crate) struct OrderedIter<R: Iterator> {
    /// Non-empty runs, ascending by first key.
    runs: Vec<Peekable<R>>,
    disjoint: bool,
    /// The run being drained (disjoint case).
    run: usize,
}

fn ordered_iter<'a, T: 'a, R>(runs: impl Iterator<Item = R>) -> OrderedIter<R>
where
    R: DoubleEndedIterator<Item = (Key, &'a T)> + Clone,
{
    let mut runs: Vec<(Key, Key, R)> = runs
        .filter_map(|run| Some((run.clone().next()?.0, run.clone().next_back()?.0, run)))
        .collect();
    runs.sort_by_key(|(first, ..)| *first);
    let disjoint = runs.windows(2).all(|w| w[0].1 < w[1].0);
    OrderedIter { runs: runs.into_iter().map(|(.., run)| run.peekable()).collect(), disjoint, run: 0 }
}

impl<'a, T: 'a, R: Iterator<Item = (Key, &'a T)>> Iterator for OrderedIter<R> {
    type Item = (Key, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.disjoint {
            while let Some(run) = self.runs.get_mut(self.run) {
                if let Some(item) = run.next() {
                    return Some(item);
                }
                self.run += 1;
            }
            None
        } else {
            let heads = self.runs.iter_mut().enumerate();
            let (_, i) = heads.filter_map(|(i, run)| Some((run.peek()?.0, i))).min()?;
            self.runs[i].next()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};

    type PacketTable = Chain<PacketRecord, PacketIndex>;

    fn rec(ts: u64, host: u8, dport: u16, attack: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from([10, 0, 0, host]),
            dst: IpAddr::from([203, 0, 113, 1]),
            protocol: 17,
            src_port: 53,
            dst_port: dport,
            wire_len: 100,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 0,
            label_app: 1,
            label_attack: attack,
        }
    }

    #[test]
    fn batches_chunk_at_capacity() {
        let mut chain = PacketTable::default();
        let n = SEGMENT_CAPACITY * 2 + 100;
        chain.ingest((0..n as u64).map(|i| rec(i, 1, 80, 0)).collect());
        assert_eq!(chain.segment_count(), 3);
        assert_eq!(chain.count(), n);
        let stats = chain.segment_stats();
        assert_eq!(stats[0].records, SEGMENT_CAPACITY);
        assert_eq!(stats[2].records, 100);
        // Bounds tile the time axis without overlap.
        assert!(stats.windows(2).all(|w| w[0].max_ts_ns < w[1].min_ts_ns));
    }

    #[test]
    fn small_in_order_batches_share_the_open_segment() {
        let mut chain = PacketTable::default();
        for i in 0..10u64 {
            chain.ingest(vec![rec(i * 100, 1, 80, 0)]);
        }
        assert_eq!(chain.segment_count(), 1);
        assert_eq!(chain.count(), 10);
    }

    #[test]
    fn out_of_order_batch_opens_its_own_segment_and_merges_on_read() {
        let mut chain = PacketTable::default();
        chain.ingest(vec![rec(5_000, 1, 80, 0), rec(6_000, 2, 80, 0)]);
        chain.ingest(vec![rec(1_000, 3, 80, 0)]);
        assert_eq!(chain.segment_count(), 2);
        let ts: Vec<u64> = chain.iter_seq().map(|(_, r)| r.ts_ns).collect();
        assert_eq!(ts, vec![1_000, 5_000, 6_000]);
    }

    #[test]
    fn equal_timestamps_keep_capture_order() {
        let mut chain = PacketTable::default();
        // Two batches, all at ts=7: arrival (seq) order must survive.
        chain.ingest(vec![rec(7, 1, 80, 0), rec(7, 2, 80, 0)]);
        chain.ingest(vec![rec(7, 3, 80, 0)]);
        let hosts: Vec<u8> = chain
            .iter_seq()
            .map(|(_, r)| match r.src {
                IpAddr::V4(v) => v.octets()[3],
                IpAddr::V6(_) => unreachable!(),
            })
            .collect();
        assert_eq!(hosts, vec![1, 2, 3]);
        let seqs: Vec<u64> = chain.iter_seq().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn retention_drops_whole_segments_cheaply() {
        let mut chain = PacketTable::default();
        let n = SEGMENT_CAPACITY as u64 * 3;
        chain.ingest((0..n).map(|i| rec(i, 1, 80, 0)).collect());
        // Cut in the middle of segment 1: segment 0 drops whole, segment 1
        // truncates, segment 2 is untouched.
        let cutoff = SEGMENT_CAPACITY as u64 + SEGMENT_CAPACITY as u64 / 2;
        let dropped = chain.retain_since(cutoff);
        assert_eq!(dropped, cutoff);
        assert_eq!(chain.count() as u64, n - cutoff);
        assert_eq!(chain.segment_count(), 2);
        assert!(chain.iter_seq().all(|(_, r)| r.ts_ns >= cutoff));
    }

    #[test]
    fn chain_query_prunes_and_agrees_with_scan() {
        let mut chain = PacketTable::default();
        let n = SEGMENT_CAPACITY as u64 * 4;
        chain.ingest((0..n).map(|i| rec(i, (i % 50) as u8, (i % 7) as u16 + 440, u16::from(i % 90 == 0))).collect());
        let q = PacketQuery::for_host("10.0.0.13".parse().unwrap())
            .window(100, SEGMENT_CAPACITY as u64 + 200);
        let (hits, stats) = chain.query_packets(&q);
        let (scan, scan_stats) = chain.scan(usize::MAX, |r| q.matches(r));
        let a: Vec<u64> = hits.iter().map(|r| r.ts_ns).collect();
        let b: Vec<u64> = scan.iter().map(|r| r.ts_ns).collect();
        assert_eq!(a, b);
        assert!(stats.segments_pruned >= 2, "{stats:?}");
        assert!(stats.records_examined < scan_stats.records_examined / 10, "{stats:?} vs {scan_stats:?}");
    }

    #[test]
    fn unindexed_chain_prunes_by_overlap() {
        let mut chain: Chain<FlowRecord> = Chain::default();
        let mk = |first: u64, last: u64| FlowRecord {
            key: campuslab_capture::FlowKey {
                src: "10.1.1.1".parse().unwrap(),
                dst: "203.0.113.1".parse().unwrap(),
                protocol: 6,
                src_port: 40_000,
                dst_port: 443,
            },
            first_ts_ns: first,
            last_ts_ns: last,
            fwd_packets: 1,
            fwd_bytes: 100,
            rev_packets: 0,
            rev_bytes: 0,
            syn_count: 1,
            fin_count: 0,
            rst_count: 0,
            mean_iat_ns: 0,
            min_len: 60,
            max_len: 60,
            label_app: 1,
            label_attack: 0,
        };
        chain.ingest((0..100).map(|i| mk(i * 1_000, i * 1_000 + 500)).collect());
        let window = 10_000..20_000;
        let overlaps = |f: &FlowRecord| f.last_ts_ns >= window.start && f.first_ts_ns < window.end;
        let (hits, _) = chain.query_overlap(Some(&window), usize::MAX, overlaps);
        let (scan, _) = chain.scan(usize::MAX, overlaps);
        assert_eq!(hits.len(), scan.len());
        assert!(!hits.is_empty());
    }
}
