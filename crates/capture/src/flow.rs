//! Flow assembly: aggregates captured packets into bidirectional
//! [`FlowRecord`]s with idle/active timeouts and FIN/RST fast paths.

use crate::fxhash::FxHashMap;
use crate::records::{FlowKey, FlowRecord, PacketRecord};

/// Flow table sizing and timeout policy.
#[derive(Debug, Clone, Copy)]
pub struct FlowTableConfig {
    /// Evict a flow after this long without a packet.
    pub idle_timeout_ns: u64,
    /// Evict (and restart) a flow after this total age, so elephants still
    /// show up periodically.
    pub active_timeout_ns: u64,
    /// Hard cap on tracked flows; beyond it the oldest flow is evicted.
    pub max_flows: usize,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            idle_timeout_ns: 15_000_000_000,   // 15 s
            active_timeout_ns: 120_000_000_000, // 2 min
            max_flows: 1_000_000,
        }
    }
}

#[derive(Debug)]
struct FlowState {
    forward: FlowKey,
    first_ts_ns: u64,
    last_ts_ns: u64,
    fwd_packets: u64,
    fwd_bytes: u64,
    rev_packets: u64,
    rev_bytes: u64,
    syn_count: u32,
    fin_count: u32,
    rst_count: u32,
    iat_sum_ns: u64,
    min_len: u32,
    max_len: u32,
    /// Label votes: (app, attack) -> count. Majority wins at emission.
    label_votes: FxHashMap<(u16, u16), u64>,
}

impl FlowState {
    fn new(rec: &PacketRecord) -> Self {
        let mut votes = FxHashMap::default();
        votes.insert((rec.label_app, rec.label_attack), 1);
        FlowState {
            forward: rec.flow_key(),
            first_ts_ns: rec.ts_ns,
            last_ts_ns: rec.ts_ns,
            fwd_packets: 1,
            fwd_bytes: u64::from(rec.wire_len),
            rev_packets: 0,
            rev_bytes: 0,
            syn_count: u32::from(rec.tcp_flags.syn),
            fin_count: u32::from(rec.tcp_flags.fin),
            rst_count: u32::from(rec.tcp_flags.rst),
            iat_sum_ns: 0,
            min_len: rec.wire_len,
            max_len: rec.wire_len,
            label_votes: votes,
        }
    }

    fn update(&mut self, rec: &PacketRecord) {
        let key = rec.flow_key();
        if key == self.forward {
            self.fwd_packets += 1;
            self.fwd_bytes += u64::from(rec.wire_len);
        } else {
            self.rev_packets += 1;
            self.rev_bytes += u64::from(rec.wire_len);
        }
        self.iat_sum_ns += rec.ts_ns.saturating_sub(self.last_ts_ns);
        self.last_ts_ns = self.last_ts_ns.max(rec.ts_ns);
        self.syn_count += u32::from(rec.tcp_flags.syn);
        self.fin_count += u32::from(rec.tcp_flags.fin);
        self.rst_count += u32::from(rec.tcp_flags.rst);
        self.min_len = self.min_len.min(rec.wire_len);
        self.max_len = self.max_len.max(rec.wire_len);
        *self
            .label_votes
            .entry((rec.label_app, rec.label_attack))
            .or_insert(0) += 1;
    }

    fn into_record(self) -> FlowRecord {
        let total = self.fwd_packets + self.rev_packets;
        let (&(label_app, label_attack), _) = self
            .label_votes
            .iter()
            .max_by_key(|(labels, count)| (**count, std::cmp::Reverse(**labels)))
            .expect("flow has at least one packet");
        FlowRecord {
            key: self.forward,
            first_ts_ns: self.first_ts_ns,
            last_ts_ns: self.last_ts_ns,
            fwd_packets: self.fwd_packets,
            fwd_bytes: self.fwd_bytes,
            rev_packets: self.rev_packets,
            rev_bytes: self.rev_bytes,
            syn_count: self.syn_count,
            fin_count: self.fin_count,
            rst_count: self.rst_count,
            mean_iat_ns: if total > 1 { self.iat_sum_ns / (total - 1) } else { 0 },
            min_len: self.min_len,
            max_len: self.max_len,
            label_app,
            label_attack,
        }
    }
}

/// The flow table.
pub struct FlowTable {
    cfg: FlowTableConfig,
    active: FxHashMap<FlowKey, FlowState>,
    emitted: Vec<FlowRecord>,
}

impl FlowTable {
    /// An empty table.
    pub fn new(cfg: FlowTableConfig) -> Self {
        FlowTable {
            cfg,
            active: FxHashMap::default(),
            emitted: Vec::new(),
        }
    }

    /// Feed one captured packet.
    pub fn observe(&mut self, rec: &PacketRecord) {
        let key = rec.flow_key().canonical();
        match self.active.get_mut(&key) {
            Some(state) => {
                state.update(rec);
                // TCP teardown fast path: a RST or a FIN from each side
                // ends the conversation.
                let done = state.rst_count > 0 || state.fin_count >= 2;
                let too_old = state.last_ts_ns.saturating_sub(state.first_ts_ns)
                    >= self.cfg.active_timeout_ns;
                if done || too_old {
                    let state = self.active.remove(&key).expect("present");
                    self.emitted.push(state.into_record());
                }
            }
            None => {
                if self.active.len() >= self.cfg.max_flows {
                    self.evict_oldest();
                }
                self.active.insert(key, FlowState::new(rec));
            }
        }
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self
            .active
            .iter()
            .min_by_key(|(_, s)| s.last_ts_ns)
        {
            let state = self.active.remove(&key).expect("present");
            self.emitted.push(state.into_record());
        }
    }

    /// Evict flows idle longer than the timeout as of `now_ns`.
    pub fn poll(&mut self, now_ns: u64) {
        let idle = self.cfg.idle_timeout_ns;
        let expired: Vec<FlowKey> = self
            .active
            .iter()
            .filter(|(_, s)| now_ns.saturating_sub(s.last_ts_ns) >= idle)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let state = self.active.remove(&key).expect("present");
            self.emitted.push(state.into_record());
        }
    }

    /// Flush every active flow (end of capture).
    pub fn flush(&mut self) {
        let keys: Vec<FlowKey> = self.active.keys().copied().collect();
        for key in keys {
            let state = self.active.remove(&key).expect("present");
            self.emitted.push(state.into_record());
        }
    }

    /// Take the emitted flow records accumulated so far.
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Direction, TcpFlags};
    use std::net::IpAddr;

    fn rec(ts_ns: u64, src: [u8; 4], dst: [u8; 4], sport: u16, dport: u16, len: u32) -> PacketRecord {
        PacketRecord {
            ts_ns,
            direction: Direction::Outbound,
            src: IpAddr::from(src),
            dst: IpAddr::from(dst),
            protocol: 6,
            src_port: sport,
            dst_port: dport,
            wire_len: len,
            ttl: 64,
            tcp_flags: TcpFlags::default(),
            flow_id: 1,
            label_app: 2,
            label_attack: 0,
        }
    }

    fn tcp_rec(ts_ns: u64, fwd: bool, flags: TcpFlags) -> PacketRecord {
        let mut r = if fwd {
            rec(ts_ns, [10, 1, 1, 10], [203, 0, 113, 1], 40000, 443, 100)
        } else {
            rec(ts_ns, [203, 0, 113, 1], [10, 1, 1, 10], 443, 40000, 1500)
        };
        r.tcp_flags = flags;
        r
    }

    #[test]
    fn both_directions_merge_into_one_flow() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        t.observe(&tcp_rec(0, true, TcpFlags { syn: true, ..Default::default() }));
        t.observe(&tcp_rec(1_000, false, TcpFlags { syn: true, ack: true, ..Default::default() }));
        t.observe(&tcp_rec(2_000, true, TcpFlags { ack: true, ..Default::default() }));
        assert_eq!(t.active.len(), 1);
        t.flush();
        let flows = t.drain();
        assert_eq!(flows.len(), 1);
        let f = &flows[0];
        assert_eq!(f.fwd_packets, 2);
        assert_eq!(f.rev_packets, 1);
        assert_eq!(f.syn_count, 2);
        assert_eq!(f.total_bytes(), 100 + 1500 + 100);
        assert_eq!(f.mean_iat_ns, 1_000);
    }

    #[test]
    fn fin_fin_ends_flow_immediately() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        t.observe(&tcp_rec(0, true, TcpFlags { syn: true, ..Default::default() }));
        t.observe(&tcp_rec(10, true, TcpFlags { fin: true, ack: true, ..Default::default() }));
        t.observe(&tcp_rec(20, false, TcpFlags { fin: true, ack: true, ..Default::default() }));
        assert_eq!(t.active.len(), 0);
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn rst_ends_flow_immediately() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        t.observe(&tcp_rec(0, true, TcpFlags { syn: true, ..Default::default() }));
        t.observe(&tcp_rec(10, false, TcpFlags { rst: true, ..Default::default() }));
        assert_eq!(t.active.len(), 0);
        let flows = t.drain();
        assert_eq!(flows[0].rst_count, 1);
    }

    #[test]
    fn idle_timeout_evicts() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_ns: 1_000_000,
            ..Default::default()
        });
        t.observe(&rec(0, [10, 1, 1, 1], [10, 1, 1, 2], 1, 2, 60));
        t.poll(500_000);
        assert_eq!(t.active.len(), 1);
        t.poll(1_500_000);
        assert_eq!(t.active.len(), 0);
        assert_eq!(t.drain().len(), 1);
    }

    #[test]
    fn active_timeout_splits_elephants() {
        let mut t = FlowTable::new(FlowTableConfig {
            active_timeout_ns: 1_000_000,
            ..Default::default()
        });
        for i in 0..5u64 {
            t.observe(&rec(i * 400_000, [10, 1, 1, 1], [10, 1, 1, 2], 1, 2, 1500));
        }
        // The flow is emitted when it crosses 1 ms of age and restarts.
        let emitted = t.drain();
        assert!(!emitted.is_empty());
        assert_eq!(t.active.len(), 1, "the flow restarted");
    }

    #[test]
    fn capacity_eviction_removes_oldest() {
        let mut t = FlowTable::new(FlowTableConfig { max_flows: 2, ..Default::default() });
        t.observe(&rec(100, [10, 1, 1, 1], [10, 2, 2, 2], 5, 6, 60));
        t.observe(&rec(200, [10, 1, 1, 3], [10, 2, 2, 2], 5, 6, 60));
        t.observe(&rec(300, [10, 1, 1, 4], [10, 2, 2, 2], 5, 6, 60));
        assert_eq!(t.active.len(), 2);
        let flows = t.drain();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].first_ts_ns, 100); // oldest went first
    }

    #[test]
    fn majority_label_wins() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        let mut a = rec(0, [10, 1, 1, 1], [10, 2, 2, 2], 1, 2, 60);
        a.label_app = 1;
        let mut b = rec(1, [10, 1, 1, 1], [10, 2, 2, 2], 1, 2, 60);
        b.label_app = 7;
        t.observe(&a);
        t.observe(&b);
        t.observe(&b);
        t.flush();
        assert_eq!(t.drain()[0].label_app, 7);
    }

    #[test]
    fn udp_flows_only_close_by_timeout() {
        let mut t = FlowTable::new(FlowTableConfig::default());
        let mut r = rec(0, [10, 1, 1, 1], [10, 1, 255, 53], 40000, 53, 80);
        r.protocol = 17;
        t.observe(&r);
        t.observe(&r);
        assert_eq!(t.active.len(), 1);
        t.flush();
        assert_eq!(t.drain().len(), 1);
    }
}
