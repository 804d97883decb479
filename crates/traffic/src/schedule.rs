//! Packet schedules: the timed injection lists the generator produces and
//! the simulator consumes.

use campuslab_netsim::{Network, NodeId, Packet, SimDuration, SimTime};

/// One packet departure: at `at`, `packet` leaves `node`.
#[derive(Debug, Clone)]
pub struct Injection {
    pub at: SimTime,
    pub node: NodeId,
    pub packet: Packet,
}

/// A time-ordered list of injections plus summary accessors.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    injections: Vec<Injection>,
    sorted: bool,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule { injections: Vec::new(), sorted: true }
    }

    /// Append one injection.
    pub fn push(&mut self, at: SimTime, node: NodeId, packet: Packet) {
        if let Some(last) = self.injections.last() {
            if at < last.at {
                self.sorted = false;
            }
        }
        self.injections.push(Injection { at, node, packet });
    }

    /// Append every injection of `other`.
    pub fn merge(&mut self, other: Schedule) {
        if other.injections.is_empty() {
            return;
        }
        self.sorted = false;
        self.injections.extend(other.injections);
    }

    /// Sort by time; equal-time packets keep generation order. The sort
    /// runs over 8-byte time keys (each paired with its index, which
    /// breaks ties) and then swaps each injection into place once,
    /// instead of merging whole injections as a stable sort would.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.injections.sort_by_cached_key(|i| i.at);
            self.sorted = true;
        }
    }

    /// Number of scheduled packets.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Total scheduled bytes (on-wire).
    pub fn total_bytes(&self) -> u64 {
        self.injections.iter().map(|i| i.packet.wire_len() as u64).sum()
    }

    /// Time of the last injection.
    pub fn span(&self) -> SimDuration {
        self.injections
            .iter()
            .map(|i| i.at)
            .max()
            .unwrap_or(SimTime::ZERO)
            - SimTime::ZERO
    }

    /// Iterate the injections (sort first for time order).
    pub fn iter(&self) -> impl Iterator<Item = &Injection> {
        self.injections.iter()
    }

    /// Feed every injection into a network. Sorts first.
    pub fn apply_to(&mut self, net: &mut Network) {
        self.sort();
        for i in &self.injections {
            net.inject(i.at, i.node, i.packet.clone());
        }
    }

    /// Consume into the raw injection list, sorted by time.
    pub fn into_injections(mut self) -> Vec<Injection> {
        self.sort();
        self.injections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_netsim::{GroundTruth, PacketBuilder, Payload};
    use std::net::Ipv4Addr;

    fn pkt(b: &mut PacketBuilder, app: u16, attack: Option<u16>) -> Packet {
        b.udp_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            Payload::Synthetic(100),
            64,
            GroundTruth { flow_id: 0, app_class: app, attack },
        )
    }

    #[test]
    fn push_and_sort() {
        let mut b = PacketBuilder::new();
        let mut s = Schedule::new();
        s.push(SimTime::from_millis(5), NodeId(0), pkt(&mut b, 1, None));
        s.push(SimTime::from_millis(1), NodeId(0), pkt(&mut b, 2, None));
        s.sort();
        let times: Vec<_> = s.iter().map(|i| i.at).collect();
        assert_eq!(times, vec![SimTime::from_millis(1), SimTime::from_millis(5)]);
    }

    #[test]
    fn sort_keeps_generation_order_among_equal_times() {
        let mut b = PacketBuilder::new();
        let mut s = Schedule::new();
        for (ms, app) in [(5, 1), (1, 2), (5, 3), (1, 4), (3, 5), (1, 6)] {
            s.push(SimTime::from_millis(ms), NodeId(0), pkt(&mut b, app, None));
        }
        s.sort();
        let apps: Vec<u16> = s.iter().map(|i| i.packet.truth.app_class).collect();
        assert_eq!(apps, [2, 4, 6, 5, 1, 3]);
    }

    #[test]
    fn merge_and_counts() {
        let mut b = PacketBuilder::new();
        let mut s1 = Schedule::new();
        s1.push(SimTime::ZERO, NodeId(0), pkt(&mut b, 1, None));
        let mut s2 = Schedule::new();
        s2.push(SimTime::ZERO, NodeId(0), pkt(&mut b, 1, Some(1)));
        s2.push(SimTime::ZERO, NodeId(0), pkt(&mut b, 2, None));
        s1.merge(s2);
        let merged: Vec<_> =
            s1.iter().map(|i| (i.packet.truth.app_class, i.packet.truth.attack)).collect();
        assert_eq!(merged, vec![(1, None), (1, Some(1)), (2, None)]);
    }

    #[test]
    fn total_bytes_and_span() {
        let mut b = PacketBuilder::new();
        let mut s = Schedule::new();
        s.push(SimTime::from_secs(3), NodeId(0), pkt(&mut b, 1, None));
        s.push(SimTime::from_secs(1), NodeId(0), pkt(&mut b, 1, None));
        assert_eq!(s.span(), SimDuration::from_secs(3));
        assert_eq!(s.total_bytes(), 2 * (14 + 20 + 8 + 100));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.span(), SimDuration::ZERO);
        assert_eq!(s.total_bytes(), 0);
    }
}
