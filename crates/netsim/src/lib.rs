//! # campuslab-netsim
//!
//! A deterministic, packet-level, discrete-event simulator of a campus
//! network — the "real-world production network" substrate that the
//! CampusLab platform treats as both data source and testbed (the paper's
//! Figure 1).
//!
//! Design notes:
//!
//! * **Event-driven, explicit stepping** (smoltcp-style): a single
//!   [`EventQueue`](event::EventQueue) orders all packet departures,
//!   transmissions and timer callbacks; ties break by insertion order so
//!   every run with the same seed is byte-for-byte reproducible.
//! * **Real headers, optional payload bytes**: packets carry parsed
//!   `campuslab-wire` header structs and serialize to exact wire images on
//!   demand, so the capture plane and pcap dumps see real bytes while the
//!   simulator core stays allocation-light.
//! * **Hooks + commands**: observers implement [`SimHooks`]
//!   and steer the simulation by pushing [`Command`]s —
//!   the pattern that lets a control loop watch a tap and install packet
//!   filters mid-run without borrow gymnastics.
//! * **Ground truth rides along**: the traffic generator annotates each
//!   packet with flow/app/attack labels that the simulated network itself
//!   never inspects — they exist so experiments can measure how well
//!   learning models recover them.
//!
//! ```
//! use campuslab_netsim::prelude::*;
//!
//! let campus = Campus::build(CampusConfig::default());
//! let src = campus.hosts[0];
//! let src_ip = campus.addr_of(src);
//! let dns_ip = campus.addr_of(campus.servers.dns);
//! let mut net = campus.net;
//! let mut pb = PacketBuilder::new();
//! let pkt = pb.udp_v4(src_ip, dns_ip, 40000, 53,
//!                     Payload::Synthetic(64), 64, GroundTruth::default());
//! net.inject(SimTime::ZERO, src, pkt);
//! let stats = net.run_to_completion();
//! assert_eq!(stats.delivered, 1);
//! ```

#![deny(rust_2018_idioms)]
#![deny(unreachable_pub)]

pub mod time;
pub mod event;
pub mod packet;
pub mod lpm;
pub mod link;
pub mod node;
pub mod fxhash;
pub mod network;
pub mod observe;
pub mod par;
pub mod shard;
pub mod topology;
pub mod chaos;
pub mod checkpoint;

/// The types most users need, in one import.
pub mod prelude {
    pub use crate::chaos::{ChaosAction, ChaosConfig, ChaosPlan};
    pub use crate::checkpoint::{FrozenNetwork, FrozenNode, StreamRng, TopologyMismatch};
    pub use crate::link::{
        Dir, FaultModel, GilbertElliott, LinkId, Outage, QueueDiscipline, RateWindow,
    };
    pub use crate::lpm::{LpmTable, Prefix};
    pub use crate::network::{
        Command, Commands, DropReason, NetStats, Network, NullHooks, SimHooks,
    };
    pub use crate::node::{FilterAction, NodeId, PacketFilter};
    pub use crate::observe::NetObs;
    pub use crate::shard::ShardReport;
    pub use crate::packet::{
        GroundTruth, NetworkHeader, Packet, PacketBuilder, Payload, TransportHeader,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Campus, CampusConfig, CampusServers, LinkSpec, TopologyBuilder};
}

pub use prelude::*;
