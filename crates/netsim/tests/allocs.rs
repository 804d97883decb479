//! Allocation- and event-count gate for the event loop. Injecting a
//! campus day and running it with no observers allocates at most twice per
//! packet: the packet's own `Box`, plus the amortised growth of the event
//! queue and the link buffers. The events it dispatches are pinned
//! exactly: an injection and one arrival per hop, plus a transmit-complete
//! only for a packet that waited behind a busy transmitter. The counting
//! allocator is process-wide, so this binary holds exactly one test.

use campuslab_netsim::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
/// `realloc`). A statistic that publishes no other data, hence `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Packets in the day: one every 50 µs for two simulated seconds, about
/// the event density (0.25 per µs) of the benchmark's campus day.
const PACKETS: u64 = 40_000;

/// The day's traffic on the default campus, generated before counting
/// starts: three in four packets cross the border (either way), the rest
/// stay inside; sizes run from 64 B to about 1.4 kB.
fn campus_day(campus: &Campus) -> Vec<(SimTime, NodeId, Packet)> {
    let mut builder = PacketBuilder::new();
    let mut s = 7u64;
    (0..PACKETS)
        .map(|k| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let host = campus.hosts[(s >> 33) as usize % campus.hosts.len()];
            let peer = match (s >> 20) % 4 {
                0 => campus.hosts[(s >> 45) as usize % campus.hosts.len()],
                _ => campus.external[(s >> 45) as usize % campus.external.len()],
            };
            let (src, dst) = if (s >> 10) & 1 == 0 { (host, peer) } else { (peer, host) };
            let packet = builder.udp_v4(
                campus.addr_of(src),
                campus.addr_of(dst),
                1024 + (k % 60_000) as u16,
                443,
                Payload::Synthetic(22 + (s >> 50) as usize % 1_380),
                64,
                GroundTruth::default(),
            );
            (SimTime::from_micros(k * 50), src, packet)
        })
        .collect()
}

#[test]
fn inject_and_run_allocate_at_most_twice_per_packet() {
    let mut campus = Campus::build(CampusConfig::default());
    let day = campus_day(&campus);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for (at, node, packet) in day {
        campus.net.inject(at, node, packet);
    }
    campus.net.run(&mut NullHooks, None);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = campus.net.stats;
    assert_eq!(stats.injected, PACKETS);
    assert!(stats.delivered > PACKETS / 2, "{stats:?}");
    let per_packet = allocations as f64 / PACKETS as f64;
    println!("inject + run: {allocations} allocations for {PACKETS} packets = {per_packet:.3} per packet");
    assert!(per_packet <= 2.0, "{per_packet:.3} allocations per packet (limit 2)");
    let events = campus.net.obs.event_seq();
    println!("{events} events for {} delivered = {:.2} per packet", stats.delivered, events as f64 / stats.delivered as f64);
    assert_eq!(events, 273_643, "events dispatched over the day");
}
