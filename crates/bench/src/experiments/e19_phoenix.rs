//! **E19 — PhoenixRun: crash-fault tolerance** (ISSUE 10): every earlier
//! experiment assumes the process survives its run. E19 kills it — at
//! every checkpoint boundary of the E17 drift campaign, and mid-append
//! in the datastore's write-ahead log — and proves recovery is exact.
//!
//! Three legs:
//!
//! 1. **Kill-point sweep.** A [`DriftSession`] (the resumable form of
//!    the E17 drift road test) is checkpointed on a fixed sim-time grid;
//!    at each boundary the process "dies" (only the encoded checkpoint
//!    bytes survive), a fresh session restores them and resumes. Every
//!    resumed fingerprint — timeline, Prometheus dump, trace JSON — must
//!    equal the uninterrupted run's byte for byte.
//! 2. **Envelope honesty.** The checkpoint decoder is a total function:
//!    truncation, bit flips and version skew each come back as a typed
//!    [`PhoenixError`], never a panic, never a silently wrong document.
//! 3. **WAL recovery.** A [`WalStore`] ingests the collected capture,
//!    seals segments, then has its tail torn mid-frame. Reopening must
//!    replay every sealed frame, cut the tail back to the last good
//!    prefix, surface the damage in the recovery report and on
//!    `ds_persist_corrupt_total` — and lose nothing that was durably
//!    appended before the torn frame.
//!
//! The whole bundle is golden-pinned byte-for-byte under the sequential
//! and parallel executors (`golden_replay` runs the sweep at
//! `CAMPUSLAB_JOBS` 1 and 4), so the checkpoint images themselves are
//! pinned executor-independent.

use crate::obs_export::ObsBundle;
use crate::table::Table;
use campuslab::datastore::{PersistError, WalConfig, WalStore};
use campuslab::netsim::SimDuration;
use campuslab::testbed::{
    decode_checkpoint, encode_checkpoint, shard_by_second, CrashCart, DriftRunConfig,
    DriftSession, PhoenixCheckpoint, PhoenixError, Scenario, PHOENIX_VERSION,
};
use campuslab::Platform;

/// The same mid-campaign image under PHNX v1 (a JSON payload). The binary
/// payload must stay within a fifth of it.
const V1_IMAGE_BYTES: usize = 70_891_814;

/// Run the experiment and return the full Observatory bundle.
pub fn run() -> ObsBundle {
    let mut out =
        String::from("E19: PhoenixRun crash-fault tolerance (checkpoint/restore + WAL)\n\n");

    // The E17 lineage: a program and window model developed offline, then
    // deployed into the rotating-reflection drift campaign.
    let platform = Platform::new(Scenario::small());
    let data = platform.collect();
    let dev = platform.develop(&data);
    let model = platform.train_window_model(&data);
    let scenario = Scenario::drift_rotation();
    let program = dev.program.clone();
    let make = move || {
        DriftSession::new(
            &scenario,
            program.clone(),
            Box::new(model.clone()),
            DriftRunConfig::default(),
        )
    };

    // Leg 1: the kill-point sweep on a 3 s checkpoint grid. The baseline
    // is computed once and every kill is diffed against it (the same
    // comparison `CrashCart::sweep` makes, without re-running the
    // baseline for the bundle below).
    let cart = CrashCart::new(make, SimDuration::from_secs(3));
    let boundaries = cart.boundaries();
    let baseline = cart.uninterrupted();
    let mut mismatches = Vec::new();
    for k in 0..boundaries.len() {
        match cart.killed_at(k) {
            Ok(fp) if fp == baseline => {}
            _ => mismatches.push(k),
        }
    }

    // A representative checkpoint for the size row and the decoder leg:
    // taken mid-campaign, at the second boundary.
    let mut probe = cart.make_session();
    probe.run_until(boundaries[1]);
    let image = probe.checkpoint();
    let bytes = encode_checkpoint(&image);
    drop(probe);
    assert!(
        bytes.len() <= V1_IMAGE_BYTES / 5,
        "checkpoint image is {} B, more than a fifth of the v1 JSON image ({V1_IMAGE_BYTES} B)",
        bytes.len()
    );

    let mut t = Table::new(&["leg", "boundaries", "kills", "mismatches", "checkpoint bytes"]);
    t.row(vec![
        "kill-point sweep".into(),
        boundaries.len().to_string(),
        boundaries.len().to_string(),
        mismatches.len().to_string(),
        bytes.len().to_string(),
    ]);
    out.push_str(&t.render());

    // What that image is made of: how far it shrinks when each part is
    // emptied (exact up to the emptied part's own count/tag bytes).
    let without = |empty: &dyn Fn(&mut PhoenixCheckpoint)| {
        let mut part = image.clone();
        empty(&mut part);
        bytes.len() - encode_checkpoint(&part).len()
    };
    let events = without(&|c| c.net.events.clear());
    let hooks = without(&|c| (c.hooks.guard, c.hooks.controller, c.hooks.pilot) = (None, None, None));
    let bank = without(&|c| c.bank.entries.clear());
    out.push_str(&format!(
        "\nwhat the image is made of:\n\
         \x20 pending events: {} B ({} events, {:.1} B/event)\n\
         \x20 hook stack (guard, controller, pilot): {hooks} B\n\
         \x20 bank: {bank} B\n\
         \x20 rest (nodes, links, obs, envelope): {} B\n",
        events,
        image.net.events.len(),
        events as f64 / image.net.events.len().max(1) as f64,
        bytes.len() - events - hooks - bank,
    ));

    // Leg 2: the decoder on the three crash-shaped corruptions.
    let truncated = decode_checkpoint(&bytes[..bytes.len() / 2]).err();
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    let bitflip = decode_checkpoint(&flipped).err();
    let mut skew = bytes.clone();
    skew[4..8].copy_from_slice(&(PHOENIX_VERSION + 1).to_le_bytes());
    let version = decode_checkpoint(&skew).err();
    out.push_str("\ndecoder verdicts on crash-shaped inputs (typed, never a panic):\n");
    for (case, err) in [
        ("truncated at 50%", &truncated),
        ("one bit flipped", &bitflip),
        ("version skew", &version),
    ] {
        out.push_str(&format!(
            "  {case}: {}\n",
            err.as_ref().map(|e| e.to_string()).unwrap_or_else(|| "ACCEPTED (bug)".into())
        ));
    }

    // Leg 3: WAL append, seal, tear mid-frame, recover.
    let (wal_rows, wal_ok) = wal_leg(&data.packets);
    out.push_str("\nWAL mid-append crash recovery:\n");
    out.push_str(&wal_rows);

    let sweep_clean = mismatches.is_empty();
    let typed = matches!(truncated, Some(PhoenixError::Truncated { .. }))
        && matches!(bitflip, Some(PhoenixError::Checksum { .. }))
        && matches!(version, Some(PhoenixError::VersionSkew { .. }));
    out.push_str(&format!(
        "\nevery kill point resumed byte-identically: {}\n\
         corrupt checkpoints all map to typed errors: {}\n\
         torn WAL tail recovered to the last good prefix, sealed frames intact: {}\n\
         \nshape check: a checkpoint is only real if restore-and-resume is\n\
         indistinguishable from never having crashed; a log is only a log if\n\
         the crash it was built for cannot cost more than the frame being\n\
         written. E19 pins both, under every executor the campus has.\n",
        if sweep_clean { "yes" } else { "NO (bug)" },
        if typed { "yes" } else { "NO (bug)" },
        if wal_ok { "yes" } else { "NO (bug)" },
    ));

    // The bundle's prom + trace are the uninterrupted run's — the
    // baseline every kill must reproduce.
    let (_, prom, trace) = baseline;
    ObsBundle { table: out, prom, trace }
}

/// The WAL leg: append the capture in per-second batches, seal everything
/// but the final batch, crash mid-way through the final frame, reopen,
/// and check the recovery report and surviving contents. Returns
/// (rendered rows, all-good).
fn wal_leg(packets: &[campuslab::capture::PacketRecord]) -> (String, bool) {
    let dir = std::env::temp_dir().join(format!("campuslab-e19-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || -> Result<(String, bool), PersistError> {
        // Per-second batches: the same sharding unit the store's parallel
        // ingest uses.
        let mut batches = shard_by_second(packets);
        let last_batch = batches.pop().expect("capture is never empty");
        let last_len = last_batch.len();

        // Everything but the final batch, durably sealed (a small
        // threshold rolls several segments on the way).
        let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 64 << 10 })?;
        let mut durable = 0usize;
        for b in batches {
            durable += b.len();
            wal.append_packets(b)?;
        }
        wal.seal()?;
        let sealed = wal.sealed_segments().len();
        drop(wal);

        // A fresh process appends the final batch (one frame in a fresh
        // tail) and dies mid-write: the on-disk frame loses its last 11
        // bytes.
        let (mut wal, clean) = WalStore::open(&dir, WalConfig::default())?;
        let reopen_clean = !clean.was_lossy();
        wal.append_packets(last_batch)?;
        let tail_id = wal.tail_segment();
        drop(wal);
        let tail = dir.join(format!("wal-{tail_id:06}.seg"));
        let image = std::fs::read(&tail)?;
        std::fs::write(&tail, &image[..image.len().saturating_sub(11)])?;

        let (wal, report) = WalStore::open(&dir, WalConfig::default())?;
        let survived = wal.store().packet_count();
        let rows = format!(
            "  sealed segments: {sealed}  frames replayed: {}  torn tail: {}\n\
             \x20 packets durable before the torn frame: {durable}  \
             in the torn frame: {last_len}  recovered: {survived}\n",
            report.frames_replayed,
            match &report.torn_tail {
                Some((seg, off, why)) => format!("segment {seg} cut at byte {off} ({why})"),
                None => "none (bug)".into(),
            },
        );
        let ok = reopen_clean
            && report.was_lossy()
            && survived == durable
            && wal.store().obs.persist_corrupt() == 1;
        Ok((rows, ok))
    };
    let result = run().unwrap_or_else(|e| (format!("  WAL leg failed: {e}\n"), false));
    let _ = std::fs::remove_dir_all(&dir);
    result
}
