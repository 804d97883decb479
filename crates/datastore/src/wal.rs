//! Segment-granular durability: an append-only write-ahead log under the
//! in-memory [`DataStore`]. [`WalStore::open`] is the one way a store
//! comes back from disk; the single-document JSON form survives only as
//! an export for people to read ([`WalStore::export_snapshot`]), with no
//! reader on any recovery path.
//!
//! On-disk layout, one directory per store:
//!
//! ```text
//! wal-000000.seg   sealed: immutable, length + crc32 pinned by MANIFEST
//! wal-000001.seg   sealed
//! wal-000002.seg   tail: append-only, recovered frame by frame
//! MANIFEST         "CLWM", version u32 LE, one frame; via MANIFEST.tmp + rename
//! ```
//!
//! A frame is `[len u32 LE][crc32 u32 LE][payload]`, the payload in the
//! positional binary encoding (`serde::bin`; DESIGN.md §15). Each segment
//! is a run of frames carrying one [`WalRecord`] batch apiece; the
//! manifest's single frame carries the sealed-segment table and the tail's
//! id. The manifest is written when the directory is created, so segments
//! without one predate it. Appends go to the tail segment only; when the
//! tail outgrows the seal threshold it is sealed — whole-file checksum
//! recorded in the manifest, new empty tail opened — so durability
//! metadata grows per *segment*, not per append.
//!
//! Recovery contract (the crash-fault half of experiment E19):
//!
//! * A sealed segment whose length or checksum disagrees with the
//!   manifest is **data loss**, reported as a typed
//!   [`PersistError::Corrupt`] carrying the segment id and byte offset —
//!   never a panic, and never a silent skip.
//! * The tail is expected to be torn after a crash mid-append. Recovery
//!   replays frames until the first bad one (short header, short body,
//!   checksum mismatch, undecodable payload), physically truncates the
//!   file back to the last good prefix, and reports what it cut in the
//!   [`RecoveryReport`] and on the store's `ds_persist_corrupt_total`
//!   counter.
//! * A whole, checksum-valid frame carrying a flow record that breaks a
//!   store invariant was *written* that way — it is no tear. Sealed or
//!   tail, it is the same located [`PersistError::Corrupt`], and nothing
//!   is truncated.
//! * The manifest is verified whole — magic, version, frame length,
//!   checksum, nothing trailing — before any segment is read. Damage to it
//!   is [`PersistError::Corrupt`] with no segment ([`PersistError::Version`]
//!   when it lands in the version word), so it can neither name the wrong
//!   tail nor blame a healthy segment. Older directories (v2: a JSON
//!   manifest; v1: segments and none) are refused by version, untouched.
//! * An interrupted manifest commit leaves a stray `MANIFEST.tmp` next to
//!   a valid old `MANIFEST`; the stray is removed and the old manifest
//!   wins — the rename either happened or it didn't.

use crate::store::DataStore;
use campuslab_capture::{DnsMetaRecord, FlowRecord, PacketRecord, SensorRecord};
use campuslab_obs::{crc32, Crc32};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Current WAL format version (frames and manifest). Frame payloads are
/// positional, so any change to a record type's fields bumps it; v1 frames
/// and the v2 manifest carried JSON.
const WAL_VERSION: u32 = 3;

/// `MANIFEST` opens with this, then [`WAL_VERSION`] (u32 LE), then its frame.
const MANIFEST_MAGIC: [u8; 4] = *b"CLWM";

/// Frame header size: payload length + payload crc32.
const FRAME_HEADER: usize = 8;

/// Errors while persisting or recovering a store.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// The directory was written by another (older or future) format.
    Version { found: u32, supported: u32 },
    /// The bytes violate the format or the records violate store
    /// invariants. Corruption must come back as `Err`, never abort the
    /// process. `segment`/`offset` locate the damage — the segment file id
    /// and the byte offset of the first bad frame — and are `None` when
    /// it is the manifest itself that is damaged.
    Corrupt { what: String, segment: Option<u64>, offset: Option<u64> },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Version { found, supported } => {
                write!(f, "unsupported store version {found} (supported {supported})")
            }
            PersistError::Corrupt { what, segment: Some(seg), offset: Some(off) } => {
                write!(f, "corrupt segment {seg} at byte {off}: {what}")
            }
            PersistError::Corrupt { what, .. } => write!(f, "corrupt manifest: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// One durable append: a batch for exactly one table. Batch granularity
/// matches the ingest API — a capture flush or a sensor feed lands as one
/// frame, so the log replays in the same batch order the store saw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WalRecord {
    Packets(Vec<PacketRecord>),
    Flows(Vec<FlowRecord>),
    Dns(Vec<DnsMetaRecord>),
    Sensors(Vec<SensorRecord>),
}

/// A sealed segment's manifest entry: everything needed to detect any
/// byte of drift before replaying it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SealedSegment {
    pub id: u64,
    pub frames: u64,
    pub bytes: u64,
    pub crc: u32,
}

/// The durable root: sealed segments (with checksums) plus the id of the
/// current tail. Only ever replaced whole, via tmp + atomic rename.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    sealed: Vec<SealedSegment>,
    tail: u64,
}

/// What [`WalStore::open`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sealed segments verified and replayed.
    pub sealed_segments: u64,
    /// Frames replayed across sealed segments and the tail.
    pub frames_replayed: u64,
    /// A torn tail, when one was cut: `(segment id, byte offset of the
    /// first bad frame, reason)`. Everything before the offset was kept.
    pub torn_tail: Option<(u64, u64, String)>,
}

impl RecoveryReport {
    /// True when recovery had to discard bytes.
    pub fn was_lossy(&self) -> bool {
        self.torn_tail.is_some()
    }
}

/// Tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Seal the tail once it reaches this many bytes. Small values make
    /// many small immutable files (cheap recovery verification, more
    /// manifest commits); large values the reverse.
    pub seal_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { seal_bytes: 4 << 20 }
    }
}

/// A [`DataStore`] backed by a write-ahead log: every ingest is appended
/// to the tail segment (and flushed) *before* it lands in memory, so a
/// process that dies mid-run reopens to exactly the batches it had
/// durably appended — minus, at worst, the single frame it was writing.
pub struct WalStore {
    dir: PathBuf,
    cfg: WalConfig,
    manifest: Manifest,
    tail_file: File,
    tail_bytes: u64,
    tail_frames: u64,
    /// Checksum of the tail's `tail_bytes`, kept current by every append
    /// so sealing never re-reads the file.
    tail_crc: Crc32,
    store: DataStore,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:06}.seg"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

fn corrupt(what: impl Into<String>, segment: u64, offset: u64) -> PersistError {
    PersistError::Corrupt { what: what.into(), segment: Some(segment), offset: Some(offset) }
}

/// The frame that durably carries `value`: the payload is encoded in place
/// after a reserved header, which is then patched with length and checksum.
fn encode_frame<T: Serialize>(value: &T) -> Result<Vec<u8>, PersistError> {
    let mut frame = vec![0u8; FRAME_HEADER];
    value.serialize_bin(&mut frame);
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "payload exceeds the 4 GiB frame limit")
    })?;
    header[0..4].copy_from_slice(&len.to_le_bytes());
    header[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(frame)
}

/// Decode the frame at the head of `rest`: its payload and its length in
/// bytes, or why it is not a whole, honest frame.
fn decode_frame<T: Deserialize>(rest: &[u8]) -> Result<(T, usize), String> {
    let Some((header, body)) = rest.split_first_chunk::<FRAME_HEADER>() else {
        return Err(format!("torn frame header ({} bytes)", rest.len()));
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("fixed slice")) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("fixed slice"));
    let Some(payload) = body.get(..len) else {
        return Err(format!("torn frame body (header promises {len} bytes, {} present)", body.len()));
    };
    let actual = crc32(payload);
    if actual != crc {
        return Err(format!("frame checksum mismatch (header {crc:08x}, payload {actual:08x})"));
    }
    let value = serde::bin::from_slice(payload).map_err(|e| format!("frame payload undecodable: {e}"))?;
    Ok((value, FRAME_HEADER + len))
}

/// Split one segment's bytes into decoded records. Returns the records
/// decoded from the longest valid prefix (each with its frame's byte
/// offset), the byte length of that prefix, and the reason the first bad
/// frame was rejected (`None` when the whole buffer parsed). Total:
/// arbitrary bytes in, never a panic out.
fn scan_frames(bytes: &[u8]) -> (Vec<(u64, WalRecord)>, u64, Option<String>) {
    let mut records = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        match decode_frame(&bytes[off..]) {
            Ok((rec, len)) => {
                records.push((off as u64, rec));
                off += len;
            }
            Err(why) => return (records, off as u64, Some(why)),
        }
    }
    (records, off as u64, None)
}

/// Write the manifest to `MANIFEST.tmp`, sync, atomically rename over
/// `MANIFEST`. A crash on either side of the rename leaves a complete
/// manifest — old or new, never a hybrid.
fn commit_manifest(dir: &Path, manifest: &Manifest) -> Result<(), PersistError> {
    let tmp = dir.join("MANIFEST.tmp");
    let bytes = [&MANIFEST_MAGIC[..], &WAL_VERSION.to_le_bytes(), &encode_frame(manifest)?].concat();
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, manifest_path(dir))?;
    Ok(())
}

impl WalRecord {
    fn is_empty(&self) -> bool {
        match self {
            WalRecord::Packets(b) => b.is_empty(),
            WalRecord::Flows(b) => b.is_empty(),
            WalRecord::Dns(b) => b.is_empty(),
            WalRecord::Sensors(b) => b.is_empty(),
        }
    }

    /// Reject records that violate invariants the store (and every
    /// consumer downstream of it) relies on. Frames are untrusted bytes
    /// off a disk: a broken flow behind a valid checksum must surface as a
    /// typed error here, not as a panic three crates later.
    fn check(&self) -> Result<(), String> {
        let WalRecord::Flows(flows) = self else { return Ok(()) };
        for (i, f) in flows.iter().enumerate() {
            if f.last_ts_ns < f.first_ts_ns {
                return Err(format!(
                    "flow {i} ends before it starts ({} < {})",
                    f.last_ts_ns, f.first_ts_ns
                ));
            }
            if f.total_packets() == 0 {
                return Err(format!("flow {i} carries no packets"));
            }
            if f.min_len > f.max_len {
                return Err(format!("flow {i} min_len {} > max_len {}", f.min_len, f.max_len));
            }
        }
        Ok(())
    }
}

fn replay(store: &mut DataStore, rec: WalRecord) {
    match rec {
        WalRecord::Packets(b) => store.ingest_packets(b),
        WalRecord::Flows(b) => store.ingest_flows(b),
        WalRecord::Dns(b) => store.ingest_dns(b),
        WalRecord::Sensors(b) => store.ingest_sensors(b),
    }
}

/// Replay the frames scanned out of `segment`, refusing — located, with
/// no repair — the first one whose records break a store invariant.
fn replay_scanned(
    store: &mut DataStore,
    segment: u64,
    records: Vec<(u64, WalRecord)>,
) -> Result<(), PersistError> {
    for (offset, rec) in records {
        rec.check().map_err(|why| corrupt(why, segment, offset))?;
        replay(store, rec);
    }
    Ok(())
}

impl WalStore {
    /// Create or recover a WAL-backed store in `dir` (created if absent).
    /// Returns the store plus what recovery found. Errors are typed
    /// ([`PersistError`]) and carry segment/offset for corruption; this
    /// function never panics on any on-disk state.
    pub fn open(dir: impl Into<PathBuf>, cfg: WalConfig) -> Result<(Self, RecoveryReport), PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        // A stray tmp means a manifest commit died before the rename:
        // the old manifest is the truth, the tmp is garbage.
        let tmp = dir.join("MANIFEST.tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }

        let bad_manifest = |what: String| PersistError::Corrupt { what, segment: None, offset: None };
        let manifest = match std::fs::read(manifest_path(&dir)) {
            // Other versions are refused before a segment is read: their
            // frames could scan as garbage — sealed segments as corruption,
            // the tail as a torn write to truncate away. Up to v2 the
            // manifest was a JSON object, which nothing here parses.
            Ok(bytes) if bytes.first() == Some(&b'{') => {
                return Err(PersistError::Version { found: 2, supported: WAL_VERSION });
            }
            Ok(bytes) => {
                let rest = bytes.strip_prefix(&MANIFEST_MAGIC);
                let Some((version, frame)) = rest.and_then(|rest| rest.split_first_chunk::<4>()) else {
                    return Err(bad_manifest("manifest does not open with its magic and version".into()));
                };
                let found = u32::from_le_bytes(*version);
                if found != WAL_VERSION {
                    return Err(PersistError::Version { found, supported: WAL_VERSION });
                }
                let (m, used) = decode_frame::<Manifest>(frame).map_err(bad_manifest)?;
                if used != frame.len() {
                    return Err(bad_manifest(format!("{} bytes trail the manifest frame", frame.len() - used)));
                }
                m
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // This build commits a manifest before the first append;
                // v1 wrote none until its first seal.
                if std::fs::metadata(segment_path(&dir, 0)).is_ok_and(|m| m.len() > 0) {
                    return Err(PersistError::Version { found: 1, supported: WAL_VERSION });
                }
                let m = Manifest { sealed: Vec::new(), tail: 0 };
                commit_manifest(&dir, &m)?;
                m
            }
            Err(e) => return Err(e.into()),
        };

        let mut store = DataStore::new();
        let mut report = RecoveryReport::default();

        // Sealed segments: immutable, so any disagreement with the
        // manifest is real data loss — a typed error, not a repair.
        for seg in &manifest.sealed {
            let bytes = std::fs::read(segment_path(&dir, seg.id)).map_err(|e| {
                corrupt(format!("sealed segment unreadable: {e}"), seg.id, 0)
            })?;
            if bytes.len() as u64 != seg.bytes {
                return Err(corrupt(
                    format!("sealed segment is {} bytes, manifest pins {}", bytes.len(), seg.bytes),
                    seg.id,
                    (bytes.len() as u64).min(seg.bytes),
                ));
            }
            let actual = crc32(&bytes);
            if actual != seg.crc {
                return Err(corrupt(
                    format!("sealed segment crc {actual:08x}, manifest pins {:08x}", seg.crc),
                    seg.id,
                    0,
                ));
            }
            let (records, good, bad) = scan_frames(&bytes);
            if let Some(reason) = bad {
                // Checksum matched but frames do not parse: the manifest
                // itself pinned garbage — an encoder bug, surfaced loudly.
                return Err(corrupt(reason, seg.id, good));
            }
            report.sealed_segments += 1;
            report.frames_replayed += records.len() as u64;
            replay_scanned(&mut store, seg.id, records)?;
        }

        // The tail: torn frames are routine after a crash. Keep the good
        // prefix, truncate the rest, say so.
        let tail_path = segment_path(&dir, manifest.tail);
        let tail_bytes_on_disk = match std::fs::read(&tail_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (records, good, bad) = scan_frames(&tail_bytes_on_disk);
        let tail_frames = records.len() as u64;
        report.frames_replayed += tail_frames;
        replay_scanned(&mut store, manifest.tail, records)?;
        if let Some(reason) = bad {
            report.torn_tail = Some((manifest.tail, good, reason));
        }

        let mut tail_file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&tail_path)?;
        if report.torn_tail.is_some() {
            tail_file.set_len(good)?;
            store.obs.on_persist_corrupt(1);
        }
        tail_file.seek(SeekFrom::Start(good))?;
        let mut tail_crc = Crc32::new();
        tail_crc.update(&tail_bytes_on_disk[..good as usize]);

        let wal = WalStore {
            dir,
            cfg,
            manifest,
            tail_file,
            tail_bytes: good,
            tail_frames,
            tail_crc,
            store,
        };
        Ok((wal, report))
    }

    /// The recovered/accumulated in-memory store. Mutating the store
    /// around the WAL would desynchronize log and memory, so only shared
    /// access is exposed; all writes go through the `append_*` methods.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// The store's Observatory surface (mutable: rendering and query
    /// observation need it).
    pub fn obs_mut(&mut self) -> &mut crate::observe::StoreObs {
        &mut self.store.obs
    }

    /// Sealed segments currently pinned by the manifest.
    pub fn sealed_segments(&self) -> &[SealedSegment] {
        &self.manifest.sealed
    }

    /// The tail segment's id.
    pub fn tail_segment(&self) -> u64 {
        self.manifest.tail
    }

    /// Durably append one batch, then ingest it (an empty batch is a
    /// no-op, mirroring ingest). The frame is flushed to the OS before
    /// memory changes: a crash after `append_*` returns replays the batch,
    /// a crash during it tears at most this frame.
    fn append(&mut self, rec: WalRecord) -> Result<(), PersistError> {
        if rec.is_empty() {
            return Ok(());
        }
        // Never write what `open` would refuse to replay.
        rec.check().map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
        let frame = encode_frame(&rec)?;
        self.tail_file.write_all(&frame)?;
        self.tail_file.flush()?;
        self.tail_crc.update(&frame);
        self.tail_bytes += frame.len() as u64;
        self.tail_frames += 1;
        replay(&mut self.store, rec);
        if self.tail_bytes >= self.cfg.seal_bytes {
            self.seal()?;
        }
        Ok(())
    }

    /// Append a packet batch.
    pub fn append_packets(&mut self, batch: Vec<PacketRecord>) -> Result<(), PersistError> {
        self.append(WalRecord::Packets(batch))
    }

    /// Append a flow batch.
    pub fn append_flows(&mut self, batch: Vec<FlowRecord>) -> Result<(), PersistError> {
        self.append(WalRecord::Flows(batch))
    }

    /// Append a DNS metadata batch.
    pub fn append_dns(&mut self, batch: Vec<DnsMetaRecord>) -> Result<(), PersistError> {
        self.append(WalRecord::Dns(batch))
    }

    /// Append a sensor batch.
    pub fn append_sensors(&mut self, batch: Vec<SensorRecord>) -> Result<(), PersistError> {
        self.append(WalRecord::Sensors(batch))
    }

    /// Seal the tail now: pin its length and checksum in the manifest
    /// (committed atomically) and open a fresh empty tail. Idempotent on
    /// an empty tail.
    pub fn seal(&mut self) -> Result<(), PersistError> {
        if self.tail_bytes == 0 {
            return Ok(());
        }
        self.tail_file.sync_all()?;
        // The next manifest is a local until its commit succeeds: a failed
        // commit must leave memory describing the tail still being written.
        let mut next = self.manifest.clone();
        next.sealed.push(SealedSegment {
            id: next.tail,
            frames: self.tail_frames,
            bytes: self.tail_bytes,
            crc: self.tail_crc.finish(),
        });
        next.tail += 1;
        // Truncate deliberately: a crash (or a failed commit) between
        // creating the next tail and committing the manifest leaves a
        // stray file here, and a fresh tail must start empty.
        let tail_file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(segment_path(&self.dir, next.tail))?;
        commit_manifest(&self.dir, &next)?;
        self.manifest = next;
        self.tail_file = tail_file;
        self.tail_bytes = 0;
        self.tail_frames = 0;
        self.tail_crc = Crc32::new();
        Ok(())
    }

    /// Export the current contents as one JSON document, every table in
    /// global order — an interchange artifact for people and other tools.
    /// Nothing in this crate reads it back: durability is the log's job.
    pub fn export_snapshot<W: Write>(&self, mut out: W) -> Result<(), PersistError> {
        #[derive(Serialize)]
        struct Snapshot {
            version: u32,
            packets: Vec<PacketRecord>,
            flows: Vec<FlowRecord>,
            dns: Vec<DnsMetaRecord>,
            sensors: Vec<SensorRecord>,
        }
        let snapshot = Snapshot {
            version: 1,
            packets: self.store.iter_packets().cloned().collect(),
            flows: self.store.iter_flows().cloned().collect(),
            dns: self.store.iter_dns().cloned().collect(),
            sensors: self.store.iter_sensors().cloned().collect(),
        };
        let text = serde_json::to_string(&snapshot).map_err(std::io::Error::other)?;
        out.write_all(text.as_bytes())?;
        out.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};
    use std::net::IpAddr;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("campuslab-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn packet(ts: u64, tag: u16) -> PacketRecord {
        PacketRecord {
            ts_ns: ts,
            direction: Direction::Inbound,
            src: IpAddr::from([10, 1, (tag >> 8) as u8, (tag & 0xFF) as u8]),
            dst: IpAddr::from([203, 0, 113, 1]),
            protocol: 17,
            src_port: 53,
            dst_port: 40_000,
            wire_len: 100 + u32::from(tag % 500),
            ttl: 60,
            tcp_flags: TcpFlags::default(),
            flow_id: u64::from(tag),
            label_app: 1,
            label_attack: u16::from(tag.is_multiple_of(9)),
        }
    }

    fn batch(base: u64, n: u16) -> Vec<PacketRecord> {
        (0..n).map(|i| packet(base + u64::from(i) * 1_000, i)).collect()
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = scratch("replay");
        {
            let (mut wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            wal.append_packets(batch(0, 40)).unwrap();
            wal.append_packets(batch(1_000_000, 25)).unwrap();
            wal.append_sensors(vec![SensorRecord::ConfigChange {
                ts_ns: 5,
                device: "border".into(),
                summary: "acl change".into(),
            }])
            .unwrap();
        } // process "dies" with the tail unsealed
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.frames_replayed, 3);
        assert!(!report.was_lossy());
        assert_eq!(wal.store().packet_count(), 65);
        assert_eq!(wal.store().sensor_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealing_rolls_the_tail_and_reopen_verifies_checksums() {
        let dir = scratch("seal");
        {
            // Tiny threshold: every batch seals its segment.
            let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 1 }).unwrap();
            wal.append_packets(batch(0, 10)).unwrap();
            wal.append_packets(batch(1_000_000, 10)).unwrap();
            wal.append_packets(batch(2_000_000, 10)).unwrap();
            assert_eq!(wal.sealed_segments().len(), 3);
            assert_eq!(wal.tail_segment(), 3);
        }
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.sealed_segments, 3);
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(wal.store().packet_count(), 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The mid-append kill sweep: truncate the on-disk image at *every*
    /// byte boundary inside the final frame and reopen. Each cut must
    /// recover exactly the fully written frames, report the torn tail,
    /// and bump the corruption counter — and never panic.
    #[test]
    fn kill_mid_append_recovers_last_good_prefix_at_every_cut() {
        let dir = scratch("midappend");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        wal.append_packets(batch(0, 12)).unwrap();
        let keep_bytes = wal.tail_bytes;
        wal.append_packets(batch(1_000_000, 7)).unwrap();
        let full_bytes = wal.tail_bytes;
        drop(wal);
        let tail = segment_path(&dir, 0);
        let image = std::fs::read(&tail).unwrap();
        assert_eq!(image.len() as u64, full_bytes);

        for cut in keep_bytes..full_bytes {
            std::fs::write(&tail, &image[..cut as usize]).unwrap();
            let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
            if cut == keep_bytes {
                // Clean boundary: nothing torn, nothing to report.
                assert!(!report.was_lossy(), "cut at {cut} is a frame boundary");
            } else {
                let (seg, off, _) = report.torn_tail.clone().expect("torn tail reported");
                assert_eq!((seg, off), (0, keep_bytes), "cut at {cut}");
                assert_eq!(wal.store().obs.persist_corrupt(), 1);
                // The file was physically truncated to the good prefix.
                assert_eq!(
                    std::fs::metadata(&tail).unwrap().len(),
                    keep_bytes,
                    "cut at {cut}"
                );
            }
            assert_eq!(wal.store().packet_count(), 12, "cut at {cut}");
            assert_eq!(report.frames_replayed, 1, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appending after a torn-tail recovery extends the good prefix: the
    /// overwritten garbage never resurfaces.
    #[test]
    fn appends_after_recovery_extend_the_good_prefix() {
        let dir = scratch("extend");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        wal.append_packets(batch(0, 5)).unwrap();
        let keep = wal.tail_bytes;
        wal.append_packets(batch(1_000_000, 5)).unwrap();
        drop(wal);
        let tail = segment_path(&dir, 0);
        let image = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &image[..(keep + 3) as usize]).unwrap();

        let (mut wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert!(report.was_lossy());
        wal.append_packets(batch(2_000_000, 4)).unwrap();
        drop(wal);
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert!(!report.was_lossy(), "the repaired tail reopens clean");
        assert_eq!(wal.store().packet_count(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sealed_segment_corruption_is_a_typed_error_with_location() {
        let dir = scratch("sealedbad");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 1 }).unwrap();
            wal.append_packets(batch(0, 10)).unwrap();
        }
        let seg = segment_path(&dir, 0);
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        match WalStore::open(&dir, WalConfig::default()).map(|_| ()) {
            Err(PersistError::Corrupt { segment: Some(0), offset: Some(_), what }) => {
                assert!(what.contains("crc"), "{what}");
            }
            other => panic!("expected located corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stray_manifest_tmp_is_discarded_and_old_manifest_wins() {
        let dir = scratch("straytmp");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig { seal_bytes: 1 }).unwrap();
            wal.append_packets(batch(0, 6)).unwrap();
        }
        std::fs::write(dir.join("MANIFEST.tmp"), b"{half a man").unwrap();
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.sealed_segments, 1);
        assert_eq!(wal.store().packet_count(), 6);
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_never_a_panic() {
        let dir = scratch("manifestbad");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
            wal.append_packets(batch(0, 3)).unwrap();
            wal.seal().unwrap();
        }
        std::fs::write(manifest_path(&dir), b"\xff\xfe not a manifest").unwrap();
        assert!(matches!(
            WalStore::open(&dir, WalConfig::default()),
            Err(PersistError::Corrupt { segment: None, .. })
        ));
        std::fs::write(manifest_path(&dir), [&MANIFEST_MAGIC[..], &99u32.to_le_bytes()].concat()).unwrap();
        assert!(matches!(
            WalStore::open(&dir, WalConfig::default()),
            Err(PersistError::Version { found: 99, supported: WAL_VERSION })
        ));
        std::fs::remove_dir_all(&dir).unwrap();

        // One sealed segment and a non-empty tail: a manifest that lied
        // here could drop the tail, replay the sealed segment twice, or
        // pin a healthy segment to the wrong checksum. Every single-bit
        // flip and every strict prefix is refused as the manifest's own
        // damage, before any segment is read or repaired.
        let dir = scratch("manifestsweep");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
            wal.append_packets(batch(0, 3)).unwrap();
            wal.seal().unwrap();
            wal.append_packets(batch(1_000_000, 5)).unwrap();
        }
        let good = std::fs::read(manifest_path(&dir)).unwrap();
        let segments = || [0, 1].map(|id| std::fs::read(segment_path(&dir, id)).unwrap());
        let before = segments();
        assert!(before.iter().all(|bytes| !bytes.is_empty()));
        let cuts = (0..good.len()).map(|cut| good[..cut].to_vec());
        let flips = (0..good.len() * 8).map(|bit| {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        for damaged in cuts.chain(flips) {
            std::fs::write(manifest_path(&dir), &damaged).unwrap();
            match WalStore::open(&dir, WalConfig::default()).map(|_| ()) {
                Err(PersistError::Corrupt { segment: None, offset: None, .. })
                | Err(PersistError::Version { .. }) => {}
                other => panic!("manifest {damaged:02x?} reopened as {other:?}"),
            }
            assert!(segments() == before, "segments untouched under manifest {damaged:02x?}");
        }
        std::fs::write(manifest_path(&dir), &good).unwrap();
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!((report.sealed_segments, wal.store().packet_count()), (1, 8));
        assert!(!report.was_lossy());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A v1 directory (JSON frames) must be refused whole, sealed or not:
    /// scanned as the current format its sealed segments would read as
    /// corruption and its unsealed tail would be "repaired" by truncation to
    /// zero. A v2 directory (these frames under a JSON manifest) is refused
    /// the same way; nothing in this build reads a JSON manifest, so any one
    /// is reported as version 2, the last to write it.
    #[test]
    fn v1_directories_are_a_typed_version_error_and_left_untouched() {
        let files = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .map(|path| (path.clone(), std::fs::read(path).unwrap()))
                .collect();
            files.sort();
            files
        };
        let refused = |dir: &Path, version: u32| {
            let before = files(dir);
            match WalStore::open(dir, WalConfig::default()).map(|_| ()) {
                Err(PersistError::Version { found, supported: WAL_VERSION }) => assert_eq!(found, version),
                other => panic!("expected a version error, got {other:?}"),
            }
            assert!(files(dir) == before, "directory untouched");
        };
        let json_manifest = |version: u32, segment: &[u8]| {
            format!(
                r#"{{"version":{version},"sealed":[{{"id":0,"frames":1,"bytes":{},"crc":{}}}],"tail":1}}"#,
                segment.len(),
                crc32(segment)
            )
        };

        let json = br#"{"Packets":[]}"#;
        let mut v1_frame = (json.len() as u32).to_le_bytes().to_vec();
        v1_frame.extend_from_slice(&crc32(json).to_le_bytes());
        v1_frame.extend_from_slice(json);

        // v1, sealed at least once: a JSON manifest.
        let dir = scratch("v1sealed");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), &v1_frame).unwrap();
        std::fs::write(manifest_path(&dir), json_manifest(1, &v1_frame)).unwrap();
        refused(&dir, 2);
        std::fs::remove_dir_all(&dir).unwrap();

        // v1, never sealed: it wrote no manifest before its first seal.
        let dir = scratch("v1tail");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), &v1_frame).unwrap();
        refused(&dir, 1);
        std::fs::remove_dir_all(&dir).unwrap();

        // v2: segments this build could replay frame for frame, a sealed
        // one and a tail, under the JSON manifest v2 committed.
        let dir = scratch("v2");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
            wal.append_packets(batch(0, 3)).unwrap();
            wal.seal().unwrap();
            wal.append_packets(batch(1_000_000, 5)).unwrap();
        }
        let sealed = std::fs::read(segment_path(&dir, 0)).unwrap();
        std::fs::write(manifest_path(&dir), json_manifest(2, &sealed)).unwrap();
        refused(&dir, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `seal` pins the running checksum, not a re-read of the file: it must
    /// equal the bytes on disk, also when the tail was recovered (torn and
    /// clean) before more appends.
    #[test]
    fn sealed_checksum_matches_the_file_across_recovery() {
        let dir = scratch("runningcrc");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        wal.append_packets(batch(0, 5)).unwrap();
        wal.append_packets(batch(1_000_000, 5)).unwrap();
        drop(wal);
        let tail = segment_path(&dir, 0);
        let image = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &image[..image.len() - 3]).unwrap();
        let (mut wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert!(report.was_lossy());
        wal.append_packets(batch(2_000_000, 4)).unwrap();
        wal.seal().unwrap();
        let sealed = wal.sealed_segments()[0].clone();
        let on_disk = std::fs::read(&tail).unwrap();
        assert_eq!((sealed.bytes, sealed.crc), (on_disk.len() as u64, crc32(&on_disk)));
        drop(wal);
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!((report.sealed_segments, wal.store().packet_count()), (1, 9));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Never-panic fuzz over the tail scanner, `CAMPUSLAB_FUZZ_CASES`
    /// scaled: random cuts and single-bit flips over a real multi-frame
    /// tail image must recover a prefix (possibly empty), never panic,
    /// and never accept a frame whose checksum lies. The re-stamped arm
    /// damages a payload and recomputes its header checksum, so the binary
    /// decoder itself — not the CRC — has to survive the damage.
    #[test]
    fn tail_scanner_never_panics_on_corrupt_images() {
        let dir = scratch("fuzz");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        for k in 0..6u16 {
            wal.append_packets(batch(u64::from(k) * 1_000_000, 8)).unwrap();
        }
        drop(wal);
        let image = std::fs::read(segment_path(&dir, 0)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let cases: u64 = std::env::var("CAMPUSLAB_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300);

        // Every truncation point: the recovered prefix must be a whole
        // number of frames no longer than the cut.
        let stride = (image.len() as u64 / cases.max(1)).max(1);
        for cut in (0..image.len() as u64).step_by(stride as usize) {
            let (_, good, _) = scan_frames(&image[..cut as usize]);
            assert!(good <= cut);
        }

        // Deterministic single-bit flips (splitmix-style stream).
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..cases {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let pos = (r as usize) % image.len();
            let bit = (r >> 40) as u8 & 7;
            let mut flipped = image.clone();
            flipped[pos] ^= 1 << bit;
            let (records, good, bad) = scan_frames(&flipped);
            assert!(good <= image.len() as u64);
            // A flip anywhere must cut the scan at or before that byte's
            // frame — records past the flip would mean a checksum lied.
            if bad.is_some() {
                assert!(records.len() <= 6);
            }
        }

        // Re-stamped CRC: mutate or cut the first frame's payload, fix the
        // header up to match, and scan. The first frame then decodes to
        // some value or cuts the scan at 0; the later frames are intact.
        let first_len = u32::from_le_bytes(image[0..4].try_into().unwrap()) as usize;
        let restamp = |payload: &[u8]| {
            let mut img = (payload.len() as u32).to_le_bytes().to_vec();
            img.extend_from_slice(&crc32(payload).to_le_bytes());
            img.extend_from_slice(payload);
            img.extend_from_slice(&image[FRAME_HEADER + first_len..]);
            img
        };
        let payload = &image[FRAME_HEADER..FRAME_HEADER + first_len];
        for _ in 0..cases {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let mut damaged = payload.to_vec();
            let pos = (r as usize) % damaged.len();
            if r >> 63 == 0 {
                damaged[pos] = (r >> 40) as u8;
            } else {
                damaged.truncate(pos);
            }
            let (records, good, bad) = scan_frames(&restamp(&damaged));
            assert!(bad.is_none() && records.len() == 6 || good == 0 && records.is_empty());
        }
        // A forged 2^60 element count behind a valid checksum is refused
        // from the length alone, before anything is allocated for it.
        let mut forged = vec![0u8]; // WalRecord::Packets
        serde::bin::write_varint(&mut forged, 1 << 60);
        let (records, good, bad) = scan_frames(&restamp(&forged));
        assert!(records.is_empty() && good == 0);
        assert!(bad.unwrap().contains("LengthOverrun"));
    }

    /// A failed manifest commit (ENOSPC, a transient I/O error) must leave
    /// memory describing the tail still being written, so a retried seal
    /// pins the right file at the right length.
    #[test]
    fn failed_manifest_commit_does_not_poison_the_log() {
        let dir = scratch("sealretry");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        wal.append_packets(batch(0, 10)).unwrap();
        // A directory where the tmp file goes makes `File::create` fail.
        std::fs::create_dir(dir.join("MANIFEST.tmp")).unwrap();
        assert!(matches!(wal.seal(), Err(PersistError::Io(_))));
        assert_eq!((wal.sealed_segments().len(), wal.tail_segment()), (0, 0));
        std::fs::remove_dir(dir.join("MANIFEST.tmp")).unwrap();
        wal.append_packets(batch(1_000_000, 10)).unwrap();
        wal.seal().unwrap();
        drop(wal);
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert!(!report.was_lossy());
        assert_eq!((report.sealed_segments, wal.store().packet_count()), (1, 20));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The store's flow invariants are checked where frames are replayed
    /// (and, symmetrically, encoded): a checksum-valid frame carrying a
    /// flow that ends before it starts is located corruption, in a sealed
    /// segment and in the tail alike — never a record in the store for a
    /// consumer to trip over, and never a reason to cut checksum-valid
    /// bytes off the log.
    #[test]
    fn crc_valid_frame_with_a_broken_flow_is_refused() {
        let flow = |first: u64, last: u64| FlowRecord {
            key: campuslab_capture::FlowKey {
                src: "10.1.1.1".parse().unwrap(),
                dst: "203.0.113.1".parse().unwrap(),
                protocol: 17,
                src_port: 53,
                dst_port: 40_000,
            },
            first_ts_ns: first,
            last_ts_ns: last,
            fwd_packets: 3,
            fwd_bytes: 300,
            rev_packets: 0,
            rev_bytes: 0,
            syn_count: 0,
            fin_count: 0,
            rst_count: 0,
            mean_iat_ns: 10,
            min_len: 60,
            max_len: 100,
            label_app: 1,
            label_attack: 0,
        };
        let good = encode_frame(&WalRecord::Flows(vec![flow(9_000, 9_500)])).unwrap();
        // `append` refuses the record (below); the frame codec does not care.
        let bad = encode_frame(&WalRecord::Flows(vec![flow(9_999_999, 9_500)])).unwrap();

        let dir = scratch("badflow-sealed");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(segment_path(&dir, 0), &bad).unwrap();
        let sealed = SealedSegment { id: 0, frames: 1, bytes: bad.len() as u64, crc: crc32(&bad) };
        commit_manifest(&dir, &Manifest { sealed: vec![sealed], tail: 1 }).unwrap();
        match WalStore::open(&dir, WalConfig::default()).map(|_| ()) {
            Err(PersistError::Corrupt { segment: Some(0), offset: Some(0), what }) => {
                assert!(what.contains("ends before it starts"), "{what}");
            }
            other => panic!("expected located corruption, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = scratch("badflow-tail");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert!(matches!(
            wal.append_flows(vec![flow(9_999_999, 9_500)]),
            Err(PersistError::Io(_))
        ));
        assert_eq!((wal.tail_bytes, wal.store().flow_count()), (0, 0), "nothing was written");
        drop(wal);
        let image = [good.as_slice(), &bad, &good].concat();
        std::fs::write(segment_path(&dir, 0), &image).unwrap();
        match WalStore::open(&dir, WalConfig::default()).map(|_| ()) {
            Err(PersistError::Corrupt { segment: Some(0), offset: Some(off), what }) => {
                assert_eq!(off, good.len() as u64);
                assert!(what.contains("ends before it starts"), "{what}");
            }
            other => panic!("expected located corruption, got {other:?}"),
        }
        assert_eq!(std::fs::read(segment_path(&dir, 0)).unwrap(), image, "nothing was cut");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_snapshot_is_one_json_document_of_every_table() {
        let dir = scratch("export");
        let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
        wal.append_packets(batch(1_000_000, 4)).unwrap();
        wal.append_packets(batch(0, 5)).unwrap();
        let mut json = Vec::new();
        wal.export_snapshot(&mut json).unwrap();
        let doc = serde::json::parse(std::str::from_utf8(&json).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["version", "packets", "flows", "dns", "sensors"]);
        assert_eq!(doc.get("version").unwrap().as_num().unwrap(), "1");
        // Global order, not arrival: each element is its record's own JSON.
        let packets = doc.get("packets").unwrap().as_array().unwrap();
        assert_eq!(packets.len(), 9);
        for (exported, stored) in packets.iter().zip(wal.store().iter_packets()) {
            let expected = serde_json::to_string(stored).unwrap();
            assert_eq!(exported, &serde::json::parse(&expected).unwrap());
        }
        for table in ["flows", "dns", "sensors"] {
            assert!(doc.get(table).unwrap().as_array().unwrap().is_empty(), "{table}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
