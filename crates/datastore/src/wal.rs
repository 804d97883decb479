//! Segment-granular durability: an append-only write-ahead log under the
//! in-memory [`DataStore`]. [`WalStore::open`] is the one way a store
//! comes back from disk, and the log is the one form a store is written
//! in.
//!
//! On-disk layout, one directory per store:
//!
//! ```text
//! wal-000000.seg   sealed: immutable, length + crc32 pinned by MANIFEST
//! wal-000001.seg   sealed
//! wal-000002.seg   tail: append-only, recovered frame by frame
//! MANIFEST         one envelope: "CLWM", version u32 LE, one frame; via MANIFEST.tmp + rename
//! ```
//!
//! Segments and manifest are written in the durable frame shared with
//! PHNX checkpoints ([`campuslab_obs::frame`]): a frame is
//! `[len u64 LE][crc32 u32 LE][payload]`, the payload in the positional
//! binary encoding (`serde::bin`; DESIGN.md §15). Each segment is a run of
//! frames carrying one packet batch apiece; the manifest is one envelope
//! whose frame carries the sealed-segment table and the tail's id. The
//! manifest is written when the directory is created, so segments
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
//!   checksum mismatch, undecodable payload: a typed [`FrameError`]),
//!   physically truncates the file back to the last good prefix, and
//!   reports what it cut in the [`RecoveryReport`] and on the store's
//!   `ds_persist_corrupt_total` counter.
//! * The manifest is verified whole — magic, version, frame length,
//!   checksum, nothing trailing — before any segment is read. Damage to it
//!   is [`PersistError::Corrupt`] with no segment ([`PersistError::Version`]
//!   when it lands in the version word), so it can neither name the wrong
//!   tail nor blame a healthy segment. Older directories (v4: u32 frame
//!   lengths; v3: tagged frames; v2: a JSON manifest; v1: segments and
//!   none) are refused by version, untouched.
//! * An interrupted manifest commit leaves a stray `MANIFEST.tmp` next to
//!   a valid old `MANIFEST`; the stray is removed and the old manifest
//!   wins — the rename either happened or it didn't.

use crate::store::DataStore;
use campuslab_capture::PacketRecord;
use campuslab_obs::frame::{decode_envelope, encode_envelope, scan_frames, write_frame};
use campuslab_obs::{crc32, Crc32, FrameError};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Current WAL format version (frames and manifest). Frame payloads are
/// positional, so any change to [`PacketRecord`]'s fields bumps it (the
/// tests' `WAL_LAYOUT_PIN` is what it means as bytes); v1 frames and the
/// v2 manifest carried JSON, v3 frames led with a table tag byte, and v4
/// frames had a u32 length.
const WAL_VERSION: u32 = 5;

/// The magic of the `MANIFEST` envelope.
const MANIFEST_MAGIC: [u8; 4] = *b"CLWM";

/// Errors while persisting or recovering a store.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    /// The directory was written by another (older or future) format.
    Version { found: u32, supported: u32 },
    /// The bytes violate the format. Corruption must come back as `Err`,
    /// never abort the process. `segment`/`offset` locate the damage — the segment file id
    /// and the byte offset of the first bad frame — and are `None` when
    /// it is the manifest itself that is damaged. A sealed segment whose
    /// length or checksum disagrees with its manifest pin is `Truncated`,
    /// `TrailingBytes` or `Checksum` against that pin.
    Corrupt { what: FrameError, segment: Option<u64>, offset: Option<u64> },
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
    /// first bad frame, why it is bad)`. Everything before the offset was kept.
    pub torn_tail: Option<(u64, u64, FrameError)>,
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

fn corrupt(what: FrameError, segment: u64, offset: u64) -> PersistError {
    PersistError::Corrupt { what, segment: Some(segment), offset: Some(offset) }
}

/// A file's bytes, empty when it does not exist.
fn read_or_empty(path: &Path) -> Result<Vec<u8>, PersistError> {
    match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => Ok(read?),
    }
}

/// Write the manifest to `MANIFEST.tmp`, sync, atomically rename over
/// `MANIFEST`. A crash on either side of the rename leaves a complete
/// manifest — old or new, never a hybrid.
fn commit_manifest(dir: &Path, manifest: &Manifest) -> Result<(), PersistError> {
    let tmp = dir.join("MANIFEST.tmp");
    let bytes = encode_envelope(MANIFEST_MAGIC, WAL_VERSION, manifest);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, manifest_path(dir))?;
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

        let manifest = match std::fs::read(manifest_path(&dir)) {
            // Other versions are refused before a segment is read: their
            // frames could scan as garbage — sealed segments as corruption,
            // the tail as a torn write to truncate away. Up to v2 the
            // manifest was a JSON object, which nothing here parses.
            Ok(bytes) if bytes.first() == Some(&b'{') => {
                return Err(PersistError::Version { found: 2, supported: WAL_VERSION });
            }
            Ok(bytes) => decode_envelope(&bytes, MANIFEST_MAGIC, WAL_VERSION).map_err(|e| match e {
                FrameError::VersionSkew { found, supported } => PersistError::Version { found, supported },
                what => PersistError::Corrupt { what, segment: None, offset: None },
            })?,
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
            let bytes = read_or_empty(&segment_path(&dir, seg.id))?;
            let got = bytes.len() as u64;
            if got != seg.bytes {
                let (expected, offset) = (seg.bytes, got.min(seg.bytes));
                let what = if got < expected {
                    FrameError::Truncated { expected, got }
                } else {
                    FrameError::TrailingBytes { expected, got }
                };
                return Err(corrupt(what, seg.id, offset));
            }
            let found = crc32(&bytes);
            if found != seg.crc {
                return Err(corrupt(FrameError::Checksum { expected: seg.crc, found }, seg.id, 0));
            }
            let (batches, good, bad) = scan_frames::<Vec<PacketRecord>>(&bytes);
            if let Some(reason) = bad {
                // Checksum matched but frames do not parse: the manifest
                // itself pinned garbage — an encoder bug, surfaced loudly.
                return Err(corrupt(reason, seg.id, good));
            }
            report.sealed_segments += 1;
            report.frames_replayed += batches.len() as u64;
            for batch in batches {
                store.ingest_packets(batch);
            }
        }

        // The tail: torn frames are routine after a crash. Keep the good
        // prefix, truncate the rest, say so.
        let tail_path = segment_path(&dir, manifest.tail);
        let tail_bytes_on_disk = read_or_empty(&tail_path)?;
        let (batches, good, bad) = scan_frames::<Vec<PacketRecord>>(&tail_bytes_on_disk);
        let tail_frames = batches.len() as u64;
        report.frames_replayed += tail_frames;
        for batch in batches {
            store.ingest_packets(batch);
        }
        report.torn_tail = bad.map(|why| (manifest.tail, good, why));

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
    /// access is exposed; all writes go through [`WalStore::append_packets`].
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Sealed segments currently pinned by the manifest.
    pub fn sealed_segments(&self) -> &[SealedSegment] {
        &self.manifest.sealed
    }

    /// The tail segment's id.
    pub fn tail_segment(&self) -> u64 {
        self.manifest.tail
    }

    /// Durably append one packet batch as one frame, then ingest it (an
    /// empty batch is a no-op, mirroring ingest). The frame is flushed to
    /// the OS before memory changes: a crash after this returns replays
    /// the batch, a crash during it tears at most this frame.
    pub fn append_packets(&mut self, batch: Vec<PacketRecord>) -> Result<(), PersistError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut frame = Vec::new();
        write_frame(&mut frame, &batch);
        self.tail_file.write_all(&frame)?;
        self.tail_file.flush()?;
        self.tail_crc.update(&frame);
        self.tail_bytes += frame.len() as u64;
        self.tail_frames += 1;
        self.store.ingest_packets(batch);
        if self.tail_bytes >= self.cfg.seal_bytes {
            self.seal()?;
        }
        Ok(())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use campuslab_capture::{Direction, TcpFlags};
    use campuslab_obs::frame::FRAME_HEADER;
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

    /// A frame as WAL v1–v4 wrote it: `[len u32 LE][crc32 u32 LE][payload]`.
    fn u32_frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// What [`WAL_VERSION`] currently means, as bytes: `(crc32, length)` of
    /// every file name and file body `wal_layout_is_pinned_to_its_version`
    /// leaves in its directory, in name order. v5 writes the durable frame
    /// PHNX images share, whose length is a u64: 4 B more per frame than
    /// v4, here three segment frames and the manifest's.
    const WAL_LAYOUT_PIN: (u32, usize) = (0x55ba_2c18, 401);

    /// Frames and manifest are positional, so any field added, removed,
    /// reordered or re-typed in a packet record, the segment table or the
    /// framing moves these bytes. The directory holds IPv4 and IPv6
    /// packets, a sealed segment of two frames, a tail and the MANIFEST.
    #[test]
    fn wal_layout_is_pinned_to_its_version() {
        let dir = scratch("layout");
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
            wal.append_packets(batch(0, 6)).unwrap();
            let mut v6 = packet(7_000, 0x1FF);
            v6.direction = Direction::Outbound;
            v6.src = "2001:db8::53".parse().unwrap();
            v6.tcp_flags = TcpFlags { syn: true, ack: true, fin: false, rst: false, psh: true };
            wal.append_packets(vec![v6]).unwrap();
            wal.seal().unwrap();
            wal.append_packets(batch(1_000_000, 3)).unwrap();
            assert_eq!((wal.sealed_segments().len(), wal.tail_segment()), (1, 1));
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        files.sort();
        let mut bytes = Vec::new();
        for path in &files {
            bytes.extend_from_slice(path.file_name().unwrap().as_encoded_bytes());
            bytes.extend(std::fs::read(path).unwrap());
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(files.len(), 3, "MANIFEST, one sealed segment, the tail");
        assert_eq!(
            (crc32(&bytes), bytes.len()),
            WAL_LAYOUT_PIN,
            "WAL layout changed: bump WAL_VERSION and re-pin WAL_LAYOUT_PIN (now {:#010x}, {} bytes)",
            crc32(&bytes),
            bytes.len()
        );
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = scratch("replay");
        {
            let (mut wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            wal.append_packets(batch(0, 40)).unwrap();
            wal.append_packets(batch(1_000_000, 25)).unwrap();
            wal.append_packets(Vec::new()).unwrap();
        } // process "dies" with the tail unsealed
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(report.frames_replayed, 2, "an empty batch writes no frame");
        assert!(!report.was_lossy());
        assert_eq!(wal.store().packet_count(), 65);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The WAL's promise: a recovered store is the store `ingest_packets`
    /// over the same batches builds — same storage report, same segment
    /// layout, same records in the same order — across sealed segments,
    /// a tail and batches that arrive out of time order.
    #[test]
    fn recovered_store_equals_the_store_ingest_builds() {
        let dir = scratch("recovered-built");
        let shapes = [(0, 5_000), (9_000_000, 700), (4_000_000, 4_500), (2_000_000, 30), (12_000_000, 6_000)];
        let batches: Vec<Vec<PacketRecord>> = shapes.into_iter().map(|(base, n)| batch(base, n)).collect();
        let mut built = DataStore::new();
        {
            let (mut wal, _) = WalStore::open(&dir, WalConfig::default()).unwrap();
            for (i, b) in batches.iter().enumerate() {
                wal.append_packets(b.clone()).unwrap();
                built.ingest_packets(b.clone());
                if i == 1 || i == 2 {
                    wal.seal().unwrap();
                }
            }
            assert_eq!((wal.sealed_segments().len(), wal.tail_segment()), (2, 2));
        }
        let (wal, report) = WalStore::open(&dir, WalConfig::default()).unwrap();
        assert_eq!((report.sealed_segments, report.frames_replayed), (2, 5));
        let recovered = wal.store();
        assert_eq!(recovered.storage(), built.storage());
        assert_eq!(recovered.packet_segment_stats(), built.packet_segment_stats());
        assert!(recovered.iter_packets().eq(built.iter_packets()));
        assert_eq!(recovered.obs.render(), built.obs.render());
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
            Err(PersistError::Corrupt { segment: Some(0), offset: Some(0), what: FrameError::Checksum { .. } }) => {}
            other => panic!("expected located corruption, got {other:?}"),
        }
        // A cut, a padded and a missing segment, each refused against its
        // pin at the first byte that disagrees with it.
        let (pinned, cut) = (bytes.len() as u64, mid as u64);
        let padded = [&bytes[..], b"x"].concat();
        for (image, what, offset) in [
            (Some(&bytes[..mid]), FrameError::Truncated { expected: pinned, got: cut }, cut),
            (Some(&padded[..]), FrameError::TrailingBytes { expected: pinned, got: pinned + 1 }, pinned),
            (None, FrameError::Truncated { expected: pinned, got: 0 }, 0),
        ] {
            match image {
                Some(image) => std::fs::write(&seg, image).unwrap(),
                None => std::fs::remove_file(&seg).unwrap(),
            }
            match WalStore::open(&dir, WalConfig::default()).map(|_| ()) {
                Err(PersistError::Corrupt { segment: Some(0), offset: Some(at), what: found }) => {
                    assert_eq!((found, at), (what, offset));
                }
                other => panic!("expected located corruption, got {other:?}"),
            }
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
    /// is reported as version 2, the last to write it. A v3 directory
    /// (tagged frames under a binary manifest) and a v4 one (u32 frame
    /// lengths) are refused by their version word: scanned as v5 frames,
    /// their length fields would swallow the checksum that follows.
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

        let v1_frame = u32_frame(br#"{"Packets":[]}"#);

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

        // v3: frames led by the `Packets` tag byte (0); v4: the bare batch.
        // Each a sealed segment and a tail of u32-length frames, under the
        // `CLWM` manifest of its version that pins them.
        for (version, tag) in [(3u32, &[0u8][..]), (4, &[][..])] {
            let frame = |records: Vec<PacketRecord>| {
                let mut payload = tag.to_vec();
                records.serialize_bin(&mut payload);
                u32_frame(&payload)
            };
            let dir = scratch(&format!("v{version}"));
            std::fs::create_dir_all(&dir).unwrap();
            let sealed = frame(batch(0, 3));
            std::fs::write(segment_path(&dir, 0), &sealed).unwrap();
            std::fs::write(segment_path(&dir, 1), frame(batch(1_000_000, 5))).unwrap();
            let pinned = SealedSegment { id: 0, frames: 1, bytes: sealed.len() as u64, crc: crc32(&sealed) };
            let manifest = serde::bin::to_vec(&Manifest { sealed: vec![pinned], tail: 1 });
            let bytes = [&MANIFEST_MAGIC[..], &version.to_le_bytes(), &u32_frame(&manifest)].concat();
            std::fs::write(manifest_path(&dir), bytes).unwrap();
            refused(&dir, version);
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
            let (_, good, _) = scan_frames::<Vec<PacketRecord>>(&image[..cut as usize]);
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
            let (records, good, bad) = scan_frames::<Vec<PacketRecord>>(&flipped);
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
        let first_len = u64::from_le_bytes(image[0..8].try_into().unwrap()) as usize;
        let restamp = |payload: &[u8]| {
            let mut img = (payload.len() as u64).to_le_bytes().to_vec();
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
            let (records, good, bad) = scan_frames::<Vec<PacketRecord>>(&restamp(&damaged));
            assert!(bad.is_none() && records.len() == 6 || good == 0 && records.is_empty());
        }
        // A forged 2^60 element count behind a valid checksum is refused
        // from the length alone, before anything is allocated for it.
        let mut forged = Vec::new();
        serde::bin::write_varint(&mut forged, 1 << 60);
        let (records, good, bad) = scan_frames::<Vec<PacketRecord>>(&restamp(&forged));
        assert!(records.is_empty() && good == 0);
        assert!(matches!(bad, Some(FrameError::Payload(e)) if matches!(e.kind, serde::bin::ErrorKind::LengthOverrun { .. })));
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
}
