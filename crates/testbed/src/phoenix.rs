//! PhoenixRun (experiment E19): crash-fault tolerance for every
//! [`Session`]. A session advances window by window, and a
//! [`PhoenixCheckpoint`] can be taken at any quiescent barrier (what it
//! captures and what it deliberately leaves to the rebuild is DESIGN.md
//! §16); this module owns the kill-point harness and names the
//! checkpoint's durable form: one `PHNX` envelope of the shared durable
//! frame ([`campuslab_obs::frame`], the WAL's codec too), whose typed
//! [`FrameError`] is what a damaged image decodes to.
//!
//! The recovery contract, pinned by the CrashCart harness below and by
//! `tests/phoenix_diff.rs`: kill the process at *any* checkpoint
//! boundary, restore the checkpoint into a freshly built session, resume
//! over the remaining window grid — and the outcome fingerprint
//! (timeline, Prometheus dump, trace JSON) is byte-for-byte the
//! uninterrupted run's.

use crate::session::{Finished, FrozenStack, Session};
use campuslab_control::FrozenBank;
use campuslab_netsim::{FrozenNetwork, SimDuration, SimTime};
use campuslab_obs::frame::{decode_envelope, encode_envelope};
use campuslab_obs::FrameError;

/// Checkpoint format version. The payload is positional binary
/// (`serde::bin`), so *any* change to the frozen-state layout — a field or
/// variant added, removed or reordered — bumps it; a decoder seeing
/// another version (v1 was a JSON payload) reports
/// [`FrameError::VersionSkew`] instead of guessing.
pub const PHOENIX_VERSION: u32 = 8;

/// What [`PHOENIX_VERSION`] currently means, as bytes: `(crc32, length)` of
/// the envelope the crash-test drift session (`tests::cheap_session`)
/// leaves at 1.5 s. `image_layout_is_pinned_to_its_version` fails when a
/// layout change moves either without a version bump and a re-pin. v8
/// holds dynamic state only: the evidence-sync cursors, the network's tap
/// set, the detector's window and gate, the breaker's policy and the
/// pilot's record count at its last tick are gone (each is rebuilt by the
/// restoring session or derived from what the image does hold), and the
/// frozen control-plane sinks no longer carry counts booked at the
/// freeze.
pub const PHOENIX_LAYOUT_PIN: (u32, usize) = (0xf09f_fda8, 1_233_161);

/// Envelope magic: the first four bytes of every encoded checkpoint.
pub const PHOENIX_MAGIC: [u8; 4] = *b"PHNX";

/// The outcome fingerprint the recovery contract is stated over: the
/// sim-ordered timeline, the Prometheus dump, and the trace JSON.
pub type Fingerprint = (String, String, String);

/// Fingerprint a finished run: the one place the triple is built.
pub fn fingerprint(run: &Finished) -> Fingerprint {
    (run.timeline(), run.obs.prom(), run.obs.trace_json())
}

/// Everything a fresh process needs to resume a session, given the same
/// [`Session::new`] arguments: the frozen simulator, the frozen hook
/// stack, and the shared filter bank.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct PhoenixCheckpoint {
    pub net: FrozenNetwork,
    pub hooks: FrozenStack,
    pub bank: FrozenBank,
}

/// Serialize a checkpoint into its durable envelope:
/// `PHNX | version u32 LE | payload_len u64 LE | crc32 u32 LE | payload`.
pub fn encode_checkpoint(cp: &PhoenixCheckpoint) -> Vec<u8> {
    encode_envelope(PHOENIX_MAGIC, PHOENIX_VERSION, cp)
}

/// Decode an envelope produced by [`encode_checkpoint`]. Total function:
/// every byte string returns `Ok` or a typed [`FrameError`], never a
/// panic — truncation, bit flips and version skew are all routine inputs
/// after a crash.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<PhoenixCheckpoint, FrameError> {
    decode_envelope(bytes, PHOENIX_MAGIC, PHOENIX_VERSION)
}

/// The kill-point harness: a factory for identical deadline-bounded
/// sessions plus a checkpoint grid, with one method per leg of the
/// recovery contract. The factory may return a [`Session`] or any
/// composition wrapper that converts into one.
pub struct CrashCart<F> {
    make: F,
    grid: Vec<SimTime>,
}

impl<S: Into<Session>, F: Fn() -> S> CrashCart<F> {
    /// Harness sessions from `make` (which must build from identical
    /// arguments every call), checkpointing every `step` of sim time.
    /// Builds one session up front to read the deadline the grid covers.
    pub fn new(make: F, step: SimDuration) -> Self {
        assert!(step > SimDuration::ZERO, "checkpoint grid step must be positive");
        let probe: Session = make().into();
        let deadline = probe.deadline().expect("CrashCart needs a deadline-bounded session");
        // Every multiple of `step` whose predecessor is still short of the
        // deadline: the last barrier is the first at or past it.
        let grid = (1u64..)
            .map(|k| SimTime(step.as_nanos().saturating_mul(k)))
            .take_while(|t| *t < deadline + step)
            .collect();
        CrashCart { make, grid }
    }

    /// Build one fresh session from the harness's factory — for probes
    /// (e.g. sizing a checkpoint) that want the exact sweep arguments.
    pub fn make_session(&self) -> S {
        (self.make)()
    }

    /// The checkpoint barriers: multiples of the grid step from the first
    /// window up to and including the first one at or past the deadline.
    /// Killing at the last barrier is legal (restore, resume zero events,
    /// finish) — crash-during-teardown is a real failure mode too.
    pub fn boundaries(&self) -> Vec<SimTime> {
        self.grid.clone()
    }

    fn session(&self) -> Session {
        (self.make)().into()
    }

    /// Drive `session` over `grid`, then to its deadline, and fingerprint
    /// the teardown.
    fn complete(mut session: Session, grid: &[SimTime]) -> Fingerprint {
        for &t in grid {
            session.run_until(t);
        }
        session.run_to_end();
        fingerprint(&session.finish())
    }

    /// The baseline leg: one session driven over the full grid with no
    /// kill. Window-by-window driving equals a single uncapped run — the
    /// event queue carries over between caps — so this fingerprint also
    /// equals the one-shot driver's.
    pub fn uninterrupted(&self) -> Fingerprint {
        Self::complete(self.session(), &self.grid)
    }

    /// The crash leg: run to boundary `kill` (an index into
    /// [`CrashCart::boundaries`]), checkpoint, push the checkpoint through
    /// the full encode → decode envelope (the bytes are all a dead
    /// process leaves behind), drop the session, restore into a freshly
    /// built one, and resume over the remaining grid.
    pub fn killed_at(&self, kill: usize) -> Result<Fingerprint, FrameError> {
        let grid = &self.grid;
        assert!(kill < grid.len(), "kill index {kill} outside grid of {}", grid.len());
        let mut session = self.session();
        for &t in &grid[..=kill] {
            session.run_until(t);
        }
        let bytes = encode_checkpoint(&session.checkpoint().expect("session is checkpointable"));
        drop(session); // the crash: nothing survives but the bytes
        let cp = decode_checkpoint(&bytes)?;
        let mut revived = self.session();
        revived.restore(cp).expect("identical factory builds an identical stack shape");
        Ok(Self::complete(revived, &grid[kill + 1..]))
    }

    /// Kill at every boundary and diff each resumed fingerprint against
    /// the uninterrupted baseline. Returns the baseline and the
    /// mismatching boundary indices — none means the recovery contract
    /// holds everywhere.
    pub fn sweep(&self) -> (Fingerprint, Vec<usize>) {
        let baseline = self.uninterrupted();
        let mismatches =
            (0..self.grid.len()).filter(|&k| !matches!(self.killed_at(k), Ok(fp) if fp == baseline)).collect();
        (baseline, mismatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driftpilot::{drift_road_test, DriftRunConfig, DriftSession};
    use crate::fixtures::trained;
    use crate::scenario::Scenario;
    use campuslab_control::RolloutStage;
    use campuslab_obs::crc32;

    /// Magic, version, payload length and checksum.
    const HEADER_LEN: usize = 4 + 4 + 8 + 4;

    /// A deliberately small crash-test scenario: the amplification campus
    /// cut to a 5 s workload. Checkpoints stay small (the event queue
    /// carries every unplayed injection) and one run is cheap enough to
    /// sweep kill points over in debug CI — the full-size rotation drift
    /// sweep is E19's job, in a release binary.
    fn cheap_scenario() -> Scenario {
        let mut s = Scenario::small();
        s.workload.duration = SimDuration::from_secs(5);
        s
    }

    fn cheap_session() -> DriftSession {
        session_on(&cheap_scenario())
    }

    fn session_on(scenario: &Scenario) -> DriftSession {
        let (known_good, model) = trained();
        DriftSession::new(
            scenario,
            known_good.clone(),
            Box::new(model.clone()),
            DriftRunConfig { settle: SimDuration::ZERO },
        )
    }

    /// The full-size rotation drift run, as the bare [`Session`] so the
    /// restore-shape tests can look at its stack members.
    fn rotation_session() -> Session {
        let (known_good, model) = trained();
        DriftSession::new(
            &Scenario::drift_rotation(),
            known_good.clone(),
            Box::new(model.clone()),
            DriftRunConfig::default(),
        )
        .into()
    }

    #[test]
    fn windowed_session_equals_drift_road_test() {
        let (known_good, model) = trained();
        let road = drift_road_test(
            &cheap_scenario(),
            known_good.clone(),
            Box::new(model.clone()),
            DriftRunConfig { settle: SimDuration::ZERO },
        );
        let cart = CrashCart::new(cheap_session, SimDuration::from_secs(1));
        assert_eq!(cart.uninterrupted(), fingerprint(&road));
    }

    #[test]
    fn checkpoint_roundtrips_through_the_envelope() {
        let mut session = cheap_session();
        session.run_until(SimTime::from_millis(1_500));
        let cp = session.checkpoint();
        let bytes = encode_checkpoint(&cp);
        let back = decode_checkpoint(&bytes).expect("clean envelope decodes");
        assert_eq!(encode_checkpoint(&back), bytes, "re-encode is byte-identical");
    }

    /// The payload is positional, so any field added, removed, reordered
    /// or re-typed anywhere a checkpoint reaches moves these bytes — long
    /// before E19's release-mode replay would notice.
    #[test]
    fn image_layout_is_pinned_to_its_version() {
        let mut session = cheap_session();
        session.run_until(SimTime::from_millis(1_500));
        let bytes = encode_checkpoint(&session.checkpoint());
        assert_eq!(
            (crc32(&bytes), bytes.len()),
            PHOENIX_LAYOUT_PIN,
            "image layout changed: bump PHOENIX_VERSION and re-pin PHOENIX_LAYOUT_PIN \
             (now {:#010x}, {} bytes)",
            crc32(&bytes),
            bytes.len()
        );
    }

    /// The tentpole smoke: kill at every grid boundary (attack onset,
    /// mid-mitigation, retrains, settle) and demand resumed ==
    /// uninterrupted at each one. The randomized differential lives in
    /// `tests/phoenix_diff.rs`; the full-size drift sweep is E19's.
    #[test]
    fn kill_at_every_boundary_resumes_byte_identically() {
        let cart = CrashCart::new(cheap_session, SimDuration::from_secs(1));
        assert_eq!(cart.sweep().1, Vec::<usize>::new());
    }

    /// The evidence-sync cursors are not in the image: at every kill point
    /// the restored stack derives the cursors the uninterrupted stack
    /// holds at that barrier.
    #[test]
    fn restore_derives_the_sync_cursors() {
        let cart = CrashCart::new(cheap_session, SimDuration::from_secs(1));
        let mut live: Session = cheap_session().into();
        let mut moved = false;
        for t in cart.boundaries() {
            live.run_until(t);
            let bytes = encode_checkpoint(&live.checkpoint().unwrap());
            let mut revived: Session = cheap_session().into();
            revived.restore(decode_checkpoint(&bytes).unwrap()).unwrap();
            assert_eq!(revived.stack.seen, live.stack.seen, "at {t}");
            moved |= live.stack.seen != Default::default();
        }
        assert!(moved, "no barrier had evidence to forward");
    }

    /// Satellite: a checkpoint taken while the guard is mid-canary (the
    /// ladder's most state-laden stage: candidate mirror, cohort verdicts,
    /// baselines, cooldowns) restores and converges identically.
    #[test]
    fn restore_mid_canary_preserves_the_ladder() {
        // Walk the grid until a boundary catches the guard mid-ladder
        // (shadow or canary: candidate mirror live, cohort verdicts and
        // baselines accumulating — the ladder's most state-laden stages).
        let grid_step = SimDuration::from_secs(1);
        let mut live = rotation_session();
        let deadline = live.deadline().expect("drift sessions are deadline-bounded");
        let mut found = false;
        let mut t = SimTime::ZERO;
        while t < deadline {
            t += grid_step;
            live.run_until(t);
            if matches!(live.stack.guard.as_ref().unwrap().stage(), RolloutStage::Canary | RolloutStage::Shadow) {
                found = true;
                break;
            }
        }
        assert!(found, "rotation drift must put the guard mid-ladder at some 1s boundary");
        let mid_stage = live.stack.guard.as_ref().unwrap().stage();
        let cp = live.checkpoint().unwrap();

        let mut revived = rotation_session();
        revived.restore(decode_checkpoint(&encode_checkpoint(&cp)).expect("decodes")).unwrap();
        assert_eq!(revived.stack.guard.as_ref().unwrap().stage(), mid_stage, "ladder stage survives restore");

        live.run_until(deadline);
        revived.run_until(deadline);
        assert_eq!(fingerprint(&revived.finish()), fingerprint(&live.finish()));
    }

    /// Satellite: a checkpoint taken inside an open drift episode (onset
    /// stamped, not yet mitigated) restores with the episode still open
    /// and closes it on the same sim-time schedule.
    #[test]
    fn restore_mid_drift_episode_closes_on_schedule() {
        let grid_step = SimDuration::from_secs(1);
        let mut live = rotation_session();
        let deadline = live.deadline().expect("drift sessions are deadline-bounded");
        let mut found = false;
        let mut t = SimTime::ZERO;
        while t < deadline {
            t += grid_step;
            live.run_until(t);
            if live.stack.pilot.as_ref().unwrap().episodes.iter().any(|e| e.mitigated.is_none()) {
                found = true;
                break;
            }
        }
        assert!(found, "rotation drift must leave an episode open at some 1s boundary");
        let cp = live.checkpoint().unwrap();

        let mut revived = rotation_session();
        revived.restore(cp).unwrap();
        assert!(
            revived.stack.pilot.as_ref().unwrap().episodes.iter().any(|e| e.mitigated.is_none()),
            "open episode survives restore"
        );

        live.run_until(deadline);
        revived.run_until(deadline);
        assert_eq!(fingerprint(&revived.finish()), fingerprint(&live.finish()));
    }

    /// A sink as a build whose table for the layer was a single counter
    /// would have frozen it: fewer counters than any layer's table here.
    fn one_counter_sink() -> campuslab_obs::ObsSink {
        let mut registry = campuslab_obs::Registry::new();
        registry.counter("forged_total", "the only metric of a table from another build");
        registry.sink()
    }

    /// The envelope's CRC vouches for the bytes, not for the build that
    /// wrote them: an image whose metric sink has another shape (here too
    /// few counters, in each layer in turn) decodes cleanly and must then
    /// be refused by `restore` with the session untouched — ids are
    /// positional, so thawing it would index out of bounds mid-run.
    #[test]
    fn restore_refuses_a_sink_that_does_not_fit() {
        use crate::session::FreezeError;
        let cart = CrashCart::new(cheap_session, SimDuration::from_secs(1));
        let mut session = cheap_session();
        session.run_until(SimTime::from_millis(1_500));
        let good = encode_checkpoint(&session.checkpoint());
        type SinkOf = fn(&mut PhoenixCheckpoint) -> &mut campuslab_obs::ObsSink;
        let layers: [(&str, SinkOf); 5] = [
            ("net", |cp| &mut cp.net.obs),
            ("guard", |cp| &mut cp.hooks.guard.as_mut().unwrap().sink),
            ("controller", |cp| &mut cp.hooks.controller.as_mut().unwrap().sink),
            ("detector", |cp| &mut cp.hooks.controller.as_mut().unwrap().detector.sink),
            ("pilot", |cp| &mut cp.hooks.pilot.as_mut().unwrap().sink),
        ];
        let mut revived: Session = cheap_session().into();
        for (layer, sink_of) in layers {
            let mut cp = decode_checkpoint(&good).unwrap();
            *sink_of(&mut cp) = one_counter_sink();
            // Re-encoding stamps a fresh CRC over the doctored payload.
            let doctored = decode_checkpoint(&encode_checkpoint(&cp)).expect("well-formed image");
            assert_eq!(
                revived.restore(doctored).err(),
                Some(FreezeError::JobMismatch),
                "{layer}"
            );
        }
        // Five refusals later the session still restores and finishes as
        // if nothing had been offered to it.
        revived.restore(decode_checkpoint(&good).unwrap()).expect("the good image fits");
        revived.run_to_end();
        assert_eq!(fingerprint(&revived.finish()), cart.uninterrupted());
    }

    /// Nor does the CRC vouch for the scenario: an image taken on one
    /// campus decodes cleanly anywhere, and a session built on another
    /// shape must refuse it before anything — stack included — is touched.
    #[test]
    fn restore_refuses_an_image_from_another_campus() {
        use crate::session::FreezeError;
        let mut elsewhere = cheap_session();
        elsewhere.run_until(SimTime::from_millis(1_500));
        let foreign = encode_checkpoint(&elsewhere.checkpoint());

        let smaller_campus = || {
            let mut scenario = cheap_scenario();
            scenario.campus.hosts_per_access -= 1;
            session_on(&scenario)
        };
        let cart = CrashCart::new(smaller_campus, SimDuration::from_secs(1));
        let mut revived: Session = smaller_campus().into();
        assert_eq!(
            revived.restore(decode_checkpoint(&foreign).unwrap()).err(),
            Some(FreezeError::JobMismatch)
        );
        // The refusal cost nothing: the session's own image still fits and
        // finishes where the uninterrupted run does.
        let mut own = smaller_campus();
        own.run_until(SimTime::from_millis(1_500));
        revived.restore(own.checkpoint()).expect("its own image fits");
        revived.run_to_end();
        assert_eq!(fingerprint(&revived.finish()), cart.uninterrupted());
    }

    /// Nor does it vouch for the schedule: same campus, same network
    /// seed, but another workload seed means other injections. The image
    /// references its pending injections instead of carrying them, so a
    /// session whose schedule differs must refuse it — and the refusal
    /// leaves that session free to restore its own image exactly.
    #[test]
    fn restore_refuses_an_image_from_another_workload() {
        use crate::session::FreezeError;
        let mut elsewhere = cheap_session();
        elsewhere.run_until(SimTime::from_millis(1_500));
        let foreign = encode_checkpoint(&elsewhere.checkpoint());

        let other_traffic = || {
            let mut scenario = cheap_scenario();
            scenario.workload.seed += 1;
            session_on(&scenario)
        };
        let cart = CrashCart::new(other_traffic, SimDuration::from_secs(1));
        let mut revived: Session = other_traffic().into();
        assert_eq!(
            revived.restore(decode_checkpoint(&foreign).unwrap()).err(),
            Some(FreezeError::JobMismatch)
        );
        let mut own = other_traffic();
        own.run_until(SimTime::from_millis(1_500));
        revived.restore(own.checkpoint()).expect("its own image fits");
        revived.run_to_end();
        assert_eq!(fingerprint(&revived.finish()), cart.uninterrupted());
    }

    #[test]
    fn decoder_rejects_bad_magic_version_skew_and_short_input() {
        let mut session = cheap_session();
        session.run_until(SimTime::from_millis(1_500));
        let bytes = encode_checkpoint(&session.checkpoint());

        assert!(matches!(
            decode_checkpoint(&[]),
            Err(FrameError::Truncated { got: 0, .. })
        ));
        assert!(matches!(
            decode_checkpoint(&bytes[..HEADER_LEN - 1]),
            Err(FrameError::Truncated { .. })
        ));

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Q';
        assert!(matches!(decode_checkpoint(&bad_magic), Err(FrameError::BadMagic { .. })));

        let mut skew = bytes.clone();
        skew[4..8].copy_from_slice(&(PHOENIX_VERSION + 1).to_le_bytes());
        assert_eq!(
            decode_checkpoint(&skew).err(),
            Some(FrameError::VersionSkew {
                found: PHOENIX_VERSION + 1,
                supported: PHOENIX_VERSION
            })
        );

        // A v7 header on this payload: the layout that carried the sync
        // cursors, the tap set, the detector's window and gate, the
        // breaker's policy and the pilot's record count, refused by its
        // version word whatever the bytes behind it would decode to.
        let mut v7 = bytes.clone();
        v7[4..8].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v7).err(),
            Some(FrameError::VersionSkew { found: 7, supported: 8 })
        );

        // A v6 header: the layout that carried static fault windows,
        // i.i.d. loss and a loss-channel template beside the chaos flags,
        // refused the same way.
        let mut v6 = bytes.clone();
        v6[4..8].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v6).err(),
            Some(FrameError::VersionSkew { found: 6, supported: PHOENIX_VERSION })
        );

        // A v5 header: the layout that carried per-node and per-link
        // counters, enqueue stamps and the pilot's feature stream, refused
        // the same way.
        let mut v5 = bytes.clone();
        v5[4..8].copy_from_slice(&5u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v5).err(),
            Some(FrameError::VersionSkew { found: 5, supported: PHOENIX_VERSION })
        );

        // A v4 header: the layout that copied every pending build-time
        // injection, refused the same way.
        let mut v4 = bytes.clone();
        v4[4..8].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v4).err(),
            Some(FrameError::VersionSkew { found: 4, supported: PHOENIX_VERSION })
        );

        // A v3 header: the frame-field layout (MACs, IPv4
        // protocol/identification, TCP window), refused the same way.
        let mut v3 = bytes.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v3).err(),
            Some(FrameError::VersionSkew { found: 3, supported: PHOENIX_VERSION })
        );

        // A v2 header: the RED-era layout, refused the same way.
        let mut v2 = bytes.clone();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            decode_checkpoint(&v2).err(),
            Some(FrameError::VersionSkew { found: 2, supported: PHOENIX_VERSION })
        );

        // A v1 image (JSON payload) is version skew, not a payload to try:
        // the version word is refused before the payload is read.
        let json = br#"{"net":{},"hooks":{},"bank":{}}"#;
        let mut v1 = PHOENIX_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(json.len() as u64).to_le_bytes());
        v1.extend_from_slice(&crc32(json).to_le_bytes());
        v1.extend_from_slice(json);
        assert_eq!(
            decode_checkpoint(&v1).err(),
            Some(FrameError::VersionSkew { found: 1, supported: PHOENIX_VERSION })
        );

        // Bytes past the header's payload length are refused, not ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_checkpoint(&padded).err(),
            Some(FrameError::TrailingBytes {
                expected: bytes.len() as u64,
                got: bytes.len() as u64 + 1
            })
        );
    }

    /// Never-panic fuzz over a real checkpoint's payload decoder,
    /// `CAMPUSLAB_FUZZ_CASES` scaled (the envelope itself is fuzzed where
    /// it lives, `campuslab_obs::frame`). Each case damages the payload and
    /// re-stamps the header's length and checksum, so the binary decoder of
    /// every frozen layer has to survive the damage on its own: `Err` or a
    /// value, never a panic.
    #[test]
    fn envelope_decoder_never_panics_on_corrupt_input() {
        let mut session = cheap_session();
        session.run_until(SimTime::from_millis(4_000));
        let bytes = encode_checkpoint(&session.checkpoint());

        let cases: u64 = std::env::var("CAMPUSLAB_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);

        let restamp = |payload: &[u8]| {
            let mut image = bytes[..8].to_vec();
            image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            image.extend_from_slice(&crc32(payload).to_le_bytes());
            image.extend_from_slice(payload);
            image
        };
        let payload = &bytes[HEADER_LEN..];
        let mut x = 0x9E3779B97F4A7C15u64; // xorshift stream, deterministic
        for _ in 0..cases {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545F4914F6CDD1D);
            let pos = (r as usize) % payload.len();
            let mut damaged = payload.to_vec();
            if r >> 63 == 0 {
                damaged[pos] = (r >> 40) as u8;
                let _ = decode_checkpoint(&restamp(&damaged));
            } else {
                damaged.truncate(pos);
                assert!(matches!(decode_checkpoint(&restamp(&damaged)), Err(FrameError::Payload(_))));
            }
        }
        // A forged 2^60 count where the pending-event vector starts (the
        // fields before it are positional, so their encodings concatenate)
        // fails from the length alone, nothing allocated.
        let net = session.checkpoint().net;
        let mut forged = Vec::new();
        serde::Serialize::serialize_bin(&(net.now, net.seed, net.root_seq, &net.stats), &mut forged);
        serde::Serialize::serialize_bin(&net.obs, &mut forged);
        serde::bin::write_varint(&mut forged, 1 << 60);
        match decode_checkpoint(&restamp(&forged)) {
            Err(FrameError::Payload(e)) => {
                assert!(matches!(e.kind, serde::bin::ErrorKind::LengthOverrun { .. }), "{e}")
            }
            other => panic!("forged length accepted: {:?}", other.err()),
        }
    }
}
