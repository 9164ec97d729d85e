//! Startup recovery: rebuild the live session from a `--wal-dir`.
//!
//! The recovery algorithm:
//!
//! 1. **Load the newest valid snapshot** (`snapshot.json`). A missing or
//!    invalid snapshot (torn copy, bit rot, infeasible state) falls back
//!    to replaying the whole WAL — a bad snapshot never blocks a boot
//!    the log alone can serve, and never panics.
//! 2. **Scan the WAL tail** from the snapshot's embedded byte offset
//!    (or 0 without one). [`crate::wal::scan_from`] classifies the first
//!    undecodable frame: a *torn tail* (crash mid-append) is truncated
//!    off the file so the writer can resume at a clean offset;
//!    *mid-log corruption* refuses the boot with a structured
//!    [`RecoveryError::Corrupt`] naming the byte offset — truncating
//!    there would silently drop acked history.
//! 3. **Replay the tail** through [`apply_record`], the same path
//!    replicas apply shipped records through: `Load` records open a
//!    fresh [`Session`], `Mutation` records re-apply through the
//!    deterministic [`IncrementalArranger`] (a record that failed at
//!    runtime — the WAL logs before applying — fails identically and is
//!    skipped), `Install` records re-adopt a solve arrangement.
//!
//! The result is bit-identical to the pre-crash state for every acked
//! request: an ack only follows a durable append, so the recovered log
//! is always a prefix of the sent stream containing at least every
//! acked record.

use crate::wal::{
    self, read_snapshot, scan_from, FsyncPolicy, SnapshotDoc, SnapshotReadError, WalRecord,
    WalWriter,
};
use geacc_core::{DynamicConfig, IncrementalArranger, Instance, Violation};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// A loaded instance under management: the arranger plus the pristine
/// base instance snapshots embed. The base shares its attribute vectors
/// with the arranger's instance until that one grows. Live ops, boot
/// recovery and replicas all build and advance this one type.
#[derive(Debug)]
pub struct Session {
    pub arranger: IncrementalArranger,
    pub base: Instance,
}

impl Session {
    /// A fresh session over `base` (the initial Greedy solve).
    pub fn new(base: Instance, config: DynamicConfig) -> Session {
        Session {
            arranger: IncrementalArranger::new(base.clone(), config),
            base,
        }
    }

    /// Resume the session a durability snapshot holds, without replay.
    /// Rejected unless the snapshot's arrangement is feasible for its
    /// live instance.
    pub fn resume(doc: SnapshotDoc, config: DynamicConfig) -> Result<Session, Vec<Violation>> {
        let arranger =
            IncrementalArranger::resume(doc.live, doc.log, doc.arrangement, doc.baseline, config)?;
        Ok(Session {
            arranger,
            base: doc.base,
        })
    }

    /// The durability snapshot of this session, cut at WAL position
    /// (`wal_offset`, `wal_records`).
    pub fn snapshot_doc(&self, wal_offset: u64, wal_records: u64) -> SnapshotDoc {
        let arranger = &self.arranger;
        SnapshotDoc {
            version: 1,
            wal_offset,
            wal_records,
            epoch: arranger.epoch(),
            base: self.base.clone(),
            live: arranger.instance().clone(),
            log: arranger.log().to_vec(),
            arrangement: arranger.arrangement().clone(),
            baseline: arranger.baseline_max_sum(),
        }
    }
}

/// What recovery found and did — surfaced in the boot log line and the
/// `stats` op's durability counters.
#[derive(Debug)]
pub struct Recovery {
    /// The live session, if the log (or snapshot) contained one.
    pub session: Option<Session>,
    /// Byte length of the valid WAL prefix; the writer resumes here.
    pub wal_offset: u64,
    /// Records in the valid prefix (snapshot's count + tail records).
    pub wal_records: u64,
    /// Tail records replayed (applied or skipped) after the snapshot.
    pub replayed: u64,
    /// Tail mutations that failed to apply — they failed identically at
    /// runtime, so skipping reproduces the served state.
    pub skipped: u64,
    /// Torn-tail bytes truncated off the WAL.
    pub truncated_bytes: u64,
    /// Whether the snapshot fast path was taken.
    pub snapshot_used: bool,
    /// The snapshot's epoch, when one was used.
    pub snapshot_epoch: Option<u64>,
    /// Idempotency keys seen in the replayed records: client → highest
    /// seq. Re-arms the service's dedup table so a client retry across
    /// a restart still cannot double-apply. (With the snapshot fast
    /// path only the tail is scanned; that is sufficient — a retry only
    /// happens for an ambiguous in-flight request, which by definition
    /// is recent enough to sit in the tail.)
    pub dedup_keys: Vec<(String, u64)>,
}

/// Recovery refused to reconstruct state it cannot vouch for.
#[derive(Debug)]
pub enum RecoveryError {
    Io(io::Error),
    /// Mid-log corruption: `path` fails its checksum at `offset` with
    /// more records after it.
    Corrupt {
        path: PathBuf,
        offset: u64,
        detail: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery i/o: {e}"),
            RecoveryError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "refusing to boot: {} is corrupt at byte {offset}: {detail} \
                 (truncating mid-log would drop acknowledged history; restore \
                 from a snapshot or move the damaged log aside)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl RecoveryError {
    /// Flatten into an `io::Error` for callers (the daemon's bind path)
    /// that only speak io — the structured message survives.
    pub fn into_io(self) -> io::Error {
        match self {
            RecoveryError::Io(e) => e,
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// WAL file path inside `dir`.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(wal::WAL_FILE)
}

/// Snapshot file path inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(wal::SNAPSHOT_FILE)
}

/// Recover a session from `dir`, truncating any torn WAL tail, and
/// return the state plus the offsets a fresh [`WalWriter`] should
/// resume from. Creates `dir` (empty recovery) on first boot.
pub fn recover(dir: &Path, config: DynamicConfig) -> Result<Recovery, RecoveryError> {
    std::fs::create_dir_all(dir)?;
    let wal_file = wal_path(dir);
    let bytes = match std::fs::read(&wal_file) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(RecoveryError::Io(e)),
    };

    // Snapshot fast path: resume the session and scan only the tail.
    let snapshot = match read_snapshot(&snapshot_path(dir)) {
        Ok(doc) => Some(doc),
        Err(SnapshotReadError::Missing | SnapshotReadError::Invalid { .. }) => None,
        Err(SnapshotReadError::Io(e)) => return Err(RecoveryError::Io(e)),
    };
    if let Some(doc) = snapshot {
        match try_snapshot_recovery(&wal_file, &bytes, doc, config) {
            Ok(Some(recovery)) => return Ok(recovery),
            Ok(None) => {} // inconsistent snapshot: fall through to full replay
            Err(e) => return Err(e),
        }
    }

    // Full replay from the beginning of the log.
    let scan = scan_from(&bytes, 0).map_err(|c| RecoveryError::Corrupt {
        path: wal_file.clone(),
        offset: c.offset,
        detail: c.detail,
    })?;
    truncate_torn_tail(&wal_file, &scan)?;
    Ok(replay_scan(None, &scan, 0, None, config))
}

/// Attempt the snapshot fast path. `Ok(None)` means the snapshot is
/// internally inconsistent (infeasible arrangement, offset past a
/// replaced log) and the caller should fall back to full replay.
fn try_snapshot_recovery(
    wal_file: &Path,
    bytes: &[u8],
    doc: SnapshotDoc,
    config: DynamicConfig,
) -> Result<Option<Recovery>, RecoveryError> {
    let snapshot_offset = doc.wal_offset;
    let snapshot_records = doc.wal_records;
    let snapshot_epoch = doc.epoch;
    let scan = match scan_from(bytes, snapshot_offset) {
        Ok(scan) => scan,
        // An offset past EOF means the WAL was replaced under the
        // snapshot; the log is still self-consistent, so fall back.
        Err(_) if snapshot_offset > bytes.len() as u64 => return Ok(None),
        Err(c) => {
            return Err(RecoveryError::Corrupt {
                path: wal_file.to_path_buf(),
                offset: c.offset,
                detail: c.detail,
            })
        }
    };
    let Ok(session) = Session::resume(doc, config) else {
        return Ok(None); // infeasible snapshot: fall back
    };
    truncate_torn_tail(wal_file, &scan)?;
    Ok(Some(replay_scan(
        Some(session),
        &scan,
        snapshot_records,
        Some(snapshot_epoch),
        config,
    )))
}

/// Replay a scanned WAL tail over `session` (the snapshot's, or none)
/// — the one replay loop of both recovery paths. `base_records` is the
/// record count below the scan; `snapshot_epoch` names the snapshot the
/// replay resumed from, if any.
fn replay_scan(
    mut session: Option<Session>,
    scan: &wal::WalScan,
    base_records: u64,
    snapshot_epoch: Option<u64>,
    config: DynamicConfig,
) -> Recovery {
    let mut dedup = BTreeMap::new();
    let skipped = replay(
        &mut session,
        scan.records.iter().map(|r| &r.record),
        &mut dedup,
        config,
    );
    Recovery {
        session,
        wal_offset: scan.valid_len,
        wal_records: base_records + scan.records.len() as u64,
        replayed: scan.records.len() as u64,
        skipped,
        truncated_bytes: scan.truncated_bytes,
        snapshot_used: snapshot_epoch.is_some(),
        snapshot_epoch,
        dedup_keys: dedup.into_iter().collect(),
    }
}

/// Apply `records` in order, noting each idempotency key (highest seq
/// per client) in `dedup`; returns how many were skipped.
fn replay<'a>(
    state: &mut Option<Session>,
    records: impl Iterator<Item = &'a WalRecord>,
    dedup: &mut BTreeMap<String, u64>,
    config: DynamicConfig,
) -> u64 {
    let mut skipped = 0;
    for record in records {
        if let WalRecord::KeyedMutation { client, seq, .. } = record {
            let entry = dedup.entry(client.clone()).or_insert(*seq);
            *entry = (*entry).max(*seq);
        }
        if !apply_record(state, record, config) {
            skipped += 1;
        }
    }
    skipped
}

/// Apply one replayed record to the session under construction; `false`
/// means the record was skipped (it failed identically at runtime).
/// Public because replication shares it: a replica applies shipped
/// records through exactly this path, and failover tests use it to
/// compute what an acked WAL prefix must serve.
pub fn apply_record(
    state: &mut Option<Session>,
    record: &WalRecord,
    config: DynamicConfig,
) -> bool {
    match record {
        WalRecord::Load { instance } => {
            *state = Some(Session::new(instance.clone(), config));
            true
        }
        WalRecord::Mutation { mutation } | WalRecord::KeyedMutation { mutation, .. } => match state
        {
            Some(session) => session.arranger.apply(mutation.clone()).is_ok(),
            None => false, // mutation before any load: skipped at runtime too
        },
        WalRecord::Install {
            arrangement,
            baseline,
        } => match state {
            Some(session) => session
                .arranger
                .install(arrangement.clone(), *baseline)
                .is_ok(),
            None => false,
        },
    }
}

/// Replay a record prefix into a fresh session — the same deterministic
/// path boot recovery takes, exposed so replication tests and the
/// failover smoke can compute what an acked WAL prefix must serve
/// without booting a server.
pub fn replay_prefix(records: &[WalRecord], config: DynamicConfig) -> Option<Session> {
    let mut state = None;
    replay(&mut state, records.iter(), &mut BTreeMap::new(), config);
    state
}

/// Truncate the WAL file to its valid prefix so the writer resumes at a
/// clean offset.
fn truncate_torn_tail(wal_file: &Path, scan: &wal::WalScan) -> Result<(), RecoveryError> {
    if scan.truncated_bytes == 0 {
        return Ok(());
    }
    let file = std::fs::OpenOptions::new().write(true).open(wal_file)?;
    file.set_len(scan.valid_len)?;
    file.sync_all()?;
    Ok(())
}

/// Open the WAL writer at the offset recovery validated.
pub fn open_writer(dir: &Path, policy: FsyncPolicy, recovery: &Recovery) -> io::Result<WalWriter> {
    WalWriter::open(
        &wal_path(dir),
        policy,
        recovery.wal_offset,
        recovery.wal_records,
    )
}

/// Wipe the durable state in `dir` and open a fresh writer at offset 0:
/// a replica starting a full resync discards its local log (it is about
/// to receive an authoritative snapshot + tail from the primary) along
/// with any now-stale local snapshot.
pub fn reset_wal(dir: &Path, policy: FsyncPolicy) -> io::Result<WalWriter> {
    let wal_file = wal_path(dir);
    match std::fs::OpenOptions::new().write(true).open(&wal_file) {
        Ok(file) => {
            file.set_len(0)?;
            file.sync_all()?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    match std::fs::remove_file(snapshot_path(dir)) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    WalWriter::open(&wal_file, policy, 0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::write_snapshot;
    use geacc_core::{toy, EventId, Mutation, Side};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("geacc-recovery-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_records(dir: &Path, records: &[WalRecord], policy: FsyncPolicy) {
        let mut w = WalWriter::open(&wal_path(dir), policy, 0, 0).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.sync_now().unwrap();
    }

    fn session_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Load {
                instance: toy::table1_instance(),
            },
            WalRecord::Mutation {
                mutation: Mutation::AddConflict {
                    a: EventId(0),
                    b: EventId(1),
                },
            },
            WalRecord::Mutation {
                mutation: Mutation::CloseEvent { event: EventId(2) },
            },
        ]
    }

    #[test]
    fn empty_dir_recovers_to_no_session() {
        let dir = tmp_dir("empty");
        let r = recover(&dir, DynamicConfig::default()).unwrap();
        assert!(r.session.is_none());
        assert_eq!((r.wal_offset, r.wal_records), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_replay_matches_a_live_session() {
        let dir = tmp_dir("replay");
        write_records(&dir, &session_records(), FsyncPolicy::Always);
        let r = recover(&dir, DynamicConfig::default()).unwrap();
        let session = r.session.unwrap();
        assert_eq!(r.replayed, 3);
        assert_eq!(r.skipped, 0);
        assert!(!r.snapshot_used);

        let mut live = IncrementalArranger::new(toy::table1_instance(), DynamicConfig::default());
        live.apply(Mutation::AddConflict {
            a: EventId(0),
            b: EventId(1),
        })
        .unwrap();
        live.apply(Mutation::CloseEvent { event: EventId(2) })
            .unwrap();
        assert_eq!(session.arranger.arrangement(), live.arrangement());
        assert_eq!(
            session.arranger.max_sum().to_bits(),
            live.max_sum().to_bits()
        );
        assert_eq!(session.base, toy::table1_instance());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_the_writer_resumes() {
        let dir = tmp_dir("torn");
        write_records(&dir, &session_records(), FsyncPolicy::Never);
        // Tear the last record.
        let path = wal_path(&dir);
        let full = std::fs::read(&path).unwrap();
        let scan = crate::wal::scan(&full).unwrap();
        let cut = scan.records[2].offset + 3;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let r = recover(&dir, DynamicConfig::default()).unwrap();
        assert_eq!(r.replayed, 2);
        assert_eq!(r.truncated_bytes, 3);
        assert_eq!(r.wal_offset, scan.records[2].offset);
        // The file itself was truncated to the valid prefix.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            scan.records[2].offset
        );
        // And appending resumes cleanly.
        let mut w = open_writer(&dir, FsyncPolicy::Always, &r).unwrap();
        w.append(&session_records()[2]).unwrap();
        let r2 = recover(&dir, DynamicConfig::default()).unwrap();
        assert_eq!(r2.wal_records, 3);
        assert_eq!(r2.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_log_corruption_refuses_to_boot() {
        let dir = tmp_dir("corrupt");
        write_records(&dir, &session_records(), FsyncPolicy::Always);
        let path = wal_path(&dir);
        let full = std::fs::read(&path).unwrap();
        let scan = crate::wal::scan(&full).unwrap();
        let mut bad = full.clone();
        let idx = (scan.records[1].offset + crate::wal::HEADER_LEN) as usize + 1;
        bad[idx] ^= 0x20;
        std::fs::write(&path, &bad).unwrap();

        let err = recover(&dir, DynamicConfig::default()).unwrap_err();
        match err {
            RecoveryError::Corrupt { offset, .. } => {
                assert_eq!(offset, scan.records[1].offset);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_fast_path_plus_tail_equals_full_replay() {
        let dir_full = tmp_dir("snap-full");
        let dir_snap = tmp_dir("snap-fast");
        let records = session_records();
        write_records(&dir_full, &records, FsyncPolicy::Always);
        write_records(&dir_snap, &records, FsyncPolicy::Always);

        // Cut a snapshot at record 2 (offset of the third record).
        let bytes = std::fs::read(wal_path(&dir_snap)).unwrap();
        let scan = crate::wal::scan(&bytes).unwrap();
        let mut arranger =
            IncrementalArranger::new(toy::table1_instance(), DynamicConfig::default());
        arranger
            .apply(Mutation::AddConflict {
                a: EventId(0),
                b: EventId(1),
            })
            .unwrap();
        let session = Session {
            arranger,
            base: toy::table1_instance(),
        };
        let doc = session.snapshot_doc(scan.records[2].offset, 2);
        write_snapshot(&snapshot_path(&dir_snap), &doc).unwrap();

        let full = recover(&dir_full, DynamicConfig::default()).unwrap();
        let fast = recover(&dir_snap, DynamicConfig::default()).unwrap();
        assert!(fast.snapshot_used);
        assert_eq!(fast.snapshot_epoch, Some(1));
        assert_eq!(fast.replayed, 1, "only the tail replays");
        assert_eq!(fast.wal_records, full.wal_records);
        let (a, b) = (full.session.unwrap(), fast.session.unwrap());
        assert_eq!(a.arranger.arrangement(), b.arranger.arrangement());
        assert_eq!(a.arranger.epoch(), b.arranger.epoch());
        assert_eq!(
            a.arranger.max_sum().to_bits(),
            b.arranger.max_sum().to_bits()
        );
        assert_eq!(a.base, b.base);
        std::fs::remove_dir_all(&dir_full).ok();
        std::fs::remove_dir_all(&dir_snap).ok();
    }

    #[test]
    fn apply_record_skips_what_failed_at_runtime() {
        // A tail recorded by a WAL that logs before applying: the middle
        // record was rejected at runtime (unknown event) and must be
        // skipped, not abort the replay.
        let tail = [
            Mutation::AddConflict {
                a: EventId(0),
                b: EventId(1),
            },
            Mutation::CloseEvent { event: EventId(99) },
            Mutation::SetCapacity {
                side: Side::User,
                id: 0,
                capacity: 0,
            },
        ];
        let mut live = IncrementalArranger::new(toy::table1_instance(), DynamicConfig::default());
        let _ = live.apply(tail[0].clone());
        let _ = live.apply(tail[1].clone()).unwrap_err();
        let _ = live.apply(tail[2].clone());

        let mut state = Some(Session::new(
            toy::table1_instance(),
            DynamicConfig::default(),
        ));
        let skipped = tail
            .iter()
            .filter(|m| {
                let record = WalRecord::Mutation {
                    mutation: (*m).clone(),
                };
                !apply_record(&mut state, &record, DynamicConfig::default())
            })
            .count();
        assert_eq!(skipped, 1);
        let recovered = state.unwrap().arranger;
        assert_eq!(recovered.fingerprint(), live.fingerprint());
        assert_eq!(recovered.epoch(), live.epoch());
    }

    #[test]
    fn keyed_mutations_replay_and_rearm_the_dedup_table() {
        let dir = tmp_dir("keyed");
        let records = vec![
            WalRecord::Load {
                instance: toy::table1_instance(),
            },
            WalRecord::KeyedMutation {
                client: "c-1".to_string(),
                seq: 4,
                mutation: Mutation::AddConflict {
                    a: EventId(0),
                    b: EventId(1),
                },
            },
            WalRecord::KeyedMutation {
                client: "c-1".to_string(),
                seq: 5,
                mutation: Mutation::CloseEvent { event: EventId(2) },
            },
            WalRecord::KeyedMutation {
                client: "c-2".to_string(),
                seq: 1,
                mutation: Mutation::AddConflict {
                    a: EventId(0),
                    b: EventId(2),
                },
            },
        ];
        write_records(&dir, &records, FsyncPolicy::Always);
        let r = recover(&dir, DynamicConfig::default()).unwrap();
        assert_eq!(r.replayed, 4);
        assert_eq!(
            r.dedup_keys,
            vec![("c-1".to_string(), 5), ("c-2".to_string(), 1)]
        );
        // Keyed replay applies the mutations exactly like plain ones.
        let session = r.session.unwrap();
        assert_eq!(session.arranger.epoch(), 3);
        let prefix = replay_prefix(&records, DynamicConfig::default()).unwrap();
        assert_eq!(
            prefix.arranger.fingerprint(),
            session.arranger.fingerprint()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_wal_wipes_the_log_and_snapshot() {
        let dir = tmp_dir("reset");
        write_records(&dir, &session_records(), FsyncPolicy::Always);
        std::fs::write(snapshot_path(&dir), b"{}").unwrap();
        let mut w = reset_wal(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(w.offset(), 0);
        assert!(!snapshot_path(&dir).exists());
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), 0);
        // The fresh writer appends from a clean offset.
        w.append(&session_records()[0]).unwrap();
        let r = recover(&dir, DynamicConfig::default()).unwrap();
        assert_eq!(r.wal_records, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_snapshot_falls_back_to_full_replay() {
        let dir = tmp_dir("snap-bad");
        write_records(&dir, &session_records(), FsyncPolicy::Always);
        std::fs::write(snapshot_path(&dir), b"{\"torn\": tru").unwrap();
        let r = recover(&dir, DynamicConfig::default()).unwrap();
        assert!(!r.snapshot_used);
        assert_eq!(r.replayed, 3);
        assert!(r.session.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
