//! The crash-safe artifact journal: persist every completed
//! [`RunArtifact`] so a panic, deadline, or Ctrl-C never throws away
//! finished work, and a resumed plan only executes the residue.
//!
//! # Record format
//!
//! The journal is one append-only file (`artifacts.journal`) holding an
//! 8-byte magic header followed by self-describing records:
//!
//! ```text
//! u32  len       — byte length of everything below (version..checksum)
//! u16  version   — RECORD_VERSION
//! u64  epoch     — code/config epoch the artifact was computed under
//! u64  fingerprint — stable RunRequest fingerprint (the lookup key)
//! str  label     — human-readable request label (collision cross-check)
//! [..] payload   — stable RunArtifact encoding (interp-core::serial)
//! u64  checksum  — FNV-1a over version..payload
//! ```
//!
//! Every append rewrites the full image to a temp file, fsyncs, and
//! atomically renames it over the journal, so the on-disk file is always
//! either the old image or the new one — never a half-written tail from
//! *our* writer. A torn tail can still appear if the host dies mid-write
//! of the temp file before the rename, or if an external process
//! truncates the journal; the loader treats that (and every other
//! corruption) as a *recoverable, typed* event.
//!
//! # Multi-process coordination
//!
//! Several `repro` processes may share one cache directory. Every
//! republish happens under the advisory [`crate::lock`] file lock, and
//! every acquisition starts with *merge-on-reload*: re-read the journal,
//! fold in records another process landed since our last read, and only
//! then append — so concurrent writers interleave without ever losing
//! each other's records. The published image is always the *canonical*
//! encoding (records in fingerprint order), which makes the final
//! journal byte-identical no matter how appends interleaved.
//!
//! On top of the lock, [`JournalSession`] coordinates *exactly-once
//! execution*: before running a request, a session consults the journal
//! (someone already landed it → reuse), then the claims registry
//! (someone live is running it right now → wait), and otherwise claims
//! the fingerprint itself and executes. A claim whose owner died is
//! simply taken over. A non-resume open *truncates* the journal only
//! when no other live writer session is registered; otherwise it joins
//! the in-flight campaign and reuses its records — so `N` concurrent
//! invocations cooperatively fill one cache.
//!
//! # Defect taxonomy
//!
//! Loading verifies every record and classifies anything wrong as a
//! [`JournalDefect`] — reported, then healed by requeuing the affected
//! runs for recomputation. Corruption is never a crash and never
//! silently trusted:
//!
//! * [`TornTail`](JournalDefectKind::TornTail) — the file ends inside a
//!   record (torn header, torn length prefix, or a length running past
//!   EOF). Only the records from the tear onward are lost.
//! * [`BadChecksum`](JournalDefectKind::BadChecksum) — a record's
//!   checksum does not match its content (bit rot, partial overwrite),
//!   or a checksummed payload fails to decode.
//! * [`BadVersion`](JournalDefectKind::BadVersion) — the record (or the
//!   whole file) was written by a different format version.
//! * [`StaleEpoch`](JournalDefectKind::StaleEpoch) — the record was
//!   written under a different code/config epoch; the bits are intact
//!   but the measurement pipeline has changed, so the artifact cannot be
//!   trusted.
//! * [`DuplicateKey`](JournalDefectKind::DuplicateKey) — two valid
//!   records share a fingerprint; the first wins deterministically.
//!
//! # Quarantine rule
//!
//! Only *successful* artifacts are journaled. A run the supervisor
//! degraded (panic, deadline, fault) is never written: a failure must be
//! re-attempted on the next invocation, not resurrected from cache —
//! caching a `RunFailure` would launder a transient environment problem
//! into a permanent one.

use crate::fingerprint::{current_epoch, RECORD_VERSION};
use crate::lock::{
    self, fresh_token, sweep_lock_debris, Claims, LockConfig, LockError, LockErrorKind, Sessions,
    DEFAULT_LOCK_TIMEOUT,
};
use crate::plan::Plan;
use crate::pool::{
    classify_guard_failure, deadline_limits, supervise_with, ExecutedPlan, RunTiming,
};
use crate::supervise::{RunFailure, SuperviseConfig};
use interp_core::serial::{fnv1a, ByteReader, ByteWriter};
use interp_core::{RunArtifact, RunRequest};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use std::fmt;

/// Journal file magic: identifies the format family; the per-record
/// version tag governs compatibility within it.
pub const MAGIC: [u8; 8] = *b"INTERPJ1";

/// File name of the journal inside a cache directory.
pub const JOURNAL_FILE: &str = "artifacts.journal";

/// Default cache directory (relative to the working directory) used by
/// `repro --resume` when no `--cache-dir` is given. Git-ignored.
pub const DEFAULT_CACHE_DIR: &str = ".repro-cache";

/// Exit status of a process that deliberately crashed via
/// [`JournalConfig::crash_after_appends`] (the crash-resume harness).
pub const CRASH_EXIT_CODE: i32 = 86;

/// How long a waiter sleeps before re-polling a fingerprint another
/// live session has claimed.
const CLAIM_POLL: Duration = Duration::from_millis(5);

/// Smallest possible `len` field: version + epoch + fingerprint + empty
/// label + empty payload is impossible (payload is never empty), but the
/// framing floor is version(2) + epoch(8) + fingerprint(8) + label
/// len(4) + checksum(8).
const MIN_RECORD_REST: usize = 2 + 8 + 8 + 4 + 8;

/// What kind of corruption the loader found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalDefectKind {
    /// The file ends mid-record: a crash tore the final write, or the
    /// file was truncated externally. Drops the torn record and
    /// everything after it.
    TornTail,
    /// Record content does not match its checksum (or a checksummed
    /// payload failed to decode). The record is dropped; framing is
    /// intact, so parsing continues with the next record.
    BadChecksum,
    /// Unknown record (or file) format version.
    BadVersion,
    /// The record was written under a different code/config epoch.
    StaleEpoch,
    /// A second valid record for an already-loaded fingerprint; the
    /// first record wins.
    DuplicateKey,
}

impl JournalDefectKind {
    /// Short stable tag for reports and chaos assertions.
    pub fn label(self) -> &'static str {
        match self {
            JournalDefectKind::TornTail => "torn-tail",
            JournalDefectKind::BadChecksum => "bad-checksum",
            JournalDefectKind::BadVersion => "bad-version",
            JournalDefectKind::StaleEpoch => "stale-epoch",
            JournalDefectKind::DuplicateKey => "duplicate-key",
        }
    }

    /// Every kind, in report order — the axis of
    /// [`LoadedJournal::defect_counts`].
    pub const ALL: [JournalDefectKind; 5] = [
        JournalDefectKind::TornTail,
        JournalDefectKind::BadChecksum,
        JournalDefectKind::BadVersion,
        JournalDefectKind::StaleEpoch,
        JournalDefectKind::DuplicateKey,
    ];
}

/// One detected-and-recovered journal corruption event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDefect {
    /// The taxonomy bucket.
    pub kind: JournalDefectKind,
    /// Byte offset of the affected record (its length prefix), or 0 for
    /// file-level defects.
    pub offset: usize,
    /// Human-readable cause for the stderr report.
    pub detail: String,
}

impl fmt::Display for JournalDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @byte {}: {}", self.kind.label(), self.offset, self.detail)
    }
}

/// Which failure family a [`JournalError`] belongs to — the CLI maps
/// these onto distinct exit codes (4 = I/O, 5 = lock timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalErrorKind {
    /// A filesystem operation on the journal or its cache dir failed.
    Io,
    /// The advisory lock stayed held by a live process past the
    /// configured timeout.
    LockTimeout,
}

/// A journal operation failure (the only *error* the journal can raise —
/// corruption is a recoverable [`JournalDefect`], not an error).
#[derive(Debug, Clone)]
pub struct JournalError {
    /// The failure family (drives the CLI exit code).
    pub kind: JournalErrorKind,
    /// The file or directory the operation touched.
    pub path: PathBuf,
    /// The failing operation (`create-dir`, `read`, `write`, `rename`,
    /// `lock`).
    pub op: &'static str,
    /// The underlying OS error text.
    pub detail: String,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal {} failed for {}: {}", self.op, self.path.display(), self.detail)
    }
}

impl std::error::Error for JournalError {}

pub(crate) fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> JournalError {
    JournalError {
        kind: JournalErrorKind::Io,
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

/// Lift a lock failure into the journal's error type, preserving the
/// timeout-vs-I/O distinction for the CLI exit code.
pub(crate) fn lock_err(e: LockError) -> JournalError {
    JournalError {
        kind: match e.kind {
            LockErrorKind::Timeout => JournalErrorKind::LockTimeout,
            LockErrorKind::Io => JournalErrorKind::Io,
        },
        path: e.path.clone(),
        op: "lock",
        detail: e.detail,
    }
}

/// One valid record recovered from the journal.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// The request fingerprint the artifact was computed for.
    pub fingerprint: u64,
    /// The request's display label at write time.
    pub label: String,
    /// The cached artifact.
    pub artifact: RunArtifact,
}

/// Everything one load pass recovered: the valid records (first valid
/// record per fingerprint wins) plus every defect that was detected,
/// classified, and healed by dropping the affected records.
#[derive(Debug, Clone, Default)]
pub struct LoadedJournal {
    /// Valid records keyed by request fingerprint.
    pub records: BTreeMap<u64, JournalRecord>,
    /// Corruption events, in file order.
    pub defects: Vec<JournalDefect>,
}

impl LoadedJournal {
    /// Defects bucketed by kind label, in taxonomy order, zero-count
    /// kinds omitted — the structural counterpart of the stderr defect
    /// report (tests and `repro status` read this instead of scraping
    /// text).
    pub fn defect_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for defect in &self.defects {
            *counts.entry(defect.kind.label()).or_insert(0) += 1;
        }
        counts
    }
}

/// Byte extents of one record as framed in the file — support for the
/// corruption harness (`runplan::chaos`) and for tests that need to aim
/// a fault at a specific region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Offset of the record's `u32` length prefix.
    pub start: usize,
    /// Offset of the version field (`start + 4`).
    pub body_start: usize,
    /// Offset of the first artifact-payload byte.
    pub payload_start: usize,
    /// Offset one past the last payload byte (= checksum offset).
    pub payload_end: usize,
    /// Offset one past the record's checksum.
    pub end: usize,
}

/// Encode one record (length prefix through checksum).
pub fn encode_record(epoch: u64, fingerprint: u64, label: &str, artifact: &RunArtifact) -> Vec<u8> {
    let mut body = ByteWriter::new();
    body.put_u16(RECORD_VERSION);
    body.put_u64(epoch);
    body.put_u64(fingerprint);
    body.put_str(label);
    artifact.encode_into(&mut body);
    let checksum = fnv1a(body.bytes());
    let mut out = ByteWriter::new();
    out.put_u32((body.len() + 8) as u32);
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body.bytes());
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Encode the *canonical* journal image of a record set: the magic
/// header followed by every record in fingerprint order. Because every
/// publish emits this form, the on-disk journal is a pure function of
/// its record set — byte-identical however many writers interleaved to
/// produce it, which is also what makes compaction's clean-journal fast
/// path a plain byte comparison.
pub fn encode_image(records: &BTreeMap<u64, JournalRecord>, epoch: u64) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    for record in records.values() {
        bytes.extend_from_slice(&encode_record(
            epoch,
            record.fingerprint,
            &record.label,
            &record.artifact,
        ));
    }
    bytes
}

/// Walk the record framing of a journal image (no checksum or content
/// validation) and return each record's span. Stops at the first torn
/// frame. Corruption-harness support.
pub fn record_spans(bytes: &[u8]) -> Vec<RecordSpan> {
    let mut spans = Vec::new();
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return spans;
    }
    let mut off = MAGIC.len();
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < 4 {
            break;
        }
        let len_rest =
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
                as usize;
        if len_rest < MIN_RECORD_REST || len_rest > remaining - 4 {
            break;
        }
        let body_start = off + 4;
        let end = body_start + len_rest;
        // Label length sits after version(2) + epoch(8) + fingerprint(8).
        let ll_off = body_start + 18;
        let label_len = u32::from_le_bytes([
            bytes[ll_off],
            bytes[ll_off + 1],
            bytes[ll_off + 2],
            bytes[ll_off + 3],
        ]) as usize;
        let payload_start = (ll_off + 4 + label_len).min(end - 8);
        spans.push(RecordSpan { start: off, body_start, payload_start, payload_end: end - 8, end });
        off = end;
    }
    spans
}

/// Recompute and rewrite the checksum of the record at `span` so that a
/// deliberately mutated field (stale epoch, bad version) is the *only*
/// defect the loader sees. Corruption-harness support.
pub fn reseal_record(bytes: &mut [u8], span: &RecordSpan) {
    let checksum = fnv1a(&bytes[span.body_start..span.payload_end]);
    bytes[span.payload_end..span.end].copy_from_slice(&checksum.to_le_bytes());
}

/// Parse a journal image, verifying every record's checksum, version,
/// and epoch. Corruption becomes typed [`JournalDefect`]s — this
/// function never fails and never panics; in the worst case it returns
/// zero records and one defect per problem found.
pub fn load_bytes(bytes: &[u8], epoch: u64) -> LoadedJournal {
    let mut out = LoadedJournal::default();
    if bytes.is_empty() {
        return out;
    }
    if bytes.len() < MAGIC.len() {
        out.defects.push(JournalDefect {
            kind: JournalDefectKind::TornTail,
            offset: 0,
            detail: "file shorter than the journal header".to_string(),
        });
        return out;
    }
    if bytes[..MAGIC.len()] != MAGIC {
        out.defects.push(JournalDefect {
            kind: JournalDefectKind::BadVersion,
            offset: 0,
            detail: "unrecognized journal magic".to_string(),
        });
        return out;
    }
    let mut off = MAGIC.len();
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < 4 {
            out.defects.push(JournalDefect {
                kind: JournalDefectKind::TornTail,
                offset: off,
                detail: format!("torn length prefix ({remaining} trailing byte(s))"),
            });
            return out;
        }
        let len_rest =
            u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
                as usize;
        if len_rest > remaining - 4 {
            out.defects.push(JournalDefect {
                kind: JournalDefectKind::TornTail,
                offset: off,
                detail: format!(
                    "record claims {len_rest} bytes but only {} remain",
                    remaining - 4
                ),
            });
            return out;
        }
        let next = off + 4 + len_rest;
        if len_rest < MIN_RECORD_REST {
            out.defects.push(JournalDefect {
                kind: JournalDefectKind::BadChecksum,
                offset: off,
                detail: format!("record too short to be well-formed ({len_rest} bytes)"),
            });
            off = next;
            continue;
        }
        let body = &bytes[off + 4..next];
        let (content, stored) = body.split_at(len_rest - 8);
        let stored = u64::from_le_bytes([
            stored[0], stored[1], stored[2], stored[3], stored[4], stored[5], stored[6], stored[7],
        ]);
        if fnv1a(content) != stored {
            out.defects.push(JournalDefect {
                kind: JournalDefectKind::BadChecksum,
                offset: off,
                detail: "record checksum mismatch".to_string(),
            });
            off = next;
            continue;
        }
        let mut r = ByteReader::new(content);
        let defect = match parse_record(&mut r, epoch) {
            Ok(record) => {
                if r.is_exhausted() {
                    match out.records.entry(record.fingerprint) {
                        std::collections::btree_map::Entry::Occupied(_) => Some((
                            JournalDefectKind::DuplicateKey,
                            format!(
                                "second record for `{}` (fingerprint {:016x}); first wins",
                                record.label, record.fingerprint
                            ),
                        )),
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            slot.insert(record);
                            None
                        }
                    }
                } else {
                    Some((
                        JournalDefectKind::BadChecksum,
                        "checksummed record carries trailing garbage".to_string(),
                    ))
                }
            }
            Err(defect) => Some(defect),
        };
        if let Some((kind, detail)) = defect {
            out.defects.push(JournalDefect { kind, offset: off, detail });
        }
        off = next;
    }
    out
}

/// Decode the checksummed interior of one record, classifying failures.
fn parse_record(
    r: &mut ByteReader<'_>,
    epoch: u64,
) -> Result<JournalRecord, (JournalDefectKind, String)> {
    let version = r
        .get_u16("record.version")
        .map_err(|e| (JournalDefectKind::BadChecksum, e.to_string()))?;
    if version != RECORD_VERSION {
        return Err((
            JournalDefectKind::BadVersion,
            format!("record version {version}, expected {RECORD_VERSION}"),
        ));
    }
    let rec_epoch = r
        .get_u64("record.epoch")
        .map_err(|e| (JournalDefectKind::BadChecksum, e.to_string()))?;
    if rec_epoch != epoch {
        return Err((
            JournalDefectKind::StaleEpoch,
            format!("record epoch {rec_epoch:016x}, current {epoch:016x}"),
        ));
    }
    let fingerprint = r
        .get_u64("record.fingerprint")
        .map_err(|e| (JournalDefectKind::BadChecksum, e.to_string()))?;
    let label = r
        .get_string("record.label")
        .map_err(|e| (JournalDefectKind::BadChecksum, e.to_string()))?;
    let artifact = RunArtifact::decode_from(r).map_err(|e| {
        (
            JournalDefectKind::BadChecksum,
            format!("checksummed payload failed to decode: {e}"),
        )
    })?;
    Ok(JournalRecord { fingerprint, label, artifact })
}

/// Read and parse the journal file at `path`. A missing file is an
/// empty (clean) journal; an unreadable one is an I/O error.
pub fn load_file(path: &Path, epoch: u64) -> Result<LoadedJournal, JournalError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(load_bytes(&bytes, epoch)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(LoadedJournal::default()),
        Err(e) => Err(io_err(path, "read", e)),
    }
}

/// The crash-consistent, lock-coordinated journal writer: holds the
/// record set in memory and republishes the canonical image atomically
/// (write temp → fsync → rename) on every append, with the advisory
/// file lock held and a merge-on-reload pass folding in records other
/// processes landed since our last read.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    epoch: u64,
    lock: LockConfig,
    records: BTreeMap<u64, JournalRecord>,
    appended: u64,
}

impl JournalWriter {
    /// Open (and heal) the journal in `dir` as an anonymous session with
    /// the default lock timeout. With `resume`, existing valid records
    /// are kept — the healed canonical image (defective records dropped,
    /// valid ones re-encoded) is republished immediately. Without
    /// `resume`, any existing journal is replaced by an empty one
    /// *unless* another live writer session is registered, in which case
    /// the open joins the in-flight campaign and keeps its records.
    pub fn open(
        dir: &Path,
        epoch: u64,
        resume: bool,
    ) -> Result<(JournalWriter, LoadedJournal), JournalError> {
        JournalWriter::open_with(dir, epoch, resume, &fresh_token(), DEFAULT_LOCK_TIMEOUT, false)
    }

    /// [`JournalWriter::open`] with an explicit session identity: the
    /// whole open — stale-state sweep, campaign-join decision, load, and
    /// canonical republish — happens under one hold of the journal lock,
    /// and with `register` the session lands in the writers registry
    /// *before* the lock is released, so a concurrent opener can never
    /// truncate records this session is about to rely on.
    pub fn open_with(
        dir: &Path,
        epoch: u64,
        resume: bool,
        token: &str,
        lock_timeout: Duration,
        register: bool,
    ) -> Result<(JournalWriter, LoadedJournal), JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create-dir", e))?;
        sweep_lock_debris(dir);
        let lock_config = LockConfig::for_dir(dir, token, epoch).with_timeout(lock_timeout);
        let guard = lock::acquire(&lock_config).map_err(lock_err)?;
        let sessions = Sessions::new(dir);
        sessions.sweep_stale();
        Claims::new(dir).sweep_stale(&sessions);
        if register {
            sessions
                .register(token)
                .map_err(|e| io_err(&dir.join(lock::WRITERS_DIR), "write", e))?;
        }
        let path = dir.join(JOURNAL_FILE);
        // Campaign join: a fresh (non-resume) run may only wipe the
        // journal when nobody else is writing it; with live writers
        // registered, their records are the campaign's shared state.
        let join = !resume && sessions.live_others(token) > 0;
        let loaded =
            if resume || join { load_file(&path, epoch)? } else { LoadedJournal::default() };
        let writer = JournalWriter {
            path,
            epoch,
            lock: lock_config,
            records: loaded.records.clone(),
            appended: 0,
        };
        writer.persist()?;
        drop(guard);
        Ok((writer, loaded))
    }

    /// Append one completed artifact: take the lock, merge-on-reload,
    /// and — if no other process landed this fingerprint meanwhile —
    /// insert the record and republish the canonical image. Returns
    /// whether the record was actually appended (`false` means a
    /// concurrent writer got there first; the journal already holds an
    /// equivalent record). On `Ok(true)` the record is durable.
    pub fn append(
        &mut self,
        fingerprint: u64,
        label: &str,
        artifact: &RunArtifact,
    ) -> Result<bool, JournalError> {
        let _guard = lock::acquire(&self.lock).map_err(lock_err)?;
        self.reload_merge()?;
        if self.records.contains_key(&fingerprint) {
            return Ok(false);
        }
        self.records.insert(
            fingerprint,
            JournalRecord {
                fingerprint,
                label: label.to_string(),
                artifact: artifact.clone(),
            },
        );
        self.persist()?;
        self.appended += 1;
        Ok(true)
    }

    /// Fold in records that appeared on disk since our last read (landed
    /// by another process). Our in-memory records win ties — they are
    /// either identical (deterministic runs) or ours came first. Must be
    /// called with the journal lock held.
    fn reload_merge(&mut self) -> Result<(), JournalError> {
        let on_disk = load_file(&self.path, self.epoch)?;
        for (fingerprint, record) in on_disk.records {
            self.records.entry(fingerprint).or_insert(record);
        }
        Ok(())
    }

    /// The record currently held for `fingerprint`, if any (reflects the
    /// last merge; call under the coordinator for a fresh view).
    pub fn record(&self, fingerprint: u64) -> Option<&JournalRecord> {
        self.records.get(&fingerprint)
    }

    /// Appends performed by this writer (excludes records inherited on
    /// open or merged from other writers) — the crash-harness counter.
    pub fn appends(&self) -> u64 {
        self.appended
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This writer's lock configuration (session identity included).
    pub fn lock_config(&self) -> &LockConfig {
        &self.lock
    }

    /// Publish the canonical image of the in-memory record set.
    fn persist(&self) -> Result<(), JournalError> {
        crate::atomic::replace(&self.path, &encode_image(&self.records, self.epoch))
    }
}

/// What the coordinator decided about one request.
#[derive(Debug)]
pub enum Gate {
    /// The journal already holds a valid record — use this artifact,
    /// do not execute.
    Reuse(RunArtifact),
    /// The fingerprint is claimed by this session; execute, then
    /// [`JournalSession::commit`] or [`JournalSession::abandon`].
    Execute,
    /// Another live session is executing this fingerprint right now;
    /// poll again shortly.
    Wait,
}

/// The exactly-once execution coordinator for one journaled campaign:
/// wraps the shared [`JournalWriter`] with the claims registry so that
/// concurrent sessions partition a plan dynamically — every fingerprint
/// is executed by exactly one live session and everyone else reuses the
/// committed record.
#[derive(Debug)]
pub struct JournalSession {
    writer: Mutex<JournalWriter>,
    sessions: Sessions,
    claims: Claims,
    token: String,
    crash_after: Option<u64>,
}

impl JournalSession {
    /// Wrap an opened (registered) writer for coordinated execution.
    pub fn new(writer: JournalWriter, dir: &Path, crash_after: Option<u64>) -> JournalSession {
        let token = writer.lock_config().token.clone();
        JournalSession {
            writer: Mutex::new(writer),
            sessions: Sessions::new(dir),
            claims: Claims::new(dir),
            token,
            crash_after,
        }
    }

    /// Gate one request: under the journal lock, merge-on-reload and
    /// check the journal (→ [`Gate::Reuse`]), then the claims registry
    /// (live foreign claim → [`Gate::Wait`]); otherwise claim the
    /// fingerprint for this session (→ [`Gate::Execute`]). A claim whose
    /// session died is taken over here — claiming on top of it.
    pub fn begin(&self, request: &RunRequest) -> Result<Gate, JournalError> {
        let mut writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let lock_config = writer.lock_config().clone();
        let _guard = lock::acquire(&lock_config).map_err(lock_err)?;
        writer.reload_merge()?;
        let fingerprint = request.fingerprint();
        if let Some(record) = writer.record(fingerprint) {
            if record.label == request.label() {
                return Ok(Gate::Reuse(record.artifact.clone()));
            }
            // A fingerprint hit whose label disagrees is a key collision
            // (or a tampered record): distrust it and execute ourselves.
        }
        if self.claims.live_by_other(fingerprint, &self.token, &self.sessions) {
            return Ok(Gate::Wait);
        }
        self.claims
            .claim(fingerprint, &self.token)
            .map_err(|e| io_err(&lock_config.path, "write", e))?;
        Ok(Gate::Execute)
    }

    /// Commit one executed artifact: locked append (merge-on-reload
    /// inside), then claim release. Returns whether the record was
    /// actually appended (`false`: a concurrent writer landed an
    /// equivalent record first). The crash harness fires here, *after*
    /// the append is durable and while the writer mutex still serializes
    /// in-process appends — so "crash after N appends" is exact.
    pub fn commit(
        &self,
        request: &RunRequest,
        artifact: &RunArtifact,
    ) -> Result<bool, JournalError> {
        let fingerprint = request.fingerprint();
        let mut writer = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let appended = match writer.append(fingerprint, &request.label(), artifact) {
            Ok(appended) => appended,
            Err(e) => {
                drop(writer);
                self.claims.release(fingerprint);
                return Err(e);
            }
        };
        if appended && self.crash_after.is_some_and(|n| writer.appends() >= n) {
            self.claims.release(fingerprint);
            // The crash harness: die *after* the append is durable,
            // exactly like a power cut between runs.
            eprintln!(
                "journal: deliberate crash after {} append(s) (crash harness)",
                writer.appends()
            );
            std::process::exit(CRASH_EXIT_CODE);
        }
        drop(writer);
        self.claims.release(fingerprint);
        Ok(appended)
    }

    /// Release this session's claim on a request that failed or
    /// panicked, so waiters (and retries) can take it over.
    pub fn abandon(&self, request: &RunRequest) {
        self.claims.release(request.fingerprint());
    }

    /// End the campaign: deregister the writer session (claims are
    /// already released per-request; a crashed session's leftovers are
    /// swept by the next opener).
    pub fn finish(&self) {
        self.sessions.deregister(&self.token);
    }
}

/// Where and how a journaled execution persists its artifacts.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Cache directory holding the journal file.
    pub dir: PathBuf,
    /// Load existing records before executing (otherwise the journal is
    /// rewritten from scratch — unless live concurrent writers are
    /// registered, in which case their campaign is joined).
    pub resume: bool,
    /// The code/config epoch to stamp and verify records with.
    /// [`current_epoch`] outside of tests.
    pub epoch: u64,
    /// How long to wait for the advisory journal lock before failing
    /// with a [`JournalErrorKind::LockTimeout`] error (CLI exit 5).
    pub lock_timeout: Duration,
    /// Crash harness: deliberately exit the process (status
    /// [`CRASH_EXIT_CODE`]) after this many successful appends, leaving
    /// a valid journal prefix behind for `--resume` to pick up.
    pub crash_after_appends: Option<u64>,
}

impl JournalConfig {
    /// Journal into `dir` under the current epoch, no resume.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            resume: false,
            epoch: current_epoch(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
            crash_after_appends: None,
        }
    }

    /// Builder-style resume toggle.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Builder-style epoch override (tests and the chaos harness).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Builder-style lock-timeout override.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Builder-style crash harness arm.
    pub fn with_crash_after(mut self, appends: u64) -> Self {
        self.crash_after_appends = Some(appends);
        self
    }
}

/// What a journaled execution did: how much of the plan was served from
/// the journal, what had to run, and every defect that was healed.
#[derive(Debug, Clone, Default)]
pub struct ResumeReport {
    /// Requests in the plan.
    pub planned: usize,
    /// Requests satisfied by journal records present at open (not
    /// re-executed).
    pub reused: usize,
    /// Requests this invocation actually executed (each counted once,
    /// however many attempts it took). Across concurrent invocations
    /// sharing a cache, these counts sum to the plan size — the
    /// exactly-once invariant.
    pub executed: usize,
    /// Requests a *concurrent* writer landed while this invocation was
    /// running — reused live instead of executed.
    pub reused_live: usize,
    /// Successful artifacts appended to the journal this invocation.
    pub journaled: usize,
    /// Corruption events detected and healed during load.
    pub defects: Vec<JournalDefect>,
    /// Journal write failures (the runs still succeeded; only their
    /// durability was lost).
    pub write_errors: Vec<String>,
}

/// Render the resume report for stderr: one summary line plus one line
/// per defect and write error.
pub fn render_resume_report(report: &ResumeReport, dir: &Path) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let live = if report.reused_live > 0 {
        format!(", reused {} live from concurrent writer(s)", report.reused_live)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "journal {}: reused {} of {} planned run(s), executed {}, journaled {}{live}",
        dir.display(),
        report.reused,
        report.planned,
        report.executed,
        report.journaled
    );
    for defect in &report.defects {
        let _ = writeln!(out, "journal defect (healed by recomputation): {defect}");
    }
    for err in &report.write_errors {
        let _ = writeln!(out, "journal write error (run kept, durability lost): {err}");
    }
    out
}

/// Execute `plan` with the real workload runner, journaling every
/// completed artifact into `journal.dir` and (with `journal.resume`)
/// serving already-journaled runs from disk instead of re-executing.
pub fn execute_journaled(
    plan: &Plan,
    jobs: usize,
    config: &SuperviseConfig,
    journal: &JournalConfig,
) -> Result<(ExecutedPlan, ResumeReport), JournalError> {
    let fuel = config.timeout_fuel;
    execute_journaled_with(plan, jobs, config, journal, move |request, attempt| {
        crate::exec::try_run_request(request, deadline_limits(fuel))
            .map_err(|e| classify_guard_failure(e, attempt, fuel.is_some()))
    })
}

/// The journaled-execution core with an injectable per-attempt runner
/// (tests count executions here). Semantics:
///
/// 1. Open the journal under the lock (healing defects; loading records
///    iff `resume` — or iff live concurrent writers are registered, the
///    campaign-join case) and register this session as a writer.
/// 2. Serve every planned request whose `(fingerprint, epoch)` key has a
///    valid record — a *reused* slot with zero duration and 0 attempts.
/// 3. Execute the residual plan under the normal supervisor, gating
///    every run through the [`JournalSession`] coordinator: a record
///    another process landed meanwhile is reused live; a fingerprint a
///    live session has claimed is waited on; everything else is claimed,
///    executed, and committed (durable before the pool moves on).
///    Degraded runs are never journaled; their claims are abandoned so
///    waiters can take over.
/// 4. Return the merged [`ExecutedPlan`] — byte-identical store content
///    to a cold run, whatever mix of reuse and execution produced it.
pub fn execute_journaled_with<F>(
    plan: &Plan,
    jobs: usize,
    config: &SuperviseConfig,
    journal: &JournalConfig,
    run: F,
) -> Result<(ExecutedPlan, ResumeReport), JournalError>
where
    F: Fn(&RunRequest, u32) -> Result<RunArtifact, RunFailure> + Sync,
{
    let started = Instant::now();
    let token = fresh_token();
    let (writer, loaded) = JournalWriter::open_with(
        &journal.dir,
        journal.epoch,
        journal.resume,
        &token,
        journal.lock_timeout,
        true,
    )?;
    let mut report = ResumeReport {
        planned: plan.len(),
        defects: loaded.defects.clone(),
        ..ResumeReport::default()
    };

    // Partition the plan: journal hits are reused, everything else runs.
    let mut reused: Vec<(RunRequest, RunArtifact)> = Vec::new();
    let mut residual: Vec<RunRequest> = Vec::new();
    for request in plan.requests() {
        match loaded.records.get(&request.fingerprint()) {
            Some(record) if record.label == request.label() => {
                reused.push((*request, record.artifact.clone()));
            }
            Some(record) => {
                // A fingerprint hit whose label disagrees is a key
                // collision (or a tampered label): distrust the record.
                report.defects.push(JournalDefect {
                    kind: JournalDefectKind::BadChecksum,
                    offset: 0,
                    detail: format!(
                        "fingerprint {:016x} maps to `{}` in the journal but `{}` in the plan; requeued",
                        request.fingerprint(),
                        record.label,
                        request.label()
                    ),
                });
                residual.push(*request);
            }
            None => residual.push(*request),
        }
    }
    report.reused = reused.len();

    let residual_plan = Plan::build(residual);
    let session = JournalSession::new(writer, &journal.dir, journal.crash_after_appends);
    let executed_fps: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
    let reused_live = AtomicUsize::new(0);
    let journaled = AtomicUsize::new(0);
    let write_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let fatal: Mutex<Option<JournalError>> = Mutex::new(None);
    let note_error = |e: &JournalError| {
        if e.kind == JournalErrorKind::LockTimeout {
            let mut slot = fatal.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(e.clone());
            }
        }
        write_errors
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(e.to_string());
    };
    let executed = supervise_with(&residual_plan, jobs, config, |request, attempt| {
        // Gate through the coordinator until this request is either
        // served (a concurrent writer landed it) or claimed by us.
        loop {
            match session.begin(request) {
                Ok(Gate::Reuse(artifact)) => {
                    reused_live.fetch_add(1, Ordering::Relaxed);
                    return Ok(artifact);
                }
                Ok(Gate::Wait) => std::thread::sleep(CLAIM_POLL),
                Ok(Gate::Execute) => break,
                Err(e) => {
                    note_error(&e);
                    if e.kind == JournalErrorKind::LockTimeout {
                        return Err(RunFailure::faulted(
                            attempt,
                            format!("journal coordination lost: {e}"),
                        ));
                    }
                    // Degraded coordination: execute unclaimed rather
                    // than losing the run (worst case is a duplicate
                    // execution, never lost data).
                    break;
                }
            }
        }
        executed_fps
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(request.fingerprint());
        // A panicking run must not leave its claim behind — release it,
        // then let the pool's own catch_unwind classify the panic.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(request, attempt)));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                session.abandon(request);
                std::panic::resume_unwind(payload);
            }
        };
        match &result {
            Ok(artifact) => match session.commit(request, artifact) {
                Ok(true) => {
                    journaled.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {} // a concurrent writer landed it first
                Err(e) => note_error(&e),
            },
            Err(_) => session.abandon(request),
        }
        result
    });
    session.finish();
    if let Some(e) = fatal.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    report.executed = executed_fps
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .len();
    report.reused_live = reused_live.load(Ordering::Relaxed);
    report.journaled = journaled.load(Ordering::Relaxed);
    report.write_errors = write_errors.into_inner().unwrap_or_else(|p| p.into_inner());

    // Merge reused and executed slots back into plan order.
    let mut store = executed.store.clone();
    let executed_timings: BTreeMap<RunRequest, RunTiming> =
        executed.timings.iter().map(|t| (t.request, *t)).collect();
    let mut timings = Vec::with_capacity(plan.len());
    for (request, artifact) in reused {
        store.insert(request, artifact);
    }
    for request in plan.requests() {
        match executed_timings.get(request) {
            Some(timing) => timings.push(*timing),
            // A reused slot: no attempts, no time spent.
            None => timings.push(RunTiming {
                request: *request,
                duration: Duration::ZERO,
                attempts: 0,
            }),
        }
    }
    Ok((
        ExecutedPlan {
            store,
            timings,
            wall: started.elapsed(),
            jobs: jobs.clamp(1, plan.len().max(1)),
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{ConsoleDigest, Language, Scale, WorkloadId};

    fn artifact(tag: u64) -> RunArtifact {
        let mut art = RunArtifact::empty();
        art.program_bytes = tag as usize;
        art.console = ConsoleDigest::of(&format!("OK {tag}\n"));
        art
    }

    fn request(i: usize) -> RunRequest {
        let names = ["des", "compress", "eqntott", "espresso", "li"];
        RunRequest::pipeline(WorkloadId::macro_bench(
            Language::Mipsi,
            names[i % names.len()],
            Scale::Test,
        ))
    }

    fn journal_with(n: usize, epoch: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for i in 0..n {
            let req = request(i);
            bytes.extend_from_slice(&encode_record(
                epoch,
                req.fingerprint(),
                &req.label(),
                &artifact(i as u64 + 1),
            ));
        }
        bytes
    }

    #[test]
    fn clean_journal_round_trips() {
        let bytes = journal_with(3, 7);
        let loaded = load_bytes(&bytes, 7);
        assert!(loaded.defects.is_empty(), "{:?}", loaded.defects);
        assert_eq!(loaded.records.len(), 3);
        for i in 0..3 {
            let rec = &loaded.records[&request(i).fingerprint()];
            assert_eq!(rec.label, request(i).label());
            assert_eq!(rec.artifact.program_bytes, i + 1);
        }
    }

    #[test]
    fn empty_and_header_only_images_are_clean() {
        assert!(load_bytes(&[], 1).defects.is_empty());
        let header = load_bytes(&MAGIC, 1);
        assert!(header.defects.is_empty());
        assert!(header.records.is_empty());
    }

    #[test]
    fn foreign_magic_is_a_bad_version_defect() {
        let loaded = load_bytes(b"NOTAJRNLxxxx", 1);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::BadVersion);
        assert!(loaded.records.is_empty());
    }

    #[test]
    fn payload_bit_flip_is_detected_and_isolated() {
        let mut bytes = journal_with(3, 7);
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 3);
        // Flip one bit inside record 1's payload.
        bytes[spans[1].payload_start + 3] ^= 0x10;
        let loaded = load_bytes(&bytes, 7);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::BadChecksum);
        assert_eq!(loaded.defects[0].offset, spans[1].start);
        // Records 0 and 2 survive.
        assert_eq!(loaded.records.len(), 2);
        assert!(loaded.records.contains_key(&request(0).fingerprint()));
        assert!(loaded.records.contains_key(&request(2).fingerprint()));
    }

    #[test]
    fn stale_epoch_and_bad_version_are_classified_not_checksum_errors() {
        let pristine = journal_with(2, 7);
        let spans = record_spans(&pristine);

        let mut stale = pristine.clone();
        stale[spans[0].body_start + 2..spans[0].body_start + 10]
            .copy_from_slice(&99u64.to_le_bytes());
        reseal_record(&mut stale, &spans[0]);
        let loaded = load_bytes(&stale, 7);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::StaleEpoch);
        assert_eq!(loaded.records.len(), 1);

        let mut wrong_version = pristine.clone();
        wrong_version[spans[1].body_start..spans[1].body_start + 2]
            .copy_from_slice(&9u16.to_le_bytes());
        reseal_record(&mut wrong_version, &spans[1]);
        let loaded = load_bytes(&wrong_version, 7);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::BadVersion);
        assert_eq!(loaded.records.len(), 1);
    }

    #[test]
    fn duplicate_keys_keep_the_first_record() {
        let mut bytes = journal_with(2, 7);
        let req = request(0);
        bytes.extend_from_slice(&encode_record(
            7,
            req.fingerprint(),
            &req.label(),
            &artifact(99),
        ));
        let loaded = load_bytes(&bytes, 7);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::DuplicateKey);
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(
            loaded.records[&req.fingerprint()].artifact.program_bytes,
            1,
            "first record must win"
        );
    }

    #[test]
    fn truncation_mid_final_record_is_one_torn_tail() {
        let bytes = journal_with(3, 7);
        let spans = record_spans(&bytes);
        let cut = spans[2].start + 10;
        let loaded = load_bytes(&bytes[..cut], 7);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(loaded.defects[0].kind, JournalDefectKind::TornTail);
        assert_eq!(loaded.records.len(), 2, "only the torn record is lost");
    }

    #[test]
    fn defect_counts_bucket_by_kind() {
        let mut bytes = journal_with(3, 7);
        let spans = record_spans(&bytes);
        bytes[spans[0].payload_start] ^= 0x01;
        bytes[spans[1].payload_start] ^= 0x01;
        let cut = spans[2].start + 6;
        let loaded = load_bytes(&bytes[..cut], 7);
        let counts = loaded.defect_counts();
        assert_eq!(counts.get("bad-checksum"), Some(&2));
        assert_eq!(counts.get("torn-tail"), Some(&1));
        assert_eq!(counts.get("stale-epoch"), None);
    }

    #[test]
    fn writer_heals_defects_on_open() {
        let dir = std::env::temp_dir().join(format!("interp-journal-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        // A journal with two records, the second bit-flipped.
        let mut bytes = journal_with(2, 7);
        let spans = record_spans(&bytes);
        bytes[spans[1].payload_start] ^= 0x01;
        std::fs::write(&path, &bytes).expect("seed journal");

        let (writer, loaded) = JournalWriter::open(&dir, 7, true).expect("open");
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.defects.len(), 1);
        assert_eq!(writer.appends(), 0);
        // The healed image on disk parses cleanly and matches record 0
        // byte-for-byte (the codec is a fixed point).
        let healed = std::fs::read(&path).expect("read healed");
        let reparsed = load_bytes(&healed, 7);
        assert!(reparsed.defects.is_empty());
        assert_eq!(reparsed.records.len(), 1);
        assert_eq!(&healed[8..], &bytes[spans[0].start..spans[0].end]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_truncates() {
        let dir =
            std::env::temp_dir().join(format!("interp-journal-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, journal_with(2, 7)).expect("seed journal");
        let (_writer, loaded) = JournalWriter::open(&dir, 7, false).expect("open");
        assert!(loaded.records.is_empty());
        let fresh = std::fs::read(&path).expect("read");
        assert_eq!(fresh, MAGIC.to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_joins_a_live_campaign() {
        let dir = std::env::temp_dir().join(format!("interp-journal-join-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join(JOURNAL_FILE), journal_with(2, 7)).expect("seed journal");
        // A live writer session is registered: a non-resume open must
        // NOT truncate — it joins the campaign and keeps the records.
        Sessions::new(&dir).register("live-writer").expect("register");
        let (writer, loaded) = JournalWriter::open_with(
            &dir,
            7,
            false,
            "joiner",
            Duration::from_secs(5),
            true,
        )
        .expect("open");
        assert_eq!(loaded.records.len(), 2, "campaign join must keep records");
        assert!(writer.record(request(0).fingerprint()).is_some());
        // Both sessions are now registered.
        assert_eq!(Sessions::new(&dir).all().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_merges_concurrent_records_instead_of_losing_them() {
        let dir =
            std::env::temp_dir().join(format!("interp-journal-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (mut a, _) = JournalWriter::open(&dir, 7, false).expect("open a");
        // Writer B (a second handle on the same journal) lands record 0.
        let (mut b, _) = JournalWriter::open_with(
            &dir,
            7,
            false,
            "writer-b",
            Duration::from_secs(5),
            false,
        )
        .expect("open b");
        assert!(b
            .append(request(0).fingerprint(), &request(0).label(), &artifact(1))
            .expect("append b"));
        // Writer A appends record 1 — the merge-on-reload must fold in
        // B's record 0 rather than overwrite it with A's stale image.
        assert!(a
            .append(request(1).fingerprint(), &request(1).label(), &artifact(2))
            .expect("append a"));
        let loaded = load_file(&dir.join(JOURNAL_FILE), 7).expect("load");
        assert!(loaded.defects.is_empty(), "{:?}", loaded.defects);
        assert_eq!(loaded.records.len(), 2, "concurrent append lost a record");
        // A second append of an already-landed fingerprint is a no-op.
        assert!(!a
            .append(request(0).fingerprint(), &request(0).label(), &artifact(9))
            .expect("duplicate append"));
        assert_eq!(a.appends(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_image_is_canonical_across_append_orders() {
        let base = std::env::temp_dir().join(format!(
            "interp-journal-canon-{}",
            std::process::id()
        ));
        let mut images = Vec::new();
        for (tag, order) in [("fwd", [0usize, 1, 2]), ("rev", [2, 1, 0])] {
            let dir = base.join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            let (mut w, _) = JournalWriter::open(&dir, 7, false).expect("open");
            for i in order {
                w.append(request(i).fingerprint(), &request(i).label(), &artifact(i as u64 + 1))
                    .expect("append");
            }
            images.push(std::fs::read(dir.join(JOURNAL_FILE)).expect("read"));
        }
        assert_eq!(
            images[0], images[1],
            "canonical image must not depend on append order"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn resume_report_renders_summary_and_defects() {
        let report = ResumeReport {
            planned: 10,
            reused: 6,
            executed: 4,
            reused_live: 0,
            journaled: 4,
            defects: vec![JournalDefect {
                kind: JournalDefectKind::TornTail,
                offset: 42,
                detail: "test tear".to_string(),
            }],
            write_errors: vec!["disk full".to_string()],
        };
        let text = render_resume_report(&report, Path::new("/tmp/cache"));
        assert!(text.contains("reused 6 of 10"), "{text}");
        assert!(text.contains("torn-tail @byte 42"), "{text}");
        assert!(text.contains("disk full"), "{text}");
        assert!(!text.contains("live from concurrent"), "{text}");

        let live = ResumeReport { reused_live: 3, ..report };
        let text = render_resume_report(&live, Path::new("/tmp/cache"));
        assert!(text.contains("reused 3 live from concurrent writer(s)"), "{text}");
    }
}
