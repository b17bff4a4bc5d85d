//! Journal compaction: rewrite the journal keeping only valid
//! current-epoch records (first record per fingerprint), dropping
//! duplicates, stale-epoch records, and torn or corrupt tails — via the
//! same write-temp + fsync + atomic-rename discipline every append
//! uses, under the same advisory lock, so compaction can race a live
//! appender without losing either side's records.
//!
//! Because every publish already emits the *canonical* image (records in
//! fingerprint order), a journal that is clean compacts in O(append
//! check): the canonical re-encoding is byte-compared against the file
//! and, when identical, nothing is rewritten.

use crate::journal::{encode_image, io_err, lock_err, JournalDefect, JournalError, JOURNAL_FILE};
use crate::lock::{self, fresh_token, sweep_lock_debris, Claims, LockConfig, Sessions};
use std::path::Path;
use std::time::Duration;

/// What one compaction pass did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// Valid records the compacted journal holds.
    pub records: usize,
    /// Defects (duplicates, stale epochs, tears, bad checksums) whose
    /// records were dropped by the rewrite.
    pub dropped: Vec<JournalDefect>,
    /// Journal size before compaction, in bytes.
    pub bytes_before: u64,
    /// Journal size after compaction, in bytes.
    pub bytes_after: u64,
    /// False when the journal was already canonical and the fast path
    /// left the file untouched.
    pub rewritten: bool,
    /// Consumed serve responses (`serve/outbox/*.resp`) older than the
    /// `--keep-responses` horizon that this pass deleted (0 when no
    /// horizon was given — the default keeps responses forever).
    pub responses_swept: usize,
}

impl CompactReport {
    /// One stderr summary line.
    pub fn render(&self, dir: &Path) -> String {
        format!(
            "compacted {}: {} record(s), {} dropped, {} -> {} bytes{}{}",
            dir.display(),
            self.records,
            self.dropped.len(),
            self.bytes_before,
            self.bytes_after,
            if self.rewritten { "" } else { " (already clean, not rewritten)" },
            if self.responses_swept > 0 {
                format!(", {} outbox response(s) swept", self.responses_swept)
            } else {
                String::new()
            },
        )
    }
}

/// Delete outbox responses whose mtime is older than `keep` — abandoned
/// `*.resp` files a waiter never collected — and the `*.progress`
/// markers daemons of older builds wrote beside them. Files the clock
/// can't judge are kept; sweeping is best-effort (a racing collector
/// may have already removed one).
fn sweep_outbox(dir: &Path, keep: Duration) -> usize {
    let outbox = dir.join(crate::serve::OUTBOX_DIR);
    let Ok(entries) = std::fs::read_dir(&outbox) else {
        return 0;
    };
    let now = std::time::SystemTime::now();
    let mut swept = 0;
    for entry in entries.flatten() {
        let Some(name) = entry.file_name().to_str().map(str::to_string) else {
            continue;
        };
        if !name.ends_with(".resp") && !name.ends_with(".progress") {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age > keep);
        if old_enough && std::fs::remove_file(entry.path()).is_ok() && name.ends_with(".resp") {
            swept += 1;
        }
    }
    swept
}

/// Compact the journal in `dir` under `epoch`: take the advisory lock,
/// parse the file (classifying every defect), and republish the
/// canonical image of the surviving records — or touch nothing if the
/// file is already byte-identical to that image. A missing journal
/// compacts to an empty report without creating one.
pub fn compact(
    dir: &Path,
    epoch: u64,
    lock_timeout: Duration,
) -> Result<CompactReport, JournalError> {
    compact_with(dir, epoch, lock_timeout, None)
}

/// [`compact`] plus an optional serve-outbox sweep: with
/// `keep_responses = Some(horizon)`, consumed/abandoned
/// `serve/outbox/*.resp` files older than the horizon are deleted and
/// counted in [`CompactReport::responses_swept`]. `None` (the default)
/// keeps responses forever.
pub fn compact_with(
    dir: &Path,
    epoch: u64,
    lock_timeout: Duration,
    keep_responses: Option<Duration>,
) -> Result<CompactReport, JournalError> {
    let path = dir.join(JOURNAL_FILE);
    let responses_swept = keep_responses.map_or(0, |keep| sweep_outbox(dir, keep));
    sweep_lock_debris(dir);
    let lock_config =
        LockConfig::for_dir(dir, &fresh_token(), epoch).with_timeout(lock_timeout);
    let _guard = lock::acquire(&lock_config).map_err(lock_err)?;
    // Housekeeping that normally rides on open: drop dead writers'
    // registry entries and claims while we hold the lock anyway.
    let sessions = Sessions::new(dir);
    sessions.sweep_stale();
    Claims::new(dir).sweep_stale(&sessions);

    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(CompactReport {
                records: 0,
                dropped: Vec::new(),
                bytes_before: 0,
                bytes_after: 0,
                rewritten: false,
                responses_swept,
            });
        }
        Err(e) => return Err(io_err(&path, "read", e)),
    };
    let loaded = crate::journal::load_bytes(&bytes, epoch);
    let image = encode_image(&loaded.records, epoch);
    let rewritten = image != bytes;
    if rewritten {
        crate::atomic::replace(&path, &image)?;
    }
    Ok(CompactReport {
        records: loaded.records.len(),
        dropped: loaded.defects,
        bytes_before: bytes.len() as u64,
        bytes_after: image.len() as u64,
        rewritten,
        responses_swept,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{
        encode_record, record_spans, JournalDefectKind, JournalWriter, MAGIC,
    };
    use interp_core::{ConsoleDigest, Language, RunArtifact, RunRequest, Scale, WorkloadId};
    use std::path::PathBuf;

    const EPOCH: u64 = 7;
    const TIMEOUT: Duration = Duration::from_secs(5);

    fn artifact(tag: u64) -> RunArtifact {
        let mut art = RunArtifact::empty();
        art.program_bytes = tag as usize;
        art.console = ConsoleDigest::of(&format!("OK {tag}\n"));
        art
    }

    fn request(i: usize) -> RunRequest {
        let names = ["des", "compress", "eqntott"];
        RunRequest::pipeline(WorkloadId::macro_bench(
            Language::Mipsi,
            names[i % names.len()],
            Scale::Test,
        ))
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-compact-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Seed a *canonical* journal: records in fingerprint order, the
    /// same image every locked publish emits.
    fn seed_journal(dir: &Path, n: usize) -> Vec<u8> {
        let mut reqs: Vec<_> = (0..n).map(|i| (request(i), i as u64 + 1)).collect();
        reqs.sort_by_key(|(req, _)| req.fingerprint());
        let mut bytes = MAGIC.to_vec();
        for (req, tag) in reqs {
            bytes.extend_from_slice(&encode_record(
                EPOCH,
                req.fingerprint(),
                &req.label(),
                &artifact(tag),
            ));
        }
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("seed");
        bytes
    }

    #[test]
    fn clean_journal_takes_the_fast_path() {
        let dir = fresh_dir("clean");
        let bytes = seed_journal(&dir, 3);
        let report = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert!(!report.rewritten, "clean journal must not be rewritten");
        assert_eq!(report.records, 3);
        assert!(report.dropped.is_empty());
        assert_eq!(report.bytes_before, report.bytes_after);
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).expect("read"), bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicates_and_tears_are_dropped() {
        let dir = fresh_dir("dirty");
        let mut bytes = seed_journal(&dir, 3);
        let spans = record_spans(&bytes);
        // Duplicate record 0, then tear the file mid-way through the
        // duplicate's copy of record 1 appended after it.
        let dup = bytes[spans[0].start..spans[0].end].to_vec();
        bytes.extend_from_slice(&dup);
        let torn = bytes[spans[1].start..spans[1].start + 12].to_vec();
        bytes.extend_from_slice(&torn);
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("corrupt");

        let report = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert!(report.rewritten);
        assert_eq!(report.records, 3);
        assert_eq!(report.dropped.len(), 2, "{:?}", report.dropped);
        assert!(report
            .dropped
            .iter()
            .any(|d| d.kind == JournalDefectKind::DuplicateKey));
        assert!(report
            .dropped
            .iter()
            .any(|d| d.kind == JournalDefectKind::TornTail));
        assert!(report.bytes_after < report.bytes_before);
        // The compacted journal round-trips clean.
        let reread = std::fs::read(dir.join(JOURNAL_FILE)).expect("read");
        let reloaded = crate::journal::load_bytes(&reread, EPOCH);
        assert!(reloaded.defects.is_empty(), "{:?}", reloaded.defects);
        assert_eq!(reloaded.records.len(), 3);
        // Idempotence: a second compaction is the fast path.
        let again = compact(&dir, EPOCH, TIMEOUT).expect("recompact");
        assert!(!again.rewritten);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_records_are_purged() {
        let dir = fresh_dir("stale");
        let mut bytes = MAGIC.to_vec();
        let req = request(0);
        bytes.extend_from_slice(&encode_record(
            EPOCH + 1, // a different epoch: stale under EPOCH
            req.fingerprint(),
            &req.label(),
            &artifact(1),
        ));
        let keep = request(1);
        bytes.extend_from_slice(&encode_record(
            EPOCH,
            keep.fingerprint(),
            &keep.label(),
            &artifact(2),
        ));
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("seed");

        let report = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert!(report.rewritten);
        assert_eq!(report.records, 1);
        assert_eq!(report.dropped.len(), 1);
        assert_eq!(report.dropped[0].kind, JournalDefectKind::StaleEpoch);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_compacts_to_nothing() {
        let dir = fresh_dir("missing");
        let report = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert_eq!(report.records, 0);
        assert!(!report.rewritten);
        assert!(
            !dir.join(JOURNAL_FILE).exists(),
            "compaction must not create a journal"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_does_not_lose_a_racing_append() {
        let dir = fresh_dir("race");
        seed_journal(&dir, 2);
        // An appender lands record 2 through the locked writer...
        let (mut writer, _) = JournalWriter::open(&dir, EPOCH, true).expect("open");
        let req = request(2);
        assert!(writer
            .append(req.fingerprint(), &req.label(), &artifact(3))
            .expect("append"));
        // ...and a compaction right after must keep all three records.
        let report = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert_eq!(report.records, 3);
        assert!(!report.rewritten, "locked appends already publish canonically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_renders_both_paths() {
        let clean = CompactReport {
            records: 4,
            dropped: Vec::new(),
            bytes_before: 100,
            bytes_after: 100,
            rewritten: false,
            responses_swept: 0,
        };
        let text = clean.render(Path::new("/tmp/c"));
        assert!(text.contains("already clean"), "{text}");
        assert!(!text.contains("outbox"), "{text}");
        let dirty =
            CompactReport { rewritten: true, bytes_after: 80, responses_swept: 2, ..clean };
        let text = dirty.render(Path::new("/tmp/c"));
        assert!(text.contains("100 -> 80 bytes"), "{text}");
        assert!(text.contains("2 outbox response(s) swept"), "{text}");
        assert!(!text.contains("already clean"), "{text}");
    }

    #[test]
    fn keep_responses_sweeps_only_old_outbox_files() {
        let dir = fresh_dir("outbox");
        let outbox = dir.join(crate::serve::OUTBOX_DIR);
        std::fs::create_dir_all(&outbox).expect("mkdir");
        std::fs::write(outbox.join("old.resp"), b"stale\n").expect("plant");
        std::fs::write(outbox.join("old.progress"), b"state done\n").expect("plant");
        std::fs::write(outbox.join("fresh.resp"), b"new\n").expect("plant");
        std::fs::write(outbox.join("keep.txt"), b"not ours\n").expect("plant");
        // Age `old.*` past the horizon by backdating their mtimes via
        // filetime-free trickery: a zero horizon treats everything with
        // any age as old, so give `fresh.resp` a future-proof pass by
        // sweeping with a horizon only the planted files exceed after a
        // short sleep... simpler: sweep with a generous horizon first
        // (nothing old enough), then a zero horizon (everything goes).
        let none = compact_with(&dir, EPOCH, TIMEOUT, Some(Duration::from_secs(3600)))
            .expect("compact");
        assert_eq!(none.responses_swept, 0);
        assert!(outbox.join("old.resp").exists());
        std::thread::sleep(Duration::from_millis(20));
        let all = compact_with(&dir, EPOCH, TIMEOUT, Some(Duration::ZERO)).expect("compact");
        assert_eq!(all.responses_swept, 2, "both .resp files are past a zero horizon");
        assert!(!outbox.join("old.resp").exists());
        assert!(!outbox.join("old.progress").exists(), "progress markers ride along");
        assert!(!outbox.join("fresh.resp").exists());
        assert!(outbox.join("keep.txt").exists(), "non-serve files are untouchable");
        // Default path: no horizon, nothing swept.
        std::fs::write(outbox.join("late.resp"), b"x\n").expect("plant");
        let default = compact(&dir, EPOCH, TIMEOUT).expect("compact");
        assert_eq!(default.responses_swept, 0);
        assert!(outbox.join("late.resp").exists(), "default keeps responses");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
