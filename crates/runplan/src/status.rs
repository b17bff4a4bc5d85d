//! Read-only cache inspection for `repro status`: what the journal
//! holds, which defects a load would heal, who (if anyone) holds the
//! lock, and which writer sessions and claims are on file. Nothing here
//! takes the lock or mutates the cache — `status` must be safe to run
//! against a campaign in full flight.

use crate::journal::{io_err, load_bytes, JournalDefect, JournalError, JOURNAL_FILE};
use crate::lock::{probe, Claims, LockStatus, SessionInfo, Sessions};
use crate::serve::{render_serve_status, serve_status, ServeStatus};
use std::collections::BTreeMap;
use std::path::Path;

/// A read-only snapshot of one cache directory.
#[derive(Debug, Clone)]
pub struct CacheStatus {
    /// Whether a journal file exists at all.
    pub present: bool,
    /// Journal file size in bytes.
    pub bytes: u64,
    /// Fingerprint → label of every valid current-epoch record.
    pub records: BTreeMap<u64, String>,
    /// Defects a load pass would detect (and an open would heal).
    pub defects: Vec<JournalDefect>,
    /// The epoch the snapshot was taken under.
    pub epoch: u64,
    /// Advisory lock state (free, or held by whom and whether alive).
    pub lock: LockStatus,
    /// Registered writer sessions, live and stale.
    pub sessions: Vec<SessionInfo>,
    /// In-flight execution claims on file.
    pub claims: usize,
    /// Serve-fleet state (per-member pid liveness, heartbeat ages,
    /// inbox/outbox depth) — all read-only probes.
    pub serve: ServeStatus,
}

/// Snapshot the cache in `dir` under `epoch` without locking or writing.
/// The journal bytes are read once; a concurrent republish can at worst
/// make the snapshot one append stale — never torn, thanks to the
/// writers' atomic renames.
pub fn cache_status(dir: &Path, epoch: u64) -> Result<CacheStatus, JournalError> {
    let path = dir.join(JOURNAL_FILE);
    let (present, bytes) = match std::fs::read(&path) {
        Ok(bytes) => (true, bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (false, Vec::new()),
        Err(e) => return Err(io_err(&path, "read", e)),
    };
    let loaded = load_bytes(&bytes, epoch);
    Ok(CacheStatus {
        present,
        bytes: bytes.len() as u64,
        records: loaded
            .records
            .iter()
            .map(|(fp, rec)| (*fp, rec.label.clone()))
            .collect(),
        defects: loaded.defects,
        epoch,
        lock: probe(dir),
        sessions: Sessions::new(dir).all(),
        claims: Claims::new(dir).count(),
        serve: serve_status(dir),
    })
}

/// Render the status report. `coverage` is the caller's plan-coverage
/// oracle — `(records in the reference plan, plan size)` — from which
/// the reuse ratio a resumed run would see is derived; `None` when no
/// reference plan applies.
pub fn render_cache_status(
    status: &CacheStatus,
    dir: &Path,
    coverage: Option<(usize, usize)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "cache {}", dir.display());
    if !status.present {
        let _ = writeln!(out, "  journal: absent (no runs cached)");
    } else {
        let _ = writeln!(
            out,
            "  journal: {} record(s), {} bytes, epoch {:016x}",
            status.records.len(),
            status.bytes,
            status.epoch
        );
    }
    let defect_total = status.defects.len();
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for defect in &status.defects {
        *counts.entry(defect.kind.label()).or_insert(0) += 1;
    }
    let breakdown = counts
        .iter()
        .map(|(label, n)| format!("{n} {label}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "  defects: {defect_total}{}",
        if defect_total > 0 {
            format!(" ({breakdown}) — healed on next open or `repro compact`")
        } else {
            String::new()
        }
    );
    match &status.lock {
        LockStatus::Free => {
            let _ = writeln!(out, "  lock: free");
        }
        LockStatus::Held { pid, token, live } => {
            let _ = writeln!(
                out,
                "  lock: held by pid {pid} (token {token}, {})",
                if *live { "alive" } else { "dead — next writer takes over" }
            );
        }
    }
    let live = status.sessions.iter().filter(|s| s.live).count();
    let _ = writeln!(
        out,
        "  writers: {} registered ({live} live), {} claim(s) in flight",
        status.sessions.len(),
        status.claims
    );
    out.push_str(&render_serve_status(&status.serve));
    if let Some((covered, planned)) = coverage {
        let ratio = if planned > 0 {
            covered as f64 / planned as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  reuse: {covered} of {planned} planned run(s) cached ({:.0}% reuse on resume)",
            ratio * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{encode_record, JournalWriter, MAGIC};
    use crate::lock::{acquire, LockConfig};
    use interp_core::{ConsoleDigest, Language, RunArtifact, RunRequest, Scale, WorkloadId};
    use std::path::PathBuf;
    use std::time::Duration;

    const EPOCH: u64 = 7;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-status-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn request() -> RunRequest {
        RunRequest::pipeline(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test))
    }

    #[test]
    fn absent_cache_reports_cleanly() {
        let dir = fresh_dir("absent");
        let status = cache_status(&dir, EPOCH).expect("status");
        assert!(!status.present);
        assert!(status.records.is_empty());
        assert_eq!(status.lock, LockStatus::Free);
        let text = render_cache_status(&status, &dir, None);
        assert!(text.contains("journal: absent"), "{text}");
        assert!(text.contains("lock: free"), "{text}");
        assert!(text.contains("serve: no daemon"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_defects_lock_and_coverage_all_surface() {
        let dir = fresh_dir("full");
        // One valid record plus trailing garbage (a torn tail).
        let req = request();
        let mut art = RunArtifact::empty();
        art.program_bytes = 1;
        art.console = ConsoleDigest::of("OK\n");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&encode_record(EPOCH, req.fingerprint(), &req.label(), &art));
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("seed");
        let guard = acquire(
            &LockConfig::for_dir(&dir, "status-test", EPOCH)
                .with_timeout(Duration::from_secs(5)),
        )
        .expect("lock");

        let status = cache_status(&dir, EPOCH).expect("status");
        assert!(status.present);
        assert_eq!(status.records.len(), 1);
        assert_eq!(status.defects.len(), 1);
        match &status.lock {
            LockStatus::Held { token, live, .. } => {
                assert_eq!(token, "status-test");
                assert!(live);
            }
            other => panic!("expected held lock, got {other:?}"),
        }
        let text = render_cache_status(&status, &dir, Some((1, 4)));
        assert!(text.contains("1 record(s)"), "{text}");
        assert!(text.contains("defects: 1 (1 torn-tail)"), "{text}");
        assert!(text.contains("held by pid"), "{text}");
        assert!(text.contains("1 of 4 planned run(s) cached (25% reuse"), "{text}");
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_members_surface_in_the_status_report() {
        let dir = fresh_dir("fleet");
        let member = crate::fleet::FleetMembership::register(&dir).expect("register");
        member.heartbeat(1, 2, 0);
        let status = cache_status(&dir, EPOCH).expect("status");
        assert_eq!(status.serve.members.len(), 1);
        assert!(status.serve.members[0].pid_live);
        let text = render_cache_status(&status, &dir, None);
        assert!(text.contains("fleet of 1 member(s) (1 live)"), "{text}");
        assert!(text.contains("2 served"), "{text}");
        drop(member);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_is_read_only() {
        let dir = fresh_dir("readonly");
        let (mut writer, _) = JournalWriter::open(&dir, EPOCH, false).expect("open");
        let req = request();
        let mut art = RunArtifact::empty();
        art.console = ConsoleDigest::of("OK\n");
        writer
            .append(req.fingerprint(), &req.label(), &art)
            .expect("append");
        let before = std::fs::read(dir.join(JOURNAL_FILE)).expect("read");
        let status = cache_status(&dir, EPOCH).expect("status");
        assert_eq!(status.records.len(), 1);
        let after = std::fs::read(dir.join(JOURNAL_FILE)).expect("read");
        assert_eq!(before, after, "status must not touch the journal");
        assert_eq!(status.lock, LockStatus::Free, "status must not hold the lock");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
