//! Multi-process coordination primitives for a shared cache directory:
//! the advisory journal lock, the writer-session registry, and
//! per-fingerprint execution claims.
//!
//! # Lock protocol
//!
//! The lock is a kernel `flock` ([`std::fs::File::try_lock`]) on the file
//! `journal.lock`; the file's content names the holder (`pid`, session
//! `token`, `epoch`) for `repro status` and timeout messages.
//!
//! * A contender opens the path (creating it if absent) and tries the
//!   lock, polling until [`LockConfig::timeout`], then fails with
//!   [`LockErrorKind::Timeout`].
//! * Once locked, it checks that its handle is still the file at the
//!   path: a holder that released after the contender's open has
//!   unlinked that file, so the contender retries on the new one.
//! * It then writes its holder content in place.
//! * Release unlinks the path and then closes the handle, so the file
//!   exists only while the lock is held, or after its holder crashed.
//!
//! A holder that dies releases the lock with its last descriptor: the
//! kernel decides liveness, so a lock is never stolen and never held
//! twice. A file left by a crashed holder holds no lock; the next
//! contender simply takes it and overwrites the content. Files are
//! opened close-on-exec, so a child started with exec never inherits
//! the lock.
//!
//! # Sessions and claims
//!
//! Cooperating journaled executions each register a *session* — a file
//! in `writers/` named by a unique token and holding the PID — so a
//! non-resume opener can tell a live concurrent campaign from a dead
//! cache, and `repro status` can show who is active. While executing,
//! a session *claims* each fingerprint it is about to run (a file in
//! `claims/`, created under the journal lock), so concurrent processes
//! partition the plan dynamically with exactly-once execution: a
//! fingerprint claimed by a live session is waited on, not re-run, and
//! a claim whose session died is simply taken over. All claim and
//! registry mutations happen while holding the journal lock, so plain
//! files suffice.

use std::fmt;
use std::fs::{File, OpenOptions, TryLockError};
use std::os::unix::fs::{FileExt as _, MetadataExt as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// File name of the advisory lock inside a cache directory.
pub const LOCK_FILE: &str = "journal.lock";

/// Directory (inside the cache dir) holding one file per live
/// writer session.
pub const WRITERS_DIR: &str = "writers";

/// Directory (inside the cache dir) holding one file per in-flight
/// execution claim.
pub const CLAIMS_DIR: &str = "claims";

/// Default patience for lock acquisition before giving up.
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(30);

/// How often a blocked contender retries the lock.
const LOCK_POLL: Duration = Duration::from_millis(5);

/// Why a lock operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockErrorKind {
    /// A live holder kept the lock past [`LockConfig::timeout`].
    Timeout,
    /// The underlying filesystem operation failed.
    Io,
}

/// A failed lock operation: what kind, where, and why.
#[derive(Debug, Clone)]
pub struct LockError {
    /// Timeout vs. I/O.
    pub kind: LockErrorKind,
    /// The lock file path.
    pub path: PathBuf,
    /// Human-readable cause (for a timeout, includes the holder).
    pub detail: String,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            LockErrorKind::Timeout => "lock timeout",
            LockErrorKind::Io => "lock I/O failure",
        };
        write!(f, "{what} on {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for LockError {}

/// How to acquire the journal lock: where it lives, who we are, and how
/// long to wait for a live holder.
#[derive(Debug, Clone)]
pub struct LockConfig {
    /// The lock file path (`<cache>/journal.lock`).
    pub path: PathBuf,
    /// Unique session token written into the lock.
    pub token: String,
    /// The code/config epoch, recorded for `repro status`.
    pub epoch: u64,
    /// How long to wait on a live holder before failing with
    /// [`LockErrorKind::Timeout`].
    pub timeout: Duration,
}

impl LockConfig {
    /// Lock configuration for the journal in `dir` held by session
    /// `token` under `epoch`, with the default timeout.
    pub fn for_dir(dir: &Path, token: &str, epoch: u64) -> LockConfig {
        LockConfig {
            path: dir.join(LOCK_FILE),
            token: token.to_string(),
            epoch,
            timeout: DEFAULT_LOCK_TIMEOUT,
        }
    }

    /// Builder-style timeout override.
    pub fn with_timeout(mut self, timeout: Duration) -> LockConfig {
        self.timeout = timeout;
        self
    }
}

/// Holding the journal lock. Dropping the guard unlinks the lock file
/// and then closes the handle, which releases the kernel lock.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
    // Closed after `drop` returns, so the unlock follows the unlink.
    _file: File,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

static SESSION_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique session token: PID, a process-global counter, and a
/// sub-second clock component, so concurrent sessions *within* one
/// process (tests, future `repro serve`) are distinct identities too.
pub fn fresh_token() -> String {
    let n = SESSION_COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    format!("{}-{n}-{nanos:08x}", std::process::id())
}

/// Best-effort same-host liveness: a PID is alive if its procfs entry
/// exists. Our own PID is always alive; PID 0 never is. On platforms
/// without procfs this is conservative (assumes alive), so stale state
/// is only ever *kept*, never wrongly swept.
pub fn pid_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Parse `key value` lines of a lock/registry/claim/heartbeat file —
/// the one line-oriented metadata format every serve/lock state file
/// shares.
pub fn parse_field<'a>(content: &'a str, key: &str) -> Option<&'a str> {
    content.lines().find_map(|line| {
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::trim)
    })
}

/// The holder PID recorded in a lock file, if parseable.
pub fn holder_pid(content: &str) -> Option<u32> {
    parse_field(content, "pid").and_then(|v| v.parse().ok())
}

/// The holder token recorded in a lock file, if present.
pub fn holder_token(content: &str) -> Option<&str> {
    parse_field(content, "token")
}

fn io_lock_err(path: &Path, detail: impl fmt::Display) -> LockError {
    LockError {
        kind: LockErrorKind::Io,
        path: path.to_path_buf(),
        detail: detail.to_string(),
    }
}

/// Acquire the journal lock described by `config`, waiting on a live
/// holder up to `config.timeout`.
pub fn acquire(config: &LockConfig) -> Result<LockGuard, LockError> {
    let path = &config.path;
    let io = |e: std::io::Error| io_lock_err(path, e);
    let deadline = Instant::now() + config.timeout;
    loop {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        match file.try_lock() {
            Ok(()) => {
                // The previous holder may have unlinked this file after
                // our open: then the lock is on the file at the path now.
                if !is_at_path(&file, path).map_err(io)? {
                    continue;
                }
                let content = format!(
                    "pid {}\ntoken {}\nepoch {:016x}\n",
                    std::process::id(),
                    config.token,
                    config.epoch
                );
                // No truncate before the write: on ext4 a truncate to
                // zero makes the close flush the file.
                file.write_all_at(content.as_bytes(), 0).map_err(io)?;
                file.set_len(content.len() as u64).map_err(io)?;
                return Ok(LockGuard { path: path.clone(), _file: file });
            }
            Err(TryLockError::WouldBlock) => {}
            Err(TryLockError::Error(e)) => return Err(io(e)),
        }
        if Instant::now() >= deadline {
            let holder = std::fs::read_to_string(path).unwrap_or_default();
            return Err(LockError {
                kind: LockErrorKind::Timeout,
                path: path.clone(),
                detail: format!(
                    "held past the {:?} timeout by a live process ({})",
                    config.timeout,
                    holder.trim().replace('\n', ", ")
                ),
            });
        }
        std::thread::sleep(LOCK_POLL);
    }
}

/// Whether the open `file` is still the file at `path`.
fn is_at_path(file: &File, path: &Path) -> std::io::Result<bool> {
    let held = file.metadata()?;
    match std::fs::metadata(path) {
        Ok(m) => Ok((m.dev(), m.ino()) == (held.dev(), held.ino())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// One live (or stale) writer session as recorded in `writers/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session token (the registry file name).
    pub token: String,
    /// The recorded PID.
    pub pid: u32,
    /// Whether the PID is currently alive.
    pub live: bool,
}

/// The writer-session registry: one file per journaled execution, named
/// by its token, holding its PID. All mutations happen under the journal
/// lock.
#[derive(Debug, Clone)]
pub struct Sessions {
    dir: PathBuf,
}

impl Sessions {
    /// The registry inside `cache_dir` (the directory is created on
    /// first registration).
    pub fn new(cache_dir: &Path) -> Sessions {
        Sessions { dir: cache_dir.join(WRITERS_DIR) }
    }

    /// Register `token` as a live writer session.
    pub fn register(&self, token: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(
            self.dir.join(token),
            format!("pid {}\n", std::process::id()),
        )
    }

    /// Remove `token`'s registration (end of session; best-effort).
    pub fn deregister(&self, token: &str) {
        let _ = std::fs::remove_file(self.dir.join(token));
    }

    /// Every recorded session, live or stale.
    pub fn all(&self) -> Vec<SessionInfo> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut sessions: Vec<SessionInfo> = entries
            .flatten()
            .filter_map(|entry| {
                let token = entry.file_name().to_str()?.to_string();
                let content = std::fs::read_to_string(entry.path()).unwrap_or_default();
                let pid = holder_pid(&content).unwrap_or(0);
                Some(SessionInfo { token, pid, live: pid_alive(pid) })
            })
            .collect();
        sessions.sort_by(|a, b| a.token.cmp(&b.token));
        sessions
    }

    /// Count of live sessions other than `token`.
    pub fn live_others(&self, token: &str) -> usize {
        self.all()
            .iter()
            .filter(|s| s.live && s.token != token)
            .count()
    }

    /// True if `token` is registered and its PID is alive.
    pub fn is_live(&self, token: &str) -> bool {
        let content = std::fs::read_to_string(self.dir.join(token)).unwrap_or_default();
        holder_pid(&content).is_some_and(pid_alive)
    }

    /// Remove registrations whose PID is dead (crash leftovers).
    pub fn sweep_stale(&self) {
        for session in self.all() {
            if !session.live {
                let _ = std::fs::remove_file(self.dir.join(&session.token));
            }
        }
    }
}

/// Per-fingerprint execution claims: `claims/<fingerprint:016x>` holds
/// the claiming session's token and PID. Created and inspected only
/// while holding the journal lock; removed on commit or abandonment.
#[derive(Debug, Clone)]
pub struct Claims {
    dir: PathBuf,
}

impl Claims {
    /// The claims directory inside `cache_dir` (created on first claim).
    pub fn new(cache_dir: &Path) -> Claims {
        Claims { dir: cache_dir.join(CLAIMS_DIR) }
    }

    fn path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}"))
    }

    /// Record that session `token` is about to execute `fingerprint`.
    pub fn claim(&self, fingerprint: u64, token: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(
            self.path(fingerprint),
            format!("pid {}\ntoken {token}\n", std::process::id()),
        )
    }

    /// Drop the claim on `fingerprint` (commit or abandonment).
    pub fn release(&self, fingerprint: u64) {
        let _ = std::fs::remove_file(self.path(fingerprint));
    }

    /// The claiming session's token, if any claim is on file.
    pub fn holder(&self, fingerprint: u64) -> Option<String> {
        let content = std::fs::read_to_string(self.path(fingerprint)).ok()?;
        holder_token(&content).map(str::to_string)
    }

    /// True if `fingerprint` is claimed by a session other than
    /// `my_token` that is still alive (registered with a live PID). A
    /// claim whose session died is *not* live — the caller takes it
    /// over by claiming on top of it.
    pub fn live_by_other(&self, fingerprint: u64, my_token: &str, sessions: &Sessions) -> bool {
        match self.holder(fingerprint) {
            Some(token) => token != my_token && sessions.is_live(&token),
            None => false,
        }
    }

    /// In-flight claims on file (live and stale) — `repro status`.
    pub fn count(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |entries| entries.flatten().count())
    }

    /// Remove claims whose session is no longer live.
    pub fn sweep_stale(&self, sessions: &Sessions) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let content = std::fs::read_to_string(entry.path()).unwrap_or_default();
            let live = holder_token(&content).is_some_and(|t| sessions.is_live(t));
            if !live {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// The lock's current state as `repro status` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockStatus {
    /// No lock file on disk.
    Free,
    /// A lock file exists; holder details and liveness attached.
    Held {
        /// Recorded holder PID (0 if unparseable).
        pid: u32,
        /// Recorded holder token (empty if unparseable).
        token: String,
        /// Whether the holder PID is alive (a dead holder's file holds
        /// no lock: the next acquisition takes it at once).
        live: bool,
    },
}

/// Inspect the lock in `dir` without touching it.
pub fn probe(dir: &Path) -> LockStatus {
    match std::fs::read_to_string(dir.join(LOCK_FILE)) {
        Err(_) => LockStatus::Free,
        Ok(content) => {
            let pid = holder_pid(&content).unwrap_or(0);
            LockStatus::Held {
                pid,
                token: holder_token(&content).unwrap_or("").to_string(),
                live: pid_alive(pid),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-lock-test-{tag}-{}-{}",
            std::process::id(),
            SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// A PID far above any real pid_max, guaranteed dead.
    const DEAD_PID: u32 = 4_000_000_000;

    fn config(dir: &Path, token: &str) -> LockConfig {
        LockConfig::for_dir(dir, token, 7).with_timeout(Duration::from_secs(5))
    }

    #[test]
    fn acquire_release_round_trips() {
        let dir = fresh_dir("basic");
        let guard = acquire(&config(&dir, "a")).expect("acquire");
        assert!(dir.join(LOCK_FILE).exists());
        match probe(&dir) {
            LockStatus::Held { pid, token, live } => {
                assert_eq!(pid, std::process::id());
                assert_eq!(token, "a");
                assert!(live);
            }
            other => panic!("expected Held, got {other:?}"),
        }
        drop(guard);
        assert!(!dir.join(LOCK_FILE).exists(), "release must remove the lock");
        assert_eq!(probe(&dir), LockStatus::Free);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_holder_times_out_contender() {
        let dir = fresh_dir("timeout");
        let _held = acquire(&config(&dir, "holder")).expect("acquire");
        let contender = config(&dir, "contender").with_timeout(Duration::from_millis(50));
        let err = acquire(&contender).expect_err("must time out");
        assert_eq!(err.kind, LockErrorKind::Timeout);
        assert!(err.detail.contains("holder"), "{}", err.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contender_acquires_after_release() {
        let dir = fresh_dir("contend");
        let guard = acquire(&config(&dir, "first")).expect("acquire");
        let dir2 = dir.clone();
        let waiter = std::thread::spawn(move || acquire(&config(&dir2, "second")));
        std::thread::sleep(Duration::from_millis(40));
        drop(guard);
        let second = waiter.join().expect("join").expect("second acquire");
        drop(second);
        assert_eq!(probe(&dir), LockStatus::Free);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_holder_is_stolen() {
        let dir = fresh_dir("stale");
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {DEAD_PID}\ntoken ghost\nepoch 0000000000000007\n"),
        )
        .expect("plant stale lock");
        let started = Instant::now();
        let guard = acquire(&config(&dir, "taker")).expect("take a dead holder's lock");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "takeover must not wait for the timeout"
        );
        let content = std::fs::read_to_string(dir.join(LOCK_FILE)).expect("read lock");
        assert_eq!(
            content,
            format!("pid {}\ntoken taker\nepoch 0000000000000007\n", std::process::id()),
            "the dead holder's content is overwritten whole"
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_lock_is_stolen() {
        let dir = fresh_dir("garbage");
        std::fs::write(dir.join(LOCK_FILE), b"not a lock file").expect("plant");
        let guard = acquire(&config(&dir, "taker")).expect("take a garbage lock");
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A contender that opened the lock file just before its holder
    /// released it locks an unlinked file: that handle is not the lock,
    /// and it does not keep the next holder out.
    #[test]
    fn a_handle_on_a_released_lock_file_is_not_the_lock() {
        let dir = fresh_dir("unlinked");
        let path = dir.join(LOCK_FILE);
        let guard = acquire(&config(&dir, "holder")).expect("acquire");
        let early = File::open(&path).expect("open before the release");
        assert!(is_at_path(&early, &path).expect("stat"));
        drop(guard);
        early.try_lock().expect("the released file is unlocked");
        assert!(!is_at_path(&early, &path).expect("stat"), "the path is gone");
        let next = acquire(&config(&dir, "next")).expect("the lock is free");
        assert!(!is_at_path(&early, &path).expect("stat"), "the path is a new file");
        drop(next);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every round plants the lock of a holder that died, then starts
    /// four contenders at once on a barrier: whatever recovery they
    /// race through, at most one of them may hold the lock at a time.
    #[test]
    fn takeover_race_admits_one_holder_at_a_time() {
        const ROUNDS: usize = 150;
        const RACERS: usize = 4;
        let dir = fresh_dir("race");
        let inside = Arc::new(AtomicBool::new(false));
        for round in 0..ROUNDS {
            std::fs::write(
                dir.join(LOCK_FILE),
                format!("pid {DEAD_PID}\ntoken ghost\n"),
            )
            .expect("plant");
            let start = Arc::new(Barrier::new(RACERS));
            let racers: Vec<_> = (0..RACERS)
                .map(|i| {
                    let (dir, inside, start) =
                        (dir.clone(), Arc::clone(&inside), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        let guard =
                            acquire(&config(&dir, &format!("racer-{i}"))).expect("acquire");
                        assert!(
                            !inside.swap(true, Ordering::SeqCst),
                            "two racers held the lock at once in round {round}"
                        );
                        std::thread::sleep(Duration::from_millis(1));
                        inside.store(false, Ordering::SeqCst);
                        drop(guard);
                    })
                })
                .collect();
            for racer in racers {
                if let Err(panic) = racer.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            assert_eq!(probe(&dir), LockStatus::Free, "round {round}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_register_sweep_and_count() {
        let dir = fresh_dir("sessions");
        let sessions = Sessions::new(&dir);
        sessions.register("alive-1").expect("register");
        // Plant a stale session by rewriting the PID to a dead one.
        sessions.register("stale-1").expect("register");
        std::fs::write(
            dir.join(WRITERS_DIR).join("stale-1"),
            format!("pid {DEAD_PID}\n"),
        )
        .expect("stale");
        assert_eq!(sessions.all().len(), 2);
        assert!(sessions.is_live("alive-1"));
        assert!(!sessions.is_live("stale-1"));
        assert_eq!(sessions.live_others("alive-1"), 0);
        assert_eq!(sessions.live_others("someone-else"), 1);
        sessions.sweep_stale();
        assert_eq!(sessions.all().len(), 1);
        sessions.deregister("alive-1");
        assert!(sessions.all().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_track_liveness_through_sessions() {
        let dir = fresh_dir("claims");
        let sessions = Sessions::new(&dir);
        let claims = Claims::new(&dir);
        sessions.register("worker").expect("register");
        claims.claim(0xABCD, "worker").expect("claim");
        assert_eq!(claims.holder(0xABCD).as_deref(), Some("worker"));
        assert!(claims.live_by_other(0xABCD, "other", &sessions));
        assert!(!claims.live_by_other(0xABCD, "worker", &sessions), "own claim is not an obstacle");
        assert_eq!(claims.count(), 1);

        // Session dies: the claim goes stale and sweeps away.
        sessions.deregister("worker");
        assert!(!claims.live_by_other(0xABCD, "other", &sessions));
        claims.sweep_stale(&sessions);
        assert_eq!(claims.count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
