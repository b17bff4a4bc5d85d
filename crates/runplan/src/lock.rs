//! Multi-process coordination primitives for a shared cache directory:
//! the advisory journal lock, the writer-session registry, and
//! per-fingerprint execution claims.
//!
//! # Lock protocol
//!
//! The lock is a file (`journal.lock`) whose *existence* is the lock and
//! whose content names the holder (`pid`, session `token`, `epoch`).
//! Acquisition is write-temp + atomic publish
//! ([`crate::atomic::create_new`]): the content is written to a temp
//! file first, then `hard_link`ed to the lock path — link creation is
//! atomic and fails if the lock exists, and because the
//! content is in place *before* the link, no other process can ever
//! observe a half-written lock file.
//!
//! # Stale-lock recovery
//!
//! A holder that dies without releasing leaves the lock file behind. A
//! contender that finds the holder's PID dead (or the content
//! unparseable) *steals* the lock by atomically renaming it to a
//! per-contender grave name: exactly one rename succeeds, so exactly one
//! contender performs the takeover, and everyone — winner included —
//! simply re-enters the normal acquisition loop. A lock file that cannot
//! be read (it was released in between) is retried, never stolen: only
//! content actually read can condemn a holder. A live holder is never
//! stolen from; contenders wait until [`LockConfig::timeout`] and then
//! fail with [`LockErrorKind::Timeout`].
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

/// How often a blocked contender re-examines the lock.
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
    /// Unique session token written into the lock (release checks it, so
    /// a stolen lock is never removed by its previous owner).
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

/// Holding the journal lock. Dropping the guard releases it (removal is
/// conditional on the lock still carrying our token, so a guard that
/// outlived a steal is a no-op).
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
    token: String,
    released: bool,
}

impl LockGuard {
    fn release_inner(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        if let Ok(content) = std::fs::read_to_string(&self.path) {
            if parse_field(&content, "token") == Some(self.token.as_str()) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.release_inner();
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
/// is only ever *kept*, never wrongly stolen.
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
/// holder up to `config.timeout` and stealing from a dead one.
pub fn acquire(config: &LockConfig) -> Result<LockGuard, LockError> {
    let deadline = Instant::now() + config.timeout;
    let mut last_holder = String::new();
    loop {
        match try_acquire(config)? {
            Some(guard) => return Ok(guard),
            None => {
                if let Ok(content) = std::fs::read_to_string(&config.path) {
                    last_holder = content.trim().replace('\n', ", ");
                }
                if Instant::now() >= deadline {
                    return Err(LockError {
                        kind: LockErrorKind::Timeout,
                        path: config.path.clone(),
                        detail: format!(
                            "held past the {:?} timeout by a live process ({last_holder})",
                            config.timeout
                        ),
                    });
                }
                std::thread::sleep(LOCK_POLL);
            }
        }
    }
}

/// One acquisition attempt: `Ok(Some)` on success, `Ok(None)` when a
/// live holder has it (caller waits and retries), `Err` on I/O failure.
/// A dead holder is stolen here; the caller retries either way.
fn try_acquire(config: &LockConfig) -> Result<Option<LockGuard>, LockError> {
    let content = format!(
        "pid {}\ntoken {}\nepoch {:016x}\n",
        std::process::id(),
        config.token,
        config.epoch
    );
    // Atomic publish: the link only succeeds if no lock exists, and the
    // linked content is already durable — no observable half-state.
    let created = crate::atomic::create_new(&config.path, content.as_bytes())
        .map_err(|e| io_lock_err(&e.path, e.detail))?;
    if created {
        return Ok(Some(LockGuard {
            path: config.path.clone(),
            token: config.token.clone(),
            released: false,
        }));
    }
    if stale_holder(std::fs::read_to_string(&config.path), pid_alive) {
        // Steal, then retry the normal path (someone else may beat us
        // to the link).
        steal(&config.path);
    }
    Ok(None)
}

/// Whether the read of a lock file condemns its holder, with `alive` as
/// the liveness test: content naming a dead or no parseable PID does. A
/// failed read (most often `NotFound`: the holder released since our
/// link attempt) does not — only content actually read can condemn a
/// holder, or a lock re-acquired in between would be renamed away from
/// its live owner.
fn stale_holder(read: std::io::Result<String>, alive: impl Fn(u32) -> bool) -> bool {
    read.is_ok_and(|content| holder_pid(&content).is_none_or(|pid| !alive(pid)))
}

/// Atomically retire a stale lock: rename it to a per-stealer grave name
/// — exactly one concurrent stealer's rename can succeed — then delete
/// the grave. Losers see `NotFound` and simply retry acquisition.
fn steal(path: &Path) {
    let grave = path.with_file_name(format!(
        "{LOCK_FILE}.stale-{}-{}",
        std::process::id(),
        SESSION_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::rename(path, &grave).is_ok() {
        let _ = std::fs::remove_file(&grave);
    }
}

/// Remove leftover lock temp/grave files whose owning process is dead —
/// debris from a crash between steps of acquisition or takeover.
pub fn sweep_lock_debris(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // Temp files are hidden (`.journal.lock.tmp-…`, see
        // `crate::atomic`); graves are not.
        let is_debris = name
            .strip_prefix('.')
            .unwrap_or(name)
            .strip_prefix(LOCK_FILE)
            .is_some_and(|rest| rest.starts_with(".tmp-") || rest.starts_with(".stale-"));
        if !is_debris {
            continue;
        }
        // Owner PID leads the token suffix (`<pid>-...`).
        let owner = name
            .rsplit_once('-')
            .map(|_| name)
            .and_then(|n| n.split(['-']).find_map(|part| part.parse::<u32>().ok()));
        if owner.is_none_or(|pid| !pid_alive(pid)) {
            let _ = std::fs::remove_file(entry.path());
        }
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
        /// Whether the holder PID is alive (a dead holder means the
        /// next acquisition will steal the lock).
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
    use std::sync::Arc;

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
        let guard = acquire(&config(&dir, "taker")).expect("steal stale lock");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "takeover must not wait for the timeout"
        );
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_lock_is_stolen() {
        let dir = fresh_dir("garbage");
        std::fs::write(dir.join(LOCK_FILE), b"not a lock file").expect("plant");
        let guard = acquire(&config(&dir, "taker")).expect("steal garbage lock");
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_a_holder_read_and_found_dead_is_stolen() {
        let read = |content: &str| Ok(content.to_string());
        let alive = |pid| pid == 42;
        assert!(!stale_holder(read("pid 42\ntoken t\n"), alive));
        assert!(stale_holder(read("pid 43\ntoken t\n"), alive));
        assert!(stale_holder(read("not a lock file"), alive));
        let vanished = std::io::Error::from(std::io::ErrorKind::NotFound);
        assert!(!stale_holder(Err(vanished), alive), "a released lock is retried");
        let unreadable = std::io::Error::from(std::io::ErrorKind::PermissionDenied);
        assert!(!stale_holder(Err(unreadable), alive));
    }

    #[test]
    fn takeover_race_admits_one_holder_at_a_time() {
        let dir = fresh_dir("race");
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {DEAD_PID}\ntoken ghost\n"),
        )
        .expect("plant");
        let inside = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for i in 0..4 {
            let dir = dir.clone();
            let inside = Arc::clone(&inside);
            handles.push(std::thread::spawn(move || {
                let guard = acquire(&config(&dir, &format!("racer-{i}"))).expect("acquire");
                assert!(
                    !inside.swap(true, Ordering::SeqCst),
                    "two racers held the lock at once"
                );
                std::thread::sleep(Duration::from_millis(5));
                inside.store(false, Ordering::SeqCst);
                drop(guard);
            }));
        }
        for h in handles {
            h.join().expect("racer");
        }
        assert_eq!(probe(&dir), LockStatus::Free);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stolen_guard_does_not_remove_new_holder() {
        let dir = fresh_dir("stolen-guard");
        let cfg = config(&dir, "victim");
        let guard = acquire(&cfg).expect("acquire");
        // Simulate a steal: replace the lock with another session's.
        std::fs::write(
            dir.join(LOCK_FILE),
            format!("pid {}\ntoken thief\n", std::process::id()),
        )
        .expect("overwrite");
        drop(guard); // must NOT remove the thief's lock
        match probe(&dir) {
            LockStatus::Held { token, .. } => assert_eq!(token, "thief"),
            other => panic!("thief's lock vanished: {other:?}"),
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

    #[test]
    fn lock_debris_is_swept_when_owner_dead() {
        let dir = fresh_dir("debris");
        let dead_tmp = dir.join(format!("{LOCK_FILE}.tmp-{DEAD_PID}-0-00"));
        let live_tmp = dir.join(format!("{LOCK_FILE}.tmp-{}-0-00", std::process::id()));
        std::fs::write(&dead_tmp, b"x").expect("write");
        std::fs::write(&live_tmp, b"x").expect("write");
        sweep_lock_debris(&dir);
        assert!(!dead_tmp.exists(), "dead owner's debris must be swept");
        assert!(live_tmp.exists(), "live owner's temp must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
