//! Serve-fleet membership: the registry that lets N `repro serve`
//! daemons share one cache.
//!
//! Each daemon publishes one *member file* under `serve/fleet/` with
//! the same fsynced-temp + atomic hard-link idiom as the journal lock
//! ([`crate::atomic::create_new`]), so membership is crash-visible
//! state on the shared filesystem, and the registry is the only record
//! of who is serving:
//!
//! ```text
//! serve/fleet/<token>       pid <pid> / token <token>   (hard-linked)
//! serve/fleet/<token>.hb    pid / tick / unix_ms / served / in-flight
//! serve/work/<token>/       requests this member has claimed
//! ```
//!
//! Every member claims inbox requests by atomic rename into its own
//! work directory, so two members can never admit the same request.
//! Liveness is judged the same way the lock judges it — `/proc/<pid>`
//! — with the per-member heartbeat as a second signal: a member whose
//! pid is dead, or whose heartbeat is older than the staleness horizon
//! ([`DEFAULT_MEMBER_STALE`]), is *dead to the fleet*. Any live member sweeps a
//! dead member's claimed work back to the inbox (exactly-once: the
//! rename from the dead member's work dir succeeds for one sweeper)
//! and retires its registry entries, so `kill -9` of any daemon
//! mid-request loses nothing.

use crate::journal::{io_err, JournalError};
use crate::lock::{fresh_token, holder_pid, holder_token, parse_field, pid_alive};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The fleet member registry directory inside a cache dir.
pub const FLEET_DIR: &str = "serve/fleet";

/// How stale a live-pid member's heartbeat may grow before the fleet
/// treats it as dead (wedged) and re-adopts its claimed work.
pub const DEFAULT_MEMBER_STALE: Duration = Duration::from_secs(30);

/// Milliseconds since the Unix epoch (0 if the clock is broken).
pub(crate) fn unix_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// Render one heartbeat file body.
fn heartbeat_body(tick: u64, served: u64, in_flight: usize) -> String {
    format!(
        "pid {}\ntick {tick}\nunix_ms {}\nserved {served}\nin-flight {in_flight}\n",
        std::process::id(),
        unix_ms()
    )
}

/// One daemon's registered identity in the fleet: its member file, its
/// heartbeat file, and its private work directory. Registration is the
/// constructor; `Drop` retires all three.
#[derive(Debug)]
pub struct FleetMembership {
    /// This member's unique registry token.
    pub token: String,
    /// This member's private claimed-request directory.
    pub work_dir: PathBuf,
    member_path: PathBuf,
    hb_path: PathBuf,
}

impl FleetMembership {
    /// Register this process as a fleet member of `cache_dir`: publish
    /// the member file ([`crate::atomic::create_new`], the same
    /// no-overwrite idiom as the journal lock) and create the member's
    /// work directory.
    pub fn register(cache_dir: &Path) -> Result<FleetMembership, JournalError> {
        let fleet_dir = cache_dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).map_err(|e| io_err(&fleet_dir, "create-dir", e))?;
        loop {
            let token = fresh_token();
            let member_path = fleet_dir.join(&token);
            let content = format!("pid {}\ntoken {token}\n", std::process::id());
            // A token collision is all but impossible (pid + counter +
            // clock), but losing the race is not an error: take a fresh
            // identity and re-link.
            if !crate::atomic::create_new(&member_path, content.as_bytes())? {
                continue;
            }
            let work_dir = cache_dir.join(crate::serve::WORK_DIR).join(&token);
            std::fs::create_dir_all(&work_dir).map_err(|e| io_err(&work_dir, "create-dir", e))?;
            let hb_path = fleet_dir.join(format!("{token}.hb"));
            return Ok(FleetMembership { token, work_dir, member_path, hb_path });
        }
    }

    /// Rewrite this member's heartbeat (best-effort: a failed heartbeat
    /// must not kill the daemon). Carries the member's served and
    /// in-flight counters for the `repro status` fleet table.
    pub fn heartbeat(&self, tick: u64, served: u64, in_flight: usize) {
        let _ = std::fs::write(&self.hb_path, heartbeat_body(tick, served, in_flight));
    }

    /// Is this member's registration still on disk? A peer that judged
    /// this member wedged (stale heartbeat) retires its member file and
    /// work dir; after that, every claim rename fails on the missing
    /// work dir and this process serves nothing until it re-registers
    /// under a fresh token.
    pub fn still_registered(&self) -> bool {
        self.work_dir.is_dir()
            && std::fs::read_to_string(&self.member_path)
                .is_ok_and(|content| holder_token(&content) == Some(self.token.as_str()))
    }

    /// Spawn this member's background heartbeat writer: a thread that
    /// rewrites the heartbeat file every quarter of `stale_after` (and
    /// promptly after each [`HeartbeatPulse::record`]), so a scan loop
    /// busy executing a long batch keeps proving liveness instead of
    /// being judged wedged by its peers. Drop the pulse *before* the
    /// membership so it cannot recreate a retired heartbeat file.
    pub fn spawn_pulse(&self, stale_after: Duration) -> HeartbeatPulse {
        HeartbeatPulse::spawn(self.hb_path.clone(), stale_after)
    }
}

/// Counters the serve loop publishes for the heartbeat thread to write.
#[derive(Debug, Default)]
struct PulseState {
    tick: AtomicU64,
    served: AtomicU64,
    in_flight: AtomicU64,
    dirty: AtomicBool,
    stop: AtomicBool,
}

/// A member's background heartbeat writer
/// (see [`FleetMembership::spawn_pulse`]). Stopped and joined on drop.
#[derive(Debug)]
pub struct HeartbeatPulse {
    state: Arc<PulseState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatPulse {
    fn spawn(hb_path: PathBuf, stale_after: Duration) -> HeartbeatPulse {
        let state = Arc::new(PulseState::default());
        let shared = Arc::clone(&state);
        let interval = (stale_after / 4).max(Duration::from_millis(20));
        // Sleep in short slices so counter updates land promptly and
        // drop joins fast, while full rewrites stay interval-paced.
        let slice = interval.min(Duration::from_millis(20));
        let handle = std::thread::spawn(move || {
            let mut since_rewrite = interval; // first pass writes immediately
            while !shared.stop.load(Ordering::Acquire) {
                if since_rewrite >= interval || shared.dirty.swap(false, Ordering::AcqRel) {
                    let _ = std::fs::write(
                        &hb_path,
                        heartbeat_body(
                            shared.tick.load(Ordering::Relaxed),
                            shared.served.load(Ordering::Relaxed),
                            shared.in_flight.load(Ordering::Relaxed) as usize,
                        ),
                    );
                    since_rewrite = Duration::ZERO;
                }
                std::thread::sleep(slice);
                since_rewrite += slice;
            }
        });
        HeartbeatPulse { state, handle: Some(handle) }
    }

    /// Publish fresh counters; the thread rewrites the heartbeat on its
    /// next slice (tens of milliseconds), not the next full interval.
    pub fn record(&self, tick: u64, served: u64, in_flight: usize) {
        self.state.tick.store(tick, Ordering::Relaxed);
        self.state.served.store(served, Ordering::Relaxed);
        self.state.in_flight.store(in_flight as u64, Ordering::Relaxed);
        self.state.dirty.store(true, Ordering::Release);
    }
}

impl Drop for HeartbeatPulse {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetMembership {
    fn drop(&mut self) {
        // Retire only our own entry (token-checked, like the lock).
        if let Ok(content) = std::fs::read_to_string(&self.member_path) {
            if holder_token(&content) == Some(self.token.as_str()) {
                let _ = std::fs::remove_file(&self.member_path);
            }
        }
        let _ = std::fs::remove_file(&self.hb_path);
        // Empty on a clean exit; a non-empty dir (claimed work we never
        // finished) is deliberately left for the fleet to re-adopt.
        let _ = std::fs::remove_dir(&self.work_dir);
    }
}

/// One member's row in the fleet table, as read-only observers (and
/// other members) see it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetMemberInfo {
    /// The member's registry token.
    pub token: String,
    /// The pid recorded in the member file (0 if unparseable).
    pub pid: u32,
    /// Whether that pid is currently alive.
    pub pid_live: bool,
    /// Age of the member's last heartbeat in milliseconds, if any.
    pub heartbeat_age_ms: Option<u128>,
    /// Requests claimed into the member's work dir right now.
    pub in_flight: usize,
    /// Responses the member reported served in its last heartbeat.
    pub served: u64,
}

impl FleetMemberInfo {
    /// Is this member dead to the fleet under `stale_after`? Dead pid,
    /// or a heartbeat older than the staleness horizon (a live pid
    /// with *no* heartbeat yet is still starting up, not dead).
    pub fn is_dead(&self, stale_after: Duration) -> bool {
        !self.pid_live
            || self
                .heartbeat_age_ms
                .is_some_and(|age| age > stale_after.as_millis())
    }
}

fn parse_hb_field(content: &str, key: &str) -> Option<u128> {
    parse_field(content, key).and_then(|v| v.parse().ok())
}

/// Snapshot every registered fleet member of `cache_dir`, sorted by
/// token. Read-only: safe for `repro status` while daemons run.
pub fn fleet_members(cache_dir: &Path) -> Vec<FleetMemberInfo> {
    let fleet_dir = cache_dir.join(FLEET_DIR);
    let Ok(entries) = std::fs::read_dir(&fleet_dir) else {
        return Vec::new();
    };
    let mut out: Vec<FleetMemberInfo> = entries
        .flatten()
        .filter_map(|entry| {
            let token = entry.file_name().to_str()?.to_string();
            if token.starts_with('.') || token.ends_with(".hb") {
                return None;
            }
            let content = std::fs::read_to_string(entry.path()).ok()?;
            let pid = holder_pid(&content).unwrap_or(0);
            let hb = std::fs::read_to_string(fleet_dir.join(format!("{token}.hb"))).ok();
            let heartbeat_age_ms = hb
                .as_deref()
                .and_then(|c| parse_hb_field(c, "unix_ms"))
                .map(|then| unix_ms().saturating_sub(then));
            let served = hb
                .as_deref()
                .and_then(|c| parse_hb_field(c, "served"))
                .unwrap_or(0) as u64;
            let in_flight = std::fs::read_dir(
                cache_dir.join(crate::serve::WORK_DIR).join(&token),
            )
            .map_or(0, |entries| {
                entries
                    .flatten()
                    .filter(|e| {
                        e.file_name().to_str().is_some_and(|n| n.ends_with(".req"))
                    })
                    .count()
            });
            Some(FleetMemberInfo {
                token,
                pid,
                pid_live: pid_alive(pid),
                heartbeat_age_ms,
                in_flight,
                served,
            })
        })
        .collect();
    out.sort_by(|a, b| a.token.cmp(&b.token));
    out
}

/// Sweep every dead member of `cache_dir`'s fleet (excluding
/// `self_token`): move its claimed requests back to the inbox for
/// re-service and retire its member, heartbeat, and work-dir entries.
/// Returns the number of orphaned requests re-adopted. Exactly-once by
/// construction — each orphan's rename into the inbox succeeds for at
/// most one sweeping member.
pub fn sweep_dead_members(
    cache_dir: &Path,
    stale_after: Duration,
    self_token: Option<&str>,
) -> usize {
    let inbox = cache_dir.join(crate::serve::INBOX_DIR);
    let fleet_dir = cache_dir.join(FLEET_DIR);
    let mut adopted = 0;
    for member in fleet_members(cache_dir) {
        if Some(member.token.as_str()) == self_token || !member.is_dead(stale_after) {
            continue;
        }
        let work_dir = cache_dir.join(crate::serve::WORK_DIR).join(&member.token);
        if let Ok(entries) = std::fs::read_dir(&work_dir) {
            for entry in entries.flatten() {
                let Some(name) = entry.file_name().to_str().map(str::to_string) else {
                    continue;
                };
                if !name.ends_with(".req") {
                    continue;
                }
                if std::fs::rename(entry.path(), inbox.join(&name)).is_ok() {
                    adopted += 1;
                }
            }
        }
        let _ = std::fs::remove_dir(&work_dir);
        let _ = std::fs::remove_file(fleet_dir.join(format!("{}.hb", member.token)));
        let _ = std::fs::remove_file(fleet_dir.join(&member.token));
    }
    // Second pass: *unregistered* work dirs — a member that deregistered
    // (clean Drop or error-path exit) with claims still on disk. Safe
    // against racing a mid-registration member because `register`
    // publishes the member file *before* creating the work dir: any
    // work dir whose member file is absent at this instant belongs to
    // no one. The existence check is per-subdir and fresh, never a
    // snapshot.
    let work_root = cache_dir.join(crate::serve::WORK_DIR);
    if let Ok(entries) = std::fs::read_dir(&work_root) {
        for entry in entries.flatten() {
            let Some(token) = entry.file_name().to_str().map(str::to_string) else {
                continue;
            };
            if Some(token.as_str()) == self_token || !entry.path().is_dir() {
                continue;
            }
            if fleet_dir.join(&token).exists() {
                continue; // registered (possibly mid-startup): not ours
            }
            if let Ok(claims) = std::fs::read_dir(entry.path()) {
                for claim in claims.flatten() {
                    let Some(name) = claim.file_name().to_str().map(str::to_string) else {
                        continue;
                    };
                    if !name.ends_with(".req") {
                        continue;
                    }
                    if std::fs::rename(claim.path(), inbox.join(&name)).is_ok() {
                        adopted += 1;
                    }
                }
            }
            let _ = std::fs::remove_dir(entry.path());
        }
    }
    adopted
}

/// The first live member of `cache_dir`'s fleet, if any — what
/// `serve --stop` drain-waiting and the last-member-out check use.
pub fn live_member(cache_dir: &Path) -> Option<FleetMemberInfo> {
    fleet_members(cache_dir).into_iter().find(|m| m.pid_live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "interp-fleet-{tag}-{}-{}",
            std::process::id(),
            fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join(crate::serve::INBOX_DIR)).expect("mkdir");
        dir
    }

    #[test]
    fn register_heartbeat_and_drop_round_trip() {
        let dir = fresh_dir("register");
        let member = FleetMembership::register(&dir).expect("register");
        member.heartbeat(3, 7, 1);
        let members = fleet_members(&dir);
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].pid, std::process::id());
        assert!(members[0].pid_live);
        assert_eq!(members[0].served, 7);
        assert!(members[0].heartbeat_age_ms.is_some());
        assert!(!members[0].is_dead(DEFAULT_MEMBER_STALE));
        drop(member);
        assert!(fleet_members(&dir).is_empty(), "drop must deregister");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pulse_heartbeats_in_the_background_and_stops_on_drop() {
        let dir = fresh_dir("pulse");
        let member = FleetMembership::register(&dir).expect("register");
        let pulse = member.spawn_pulse(Duration::from_millis(80));
        pulse.record(2, 9, 3);
        // The thread writes the recorded counters within a few slices,
        // with no call from the "scan loop" in between — exactly what a
        // member stuck executing a long batch needs.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let members = fleet_members(&dir);
            if members.len() == 1 && members[0].served == 9 {
                assert!(!members[0].is_dead(Duration::from_secs(5)));
                break;
            }
            assert!(std::time::Instant::now() < deadline, "pulse never wrote: {members:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(pulse);
        drop(member);
        assert!(fleet_members(&dir).is_empty(), "drop must deregister");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn still_registered_detects_a_peer_sweep() {
        let dir = fresh_dir("retired");
        let member = FleetMembership::register(&dir).expect("register");
        assert!(member.still_registered());
        // What a peer's sweep does to a member it judged wedged.
        std::fs::remove_file(dir.join(FLEET_DIR).join(&member.token)).expect("retire");
        let _ = std::fs::remove_dir_all(&member.work_dir);
        assert!(!member.still_registered());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_members_coexist_with_distinct_work_dirs() {
        let dir = fresh_dir("pair");
        let a = FleetMembership::register(&dir).expect("a");
        let b = FleetMembership::register(&dir).expect("b");
        assert_ne!(a.token, b.token);
        assert_ne!(a.work_dir, b.work_dir);
        assert_eq!(fleet_members(&dir).len(), 2);
        drop(a);
        assert_eq!(fleet_members(&dir).len(), 1);
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_member_work_is_swept_back_to_the_inbox_exactly_once() {
        let dir = fresh_dir("sweep");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        // A corpse: dead pid, one claimed request, no heartbeat.
        std::fs::write(fleet_dir.join("corpse"), "pid 4000000000\ntoken corpse\n")
            .expect("member");
        let work = dir.join(crate::serve::WORK_DIR).join("corpse");
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(work.join("lost.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 1);
        assert!(dir.join(crate::serve::INBOX_DIR).join("lost.req").exists());
        assert!(!work.exists(), "corpse work dir must be retired");
        assert!(fleet_members(&dir).is_empty(), "corpse member must be retired");
        // A second sweep finds nothing — exactly-once.
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_member_with_stale_heartbeat_is_dead_to_the_fleet() {
        let dir = fresh_dir("stale");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        // Our own (alive) pid, but a heartbeat from the epoch.
        std::fs::write(
            fleet_dir.join("wedged"),
            format!("pid {}\ntoken wedged\n", std::process::id()),
        )
        .expect("member");
        std::fs::write(
            fleet_dir.join("wedged.hb"),
            format!("pid {}\ntick 1\nunix_ms 1\nserved 0\nin-flight 0\n", std::process::id()),
        )
        .expect("hb");
        let members = fleet_members(&dir);
        assert_eq!(members.len(), 1);
        assert!(members[0].pid_live);
        assert!(members[0].is_dead(Duration::from_millis(10)), "stale heartbeat");
        // A member that has not heartbeat *yet* is starting, not dead.
        std::fs::remove_file(fleet_dir.join("wedged.hb")).expect("rm");
        assert!(!fleet_members(&dir)[0].is_dead(Duration::from_millis(10)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_token_is_never_swept() {
        let dir = fresh_dir("self");
        let fleet_dir = dir.join(FLEET_DIR);
        std::fs::create_dir_all(&fleet_dir).expect("mkdir");
        std::fs::write(
            fleet_dir.join("me"),
            format!("pid {}\ntoken me\n", std::process::id()),
        )
        .expect("member");
        // Even under a zero staleness horizon (no heartbeat means
        // "starting", and self is excluded outright).
        assert_eq!(sweep_dead_members(&dir, Duration::ZERO, Some("me")), 0);
        assert_eq!(fleet_members(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregistered_work_dir_is_adopted() {
        let dir = fresh_dir("unregistered");
        // A member that exited through an error path: its member file
        // is gone (Drop deregistered it) but a claimed request is still
        // in its work dir — no registered member points at it.
        let work = dir.join(crate::serve::WORK_DIR).join("ghost");
        std::fs::create_dir_all(&work).expect("mkdir");
        std::fs::write(work.join("left-behind.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 1);
        assert!(dir.join(crate::serve::INBOX_DIR).join("left-behind.req").exists());
        assert!(!work.exists());
        // A *registered* live member's work dir is untouchable even
        // when empty of heartbeats.
        let member = FleetMembership::register(&dir).expect("register");
        std::fs::write(member.work_dir.join("claimed.req"), b"payload\n").expect("plant");
        assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 0);
        assert!(member.work_dir.join("claimed.req").exists());
        let _ = std::fs::remove_file(member.work_dir.join("claimed.req"));
        drop(member);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
