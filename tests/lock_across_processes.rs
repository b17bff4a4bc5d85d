//! The journal lock across real processes. A child process (this test
//! binary, re-invoked with the lock directory in an environment
//! variable) acquires the lock and holds it; a contender in this
//! process must time out while the child lives, and must get the lock
//! at once after the child is killed, with no stale-lock recovery of
//! its own: the kernel releases a dead holder's lock.

use interpreters::runplan::lock::{holder_pid, LOCK_FILE};
use interpreters::runplan::{acquire, probe, LockConfig, LockErrorKind, LockStatus};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set in the child: the directory whose lock it must acquire and hold.
const HOLDER_DIR_ENV: &str = "INTERP_LOCK_TEST_HOLDER_DIR";

const TEST_NAME: &str = "a_killed_holder_releases_the_lock_to_a_waiting_contender";

/// Kills the child if the test fails before it does.
struct Holder(Child);

impl Drop for Holder {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The child's side: acquire, then hold until killed (bounded, so a
/// parent that died without killing it cannot leave it behind forever).
fn hold(dir: &Path) {
    let _guard = acquire(&LockConfig::for_dir(dir, "child-holder", 1)).expect("child acquires");
    std::thread::sleep(Duration::from_secs(60));
}

#[test]
fn a_killed_holder_releases_the_lock_to_a_waiting_contender() {
    if let Some(dir) = std::env::var_os(HOLDER_DIR_ENV) {
        hold(Path::new(&dir));
        return;
    }
    let dir: PathBuf =
        std::env::temp_dir().join(format!("interp-lock-across-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let child = Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", TEST_NAME, "--test-threads", "1"])
        .env(HOLDER_DIR_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn holder");
    let mut holder = Holder(child);
    let child_pid = holder.0.id();
    let started = Instant::now();
    loop {
        match probe(&dir) {
            LockStatus::Held { pid, .. } if pid == child_pid => break,
            _ => {}
        }
        assert!(
            holder.0.try_wait().expect("poll child").is_none(),
            "the holder exited before taking the lock"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the holder never took the lock"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let contender = LockConfig::for_dir(&dir, "contender", 1);
    let err = acquire(&contender.clone().with_timeout(Duration::from_millis(200)))
        .expect_err("a live holder keeps the lock");
    assert_eq!(err.kind, LockErrorKind::Timeout, "{err}");

    holder.0.kill().expect("kill holder");
    holder.0.wait().expect("reap holder");
    let timeout = Duration::from_secs(10);
    let started = Instant::now();
    let guard = acquire(&contender.with_timeout(timeout)).expect("the dead holder's lock is free");
    assert!(
        started.elapsed() < timeout / 10,
        "acquired at once, not after waiting: {:?}",
        started.elapsed()
    );
    let content = std::fs::read_to_string(dir.join(LOCK_FILE)).expect("lock content");
    assert_eq!(holder_pid(&content), Some(std::process::id()), "{content}");
    drop(guard);
    assert_eq!(probe(&dir), LockStatus::Free);
    let _ = std::fs::remove_dir_all(&dir);
}
