//! Every documented `repro` exit code, driven through the real binary:
//! 0 success, 1 rejected request, 2 usage, 3 strict-degraded, 4 journal
//! I/O, 5 lock timeout, 7 wait timeout, 86 crash harness — and the
//! README must document each one. (6 is retired.)

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro_bin() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

fn repro(args: &[&str]) -> Output {
    Command::new(repro_bin())
        .args(args)
        .output()
        .expect("spawn repro")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repro-exit-codes-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code (not signal-killed)")
}

#[test]
fn exit_0_success() {
    let out = repro(&["table3"]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn exit_1_rejected_request() {
    let dir = fresh_dir("one");
    let dir_s = dir.to_string_lossy().to_string();
    let sub = repro(&["submit", "nonsense", "--id", "r", "--cache-dir", &dir_s]);
    assert_eq!(code(&sub), 0);
    let daemon = repro(&["serve", "--cache-dir", &dir_s, "--poll-ms", "5", "--max-requests", "1"]);
    assert_eq!(code(&daemon), 0);
    let out = repro(&["wait", "r", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert_eq!(code(&out), 1, "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_2_usage_error() {
    assert_eq!(code(&repro(&["no-such-target"])), 2);
    assert_eq!(code(&repro(&["--no-such-flag"])), 2);
    assert_eq!(code(&repro(&["submit", "--id", ".hidden"])), 2);
}

/// The fleet flags parse strictly: bad values are usage errors, never
/// silently clamped or ignored.
#[test]
fn exit_2_fleet_flag_misuse() {
    assert_eq!(code(&repro(&["serve", "--serve-jobs", "0"])), 2);
    assert_eq!(code(&repro(&["serve", "--serve-jobs", "many"])), 2);
    assert_eq!(code(&repro(&["submit", "table3", "--priority", "high"])), 2);
    assert_eq!(code(&repro(&["submit", "table3", "--deadline-ms", "0"])), 2);
    assert_eq!(code(&repro(&["submit", "table3", "--deadline-ms", "-5"])), 2);
    assert_eq!(code(&repro(&["compact", "--keep-responses", "soon"])), 2);
    // Every daemon joins the fleet; there is no single-daemon flag.
    assert_eq!(code(&repro(&["serve", "--exclusive"])), 2);
}

#[test]
fn exit_3_strict_degraded() {
    // Fuel 1 degrades every run's cells; --strict turns that into 3.
    let out = repro(&["table1", "--strict", "--timeout-fuel", "1", "--jobs", "2"]);
    assert_eq!(code(&out), 3, "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn exit_4_journal_io_error() {
    // A cache dir whose path is occupied by a regular file cannot open.
    let file = std::env::temp_dir().join(format!("repro-exit4-{}", std::process::id()));
    std::fs::write(&file, b"in the way").expect("plant");
    let inside = file.join("cache");
    let out = repro(&["table3", "--cache-dir", &inside.to_string_lossy()]);
    assert_eq!(code(&out), 4, "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_file(&file);
}

#[test]
fn exit_5_lock_timeout() {
    let dir = fresh_dir("five");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // This test process holds the lock for the whole run: the writer
    // must give up after --lock-timeout and exit 5.
    let held = interp_runplan::acquire(&interp_runplan::LockConfig::for_dir(&dir, "squatter", 0))
        .expect("hold the lock");
    let out = repro(&["table3", "--cache-dir", &dir.to_string_lossy(), "--lock-timeout", "1"]);
    drop(held);
    assert_eq!(code(&out), 5, "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_7_wait_timeout() {
    let dir = fresh_dir("seven");
    let out = repro(&[
        "wait", "never-answered", "--cache-dir", &dir.to_string_lossy(),
        "--wait-timeout", "1", "--poll-ms", "5",
    ]);
    assert_eq!(code(&out), 7, "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_86_crash_harness() {
    let dir = fresh_dir("crash");
    let out = repro(&["table1", "--cache-dir", &dir.to_string_lossy(), "--crash-after", "1"]);
    assert_eq!(code(&out), 86, "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The README's exit-status table documents every code the binary can
/// produce — the rows above are each pinned by one of the tests here.
#[test]
fn readme_documents_every_exit_code() {
    let readme = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
    )
    .expect("README.md");
    for exit_code in [0, 1, 2, 3, 4, 5, 7, 86] {
        assert!(
            readme.contains(&format!("| {exit_code} |")),
            "README exit-status table lacks a row for {exit_code}"
        );
    }
}
