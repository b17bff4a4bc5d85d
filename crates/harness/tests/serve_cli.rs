//! Service-mode acceptance through the real `repro` binary: a daemon
//! serving inbox requests must produce responses byte-identical to the
//! batch CLI, reject malformed/unknown/overflow/expired requests with
//! typed answers instead of crashing, survive a deliberate mid-request
//! crash and a SIGKILL with exactly-once resumption, answer retired
//! version-1 request files with a typed rejection, and drain cleanly on
//! a stop request.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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
        "repro-serve-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pull `(reused, planned, executed, reused_live)` out of a `repro wait`
/// stderr accounting line: `serve ID: reused R of P planned run(s),
/// executed E, reused-live L`.
fn parse_accounting(stderr: &str) -> (usize, usize, usize, usize) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("serve ") && l.contains("reused"))
        .unwrap_or_else(|| panic!("no serve accounting in stderr:\n{stderr}"));
    let num_after = |marker: &str| -> usize {
        let at = line
            .find(marker)
            .unwrap_or_else(|| panic!("`{marker}` missing in `{line}`"));
        line[at + marker.len()..]
            .trim_start()
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no number after `{marker}` in `{line}`"))
    };
    (
        num_after("reused"),
        num_after("of"),
        num_after("executed"),
        num_after("reused-live"),
    )
}

/// Block until `path` exists or the deadline passes.
fn wait_for(path: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !path.exists() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Two requests served by one daemon come back byte-identical to the
/// batch CLI's stdout for the same selections, each with exactly-once
/// accounting, and the daemon reports both responses when it exits.
#[test]
fn serve_round_trip_matches_batch() {
    let cold_a = fresh_dir("rt-cold-a");
    let cold_a_s = cold_a.to_string_lossy().to_string();
    let baseline_a = repro(&["table1", "fig3", "--jobs", "2", "--cache-dir", &cold_a_s]);
    assert!(baseline_a.status.success());
    let cold_b = fresh_dir("rt-cold-b");
    let cold_b_s = cold_b.to_string_lossy().to_string();
    let baseline_b = repro(&["table2", "--jobs", "2", "--cache-dir", &cold_b_s]);
    assert!(baseline_b.status.success());

    let shared = fresh_dir("rt-shared");
    let shared_s = shared.to_string_lossy().to_string();
    let daemon = Command::new(repro_bin())
        .args([
            "serve", "--cache-dir", &shared_s, "--poll-ms", "5", "--max-requests", "2",
            "--jobs", "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    let s1 = repro(&["submit", "table1", "fig3", "--id", "r1", "--cache-dir", &shared_s]);
    assert!(s1.status.success(), "{}", String::from_utf8_lossy(&s1.stderr));
    assert_eq!(String::from_utf8_lossy(&s1.stdout).trim(), "r1");
    let s2 = repro(&["submit", "table2", "--id", "r2", "--cache-dir", &shared_s]);
    assert!(s2.status.success());

    let w1 = repro(&["wait", "r1", "--cache-dir", &shared_s, "--poll-ms", "5"]);
    assert!(
        w1.status.success(),
        "wait r1 failed: {}",
        String::from_utf8_lossy(&w1.stderr)
    );
    assert_eq!(
        w1.stdout, baseline_a.stdout,
        "serve response body differs from the batch run"
    );
    let (reused, planned, executed, reused_live) =
        parse_accounting(&String::from_utf8_lossy(&w1.stderr));
    assert_eq!(
        reused + executed + reused_live,
        planned,
        "exactly-once accounting must balance"
    );

    let w2 = repro(&["wait", "r2", "--cache-dir", &shared_s, "--poll-ms", "5"]);
    assert!(w2.status.success());
    assert_eq!(w2.stdout, baseline_b.stdout);
    let (r2, p2, e2, l2) = parse_accounting(&String::from_utf8_lossy(&w2.stderr));
    assert_eq!(r2 + e2 + l2, p2);

    let done = daemon.wait_with_output().expect("daemon exit");
    assert!(
        done.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&done.stderr)
    );
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(stderr.contains("serve: 2 response(s) (2 ok, 0 rejected)"), "{stderr}");

    for dir in [&cold_a, &cold_b, &shared] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Malformed and unknown-target requests are answered with typed
/// rejections — the daemon exits cleanly, never crashes.
#[test]
fn malformed_and_unknown_requests_get_typed_rejections() {
    let dir = fresh_dir("reject");
    let dir_s = dir.to_string_lossy().to_string();
    // Submit deliberately skips target validation: the daemon answers.
    let unk = repro(&["submit", "nonsense", "--id", "unk", "--cache-dir", &dir_s]);
    assert!(unk.status.success(), "{}", String::from_utf8_lossy(&unk.stderr));
    // A raw garbage file a buggy client might leave behind.
    std::fs::write(dir.join("serve/inbox/bad.req"), b"bogus\n").expect("plant");

    let daemon = repro(&["serve", "--cache-dir", &dir_s, "--poll-ms", "5", "--max-requests", "2"]);
    assert!(
        daemon.status.success(),
        "daemon crashed on malformed input: {}",
        String::from_utf8_lossy(&daemon.stderr)
    );
    let stderr = String::from_utf8_lossy(&daemon.stderr);
    assert!(stderr.contains("(0 ok, 2 rejected)"), "{stderr}");

    let w_unk = repro(&["wait", "unk", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert_eq!(w_unk.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&w_unk.stderr).contains("unknown-target"),
        "{}",
        String::from_utf8_lossy(&w_unk.stderr)
    );
    let w_bad = repro(&["wait", "bad", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert_eq!(w_bad.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&w_bad.stderr).contains("bad-version"),
        "{}",
        String::from_utf8_lossy(&w_bad.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Requests beyond `--queue` per scan are rejected `overloaded` instead
/// of piling up unbounded.
#[test]
fn overload_beyond_queue_is_a_typed_rejection() {
    let dir = fresh_dir("overload");
    let dir_s = dir.to_string_lossy().to_string();
    for id in ["a", "b", "c"] {
        let out = repro(&["submit", "table3", "--id", id, "--cache-dir", &dir_s]);
        assert!(out.status.success());
    }
    let daemon = repro(&[
        "serve", "--cache-dir", &dir_s, "--poll-ms", "5", "--queue", "1",
        "--max-requests", "3",
    ]);
    assert!(daemon.status.success());
    assert!(
        String::from_utf8_lossy(&daemon.stderr).contains("(1 ok, 2 rejected)"),
        "{}",
        String::from_utf8_lossy(&daemon.stderr)
    );
    let w_a = repro(&["wait", "a", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert!(w_a.status.success());
    for id in ["b", "c"] {
        let w = repro(&["wait", id, "--cache-dir", &dir_s, "--poll-ms", "5"]);
        assert_eq!(w.status.code(), Some(1), "request {id} must be rejected");
        assert!(
            String::from_utf8_lossy(&w.stderr).contains("overloaded"),
            "{}",
            String::from_utf8_lossy(&w.stderr)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario from the issue: daemon crashes mid-request
/// (deterministically, via `--crash-after`), a restarted daemon re-claims
/// the orphaned request, reuses the journaled prefix, and the response —
/// and the journal — are byte-identical to a cold batch run.
#[test]
fn crashed_daemon_restart_recovers_exactly_once() {
    let cold = fresh_dir("crash-cold");
    let cold_s = cold.to_string_lossy().to_string();
    let baseline = repro(&["table1", "--jobs", "2", "--cache-dir", &cold_s]);
    assert!(baseline.status.success());
    let cold_journal = std::fs::read(cold.join("artifacts.journal")).expect("cold journal");

    let shared = fresh_dir("crash-shared");
    let shared_s = shared.to_string_lossy().to_string();
    let sub = repro(&["submit", "table1", "--id", "r", "--cache-dir", &shared_s]);
    assert!(sub.status.success());

    let crashed = repro(&[
        "serve", "--cache-dir", &shared_s, "--poll-ms", "5", "--max-requests", "1",
        "--jobs", "2", "--crash-after", "1",
    ]);
    assert_eq!(
        crashed.status.code(),
        Some(86),
        "crash harness must exit 86: {}",
        String::from_utf8_lossy(&crashed.stderr)
    );
    assert!(
        !shared.join("serve/outbox/r.resp").exists(),
        "crashed daemon must not have answered"
    );

    let restarted = repro(&[
        "serve", "--cache-dir", &shared_s, "--poll-ms", "5", "--max-requests", "1",
        "--jobs", "2",
    ]);
    assert!(
        restarted.status.success(),
        "restart failed: {}",
        String::from_utf8_lossy(&restarted.stderr)
    );

    let w = repro(&["wait", "r", "--cache-dir", &shared_s, "--poll-ms", "5"]);
    assert!(w.status.success(), "{}", String::from_utf8_lossy(&w.stderr));
    assert_eq!(
        w.stdout, baseline.stdout,
        "recovered response differs from the cold batch run"
    );
    let (reused, planned, executed, reused_live) =
        parse_accounting(&String::from_utf8_lossy(&w.stderr));
    assert_eq!(reused + executed + reused_live, planned);
    assert!(reused >= 1, "the pre-crash append must be reused, not re-run");
    assert!(executed < planned, "recovery must not re-execute everything");

    let shared_journal =
        std::fs::read(shared.join("artifacts.journal")).expect("shared journal");
    assert_eq!(
        cold_journal, shared_journal,
        "recovered journal diverged from the serial cold cache"
    );
    let _ = std::fs::remove_dir_all(&cold);
    let _ = std::fs::remove_dir_all(&shared);
}

/// A daemon killed with SIGKILL mid-request leaves a dead lease and an
/// orphaned claim; a restarted daemon steals the lease, re-claims the
/// work, and the response still balances exactly-once.
#[test]
fn sigkilled_daemon_restart_recovers() {
    let cold = fresh_dir("kill-cold");
    let cold_s = cold.to_string_lossy().to_string();
    let baseline = repro(&["table2", "--jobs", "2", "--cache-dir", &cold_s]);
    assert!(baseline.status.success());

    let shared = fresh_dir("kill-shared");
    let shared_s = shared.to_string_lossy().to_string();
    let sub = repro(&["submit", "table2", "--id", "r", "--cache-dir", &shared_s]);
    assert!(sub.status.success());

    let mut daemon = Command::new(repro_bin())
        .args([
            "serve", "--cache-dir", &shared_s, "--poll-ms", "5", "--max-requests", "1",
            "--jobs", "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Kill as soon as the journal exists — mid-plan with near certainty.
    wait_for(&shared.join("artifacts.journal"), "journal under daemon");
    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();

    // If the daemon somehow finished before the kill landed, the
    // response already exists and a restarted daemon would idle forever
    // waiting for a request; only restart when recovery is needed.
    if !shared.join("serve/outbox/r.resp").exists() {
        let restarted = repro(&[
            "serve", "--cache-dir", &shared_s, "--poll-ms", "5", "--max-requests", "1",
            "--jobs", "2",
        ]);
        assert!(
            restarted.status.success(),
            "restart after SIGKILL failed: {}",
            String::from_utf8_lossy(&restarted.stderr)
        );
    }

    let w = repro(&["wait", "r", "--cache-dir", &shared_s, "--poll-ms", "5"]);
    assert!(w.status.success(), "{}", String::from_utf8_lossy(&w.stderr));
    assert_eq!(w.stdout, baseline.stdout);
    let (reused, planned, executed, reused_live) =
        parse_accounting(&String::from_utf8_lossy(&w.stderr));
    assert_eq!(
        reused + executed + reused_live,
        planned,
        "exactly-once accounting must survive SIGKILL recovery"
    );
    let _ = std::fs::remove_dir_all(&cold);
    let _ = std::fs::remove_dir_all(&shared);
}

/// `repro status` shows a running daemon as a one-member fleet, and
/// `repro serve --stop` drains it.
#[test]
fn status_shows_the_fleet_and_stop_drains() {
    let dir = fresh_dir("stop");
    let dir_s = dir.to_string_lossy().to_string();
    let daemon = Command::new(repro_bin())
        .args(["serve", "--cache-dir", &dir_s, "--poll-ms", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // The daemon clears stale stop markers after registering; the first
    // heartbeat proves startup is done, so the --stop below cannot be
    // swallowed as stale.
    wait_for(&dir.join("serve/heartbeat"), "daemon heartbeat");

    let status = repro(&["status", "--cache-dir", &dir_s]);
    assert!(status.status.success());
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("serve: fleet of 1 member(s) (1 live)"), "{stdout}");

    let stop = repro(&["serve", "--stop", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert!(
        stop.status.success(),
        "stop failed: {}",
        String::from_utf8_lossy(&stop.stderr)
    );
    assert!(
        String::from_utf8_lossy(&stop.stdout).contains("serve: stopped"),
        "{}",
        String::from_utf8_lossy(&stop.stdout)
    );

    let done = daemon.wait_with_output().expect("daemon exit");
    assert!(done.status.success());
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(stderr.contains("drained on stop request"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 request file planted by an old client is answered with a
/// typed `bad-version` rejection, never served and never a crash.
#[test]
fn version_1_request_files_are_rejected_as_bad_version() {
    let dir = fresh_dir("v1");
    let dir_s = dir.to_string_lossy().to_string();
    std::fs::create_dir_all(dir.join("serve/inbox")).expect("mkdir inbox");
    std::fs::write(
        dir.join("serve/inbox/old.req"),
        b"repro-serve-request/1\ntargets table3\nscale test\nend\n",
    )
    .expect("plant v1 request");

    let daemon = repro(&["serve", "--cache-dir", &dir_s, "--poll-ms", "5", "--max-requests", "1"]);
    assert!(
        daemon.status.success(),
        "daemon failed on a v1 request: {}",
        String::from_utf8_lossy(&daemon.stderr)
    );
    let w = repro(&["wait", "old", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert_eq!(w.status.code(), Some(1), "a rejection exits 1");
    let stderr = String::from_utf8_lossy(&w.stderr);
    assert!(stderr.contains("rejected (bad-version"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `submit --priority` round-trips through the daemon, and a request
/// whose `--deadline-ms` patience has already lapsed when the daemon
/// reaches it is answered with the typed `deadline-expired` rejection
/// instead of stale work.
#[test]
fn expired_deadline_is_a_typed_rejection() {
    let dir = fresh_dir("deadline");
    let dir_s = dir.to_string_lossy().to_string();
    let expired = repro(&[
        "submit", "table3", "--id", "late", "--deadline-ms", "1", "--cache-dir", &dir_s,
    ]);
    assert!(expired.status.success(), "{}", String::from_utf8_lossy(&expired.stderr));
    let urgent = repro(&[
        "submit", "table3", "--id", "urgent", "--priority", "9", "--cache-dir", &dir_s,
    ]);
    assert!(urgent.status.success());
    // Let the 1ms patience lapse before the daemon's first scan.
    std::thread::sleep(Duration::from_millis(50));

    let daemon = repro(&["serve", "--cache-dir", &dir_s, "--poll-ms", "5", "--max-requests", "2"]);
    assert!(daemon.status.success(), "{}", String::from_utf8_lossy(&daemon.stderr));
    assert!(
        String::from_utf8_lossy(&daemon.stderr).contains("(1 ok, 1 rejected)"),
        "{}",
        String::from_utf8_lossy(&daemon.stderr)
    );

    let w_urgent = repro(&["wait", "urgent", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert!(
        w_urgent.status.success(),
        "prioritized request must be served: {}",
        String::from_utf8_lossy(&w_urgent.stderr)
    );
    let w_late = repro(&["wait", "late", "--cache-dir", &dir_s, "--poll-ms", "5"]);
    assert_eq!(w_late.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&w_late.stderr).contains("deadline-expired"),
        "{}",
        String::from_utf8_lossy(&w_late.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
