//! Multi-process coordination through the real `repro` binary: two
//! concurrent `repro all` invocations sharing one `--cache-dir` must
//! both succeed, split the plan exactly-once between them, and leave a
//! journal byte-identical to a serial cold run's — plus the `bench`
//! subcommand's JSON artifact.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
        "repro-concurrent-cli-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pull `(reused, planned, executed, journaled)` out of the stderr
/// resume report: `journal DIR: reused R of P planned run(s), executed
/// E, journaled J[, reused N live from concurrent writer(s)]`.
fn parse_report(stderr: &str) -> (usize, usize, usize, usize) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("journal "))
        .unwrap_or_else(|| panic!("no resume report in stderr:\n{stderr}"));
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
        num_after("journaled"),
    )
}

/// The acceptance path from the issue, end to end: two concurrent
/// processes filling one cache exit 0, execute each planned run exactly
/// once between them, print the same tables as a serial cold run, and
/// leave the shared journal byte-identical to the serial cold cache.
#[test]
fn two_processes_cooperatively_fill_one_cache() {
    // Serial cold baseline in its own cache dir.
    let cold_dir = fresh_dir("cold");
    let cold_dir_s = cold_dir.to_string_lossy().to_string();
    let cold = repro(&["all", "--jobs", "4", "--cache-dir", &cold_dir_s]);
    assert!(
        cold.status.success(),
        "cold run failed: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let (_, planned, cold_executed, _) =
        parse_report(&String::from_utf8_lossy(&cold.stderr));
    assert_eq!(cold_executed, planned, "cold run must execute everything");

    // Two concurrent invocations over one shared cache.
    let shared = fresh_dir("shared");
    let shared_s = shared.to_string_lossy().to_string();
    let spawn = || {
        Command::new(repro_bin())
            .args(["all", "--jobs", "4", "--cache-dir", &shared_s])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro")
    };
    let first = spawn();
    let second = spawn();
    let first = first.wait_with_output().expect("first process");
    let second = second.wait_with_output().expect("second process");

    for (name, out) in [("first", &first), ("second", &second)] {
        assert!(
            out.status.success(),
            "{name} process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, cold.stdout,
            "{name} process stdout differs from the serial cold run"
        );
    }

    // Exactly-once across the pair.
    let (_, p1, e1, _) = parse_report(&String::from_utf8_lossy(&first.stderr));
    let (_, p2, e2, _) = parse_report(&String::from_utf8_lossy(&second.stderr));
    assert_eq!(p1, planned);
    assert_eq!(p2, planned);
    assert_eq!(
        e1 + e2,
        planned,
        "execution must split exactly-once across the pair (first {e1}, second {e2})"
    );

    // The cooperatively-filled journal is byte-identical to the serial
    // cold journal: publishes are canonical, so the record set alone
    // determines the bytes.
    let cold_journal = std::fs::read(cold_dir.join("artifacts.journal")).expect("cold journal");
    let shared_journal = std::fs::read(shared.join("artifacts.journal")).expect("shared journal");
    assert_eq!(
        cold_journal, shared_journal,
        "shared cache diverged from the serial cold cache"
    );

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&shared);
}

/// `repro bench` writes the trajectory JSON where `--out` says and
/// summarizes on stdout.
#[test]
fn bench_emits_trajectory_json() {
    let dir = fresh_dir("bench");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out_path = dir.join("BENCH_trajectory.json");
    let out_s = out_path.to_string_lossy().to_string();
    let out = repro(&["bench", "--jobs", "4", "--out", &out_s]);
    assert!(
        out.status.success(),
        "bench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench (test scale"), "{stdout}");
    assert!(stdout.contains("deduped away"), "{stdout}");

    let json = std::fs::read_to_string(&out_path).expect("trajectory file");
    for needle in [
        "\"schema\": \"bench-trajectory/6\"",
        "\"targets\": [",
        "\"name\": \"table1\"",
        "\"combined_plan_runs\":",
        "\"dedup_reuse_ratio\":",
    ] {
        assert!(json.contains(needle), "trajectory lacks `{needle}`:\n{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro status` before and after a cached run: absent cache first,
/// then full coverage with the journal intact (status is read-only).
#[test]
fn status_snapshots_a_cache_read_only() {
    let dir = fresh_dir("status");
    let dir_s = dir.to_string_lossy().to_string();

    let empty = repro(&["status", "--cache-dir", &dir_s]);
    assert!(empty.status.success());
    let stdout = String::from_utf8_lossy(&empty.stdout);
    assert!(stdout.contains("journal: absent"), "{stdout}");
    assert!(stdout.contains("lock: free"), "{stdout}");

    let run = repro(&["table1", "--cache-dir", &dir_s]);
    assert!(run.status.success());
    let before = std::fs::read(dir.join("artifacts.journal")).expect("journal");

    let full = repro(&["status", "--cache-dir", &dir_s]);
    assert!(full.status.success());
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert!(stdout.contains("record(s)"), "{stdout}");
    assert!(stdout.contains("defects: 0"), "{stdout}");
    assert!(stdout.contains("planned run(s) cached"), "{stdout}");
    let after = std::fs::read(dir.join("artifacts.journal")).expect("journal");
    assert_eq!(before, after, "status must not rewrite the journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro compact` heals a corrupted cache: duplicates and a torn tail
/// injected into a valid journal are dropped, and a resumed run over the
/// compacted cache reuses everything.
#[test]
fn compact_drops_garbage_and_resume_still_reuses() {
    let dir = fresh_dir("compact");
    let dir_s = dir.to_string_lossy().to_string();
    let cold = repro(&["table1", "--cache-dir", &dir_s]);
    assert!(cold.status.success());

    // Corrupt: duplicate the whole record section, then tear the tail.
    let path = dir.join("artifacts.journal");
    let bytes = std::fs::read(&path).expect("journal");
    let mut corrupt = bytes.clone();
    corrupt.extend_from_slice(&bytes[8..]); // every record again: duplicates
    corrupt.extend_from_slice(&bytes[8..20]); // torn fragment
    std::fs::write(&path, &corrupt).expect("corrupt");

    let out = repro(&["compact", "--cache-dir", &dir_s]);
    assert!(
        out.status.success(),
        "compact failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compacted"), "{stdout}");
    assert!(!stdout.contains("already clean"), "{stdout}");

    // The compacted journal is byte-identical to the pre-corruption one
    // (canonical image) and a second compact is the fast path.
    assert_eq!(std::fs::read(&path).expect("journal"), bytes);
    let again = repro(&["compact", "--cache-dir", &dir_s]);
    assert!(again.status.success());
    assert!(
        String::from_utf8_lossy(&again.stdout).contains("already clean"),
        "second compact must take the fast path"
    );

    let resumed = repro(&["table1", "--cache-dir", &dir_s, "--resume"]);
    assert!(resumed.status.success());
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("executed 0"), "{stderr}");
    assert_eq!(resumed.stdout, cold.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}
