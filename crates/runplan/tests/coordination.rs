//! Multi-writer cache coordination properties, in-process: two
//! concurrent journaled campaigns over one cache must execute each run
//! exactly once between them, a claim left by a dead writer must not
//! block anyone, and a live holder's lock must surface as a typed
//! timeout rather than a hang.

use interp_core::{ConsoleDigest, Language, RunArtifact, RunRequest, Scale, WorkloadId};
use interp_runplan::journal::{self, load_bytes, JournalConfig};
use interp_runplan::lock::{acquire, LockConfig, WRITERS_DIR};
use interp_runplan::{execute_journaled_with, JournalErrorKind, Plan, SuperviseConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const EPOCH: u64 = 0xC0_0D11;

/// Same shape as the journal_resume suite: six non-subsuming requests.
fn requests() -> Vec<RunRequest> {
    [
        (Language::Mipsi, "des"),
        (Language::Mipsi, "compress"),
        (Language::Tclite, "des"),
        (Language::Javelin, "des"),
        (Language::Perlite, "des"),
        (Language::C, "des"),
    ]
    .into_iter()
    .map(|(lang, name)| RunRequest::pipeline(WorkloadId::macro_bench(lang, name, Scale::Test)))
    .collect()
}

fn probe_artifact(request: &RunRequest) -> RunArtifact {
    let mut art = RunArtifact::empty();
    art.program_bytes = request.fingerprint() as usize;
    art.console = ConsoleDigest::of(&format!("OK {}\n", request.label()));
    art
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "interp-coord-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Wait (up to ten seconds) until `writers/` holds `peers` registered
/// writer sessions.
fn await_writers(dir: &Path, peers: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let registered = std::fs::read_dir(dir.join(WRITERS_DIR)).map_or(0, |d| d.count());
        if registered >= peers {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A journaled campaign over `plan` that counts every execution in the
/// shared `counts` map and dawdles a little. No run starts before
/// `peers` writer sessions are registered, so concurrent campaigns
/// genuinely overlap: none can finish (and deregister) before the other
/// has joined.
fn campaign(
    plan: &Plan,
    dir: &Path,
    resume: bool,
    peers: usize,
    counts: &Mutex<BTreeMap<RunRequest, u32>>,
) -> interp_runplan::ResumeReport {
    let config = SuperviseConfig::new();
    let jconfig = JournalConfig::new(dir).with_epoch(EPOCH).with_resume(resume);
    let (_, report) = execute_journaled_with(plan, 2, &config, &jconfig, |request, _| {
        await_writers(dir, peers);
        *counts
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(*request)
            .or_insert(0) += 1;
        std::thread::sleep(Duration::from_millis(2));
        Ok(probe_artifact(request))
    })
    .expect("journaled execution");
    report
}

/// The tentpole invariant, in-process: two concurrent campaigns over one
/// empty cache split the plan between them — every run executes exactly
/// once across the pair, both campaigns end with the complete store, and
/// the journal holds every record cleanly.
#[test]
fn concurrent_campaigns_fill_one_cache_exactly_once() {
    let plan = Plan::build(requests());
    let dir = fresh_dir("pair");
    let counts: Mutex<BTreeMap<RunRequest, u32>> = Mutex::new(BTreeMap::new());

    // Both campaigns are in flight together: no run starts until both
    // writer sessions are registered, so the second campaign's
    // non-resume open always joins the first (live writers present =>
    // no truncation) instead of wiping a finished campaign's journal.
    let start = std::sync::Barrier::new(2);
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            start.wait();
            campaign(&plan, &dir, false, 2, &counts)
        });
        let b = scope.spawn(|| {
            start.wait();
            campaign(&plan, &dir, false, 2, &counts)
        });
        (
            a.join().expect("first campaign"),
            b.join().expect("second campaign"),
        )
    });

    // Exactly-once across the pair: every request ran once, total
    // executed sums to the plan size, and each campaign accounts for
    // its full plan as reused + executed + reused-live.
    let counts = counts.into_inner().unwrap_or_else(|p| p.into_inner());
    let context = format!("counts {counts:?}\nfirst {first:?}\nsecond {second:?}");
    for request in plan.requests() {
        assert_eq!(counts.get(request), Some(&1), "{request} execution count\n{context}");
    }
    assert_eq!(first.executed + second.executed, plan.len(), "{context}");
    for (name, report) in [("first", &first), ("second", &second)] {
        assert_eq!(
            report.reused + report.executed + report.reused_live,
            plan.len(),
            "{name} campaign accounting: {report:?}"
        );
        assert!(report.defects.is_empty(), "{name}: {:?}", report.defects);
    }

    // The journal ends complete and clean.
    let bytes = std::fs::read(dir.join(journal::JOURNAL_FILE)).expect("journal");
    let loaded = load_bytes(&bytes, EPOCH);
    assert!(loaded.defects.is_empty(), "{:?}", loaded.defects);
    assert_eq!(loaded.records.len(), plan.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A claim and writer registration left behind by a dead process must
/// not block a new campaign: the stale state is swept on open and every
/// run still executes (exactly once, by this campaign).
#[test]
fn dead_writers_claims_are_swept_not_waited_on() {
    let plan = Plan::build(requests());
    let dir = fresh_dir("corpse");
    std::fs::create_dir_all(dir.join("writers")).expect("writers dir");
    std::fs::create_dir_all(dir.join("claims")).expect("claims dir");
    // A pid far above the kernel's pid_max: guaranteed dead.
    std::fs::write(dir.join("writers/corpse-token"), "pid 4000000000\n").expect("corpse session");
    let claimed = plan.requests()[0].fingerprint();
    std::fs::write(
        dir.join(format!("claims/{claimed:016x}")),
        "pid 4000000000\ntoken corpse-token\n",
    )
    .expect("corpse claim");

    let counts: Mutex<BTreeMap<RunRequest, u32>> = Mutex::new(BTreeMap::new());
    let report = campaign(&plan, &dir, false, 1, &counts);
    assert_eq!(report.executed, plan.len(), "{report:?}");
    let counts = counts.into_inner().unwrap_or_else(|p| p.into_inner());
    assert!(counts.values().all(|&c| c == 1), "{counts:?}");
    assert!(
        !dir.join(format!("claims/{claimed:016x}")).exists(),
        "stale claim must be swept"
    );
    assert!(
        !dir.join("writers/corpse-token").exists(),
        "stale session must be swept"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lock held by a *live* process past the configured patience is a
/// typed fatal error (the CLI maps it to exit 5), not a hang and not a
/// silent fallback to unlocked writes.
#[test]
fn live_lock_holder_times_out_as_typed_error() {
    let plan = Plan::build(requests());
    let dir = fresh_dir("timeout");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let guard = acquire(
        &LockConfig::for_dir(&dir, "squatter", EPOCH).with_timeout(Duration::from_secs(5)),
    )
    .expect("squat the lock");

    let config = SuperviseConfig::new();
    let jconfig = JournalConfig::new(&dir)
        .with_epoch(EPOCH)
        .with_lock_timeout(Duration::from_millis(200));
    let err = execute_journaled_with(&plan, 2, &config, &jconfig, |request, _| {
        Ok(probe_artifact(request))
    })
    .expect_err("must time out against a live holder");
    assert_eq!(err.kind, JournalErrorKind::LockTimeout, "{err}");

    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}
