//! The journal's lock-free read path: a `--resume` execution whose plan
//! the published image already answers takes no lock, registers no
//! session and writes nothing; any miss or defect still takes the
//! locked path, which executes the residue and heals the image.
//!
//! Runs are synthetic (no interpreter), so the whole file takes
//! milliseconds.

use interp_core::{ConsoleDigest, Language, RunArtifact, RunRequest, Scale, WorkloadId};
use interp_runplan::journal::{self, record_spans, reseal_record, JOURNAL_FILE};
use interp_runplan::lock::{CLAIMS_DIR, LOCK_FILE, WRITERS_DIR};
use interp_runplan::{
    execute_journaled_with, ExecutedPlan, JournalConfig, JournalDefectKind, Plan, ResumeReport,
    SuperviseConfig,
};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

const EPOCH: u64 = 0x5EAD_0A1;

fn requests() -> Vec<RunRequest> {
    [
        (Language::Mipsi, "des"),
        (Language::Tclite, "des"),
        (Language::Perlite, "des"),
    ]
    .into_iter()
    .map(|(lang, name)| RunRequest::counting(WorkloadId::macro_bench(lang, name, Scale::Test)))
    .collect()
}

fn artifact(request: &RunRequest) -> RunArtifact {
    let mut art = RunArtifact::empty();
    art.program_bytes = request.fingerprint() as usize;
    art.console = ConsoleDigest::of(&format!("OK {}\n", request.label()));
    art
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interp-read-path-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Execute `plan` journaled into `dir`; returns the result and the
/// requests the runner was asked to execute.
fn run(plan: &Plan, dir: &Path, resume: bool) -> (ExecutedPlan, ResumeReport, Vec<RunRequest>) {
    let executed = Mutex::new(Vec::new());
    let config = JournalConfig::new(dir)
        .with_epoch(EPOCH)
        .with_resume(resume);
    let (plan_out, report) =
        execute_journaled_with(plan, 2, &SuperviseConfig::new(), &config, |request, _| {
            executed.lock().expect("runner log").push(*request);
            Ok(artifact(request))
        })
        .expect("journaled execution");
    (plan_out, report, executed.into_inner().expect("runner log"))
}

/// Bytes, inode and mtime of the journal.
fn identity(dir: &Path) -> (Vec<u8>, u64, SystemTime) {
    let path = dir.join(JOURNAL_FILE);
    let meta = std::fs::metadata(&path).expect("journal metadata");
    (
        std::fs::read(&path).expect("journal bytes"),
        meta.ino(),
        meta.modified().expect("mtime"),
    )
}

fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.count())
}

#[test]
fn a_fully_journaled_resume_writes_nothing_and_takes_no_lock() {
    let dir = fresh_dir("clean");
    let plan = Plan::build(requests());
    let (cold, cold_report, ran) = run(&plan, &dir, false);
    assert_eq!(ran.len(), plan.len());
    assert!(!cold_report.lock_free);
    let before = identity(&dir);
    assert!(
        !dir.join(LOCK_FILE).exists(),
        "the cold run released its lock"
    );

    let (warm, report, ran) = run(&plan, &dir, true);
    assert!(ran.is_empty(), "nothing executes");
    assert!(report.lock_free, "answered on the lock-free read path");
    assert_eq!(
        (report.planned, report.reused, report.executed),
        (plan.len(), plan.len(), 0)
    );
    assert!(report.defects.is_empty() && report.journaled == 0);
    assert_eq!(
        identity(&dir),
        before,
        "journal bytes, inode and mtime unchanged"
    );
    assert!(!dir.join(LOCK_FILE).exists(), "no lock file created");
    assert_eq!(entries(&dir.join(WRITERS_DIR)), 0, "no writer session left");
    assert_eq!(entries(&dir.join(CLAIMS_DIR)), 0, "no claim left");
    for request in plan.requests() {
        assert_eq!(
            warm.store.get(request).map(RunArtifact::content_hash),
            cold.store.get(request).map(RunArtifact::content_hash),
            "{request}"
        );
    }
    assert!(warm.timings.iter().all(|t| t.attempts == 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_takes_the_healing_write_path() {
    let dir = fresh_dir("torn");
    let plan = Plan::build(requests());
    run(&plan, &dir, false);
    let path = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&path).expect("journal");
    std::fs::write(&path, &pristine[..pristine.len() - 3]).expect("tear");

    let (_, report, ran) = run(&plan, &dir, true);
    assert!(!report.lock_free);
    assert!(report
        .defects
        .iter()
        .any(|d| d.kind == JournalDefectKind::TornTail));
    assert_eq!(
        (ran.len(), report.journaled),
        (1, 1),
        "the torn record re-executes"
    );
    assert_eq!(
        std::fs::read(&path).expect("journal"),
        pristine,
        "image healed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_epoch_record_takes_the_healing_write_path() {
    let dir = fresh_dir("stale");
    let plan = Plan::build(requests());
    run(&plan, &dir, false);
    let path = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&path).expect("journal");
    let mut stale = pristine.clone();
    let span = record_spans(&stale)[0];
    // The epoch follows the length prefix (4) and the version (2).
    stale[span.body_start + 2] ^= 0xFF;
    reseal_record(&mut stale, &span);
    std::fs::write(&path, &stale).expect("plant stale record");

    let (_, report, ran) = run(&plan, &dir, true);
    assert!(!report.lock_free);
    assert!(report
        .defects
        .iter()
        .any(|d| d.kind == JournalDefectKind::StaleEpoch));
    assert_eq!(ran.len(), 1, "only the stale record re-executes");
    assert_eq!(
        std::fs::read(&path).expect("journal"),
        pristine,
        "image healed"
    );
    assert!(journal::load_bytes(&pristine, EPOCH).defects.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_unjournaled_request_executes_alone() {
    let dir = fresh_dir("residue");
    let mut all = requests();
    let extra = all.pop().expect("three requests");
    run(&Plan::build(all.clone()), &dir, false);

    all.push(extra);
    let (_, report, ran) = run(&Plan::build(all), &dir, true);
    assert!(!report.lock_free, "a miss takes the locked path");
    assert_eq!(ran, vec![extra], "exactly the missing request executes");
    assert_eq!(
        (report.reused, report.executed, report.journaled),
        (2, 1, 1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
