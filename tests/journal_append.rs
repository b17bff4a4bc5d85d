//! The journal's in-place appends, as properties: two writers that
//! interleave appends, opens and closes on one cache never lose a
//! record and close to the canonical image; a file cut at any byte
//! reopens with exactly one torn tail and every whole record before it;
//! a lock-free reader that meets an append in progress waits for it
//! instead of reporting damage; an append is visible through the
//! decoded-image cache; and the lock and fleet files, which are
//! published visible but not durable, recover from the empty shape a
//! power cut can leave them in.
//!
//! Runs are synthetic (no interpreter); the whole file takes well under
//! a second.

use interp_core::{ConsoleDigest, Language, RunArtifact, RunRequest, Scale, WorkloadId};
use interp_guard::Rng64;
use interp_runplan::journal::{
    encode_image, encode_record, record_spans, JournalRecord, JOURNAL_FILE, MAGIC,
};
use interp_runplan::lock::LOCK_FILE;
use interp_runplan::serve::{INBOX_DIR, WORK_DIR};
use interp_runplan::{
    acquire, execute_journaled_with, fleet_members, load_bytes, sweep_dead_members, ImageCache,
    JournalConfig, JournalDefectKind, JournalErrorKind, JournalWriter, LockConfig, Plan,
    ResumeReport, SuperviseConfig, DEFAULT_MEMBER_STALE, FLEET_DIR,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::os::unix::fs::MetadataExt as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const EPOCH: u64 = 0x00A9_9E4D;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("interp-append-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn artifact(tag: u64) -> RunArtifact {
    let mut art = RunArtifact::empty();
    art.program_bytes = tag as usize;
    art.console = ConsoleDigest::of(&format!("OK {tag}\n"));
    art
}

fn record(fingerprint: u64, tag: u64) -> JournalRecord {
    JournalRecord {
        fingerprint,
        label: format!("run-{tag}"),
        artifact: artifact(tag),
    }
}

fn append(writer: &mut JournalWriter, record: &JournalRecord) -> bool {
    writer
        .append(record.fingerprint, &record.label, &record.artifact)
        .expect("append")
}

fn open(dir: &Path, resume: bool) -> JournalWriter {
    JournalWriter::open(dir, EPOCH, resume).expect("open").0
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).expect("journal bytes")
}

/// Two writers interleave seeded appends, duplicate appends, reopens
/// and closes; then the file is cut at a seeded byte and reopened.
#[test]
fn interleaved_writers_and_a_cut_keep_every_whole_record() {
    for seed in 0..4 {
        let mut rng = Rng64::new(seed);
        let dir = fresh_dir(&format!("cut-{seed}"));
        let path = dir.join(JOURNAL_FILE);
        let mut landed: BTreeMap<u64, JournalRecord> = BTreeMap::new();
        let mut writers = [open(&dir, false), open(&dir, true)];
        for step in 0..20 {
            let w = rng.index(0, 2);
            match rng.index(0, 8) {
                0 => {
                    writers[w].close().expect("close");
                    assert_eq!(
                        read(&path),
                        encode_image(&landed, EPOCH),
                        "seed {seed} step {step}: a close publishes the canonical union"
                    );
                }
                1 => writers[w] = open(&dir, true),
                2 if !landed.is_empty() => {
                    let twin = landed
                        .values()
                        .nth(rng.index(0, landed.len()))
                        .expect("landed");
                    assert!(
                        !append(&mut writers[w], twin),
                        "seed {seed}: a landed record is not appended twice"
                    );
                }
                _ => {
                    let fresh = record(rng.next_u64(), step);
                    assert!(append(&mut writers[w], &fresh));
                    landed.insert(fresh.fingerprint, fresh);
                }
            }
            let loaded = load_bytes(&read(&path), EPOCH);
            assert!(
                loaded.defects.is_empty(),
                "seed {seed} step {step}: {:?}",
                loaded.defects
            );
            assert!(
                loaded.records.keys().eq(landed.keys()),
                "seed {seed} step {step}: record set"
            );
        }
        drop(writers);

        // Cut at a seeded byte past the header: the records wholly before
        // the cut are the survivors, and a cut inside a record is one torn
        // tail at that record's start.
        let bytes = read(&path);
        let cut = rng.index(MAGIC.len(), bytes.len() + 1);
        let boundary = record_spans(&bytes)
            .iter()
            .map(|span| span.end)
            .filter(|&end| end <= cut)
            .max()
            .unwrap_or(MAGIC.len());
        let survivors = load_bytes(&bytes[..boundary], EPOCH).records;
        std::fs::write(&path, &bytes[..cut]).expect("cut");

        let (mut writer, loaded) = JournalWriter::open(&dir, EPOCH, true).expect("reopen");
        if cut == boundary {
            assert!(
                loaded.defects.is_empty(),
                "seed {seed}: {:?}",
                loaded.defects
            );
        } else {
            assert_eq!(loaded.defects.len(), 1, "seed {seed}: {:?}", loaded.defects);
            assert_eq!(loaded.defects[0].kind, JournalDefectKind::TornTail);
            assert_eq!(loaded.defects[0].offset, boundary);
        }
        assert_eq!(
            encode_image(&loaded.records, EPOCH),
            encode_image(&survivors, EPOCH)
        );

        let mut union = survivors;
        for tag in 100..102 {
            let fresh = record(rng.next_u64(), tag);
            assert!(append(&mut writer, &fresh));
            union.insert(fresh.fingerprint, fresh);
        }
        writer.close().expect("close");
        assert_eq!(
            read(&path),
            encode_image(&union, EPOCH),
            "seed {seed}: closed image"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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

/// Execute `plan` journaled under `config`; returns the report and the
/// requests the runner was asked to execute.
fn run(plan: &Plan, config: &JournalConfig) -> (ResumeReport, Vec<RunRequest>) {
    let executed = Mutex::new(Vec::new());
    let (_, report) =
        execute_journaled_with(plan, 1, &SuperviseConfig::new(), config, |request, _| {
            executed.lock().expect("runner log").push(*request);
            let mut art = artifact(request.fingerprint());
            art.console = ConsoleDigest::of(&format!("OK {}\n", request.label()));
            Ok(art)
        })
        .expect("journaled execution");
    (report, executed.into_inner().expect("runner log"))
}

/// Hold the journal lock and write the first half of one more record,
/// as an appender does mid-write. Returns the lock and the rest.
fn half_append(dir: &Path) -> (interp_runplan::LockGuard, std::fs::File, Vec<u8>) {
    let guard = acquire(&LockConfig::for_dir(dir, "appender", EPOCH)).expect("lock");
    let extra = record(0xE17A, 99);
    let bytes = encode_record(EPOCH, extra.fingerprint, &extra.label, &extra.artifact);
    let (head, rest) = bytes.split_at(bytes.len() / 2);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(JOURNAL_FILE))
        .expect("open journal");
    file.write_all(head).expect("half a record");
    (guard, file, rest.to_vec())
}

#[test]
fn a_resume_that_meets_an_append_in_progress_falls_back_without_a_defect() {
    let dir = fresh_dir("in-progress");
    let plan = Plan::build(requests());
    let cold = JournalConfig::new(&dir).with_epoch(EPOCH);
    run(&plan, &cold);
    let resume = cold.with_resume(true);

    // The torn tail sends the read to the locked path, which the
    // appender holds: with little patience that is a lock timeout, and
    // nothing executed.
    let (guard, mut file, rest) = half_append(&dir);
    let impatient = resume.clone().with_lock_timeout(Duration::from_millis(50));
    let executed = Mutex::new(0);
    let err = execute_journaled_with(&plan, 1, &SuperviseConfig::new(), &impatient, |_, _| {
        *executed.lock().expect("count") += 1;
        Ok(artifact(0))
    })
    .expect_err("the locked path waits on the appender");
    assert_eq!(err.kind, JournalErrorKind::LockTimeout, "{err}");
    assert_eq!(*executed.lock().expect("count"), 0, "nothing executes");

    // With patience, the read waits out the append and finds a clean
    // journal: no defect, nothing executed, the appended record kept.
    // The delay only makes it likely that the read meets the torn tail
    // (the fallback itself is shown above); the assertions hold either
    // way.
    let finisher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        file.write_all(&rest).expect("rest of the record");
        drop(guard);
    });
    let (report, ran) = run(&plan, &resume);
    finisher.join().expect("appender");
    assert!(
        report.defects.is_empty(),
        "an append in progress is no defect: {:?}",
        report.defects
    );
    assert!(ran.is_empty(), "nothing executes");
    assert_eq!(report.reused, plan.len());
    let loaded = load_bytes(&read(&dir.join(JOURNAL_FILE)), EPOCH);
    assert!(loaded.defects.is_empty(), "{:?}", loaded.defects);
    assert!(loaded.records.contains_key(&0xE17A));
    assert_eq!(loaded.records.len(), plan.len() + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_in_place_append_invalidates_the_image_cache() {
    let dir = fresh_dir("cache");
    let mut all = requests();
    let extra = all.pop().expect("three requests");
    let cache = Arc::new(ImageCache::default());
    let config = JournalConfig::new(&dir)
        .with_epoch(EPOCH)
        .with_image_cache(Arc::clone(&cache));
    run(&Plan::build(all.clone()), &config);
    let resume = config.with_resume(true);
    let mut writer = open(&dir, true);

    let (report, _) = run(&Plan::build(all.clone()), &resume);
    assert!(report.lock_free, "the cache now holds the two-record image");
    let inode = std::fs::metadata(dir.join(JOURNAL_FILE))
        .expect("meta")
        .ino();
    let mut art = artifact(extra.fingerprint());
    art.console = ConsoleDigest::of(&format!("OK {}\n", extra.label()));
    assert!(writer
        .append(extra.fingerprint(), &extra.label(), &art)
        .expect("append"));
    assert_eq!(
        std::fs::metadata(dir.join(JOURNAL_FILE))
            .expect("meta")
            .ino(),
        inode,
        "appended in place"
    );

    all.push(extra);
    let (report, ran) = run(&Plan::build(all), &resume);
    assert!(
        report.lock_free,
        "the grown file is re-read, and it answers the plan"
    );
    assert!(ran.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A power cut can leave the lock file empty (its content is never
/// synced). A file holds no lock once its holder is gone, so the next
/// acquisition takes it at once, instead of waiting out the timeout,
/// and writes its own content.
#[test]
fn an_empty_lock_left_by_a_power_cut_is_stolen_at_once() {
    let dir = fresh_dir("empty-lock");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(LOCK_FILE), b"").expect("empty lock");
    let timeout = Duration::from_secs(60);
    let started = Instant::now();
    let guard = acquire(&LockConfig::for_dir(&dir, "after-reboot", EPOCH).with_timeout(timeout))
        .expect("an empty lock is taken");
    assert!(
        started.elapsed() < timeout / 4,
        "taken at once, not after the timeout: {:?}",
        started.elapsed()
    );
    let content = std::fs::read_to_string(dir.join(LOCK_FILE)).expect("lock");
    assert!(content.contains("token after-reboot"), "{content}");
    drop(guard);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same shape for a fleet member file: empty, it reads as pid 0,
/// which is dead, so the next sweep retires the member and re-adopts
/// the request it had claimed.
#[test]
fn an_empty_fleet_member_left_by_a_power_cut_is_swept() {
    let dir = fresh_dir("empty-member");
    let token = "member-before-reboot";
    let fleet = dir.join(FLEET_DIR);
    let work = dir.join(WORK_DIR).join(token);
    let inbox = dir.join(INBOX_DIR);
    for d in [&fleet, &work, &inbox] {
        std::fs::create_dir_all(d).expect("mkdir");
    }
    std::fs::write(fleet.join(token), b"").expect("empty member file");
    std::fs::write(work.join("r1.req"), b"claimed").expect("claimed request");

    let members = fleet_members(&dir);
    assert_eq!(members.len(), 1, "{members:?}");
    assert_eq!((members[0].pid, members[0].pid_live), (0, false));
    assert!(members[0].is_dead(DEFAULT_MEMBER_STALE));

    assert_eq!(sweep_dead_members(&dir, DEFAULT_MEMBER_STALE, None), 1);
    assert!(!fleet.join(token).exists(), "member retired");
    assert!(!work.exists(), "work dir retired");
    assert_eq!(std::fs::read(inbox.join("r1.req")).expect("adopted"), b"claimed");
    assert!(fleet_members(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
