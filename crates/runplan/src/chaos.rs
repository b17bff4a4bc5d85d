//! Chaos execution: run a whole plan under seeded fault injection aimed
//! at *both* layers — the interpreters (guest corruption through the
//! guarded runner) and the pool itself (worker stalls, artifact drops,
//! worker panics) — and prove the suite still completes with
//! deterministic degradation markers.
//!
//! Every injection decision is a pure function of `(seed, request,
//! attempt)`, never of the worker that picked the run up, so a chaos run
//! at `--jobs 1` and `--jobs 8` degrades the same slots with the same
//! markers. That property is what `repro chaos --seeds N` asserts.

use crate::journal::{
    self, JournalConfig, JournalDefectKind, JournalError, JournalErrorKind, ResumeReport,
    JOURNAL_FILE,
};
use crate::lock::{Claims, Sessions, LOCK_FILE};
use crate::plan::Plan;
use crate::pool::{self, supervise_with, ExecutedPlan};
use crate::supervise::{FailureKind, RunFailure, SuperviseConfig};
use interp_core::serial::fnv1a;
use interp_core::{
    DispatchFault, DispatchStrategy, Language, NullSink, RunArtifact, RunRequest, RunStats,
    Scale, WorkloadId, WorkloadKind,
};
use interp_guard::{FaultPlan, Limits, Rng64, RunOutcome};
use interp_workloads::{run_guarded, try_run_source_dispatch};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Stream-splitting constant so chaos lane rolls are decorrelated from
/// the guest-corruption streams derived from the same seed.
const CHAOS_STREAM: u64 = 0xC4A0_5F00_1157_EED5;

/// Stream-splitting constant for journal-corruption rolls.
const JOURNAL_STREAM: u64 = 0x10AD_BEEF_0C0F_FEE5;

/// Fuel a stalled worker is allowed to burn: far below any real
/// workload's cost, so the stall deterministically trips the fuel
/// deadline instead of finishing.
const STALL_FUEL: u64 = 1_000;

/// Which injection a chaos run applies to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosLane {
    /// No injection — the run executes normally.
    Clean,
    /// Guest corruption on attempt 0 only; the retry runs clean and
    /// recovers. Exercises the transient-retry path end to end.
    FlakyGuestFault,
    /// Guest corruption on every attempt; retries burn out and the slot
    /// degrades to `DEGRADED(faulted)`.
    PersistentGuestFault,
    /// Attempt 0 runs under starvation fuel so the cooperative deadline
    /// trips mid-run (`DEGRADED(deadline)` if retries are exhausted,
    /// recovery otherwise).
    WorkerStall,
    /// Attempt 0 completes but its artifact is dropped before landing in
    /// the slot — a transient fault the retry clears.
    ArtifactDrop,
    /// The worker panics outright; the pool's `catch_unwind` quarantines
    /// the slot immediately (`DEGRADED(panicked)`, no retries).
    WorkerPanic,
}

/// The chaos lane for `request` under `seed` — a pure function of both.
/// Guest-corruption lanes require the guarded runner, which only accepts
/// macro workloads; micro and probe requests roll those lanes onto
/// pool-level injections instead, so every request kind can degrade.
pub fn lane(seed: u64, request: &RunRequest) -> ChaosLane {
    let mut rng = Rng64::new(seed ^ CHAOS_STREAM ^ fnv1a(request.to_string().as_bytes()));
    let micro = request.workload.kind != WorkloadKind::Macro;
    match rng.range(0, 16) {
        0 if micro => ChaosLane::WorkerStall,
        0 => ChaosLane::FlakyGuestFault,
        1 if micro => ChaosLane::ArtifactDrop,
        1 => ChaosLane::PersistentGuestFault,
        2 => ChaosLane::WorkerStall,
        3 => ChaosLane::ArtifactDrop,
        4 => ChaosLane::WorkerPanic,
        _ => ChaosLane::Clean,
    }
}

/// Execute `plan` under seed-`seed` chaos on `jobs` workers. The
/// supervisor's retry/deadline policy comes from `config`; injections
/// come from [`lane`].
pub fn chaos_execute(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    config: &SuperviseConfig,
) -> ExecutedPlan {
    let config = *config;
    supervise_with(plan, jobs, &config, move |request, attempt| {
        run_chaotic(seed, request, attempt, &config)
    })
}

/// One chaotic attempt: apply the request's lane, or fall through to a
/// clean supervised run.
fn run_chaotic(
    seed: u64,
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    match lane(seed, request) {
        ChaosLane::WorkerPanic => inject_panic(seed, request),
        ChaosLane::WorkerStall if attempt == 0 => {
            // A wedged worker burns fuel without finishing; the
            // cooperative fuel deadline is what stops it.
            crate::exec::try_run_request(
                request,
                Limits::unlimited().with_max_host_steps(STALL_FUEL),
            )
            .map_err(|e| pool::classify_guard_failure(e, attempt, true))
        }
        ChaosLane::ArtifactDrop if attempt == 0 => Err(RunFailure::faulted(
            attempt,
            "injected artifact drop: result lost before landing in its slot",
        )),
        ChaosLane::FlakyGuestFault if attempt == 0 => {
            guest_fault(seed, request, attempt, config)
        }
        ChaosLane::PersistentGuestFault => guest_fault(seed, request, attempt, config),
        _ => clean_run(request, attempt, config),
    }
}

/// A clean supervised attempt under `config`'s fuel deadline.
fn clean_run(
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    crate::exec::try_run_request(request, pool::deadline_limits(config.timeout_fuel))
        .map_err(|e| pool::classify_guard_failure(e, attempt, config.timeout_fuel.is_some()))
}

/// Corrupt the request's guest with a seed-derived [`FaultPlan`] and run
/// it guarded. A corruption harmless enough to complete falls back to a
/// clean run (guarded runs count but do not time, and a degraded cell
/// needs a real failure behind it); anything else becomes a typed
/// failure for the supervisor to retry or quarantine.
fn guest_fault(
    seed: u64,
    request: &RunRequest,
    attempt: u32,
    config: &SuperviseConfig,
) -> Result<RunArtifact, RunFailure> {
    let plan = guest_plan(seed, request);
    let guarded = run_guarded(request.workload, Limits::guarded(), &plan);
    match guarded.outcome {
        RunOutcome::Completed { .. } => clean_run(request, attempt, config),
        RunOutcome::Panicked(msg) => Err(RunFailure::panicked(
            attempt,
            format!("injected guest fault escaped as a panic: {msg}"),
        )),
        ref outcome => Err(RunFailure::faulted(
            attempt,
            format!("injected guest fault: {outcome}"),
        )),
    }
}

/// The guest-corruption recipe for `request` under `seed`: bit-flip
/// lanes for binary guests, truncation/garbage lanes for textual ones,
/// decorrelated per request.
fn guest_plan(seed: u64, request: &RunRequest) -> FaultPlan {
    let derived = seed ^ fnv1a(request.to_string().as_bytes());
    match request.workload.language {
        Language::C | Language::Mipsi | Language::Javelin => FaultPlan::image_sweep(derived),
        Language::Perlite | Language::Tclite => FaultPlan::source_sweep(derived),
    }
}

// The whole point of this lane is a real unwind through the pool's
// `catch_unwind` boundary — a typed error would test the wrong path.
#[allow(clippy::panic)]
fn inject_panic(seed: u64, request: &RunRequest) -> ! {
    panic!("chaos: injected worker panic (seed {seed}, {request})")
}

/// Run `f` with chaos-injected panic output suppressed: the pool catches
/// those panics by design, and the default hook's stderr spam would
/// drown the failure report. Panics whose message does not carry the
/// `chaos:` marker still print.
pub fn with_quiet_injected_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("chaos:") {
            eprintln!("{info}");
        }
    }));
    let result = f();
    drop(std::panic::take_hook());
    std::panic::set_hook(prev);
    result
}

/// One deterministic chaos summary: the seed, per-kind degradation
/// counts, and one `DEGRADED` marker line per degraded slot in store
/// order. Byte-identical across job counts — `repro chaos` compares
/// exactly this text.
pub fn render_chaos_summary(seed: u64, executed: &ExecutedPlan) -> String {
    use std::fmt::Write as _;
    let (mut panicked, mut deadline, mut faulted) = (0usize, 0usize, 0usize);
    for (_, failure) in executed.store.failures() {
        match failure.kind {
            FailureKind::Panicked => panicked += 1,
            FailureKind::DeadlineExceeded => deadline += 1,
            FailureKind::Faulted => faulted += 1,
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos seed {seed}: {} run(s), {} degraded ({panicked} panicked, {deadline} deadline, {faulted} faulted)",
        executed.store.len(),
        panicked + deadline + faulted,
    );
    for (request, failure) in executed.store.failures() {
        let _ = writeln!(out, "  {request}: {}", failure.cell());
    }
    out
}

/// Which corruption a journal-chaos round injects into a pristine
/// journal image before resuming from it. Each lane targets one entry of
/// the loader's defect taxonomy; `repro journal-chaos --seeds N` asserts
/// every lane is detected, classified, and healed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalChaosLane {
    /// Truncate the file inside the *final* record — the canonical
    /// crash-mid-write shape. Expect one `TornTail`, one requeue.
    TornFinalRecord,
    /// Flip one bit inside a record's artifact payload. Expect one
    /// `BadChecksum`, one requeue; neighbors untouched.
    PayloadBitFlip,
    /// Truncate the file inside an interior record. Expect one
    /// `TornTail`; the torn record and everything after it requeue.
    MidTruncation,
    /// Append a byte-identical copy of an existing record. Expect one
    /// `DuplicateKey` and zero requeues — the first record wins.
    DuplicateRecord,
    /// Rewrite one record's epoch field (resealing its checksum so the
    /// epoch is the only lie). Expect one `StaleEpoch`, one requeue.
    StaleEpoch,
    /// Rewrite one record's version field (resealed). Expect one
    /// `BadVersion`, one requeue.
    BadVersion,
    /// Multi-writer lane: seeded concurrent campaigns cooperatively fill
    /// one cold cache. Expect exactly-once execution across the writers
    /// and a complete, clean journal.
    InterleavedWriters,
    /// Multi-writer lane: a writer died holding the lock, its session
    /// registered and a claim on file. Expect the next campaign to take
    /// the lock over, sweep the stale state, and complete alone.
    StaleLockTakeover,
    /// Multi-writer lane: `compact` races a live appender. Expect no
    /// appended record to be lost and the final journal to be clean.
    CompactionRace,
    /// Serve lane: a client crashed mid-write, leaving a torn request
    /// file in the daemon's inbox. Expect a typed `torn` rejection
    /// response — never a daemon crash.
    TornServeRequest,
    /// Serve lane: a daemon died between claiming a request and
    /// committing its response (journal truncated to a prefix, a dead
    /// fleet member with the claimed request orphaned in its work dir).
    /// Expect the next daemon to adopt the orphan, reuse the prefix,
    /// and respond byte-identically to a cold run.
    ServeCrashRecovery,
    /// Serve lane: N concurrent clients race one daemon while a batch
    /// campaign shares the cache. Expect every response ok and
    /// byte-identical, with exactly-once execution across the daemon
    /// and the batch writer combined.
    ServeClientRace,
    /// Tiered-execution lane: a seeded spurious guard trip fires inside
    /// a running Javelin trace. Expect the engine to abort the trace,
    /// blacklist its anchor (it is never re-recorded), fall back to the
    /// interpreter at the exact bytecode, and finish with console output
    /// and virtual-command counts byte-identical to a never-tiered run.
    TieredGuardTrip,
    /// Fleet lane: one of two daemons is killed mid-burst — a wedged
    /// member with a live pid, a prehistoric heartbeat, and a claimed
    /// request in its work dir. Expect the survivor to detect the death
    /// by heartbeat age, adopt the claim, and answer the whole burst
    /// byte-identically to a serial cold run.
    FleetMemberKill,
    /// Fleet lane: a dead member (corpse pid) left claimed work behind
    /// while two live daemons race a mixed-priority burst on the same
    /// cache. Expect the orphan re-adopted exactly-once between the
    /// racers, every response ok and byte-identical, and a clean
    /// stop-drain of both members.
    FleetOrphanAdoption,
    /// Fleet lane: a deadline storm — every submitted request's
    /// deadline is already past. Expect one typed `deadline-expired`
    /// rejection per request, zero executions, and no journal created.
    DeadlineStorm,
}

impl JournalChaosLane {
    /// Every lane, in rotation order. The original six corruption lanes
    /// keep their seed positions; multi-writer lanes extend the tail,
    /// serve lanes extend it again, the tiered guard-trip lane is the
    /// 13th, and the fleet lanes are 14–16 — historical seeds 0–12
    /// still map to the same lanes they always did.
    pub const ALL: [JournalChaosLane; 16] = [
        JournalChaosLane::TornFinalRecord,
        JournalChaosLane::PayloadBitFlip,
        JournalChaosLane::MidTruncation,
        JournalChaosLane::DuplicateRecord,
        JournalChaosLane::StaleEpoch,
        JournalChaosLane::BadVersion,
        JournalChaosLane::InterleavedWriters,
        JournalChaosLane::StaleLockTakeover,
        JournalChaosLane::CompactionRace,
        JournalChaosLane::TornServeRequest,
        JournalChaosLane::ServeCrashRecovery,
        JournalChaosLane::ServeClientRace,
        JournalChaosLane::TieredGuardTrip,
        JournalChaosLane::FleetMemberKill,
        JournalChaosLane::FleetOrphanAdoption,
        JournalChaosLane::DeadlineStorm,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JournalChaosLane::TornFinalRecord => "torn-final-record",
            JournalChaosLane::PayloadBitFlip => "payload-bit-flip",
            JournalChaosLane::MidTruncation => "mid-truncation",
            JournalChaosLane::DuplicateRecord => "duplicate-record",
            JournalChaosLane::StaleEpoch => "stale-epoch",
            JournalChaosLane::BadVersion => "bad-version",
            JournalChaosLane::InterleavedWriters => "interleaved-writers",
            JournalChaosLane::StaleLockTakeover => "stale-lock-takeover",
            JournalChaosLane::CompactionRace => "compaction-race",
            JournalChaosLane::TornServeRequest => "torn-serve-request",
            JournalChaosLane::ServeCrashRecovery => "serve-crash-recovery",
            JournalChaosLane::ServeClientRace => "serve-client-race",
            JournalChaosLane::TieredGuardTrip => "tiered-guard-trip",
            JournalChaosLane::FleetMemberKill => "fleet-member-kill",
            JournalChaosLane::FleetOrphanAdoption => "fleet-orphan-adoption",
            JournalChaosLane::DeadlineStorm => "deadline-storm",
        }
    }

    /// True for lanes that exercise multi-process coordination instead
    /// of byte-level corruption.
    pub fn is_multi_writer(self) -> bool {
        matches!(
            self,
            JournalChaosLane::InterleavedWriters
                | JournalChaosLane::StaleLockTakeover
                | JournalChaosLane::CompactionRace
        )
    }

    /// True for lanes that exercise the serve daemon's robustness
    /// (torn clients, daemon crash recovery, client races, fleet
    /// failover, deadline storms).
    pub fn is_serve(self) -> bool {
        matches!(
            self,
            JournalChaosLane::TornServeRequest
                | JournalChaosLane::ServeCrashRecovery
                | JournalChaosLane::ServeClientRace
                | JournalChaosLane::FleetMemberKill
                | JournalChaosLane::FleetOrphanAdoption
                | JournalChaosLane::DeadlineStorm
        )
    }

    /// True for the lane that exercises the tiered engine's guard-trip
    /// fallback instead of the cache machinery.
    pub fn is_tiered(self) -> bool {
        self == JournalChaosLane::TieredGuardTrip
    }
}

/// The journal-corruption lane for `seed`: seeds rotate through
/// [`JournalChaosLane::ALL`], so any sixteen consecutive seeds cover
/// the whole lane taxonomy (where in the file the corruption lands is
/// still rolled from the seed).
pub fn journal_lane(seed: u64) -> JournalChaosLane {
    JournalChaosLane::ALL[(seed % JournalChaosLane::ALL.len() as u64) as usize]
}

/// What a [`corrupt_journal`] call did and what the loader must now
/// observe: the defect kind it must classify, and how many runs the
/// resumed execution must requeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCorruption {
    /// The lane that was applied.
    pub lane: JournalChaosLane,
    /// The defect kind the loader must report.
    pub expected_kind: JournalDefectKind,
    /// Runs the resumed execution must re-execute.
    pub expected_requeued: usize,
}

/// Apply `lane`'s corruption to a pristine journal image in place, with
/// the corruption site rolled from `seed`. Returns the oracle the
/// resumed run is checked against. The image must hold at least two
/// well-formed records (so interior-targeting lanes have a target).
pub fn corrupt_journal(
    bytes: &mut Vec<u8>,
    lane: JournalChaosLane,
    seed: u64,
) -> JournalCorruption {
    let spans = journal::record_spans(bytes);
    let n = spans.len();
    debug_assert!(n >= 2, "journal chaos needs at least two records");
    let mut rng = Rng64::new(seed ^ JOURNAL_STREAM);
    let (expected_kind, expected_requeued) = match lane {
        JournalChaosLane::TornFinalRecord => {
            let span = spans[n - 1];
            // Cut strictly inside the record: after its length prefix
            // begins, before its checksum ends.
            let cut = span.start + rng.index(1, span.end - span.start);
            bytes.truncate(cut);
            (JournalDefectKind::TornTail, 1)
        }
        JournalChaosLane::PayloadBitFlip => {
            let span = spans[rng.index(0, n)];
            let at = rng.index(span.payload_start, span.payload_end);
            bytes[at] ^= 1 << rng.index(0, 8);
            (JournalDefectKind::BadChecksum, 1)
        }
        JournalChaosLane::MidTruncation => {
            // Tear an interior record: it and every record after it are
            // lost.
            let victim = rng.index(0, n - 1);
            let span = spans[victim];
            let cut = span.start + rng.index(1, span.end - span.start);
            bytes.truncate(cut);
            (JournalDefectKind::TornTail, n - victim)
        }
        JournalChaosLane::DuplicateRecord => {
            let span = spans[rng.index(0, n)];
            let copy = bytes[span.start..span.end].to_vec();
            bytes.extend_from_slice(&copy);
            (JournalDefectKind::DuplicateKey, 0)
        }
        JournalChaosLane::StaleEpoch => {
            let span = spans[rng.index(0, n)];
            // Epoch sits after the 2-byte version field.
            let at = span.body_start + 2;
            let epoch = u64::from_le_bytes([
                bytes[at],
                bytes[at + 1],
                bytes[at + 2],
                bytes[at + 3],
                bytes[at + 4],
                bytes[at + 5],
                bytes[at + 6],
                bytes[at + 7],
            ]);
            bytes[at..at + 8].copy_from_slice(&epoch.wrapping_add(1).to_le_bytes());
            journal::reseal_record(bytes, &span);
            (JournalDefectKind::StaleEpoch, 1)
        }
        JournalChaosLane::BadVersion => {
            let span = spans[rng.index(0, n)];
            let at = span.body_start;
            let version = u16::from_le_bytes([bytes[at], bytes[at + 1]]);
            bytes[at..at + 2].copy_from_slice(&version.wrapping_add(1).to_le_bytes());
            journal::reseal_record(bytes, &span);
            (JournalDefectKind::BadVersion, 1)
        }
        JournalChaosLane::InterleavedWriters
        | JournalChaosLane::StaleLockTakeover
        | JournalChaosLane::CompactionRace
        | JournalChaosLane::TornServeRequest
        | JournalChaosLane::ServeCrashRecovery
        | JournalChaosLane::ServeClientRace
        | JournalChaosLane::TieredGuardTrip
        | JournalChaosLane::FleetMemberKill
        | JournalChaosLane::FleetOrphanAdoption
        | JournalChaosLane::DeadlineStorm => {
            // Multi-writer, serve, and tiered lanes inject no byte
            // corruption — they are dispatched to their own harnesses
            // before this function is reached. Reaching here is a
            // harness bug; the impossible requeue oracle makes the round
            // fail loudly instead of silently passing.
            (JournalDefectKind::TornTail, usize::MAX)
        }
    };
    JournalCorruption { lane, expected_kind, expected_requeued }
}

/// The fixed plan `repro journal-chaos` exercises: a handful of fast
/// test-scale runs whose artifacts cover every payload shape (counters
/// only, cycle summaries, a sweep grid) across binary and textual
/// interpreters.
pub fn journal_chaos_plan() -> Plan {
    Plan::build([
        RunRequest::pipeline(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test)),
        RunRequest::counting(WorkloadId::macro_bench(Language::Tclite, "des", Scale::Test)),
        RunRequest::new(
            WorkloadId::macro_bench(Language::Javelin, "des", Scale::Test),
            interp_core::SinkKind::ICacheSweep,
        ),
        RunRequest::pipeline(WorkloadId::micro(Language::C, "a=b+c", Scale::Test)),
    ])
}

/// One journal-chaos round's verdict. Every lane — corruption,
/// multi-writer, serve, tiered — grades itself as a list of named
/// checks and reports through this one shape and [`ChaosVerdict::render`];
/// `context` says what the lane injected and what it observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosVerdict {
    /// The chaos seed.
    pub seed: u64,
    /// Which lane ran.
    pub lane: JournalChaosLane,
    /// What was injected, what the oracle expects, and the observed
    /// counts behind the checks.
    pub context: String,
    /// The lane's graded checks, in report order.
    pub checks: Vec<(&'static str, bool)>,
}

impl ChaosVerdict {
    /// True iff the lane graded at least one check and every check held.
    pub fn passed(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|&(_, held)| held)
    }

    /// One line per round, stable across job counts: the seed, the
    /// lane, the context, every check, and the verdict.
    pub fn render(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, held)| format!("{name}={held}"))
            .collect();
        format!(
            "journal-chaos seed {}: lane {} -> {}: {} [{}]",
            self.seed,
            self.lane.label(),
            self.context,
            checks.join(" "),
            if self.passed() { "ok" } else { "FAIL" },
        )
    }

    /// The verdict for a scenario that could not even run (a thread
    /// panicked, or an impossible lane reached its harness) — it
    /// renders as FAIL rather than crashing the sweep.
    fn did_not_run(seed: u64, lane: JournalChaosLane) -> ChaosVerdict {
        ChaosVerdict {
            seed,
            lane,
            context: "scenario did not run".to_string(),
            checks: vec![("completed", false)],
        }
    }
}

/// Run a cold journaled execution of `plan` into `dir` and return the
/// pristine journal image plus the baseline content hash of every
/// planned artifact — the oracle [`journal_chaos_seed`] checks against.
pub fn journal_chaos_baseline(
    plan: &Plan,
    jobs: usize,
    config: &SuperviseConfig,
    dir: &Path,
) -> Result<(Vec<u8>, BTreeMap<RunRequest, u64>), JournalError> {
    let jconfig = JournalConfig::new(dir);
    let (executed, _report) = journal::execute_journaled(plan, jobs, config, &jconfig)?;
    let baseline = content_hashes(plan, &executed);
    let path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&path).map_err(|e| JournalError {
        kind: JournalErrorKind::Io,
        path: path.clone(),
        op: "read",
        detail: e.to_string(),
    })?;
    Ok((bytes, baseline))
}

/// One journal-chaos round. Corruption lanes plant a `seed`-corrupted
/// copy of the pristine image in `dir`, resume the plan from it, and
/// grade detection, classification, requeue accounting, store fidelity,
/// and healing. Multi-writer lanes instead clear the cache and run a
/// coordination scenario — interleaved campaigns, stale-lock takeover,
/// or compaction racing an appender — grading exactly-once execution
/// and zero loss; serve lanes grade the daemon fleet's robustness, and
/// the tiered lane the trace engine's guard-trip fallback.
pub fn journal_chaos_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    config: &SuperviseConfig,
    dir: &Path,
    pristine: &[u8],
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<ChaosVerdict, JournalError> {
    let lane = journal_lane(seed);
    if lane.is_multi_writer() {
        return multi_writer_seed(plan, jobs, seed, lane, config, dir, baseline);
    }
    if lane.is_serve() {
        return serve_chaos_seed(plan, jobs, seed, lane, config, dir, pristine, baseline);
    }
    if lane.is_tiered() {
        return Ok(tiered_chaos_seed(seed, lane));
    }
    let mut corrupted = pristine.to_vec();
    let corruption = corrupt_journal(&mut corrupted, lane, seed);
    let path = dir.join(JOURNAL_FILE);
    std::fs::write(&path, &corrupted).map_err(|e| JournalError {
        kind: JournalErrorKind::Io,
        path: path.clone(),
        op: "write",
        detail: e.to_string(),
    })?;

    let jconfig = JournalConfig::new(dir).with_resume(true);
    let (executed, report) = journal::execute_journaled(plan, jobs, config, &jconfig)?;
    let expected = corruption.expected_kind;
    Ok(ChaosVerdict {
        seed,
        lane,
        context: format!(
            "expect {} ({} requeued), requeued {}",
            expected.label(),
            corruption.expected_requeued,
            report.executed
        ),
        checks: vec![
            ("detected", report.defects.iter().any(|d| d.kind == expected)),
            // Classification, not just detection: no defect of any
            // other kind was reported.
            ("classified", report.defects.iter().all(|d| d.kind == expected)),
            ("requeued", report.executed == corruption.expected_requeued),
            ("store-intact", content_hashes(plan, &executed) == *baseline),
            ("healed", journal_complete_and_clean(plan, &path) == (true, true)),
        ],
    })
}

/// Whether the journal at `path` holds a record for every planned
/// request, and whether it parses with zero defects.
fn journal_complete_and_clean(plan: &Plan, path: &Path) -> (bool, bool) {
    match std::fs::read(path) {
        Ok(bytes) => {
            let reloaded = journal::load_bytes(&bytes, crate::fingerprint::current_epoch());
            (
                plan.requests()
                    .iter()
                    .all(|r| reloaded.records.contains_key(&r.fingerprint())),
                reloaded.defects.is_empty(),
            )
        }
        Err(_) => (false, false),
    }
}

/// A PID no live process on a sane Linux can hold (`pid_max` caps far
/// below it) — the corpse identity multi-writer and serve lanes plant.
const DEAD_PID: u32 = 4_000_000_000;

/// Run one multi-writer coordination scenario against a cold cache.
fn multi_writer_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    lane: JournalChaosLane,
    config: &SuperviseConfig,
    dir: &Path,
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<ChaosVerdict, JournalError> {
    // Start cold: drop the journal and any coordination state left by a
    // previous round (sessions from finished campaigns are deregistered,
    // but corruption rounds leave a journal behind).
    let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
    let _ = std::fs::remove_file(dir.join(LOCK_FILE));

    let campaign = |resume: bool| {
        let jconfig = JournalConfig::new(dir).with_resume(resume);
        journal::execute_journaled(plan, jobs, config, &jconfig)
    };

    let (writers, campaigns): (usize, Vec<(ExecutedPlan, ResumeReport)>) = match lane {
        JournalChaosLane::InterleavedWriters => {
            // Two seeded campaigns race a cold cache; claims partition
            // the plan between them. The seed staggers the second start
            // to vary interleavings. The second campaign opens with
            // `resume` so the round grades exactly-once arithmetic even
            // when the first campaign wins the race outright — the
            // truncate-vs-join decision itself is pinned by unit and
            // real-binary tests, not by this timing-dependent lane.
            let stagger = std::time::Duration::from_millis(seed % 7);
            let second = &campaign;
            let results = std::thread::scope(|scope| {
                let a = scope.spawn(|| campaign(false));
                let b = scope.spawn(move || {
                    std::thread::sleep(stagger);
                    second(true)
                });
                [a.join(), b.join()]
            });
            let mut campaigns = Vec::new();
            for joined in results {
                match joined {
                    Ok(result) => campaigns.push(result?),
                    Err(_) => return Ok(ChaosVerdict::did_not_run(seed, lane)),
                }
            }
            (2, campaigns)
        }
        JournalChaosLane::StaleLockTakeover => {
            // A writer died holding the lock: corpse lock file, corpse
            // session registration, corpse claim on one planned
            // fingerprint. The next campaign must take all of it over.
            std::fs::write(
                dir.join(LOCK_FILE),
                format!("pid {DEAD_PID}\ntoken corpse\nepoch 0\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            let sessions = Sessions::new(dir);
            sessions.register("corpse").map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                dir.join(crate::lock::WRITERS_DIR).join("corpse"),
                format!("pid {DEAD_PID}\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            let victim = plan.requests()[(seed as usize) % plan.len()];
            let claims = Claims::new(dir);
            claims
                .claim(victim.fingerprint(), "corpse")
                .map_err(|e| journal_io(dir, e))?;
            std::fs::write(
                dir.join(crate::lock::CLAIMS_DIR)
                    .join(format!("{:016x}", victim.fingerprint())),
                format!("pid {DEAD_PID}\ntoken corpse\n"),
            )
            .map_err(|e| journal_io(dir, e))?;
            (1, vec![campaign(false)?])
        }
        JournalChaosLane::CompactionRace => {
            // Compaction hammers the lock while a live campaign appends;
            // neither side may lose a record.
            let epoch = crate::fingerprint::current_epoch();
            let result = std::thread::scope(|scope| {
                let appender = scope.spawn(|| campaign(false));
                let mut compactions = Ok(());
                for _ in 0..4 {
                    std::thread::sleep(std::time::Duration::from_millis(1 + seed % 5));
                    if let Err(e) =
                        crate::compact::compact(dir, epoch, std::time::Duration::from_secs(30))
                    {
                        compactions = Err(e);
                        break;
                    }
                }
                (appender.join(), compactions)
            });
            let (joined, compactions) = result;
            compactions?;
            match joined {
                Ok(result) => (1, vec![result?]),
                Err(_) => return Ok(ChaosVerdict::did_not_run(seed, lane)),
            }
        }
        _ => return Ok(ChaosVerdict::did_not_run(seed, lane)),
    };

    // Exactly-once: executions summed across every campaign equal the
    // plan — no request ran twice, none was skipped.
    let executed_total: usize = campaigns.iter().map(|(_, report)| report.executed).sum();
    let (complete, clean) = journal_complete_and_clean(plan, &dir.join(JOURNAL_FILE));
    Ok(ChaosVerdict {
        seed,
        lane,
        context: format!(
            "{writers} writer(s), executed {executed_total} of {} run(s)",
            plan.len()
        ),
        checks: vec![
            ("executed", executed_total == plan.len()),
            (
                "store-intact",
                campaigns
                    .iter()
                    .all(|(executed, _)| content_hashes(plan, executed) == *baseline),
            ),
            ("complete", complete),
            ("clean", clean),
        ],
    })
}

fn journal_io(dir: &Path, e: std::io::Error) -> JournalError {
    JournalError {
        kind: JournalErrorKind::Io,
        path: dir.to_path_buf(),
        op: "write",
        detail: e.to_string(),
    }
}

/// Stream-splitting constant for serve-lane rolls (torn-cut positions,
/// crash prefixes), decorrelated from the corruption streams.
const SERVE_STREAM: u64 = 0x5E27_E001_CAFE_D00D;

/// The tiny [`crate::serve::PlanService`] the serve lanes run: one known
/// target (`chaos-plan`) mapping to the fixed journal-chaos plan,
/// rendered as one `{request} {content_hash:016x}` line per planned run
/// — so the expected response body is a pure function of the cold
/// baseline hash map.
struct ChaosServeService {
    plan: Plan,
}

impl crate::serve::PlanService for ChaosServeService {
    fn plan(
        &self,
        request: &crate::serve::ServeRequest,
    ) -> Result<Plan, crate::serve::Reject> {
        if request.targets == ["chaos-plan"] {
            Ok(Plan::build(self.plan.requests().iter().copied()))
        } else {
            Err(crate::serve::Reject::new(
                crate::serve::RejectKind::UnknownTarget,
                format!("unknown target `{}`", request.targets.join(",")),
            ))
        }
    }

    fn render(
        &self,
        _request: &crate::serve::ServeRequest,
        executed: &ExecutedPlan,
    ) -> String {
        render_hash_body(&self.plan, &content_hashes(&self.plan, executed))
    }
}

/// The `{request} {hash:016x}` response body for `plan` under a hash
/// map (the serve lanes' baseline-comparable rendering).
fn render_hash_body(plan: &Plan, hashes: &BTreeMap<RunRequest, u64>) -> String {
    plan.requests()
        .iter()
        .map(|r| format!("{r} {:016x}\n", hashes.get(r).copied().unwrap_or(0)))
        .collect()
}

/// What a serve lane read back from the outbox, plus its oracle. Every
/// serve lane grades the same five checks from this.
#[derive(Debug, Default)]
struct ServeTally {
    /// Ok responses the oracle demands.
    expected_ok: usize,
    /// Typed rejections the oracle demands.
    expected_rejected: usize,
    /// Ok responses actually published.
    ok: usize,
    /// Typed rejections actually published (of the lane's kind).
    rejected: usize,
    /// Executions summed across every ok response (plus any racing
    /// batch writer).
    executed: usize,
    /// Runs the ok responses reused from the journal.
    reused: usize,
    /// Every response's accounting balanced over the whole plan, and
    /// the lane's combined execution oracle held.
    exactly_once: bool,
    /// Every ok response body was byte-identical to the cold baseline.
    body_identical: bool,
}

impl ServeTally {
    /// Wait until `deadline` for the response to every id in `ids` and
    /// fold it in: ok responses are graded against `planned` and
    /// `expected_body`, and rejections of kind `rejection` (if given)
    /// are counted.
    fn read(
        dir: &Path,
        ids: &[String],
        planned: usize,
        expected_body: &str,
        rejection: Option<crate::serve::RejectKind>,
        deadline: Instant,
    ) -> Result<ServeTally, JournalError> {
        use crate::serve::{ServeOutcome, WaitOutcome};
        let mut tally = ServeTally { exactly_once: true, body_identical: true, ..ServeTally::default() };
        for id in ids {
            let waited = crate::serve::wait(
                dir,
                id,
                deadline.saturating_duration_since(Instant::now()),
                Duration::from_millis(2),
            )?;
            let WaitOutcome::Response(response) = waited else {
                continue;
            };
            match response.outcome {
                ServeOutcome::Ok { accounting, body, .. } => {
                    tally.ok += 1;
                    tally.executed += accounting.executed;
                    tally.reused += accounting.reused;
                    tally.exactly_once &=
                        accounting.exactly_once() && accounting.planned == planned;
                    tally.body_identical &= body == expected_body.as_bytes();
                }
                ServeOutcome::Rejected(reject) => {
                    tally.rejected += usize::from(Some(reject.kind) == rejection);
                }
            }
        }
        Ok(tally)
    }

    /// The lane's verdict, with `clean_exit` and `in_time` (the round's
    /// daemons answered before its deadline) graded by the caller.
    fn verdict(
        &self,
        seed: u64,
        lane: JournalChaosLane,
        planned: usize,
        clean_exit: bool,
        in_time: bool,
    ) -> ChaosVerdict {
        ChaosVerdict {
            seed,
            lane,
            context: format!(
                "expect {} ok / {} rejected over {planned} run(s), got {} / {}, executed {}",
                self.expected_ok, self.expected_rejected, self.ok, self.rejected, self.executed
            ),
            checks: vec![
                ("ok", self.ok == self.expected_ok),
                ("rejected", self.rejected == self.expected_rejected),
                ("exactly-once", self.exactly_once),
                ("body-identical", self.body_identical),
                ("clean-exit", clean_exit),
                ("answered-in-time", in_time),
            ],
        }
    }
}

/// Plant a dead fleet member `token` (pid `pid`, heartbeat `heartbeat`
/// if any) holding one claimed request; returns its work dir.
fn plant_member(
    dir: &Path,
    token: &str,
    pid: u32,
    heartbeat: Option<&str>,
    claimed: &crate::serve::ServeRequest,
) -> Result<std::path::PathBuf, JournalError> {
    let fleet_dir = dir.join(crate::fleet::FLEET_DIR);
    std::fs::create_dir_all(&fleet_dir).map_err(|e| journal_io(dir, e))?;
    std::fs::write(fleet_dir.join(token), format!("pid {pid}\ntoken {token}\n"))
        .map_err(|e| journal_io(dir, e))?;
    if let Some(heartbeat) = heartbeat {
        std::fs::write(fleet_dir.join(format!("{token}.hb")), heartbeat)
            .map_err(|e| journal_io(dir, e))?;
    }
    let work = dir.join(crate::serve::WORK_DIR).join(token);
    std::fs::create_dir_all(&work).map_err(|e| journal_io(dir, e))?;
    std::fs::write(
        work.join(format!("{}.req", claimed.id)),
        crate::serve::encode_request(claimed),
    )
    .map_err(|e| journal_io(dir, e))?;
    Ok(work)
}

/// How long one serve-lane round may run before its daemons are told
/// to stop and the round is graded FAIL (`answered-in-time=false`). A
/// healthy round takes well under a second; only a daemon that never
/// answers comes near it.
const SERVE_ROUND_DEADLINE: Duration = Duration::from_secs(60);

/// Wait for `daemon` to return; if `deadline` passes first, request a
/// stop (every member drains and exits at its next scan) and report the
/// round late. The caller joins the handle either way.
fn await_daemon<T>(
    daemon: &std::thread::ScopedJoinHandle<'_, T>,
    dir: &Path,
    deadline: Instant,
) -> bool {
    while !daemon.is_finished() {
        if Instant::now() >= deadline {
            let _ = crate::serve::request_stop(dir);
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Run one serve daemon under `deadline` (see [`await_daemon`]).
/// Returns its result (`None` if it panicked) and whether it returned
/// in time.
fn serve_until(
    config: &crate::serve::ServeConfig,
    service: &ChaosServeService,
    deadline: Instant,
) -> (Option<Result<crate::serve::ServeReport, JournalError>>, bool) {
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| crate::serve::serve(config, service));
        let in_time = await_daemon(&daemon, &config.cache_dir, deadline);
        (daemon.join().ok(), in_time)
    })
}

/// Run one serve-daemon robustness scenario against a cold cache. The
/// round's daemons run under [`SERVE_ROUND_DEADLINE`].
#[allow(clippy::too_many_arguments)]
fn serve_chaos_seed(
    plan: &Plan,
    jobs: usize,
    seed: u64,
    lane: JournalChaosLane,
    config: &SuperviseConfig,
    dir: &Path,
    pristine: &[u8],
    baseline: &BTreeMap<RunRequest, u64>,
) -> Result<ChaosVerdict, JournalError> {
    use crate::serve::{self, RejectKind, ServeConfig, ServeRequest, INBOX_DIR, SERVE_DIR};

    // Start cold: no journal, no lock, no serve state from prior rounds
    // (crash-recovery plants its own journal prefix below).
    let _ = std::fs::remove_file(dir.join(JOURNAL_FILE));
    let _ = std::fs::remove_file(dir.join(LOCK_FILE));
    let _ = std::fs::remove_dir_all(dir.join(SERVE_DIR));

    let planned = plan.len();
    let expected_body = render_hash_body(plan, baseline);
    let mut rng = Rng64::new(seed ^ SERVE_STREAM);
    let service = ChaosServeService {
        plan: Plan::build(plan.requests().iter().copied()),
    };
    let mut serve_config = ServeConfig::new(dir);
    serve_config.jobs = jobs;
    serve_config.supervise = *config;
    serve_config.poll = std::time::Duration::from_millis(1);
    let chaos_request =
        |id: &str| ServeRequest::new(id, &["chaos-plan"], interp_core::Scale::Test);
    let deadline = Instant::now() + SERVE_ROUND_DEADLINE;
    let responses = |ids: &[String], rejection: Option<RejectKind>| {
        ServeTally::read(dir, ids, planned, &expected_body, rejection, deadline)
    };
    // Every daemon deregisters on exit: the fleet registry is empty.
    let fleet_empty = || crate::fleet::fleet_members(dir).is_empty();

    match lane {
        JournalChaosLane::TornServeRequest => {
            // A client crashed mid-write: the request file has an intact
            // version line but is cut strictly before its `end` trailer,
            // so the daemon must classify it as torn — a typed response,
            // never a crash.
            let full = serve::encode_request(&chaos_request("torn"));
            let version_end = full.find('\n').map_or(0, |p| p + 1);
            let end_start = full.len() - "end\n".len();
            let cut = rng.index(version_end, end_start);
            let inbox = dir.join(INBOX_DIR);
            std::fs::create_dir_all(&inbox).map_err(|e| journal_io(dir, e))?;
            std::fs::write(inbox.join("torn.req"), &full.as_bytes()[..cut])
                .map_err(|e| journal_io(dir, e))?;
            serve_config.max_requests = Some(1);
            let (Some(daemon), in_time) = serve_until(&serve_config, &service, deadline) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            daemon?;
            let tally = ServeTally {
                expected_rejected: 1,
                ..responses(&["torn".to_string()], Some(RejectKind::Torn))?
            };
            Ok(tally.verdict(seed, lane, planned, fleet_empty(), in_time))
        }
        JournalChaosLane::ServeCrashRecovery => {
            // A daemon died between claiming a request and committing its
            // response: the journal holds only a prefix of the plan, and
            // the dead fleet member's claimed request sits orphaned in
            // its work dir. The fresh daemon must adopt the orphan, reuse
            // the prefix, execute the residue, and answer
            // byte-identically to a cold run.
            let spans = journal::record_spans(pristine);
            let n = spans.len();
            if n < 2 {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            }
            let prefix = 1 + rng.index(0, n - 1);
            std::fs::write(dir.join(JOURNAL_FILE), &pristine[..spans[prefix - 1].end])
                .map_err(|e| journal_io(dir, e))?;
            let corpse_work =
                plant_member(dir, "corpse", DEAD_PID, None, &chaos_request("crashed"))?;
            serve_config.max_requests = Some(1);
            let (Some(daemon), in_time) = serve_until(&serve_config, &service, deadline) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            let report = daemon?;
            let mut tally = responses(&["crashed".to_string()], None)?;
            tally.expected_ok = 1;
            tally.rejected = report.rejected;
            tally.exactly_once &= tally.ok == 1
                && tally.reused == prefix
                && tally.executed == planned - prefix;
            tally.body_identical &= tally.ok == 1;
            let clean_exit = fleet_empty() && !corpse_work.join("crashed.req").exists();
            Ok(tally.verdict(seed, lane, planned, clean_exit, in_time))
        }
        JournalChaosLane::ServeClientRace => {
            // N clients race one daemon while a batch campaign shares the
            // cache: every response must be ok and byte-identical to the
            // cold baseline, and the daemon plus the batch writer must
            // execute each planned run exactly once between them.
            let clients = 2 + (seed as usize % 2);
            serve_config.max_requests = Some(clients as u64);
            let stagger = std::time::Duration::from_millis(seed % 5);
            let ids: Vec<String> = (0..clients).map(|i| format!("race-{i}")).collect();
            let (daemon, batch, submitted, in_time) = std::thread::scope(|scope| {
                let daemon = scope.spawn(|| serve::serve(&serve_config, &service));
                let batch = scope.spawn(|| {
                    std::thread::sleep(stagger);
                    let jconfig = JournalConfig::new(dir).with_resume(true);
                    journal::execute_journaled(plan, jobs, config, &jconfig)
                });
                let clients: Vec<_> = ids
                    .iter()
                    .map(|id| scope.spawn(move || serve::submit(dir, &chaos_request(id))))
                    .collect();
                let submitted: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
                let in_time = await_daemon(&daemon, dir, deadline);
                (daemon.join(), batch.join(), submitted, in_time)
            });
            let (Ok(daemon), Ok(batch)) = (daemon, batch) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            for joined in submitted {
                let Ok(submitted) = joined else {
                    return Ok(ChaosVerdict::did_not_run(seed, lane));
                };
                submitted?;
            }
            let report = daemon?;
            let (batch_executed, batch_report) = batch?;
            let mut tally = responses(&ids, None)?;
            tally.expected_ok = clients;
            tally.rejected = report.rejected;
            tally.executed += batch_report.executed;
            tally.exactly_once &=
                batch_report.planned == planned && tally.executed == planned;
            tally.body_identical &= content_hashes(plan, &batch_executed) == *baseline;
            let clean_exit = report.served + report.rejected == clients && fleet_empty();
            Ok(tally.verdict(seed, lane, planned, clean_exit, in_time))
        }
        JournalChaosLane::FleetMemberKill => {
            // One of two daemons was killed mid-burst: a wedged member
            // with a *live* pid, a prehistoric heartbeat, and a claimed
            // request in its work dir — the heartbeat-age detection
            // path, the one `/proc` can't catch. The survivor must
            // sweep it, re-adopt the claim, and serve the whole
            // mixed-priority burst byte-identically to serial cold.
            let pid = std::process::id();
            let mut killed = chaos_request("killed");
            killed.priority = i64::from(rng.range(0, 4) as u32);
            let wedged_work = plant_member(
                dir,
                "wedged",
                pid,
                Some(&format!("pid {pid}\ntick 1\nunix_ms 1\nserved 0\nin-flight 1\n")),
                &killed,
            )?;
            let mut urgent = chaos_request("urgent");
            urgent.priority = 7;
            serve::submit(dir, &urgent)?;
            serve_config.max_requests = Some(2);
            serve_config.serve_jobs = 2;
            let (Some(daemon), in_time) = serve_until(&serve_config, &service, deadline) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            let report = daemon?;
            let mut tally = responses(&["killed".to_string(), "urgent".to_string()], None)?;
            tally.expected_ok = 2;
            tally.rejected = report.rejected;
            tally.exactly_once &= report.adopted == 1 && tally.executed == planned;
            let clean_exit = fleet_empty() && !wedged_work.exists();
            Ok(tally.verdict(seed, lane, planned, clean_exit, in_time))
        }
        JournalChaosLane::FleetOrphanAdoption => {
            // A dead member (corpse pid) left a claimed request behind
            // while *two* live daemons race a mixed-priority burst on
            // the same cache. The orphan must be re-adopted exactly-once
            // between the racers, every response must be ok and
            // byte-identical, and a stop request must drain both
            // members cleanly, consuming the marker.
            let corpse_work =
                plant_member(dir, "corpse", DEAD_PID, None, &chaos_request("lost"))?;
            let burst = 2 + (seed as usize % 2);
            let mut ids = vec!["lost".to_string()];
            for i in 0..burst {
                let mut request = chaos_request(&format!("fleet-{i}"));
                request.priority = (i as i64 % 3) - 1;
                request.deadline_unix_ms = Some(crate::fleet::unix_ms() as u64 + 600_000);
                serve::submit(dir, &request)?;
                ids.push(request.id);
            }
            let (first, second, in_time) = std::thread::scope(|scope| {
                let a = scope.spawn(|| serve::serve(&serve_config, &service));
                let b = scope.spawn(|| serve::serve(&serve_config, &service));
                // Every response must arrive while both daemons run;
                // only then drain the fleet.
                let _ = responses(&ids, None);
                let in_time = Instant::now() < deadline;
                let _ = serve::request_stop(dir);
                (a.join(), b.join(), in_time)
            });
            let (Ok(first), Ok(second)) = (first, second) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            let (a, b) = (first?, second?);
            let mut tally = responses(&ids, None)?;
            tally.expected_ok = burst + 1;
            tally.rejected = a.rejected + b.rejected;
            tally.exactly_once &= a.adopted + b.adopted == 1 && tally.executed == planned;
            let clean_exit = a.drained
                && b.drained
                && fleet_empty()
                && !dir.join(serve::STOP_FILE).exists()
                && !corpse_work.exists();
            Ok(tally.verdict(seed, lane, planned, clean_exit, in_time))
        }
        JournalChaosLane::DeadlineStorm => {
            // Every request in the burst is already expired. Each must
            // be answered with a typed deadline-expired rejection —
            // zero executions, no journal ever created.
            let storm = 3 + (seed as usize % 3);
            let mut ids = Vec::new();
            for i in 0..storm {
                let mut request = chaos_request(&format!("storm-{i}"));
                request.deadline_unix_ms = Some(1 + rng.range(0, 1000));
                request.priority = (i as i64) - 1;
                serve::submit(dir, &request)?;
                ids.push(request.id);
            }
            serve_config.max_requests = Some(storm as u64);
            let (Some(daemon), in_time) = serve_until(&serve_config, &service, deadline) else {
                return Ok(ChaosVerdict::did_not_run(seed, lane));
            };
            daemon?;
            let tally = ServeTally {
                expected_rejected: storm,
                exactly_once: !dir.join(JOURNAL_FILE).exists(),
                ..responses(&ids, Some(RejectKind::DeadlineExpired))?
            };
            Ok(tally.verdict(seed, lane, planned, fleet_empty(), in_time))
        }
        _ => Ok(ChaosVerdict::did_not_run(seed, lane)),
    }
}

/// Stream-splitting constant for tiered-lane rolls (guard-trip
/// ordinals), decorrelated from every other chaos stream.
const TIERED_STREAM: u64 = 0x71E2_ED00_6A2D_7219;

/// The hot-loop Javelin program the tiered lane drives: one loop head
/// that heats past the recording threshold within the first few
/// backedges and then runs a few hundred on-trace iterations — so a
/// guard-trip ordinal rolled in [1, 64] always lands mid-trace.
const TIERED_CHAOS_PROGRAM: &str =
    "void main() { int s = 0; for (int i = 0; i < 300; i++) { s += i; } Native.printInt(s); }";

/// One tiered run of the lane's fixed program; `None` if the engine
/// errored (which the oracle grades as failure).
fn tiered_probe(
    strategy: DispatchStrategy,
    fault: DispatchFault,
) -> Option<(String, RunStats)> {
    try_run_source_dispatch(
        Language::Javelin,
        TIERED_CHAOS_PROGRAM,
        Limits::guarded(),
        strategy,
        fault,
        NullSink,
    )
    .ok()
    .map(|r| (r.console, r.stats))
}

/// Run one tiered guard-trip round: a never-tiered baseline, then the
/// same program tiered with a seed-rolled spurious guard trip, graded
/// for abort + blacklist + byte-identical fallback.
fn tiered_chaos_seed(seed: u64, lane: JournalChaosLane) -> ChaosVerdict {
    let mut rng = Rng64::new(seed ^ TIERED_STREAM);
    let after = rng.range(1, 64) as u32;
    let naive = tiered_probe(DispatchStrategy::Naive, DispatchFault::None);
    let tiered = tiered_probe(DispatchStrategy::Tiered, DispatchFault::TraceGuardTrip { after });
    let (aborted, blacklisted, output, commands) = match (naive, tiered) {
        (Some((naive_out, naive_stats)), Some((tiered_out, tiered_stats))) => (
            // The faulted run recorded an abort: the trip was taken.
            tiered_stats.trace_aborts >= 1,
            // The aborted anchor stayed blacklisted: recorded once,
            // never re-recorded after the abort.
            tiered_stats.traces_recorded == 1,
            tiered_out == naive_out,
            tiered_stats.commands == naive_stats.commands,
        ),
        _ => (false, false, false, false),
    };
    ChaosVerdict {
        seed,
        lane,
        context: format!("trip guard #{after}"),
        checks: vec![
            ("aborted", aborted),
            ("blacklisted", blacklisted),
            ("output-identical", output),
            ("commands-identical", commands),
        ],
    }
}

/// Content hash of every planned artifact (0 marks a degraded slot, so
/// a degraded resume can never masquerade as a match).
fn content_hashes(plan: &Plan, executed: &ExecutedPlan) -> BTreeMap<RunRequest, u64> {
    plan.requests()
        .iter()
        .map(|request| {
            let hash = match executed.store.resolve(request) {
                Ok(artifact) => artifact.content_hash(),
                Err(_) => 0,
            };
            (*request, hash)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{Scale, WorkloadId};

    fn small_plan() -> Plan {
        // Two fast macros plus two micros: covers guest-fault lanes
        // (macro-only) and the micro remapping, while staying quick.
        Plan::build([
            RunRequest::counting(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test)),
            RunRequest::counting(WorkloadId::macro_bench(Language::Tclite, "des", Scale::Test)),
            RunRequest::counting(WorkloadId::micro(Language::C, "a=b+c", Scale::Test)),
            RunRequest::counting(WorkloadId::micro(Language::Perlite, "call", Scale::Test)),
        ])
    }

    #[test]
    fn a_daemon_that_never_answers_fails_within_the_round_deadline() {
        let dir = std::env::temp_dir().join(format!("chaos-unanswered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let planned = small_plan().len();
        let request = crate::serve::ServeRequest::new("stranded", &["chaos-plan"], Scale::Test);
        // A live member (this process) with a fresh heartbeat holds the
        // request, so no daemon may adopt it and it is never answered.
        let pid = std::process::id();
        let heartbeat = format!(
            "pid {pid}\ntick 1\nunix_ms {}\nserved 0\nin-flight 1\n",
            crate::fleet::unix_ms()
        );
        plant_member(&dir, "alive", pid, Some(&heartbeat), &request).expect("plant");
        let mut config = crate::serve::ServeConfig::new(&dir);
        config.max_requests = Some(1);
        config.poll = Duration::from_millis(1);
        let service = ChaosServeService { plan: small_plan() };
        let round = Duration::from_millis(300);
        let started = Instant::now();
        let deadline = started + round;

        let (daemon, in_time) = serve_until(&config, &service, deadline);
        let report = daemon.expect("daemon panicked").expect("daemon failed");
        let tally = ServeTally {
            expected_ok: 1,
            ..ServeTally::read(&dir, &["stranded".to_string()], planned, "", None, deadline)
                .expect("read outbox")
        };
        let verdict =
            tally.verdict(0, JournalChaosLane::ServeCrashRecovery, planned, true, in_time);

        assert!(!in_time && report.drained, "the deadline must stop the daemon");
        assert!(!verdict.passed(), "{}", verdict.render());
        assert!(verdict.checks.contains(&("answered-in-time", false)), "{}", verdict.render());
        assert!(
            started.elapsed() < round + Duration::from_secs(5),
            "the round took {:?}",
            started.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lanes_are_deterministic_and_micros_never_guest_fault() {
        let plan = small_plan();
        for seed in 0..64 {
            for request in plan.requests() {
                let first = lane(seed, request);
                assert_eq!(first, lane(seed, request), "seed {seed} {request}");
                if request.workload.kind == WorkloadKind::Micro {
                    assert!(
                        !matches!(
                            first,
                            ChaosLane::FlakyGuestFault | ChaosLane::PersistentGuestFault
                        ),
                        "seed {seed} {request}: micro rolled a guest-fault lane"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_space_is_covered_across_seeds() {
        let plan = small_plan();
        let mut seen = Vec::new();
        for seed in 0..256 {
            for request in plan.requests() {
                let l = lane(seed, request);
                if !seen.contains(&l) {
                    seen.push(l);
                }
            }
        }
        for expected in [
            ChaosLane::Clean,
            ChaosLane::FlakyGuestFault,
            ChaosLane::PersistentGuestFault,
            ChaosLane::WorkerStall,
            ChaosLane::ArtifactDrop,
            ChaosLane::WorkerPanic,
        ] {
            assert!(seen.contains(&expected), "lane {expected:?} never rolled");
        }
    }

    #[test]
    fn tiered_guard_trip_lane_aborts_blacklists_and_stays_byte_identical() {
        // Several seeds → several trip ordinals; every round must take
        // the trip, hold the blacklist, and change nothing observable.
        // Rounds are pure functions of the seed, so the rendered line is
        // stable across invocations (and job counts, trivially: the lane
        // runs in-process).
        for seed in [12u64, 28, 44] {
            assert_eq!(journal_lane(seed), JournalChaosLane::TieredGuardTrip);
            let verdict = tiered_chaos_seed(seed, JournalChaosLane::TieredGuardTrip);
            assert!(verdict.passed(), "seed {seed}: {}", verdict.render());
            let again = tiered_chaos_seed(seed, JournalChaosLane::TieredGuardTrip);
            assert_eq!(verdict, again, "seed {seed}: tiered round not deterministic");
        }
    }

    #[test]
    fn fleet_lanes_hold_their_oracles() {
        // Seeds 13–15 land on the three fleet lanes: member kill
        // (heartbeat-age failover), orphan adoption under two racing
        // daemons, and the deadline storm. Each must meet its oracle
        // end to end — failover with byte-identical responses,
        // exactly-once adoption, typed rejections with no journal.
        let plan = journal_chaos_plan();
        let config = SuperviseConfig::new();
        let dir = std::env::temp_dir().join(format!(
            "interp-fleet-chaos-{}-{}",
            std::process::id(),
            crate::lock::fresh_token()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (pristine, baseline) =
            journal_chaos_baseline(&plan, 2, &config, &dir).expect("baseline");
        for seed in [13u64, 14, 15] {
            let lane = journal_lane(seed);
            assert!(lane.is_serve(), "seed {seed} must land on a fleet lane");
            let verdict =
                journal_chaos_seed(&plan, 2, seed, &config, &dir, &pristine, &baseline)
                    .expect("round");
            assert!(
                verdict.passed(),
                "seed {seed} ({}): {}",
                lane.label(),
                verdict.render()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_execution_is_complete_and_job_count_invariant() {
        let plan = small_plan();
        let config = SuperviseConfig::new().with_retries(1);
        // Seeds chosen to exercise several lanes; every planned request
        // must resolve (Ok or Degraded — never missing), and the summary
        // must be byte-identical across job counts.
        for seed in [0u64, 3, 7] {
            let serial = with_quiet_injected_panics(|| chaos_execute(&plan, 1, seed, &config));
            let parallel =
                with_quiet_injected_panics(|| chaos_execute(&plan, 4, seed, &config));
            for request in plan.requests() {
                assert!(
                    !matches!(
                        serial.store.resolve(request),
                        Err(crate::ResolveError::Unplanned(_))
                    ),
                    "seed {seed}: {request} went missing"
                );
            }
            assert_eq!(
                render_chaos_summary(seed, &serial),
                render_chaos_summary(seed, &parallel),
                "seed {seed}: chaos summary depends on job count"
            );
        }
    }
}
