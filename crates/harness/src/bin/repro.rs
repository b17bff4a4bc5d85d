//! `repro`: regenerate every table and figure of the paper, plus the
//! robustness and conformance sweeps.
//!
//! ```text
//! repro [TARGETS] [--scale test|paper] [--dispatch LIST] [--jobs N] [--retries N]
//!       [--timeout-fuel N] [--strict]
//!       [--cache-dir DIR] [--resume] [--lock-timeout SECS] [--crash-after N]
//! repro list [--scale test|paper]
//! repro status [--cache-dir DIR] [--scale test|paper]
//! repro compact [--cache-dir DIR] [--lock-timeout SECS] [--keep-responses SECS]
//! repro bench [--scale test|paper] [--jobs N] [--out FILE]
//! repro guard [--seeds N] [--scale test|paper]
//! repro chaos [--seeds N] [--scale test|paper] [--jobs N] [--retries N]
//! repro journal-chaos [--seeds N] [--jobs N] [--cache-dir DIR]
//! repro conform [--seeds N] [--dispatch LIST]
//! repro serve [--cache-dir DIR] [--queue N] [--poll-ms N] [--max-requests N]
//!       [--serve-jobs N] [--stop]
//! repro submit [TARGETS] [--scale test|paper] [--dispatch LIST] [--id NAME]
//!       [--priority N] [--deadline-ms N] [--cache-dir DIR]
//! repro wait ID [--cache-dir DIR] [--wait-timeout SECS] [--poll-ms N]
//! ```
//!
//! `TARGETS` is one or more experiment names, comma- or space-separated
//! (`repro table1,fig3`); the default is `all`. Whatever the selection,
//! every experiment's run requests are unioned into one deduplicated
//! plan and executed once on `--jobs N` worker threads (default: the
//! machine's available parallelism), so a workload shared by several
//! experiments runs exactly once. Renderings always print in canonical
//! paper order on stdout; the per-run timing report goes to stderr so
//! stdout is byte-identical across job counts.
//!
//! Execution is *supervised*: a run that panics, faults, or blows its
//! `--timeout-fuel` deadline degrades its own cells (`DEGRADED(<kind>)`)
//! instead of killing the other runs. Transient failures are retried up
//! to `--retries N` times (default 1) in deterministic plan-order
//! rounds; what still fails is summarized on stderr. The exit status
//! stays 0 for a degraded-but-complete report unless `--strict` is
//! given, which turns any degradation into exit status 3.
//!
//! `--scale paper` runs full workload sizes (`--paper` is an accepted
//! alias; the default is the fast test scale). `guard` sweeps N seeded
//! fault plans per interpreter (default 64) and exits nonzero if any run
//! escapes through a panic. `chaos` executes the full plan once per seed
//! with faults injected into the interpreters *and* the pool, asserting
//! every seed completes with job-count-invariant degradation markers.
//! `conform` generates N seeded programs (default 64) over the shared
//! semantic IR, lowers each to all five interpreters, and prints the
//! per-pair console-digest divergence table — exit status 1 on any
//! divergence, with shrunk minimal reproducers in the report. Unknown
//! flags and targets are rejected with exit status 2.
//!
//! `--dispatch LIST` selects dispatch-strategy tiers, comma-separated
//! exactly like `--scale` is parsed: each element is `naive`,
//! `threaded`, `superinstr`, `inline-cache`, `tiered`, `default` (each
//! interpreter's fastest tier), or `all`; anything else is rejected
//! with exit status 2. For experiment targets it narrows the `dispatch`
//! family's rows (default: all supported tiers); for `conform` it adds
//! one witness per selected `(interpreter, strategy)` pair on top of
//! the classic six-column table (default: naive only).
//!
//! Persistence: `--cache-dir DIR` journals every completed artifact to
//! `DIR/artifacts.journal` (one checksummed record appended in place
//! and data-synced per run; every other rewrite, such as the canonical
//! image written when the campaign closes, is an atomic rename), and
//! `--resume` loads that journal first and re-executes only
//! the runs it does not already hold — a crashed or interrupted
//! invocation picks up where it left off, byte-identical to a cold run.
//! `--resume` alone uses the default cache dir (`.repro-cache/`).
//! Corrupt journals are healed, never fatal: each damaged record is
//! classified (torn tail, bad checksum, stale epoch, bad version,
//! duplicate key) on stderr and its run recomputed.
//!
//! Coordination: every journal append happens under an advisory file
//! lock with a merge-on-reload pass, so N concurrent `repro` processes
//! sharing one `--cache-dir` cooperatively fill a single cache with
//! exactly-once execution per run — a run another process already
//! journaled (or is actively executing, per its claim) is reused, not
//! repeated. A lock held by a dead process is taken over; one held by a
//! live process past `--lock-timeout SECS` (default 30) aborts with exit
//! status 5. `status` prints a read-only cache snapshot (records,
//! defects, lock holder, writer sessions, claims, reuse coverage);
//! `compact` rewrites the journal dropping duplicate, stale-epoch, and
//! torn records (a no-op when already canonical); `bench` writes a
//! machine-readable benchmark trajectory of exact numbers (per-target
//! plan sizes, dedup reuse ratio, per-dispatch-tier instruction counts)
//! to `--out FILE` (default `BENCH_trajectory.json`).
//!
//! Service mode: `serve` runs a long-lived daemon over the cache — it
//! watches `<cache>/serve/inbox/` for request files dropped by `submit`,
//! admits at most `--queue` per scan in priority order (excess answered
//! with a typed `overloaded` rejection), executes up to `--serve-jobs`
//! admitted requests concurrently through the same journal claims as
//! batch runs (exactly-once even while a concurrent `repro all` shares
//! the cache), and publishes responses to `<cache>/serve/outbox/` whose
//! bodies are byte-identical to the batch CLI's stdout for the same
//! selection. N daemons may serve one cache as a *fleet*: each registers
//! a member lease under `serve/fleet/`, claims inbox requests by atomic
//! rename (no request is ever executed twice), and live members adopt
//! the claimed-but-unanswered work of any member that died — kill -9
//! loses nothing. `submit --priority N` orders admission (higher
//! first); `submit --deadline-ms N` bounds patience — a request
//! still unexecuted when its deadline passes is answered with a typed
//! `deadline-expired` rejection instead of stale work. Malformed or
//! unknown-target requests get typed rejections, never a daemon crash.
//! Each member heartbeats from a background thread, and the fleet
//! drains cleanly on `serve --stop` (the last member out consumes the
//! marker). `wait ID` blocks for a response with jittered exponential
//! backoff and replays its body/accounting onto stdout/stderr.
//!
//! Exit status: 0 success (or degraded-but-complete), 1 sweep failure,
//! 2 usage error, 3 degraded under `--strict`, 4 journal I/O error,
//! 5 lock timeout, 7 wait timeout, 86 deliberate `--crash-after` crash.
//! (6 is retired: it meant a live daemon blocked this one, and no
//! daemon does any more.)
//!
//! `journal-chaos` proves the recovery machinery per seed: corruption
//! lanes damage a pristine journal and assert every defect is detected,
//! classified, and healed; multi-writer lanes run interleaved
//! campaigns, stale-lock takeover from a planted dead writer, and
//! compaction raced against a live appender, asserting exactly-once
//! execution and a clean journal; the tiered lane trips a trace guard
//! mid-run and asserts abort, blacklist, and byte-identical interpreter
//! fallback. `--crash-after N` (test harness) kills the process with
//! exit status 86 after N journal appends, leaving a valid journal
//! prefix for `--resume`.

use interp_core::{DispatchFault, DispatchSelection, DispatchStrategy};
use interp_harness::bench_report;
use interp_harness::experiments::{
    all_requests, is_target, render_target_with, requests_for, requests_for_with,
    ExperimentService, TARGETS,
};
use interp_harness::{guard_sweep, Scale};
use interp_runplan::chaos::{journal_chaos_baseline, journal_chaos_plan, journal_chaos_seed};
use interp_runplan::serve;
use interp_runplan::{
    cache_status, chaos_execute, compact_with, current_epoch, default_jobs, execute_journaled,
    execute_supervised, fleet_members, render_cache_status, render_chaos_summary, render_failures,
    render_resume_report, render_timings, with_quiet_injected_panics, JournalConfig,
    JournalError, JournalErrorKind, Plan, ResolveError, SuperviseConfig, DEFAULT_CACHE_DIR,
    DEFAULT_LOCK_TIMEOUT,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

/// Default output file for `repro bench`.
const BENCH_FILE: &str = "BENCH_trajectory.json";

fn usage() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: repro [TARGETS] [--scale test|paper] [--dispatch LIST] [--jobs N] [--retries N] [--timeout-fuel N] [--strict]\n\
         \x20            [--cache-dir DIR] [--resume] [--lock-timeout SECS] [--crash-after N]\n\
         \x20      repro list [--scale test|paper]\n\
         \x20      repro status [--cache-dir DIR] [--scale test|paper]\n\
         \x20      repro compact [--cache-dir DIR] [--lock-timeout SECS] [--keep-responses SECS]\n\
         \x20      repro bench [--scale test|paper] [--jobs N] [--out FILE]\n\
         \x20      repro guard [--seeds N] [--scale test|paper]\n\
         \x20      repro chaos [--seeds N] [--scale test|paper] [--jobs N] [--retries N]\n\
         \x20      repro journal-chaos [--seeds N] [--jobs N] [--cache-dir DIR]\n\
         \x20      repro conform [--seeds N] [--dispatch LIST]\n\
         \x20      repro serve [--cache-dir DIR] [--queue N] [--poll-ms N] [--max-requests N]\n\
         \x20            [--serve-jobs N] [--stop]\n\
         \x20      repro submit [TARGETS] [--scale test|paper] [--dispatch LIST] [--id NAME]\n\
         \x20            [--priority N] [--deadline-ms N] [--cache-dir DIR]\n\
         \x20      repro wait ID [--cache-dir DIR] [--wait-timeout SECS] [--poll-ms N]\n\
         targets: {} | all (default), comma- or space-separated\n\
         dispatch: --dispatch LIST, comma-separated from naive | threaded | superinstr |\n\
         \x20            inline-cache | tiered | default | all (experiments default: all;\n\
         \x20            conform default: naive — each selected tier becomes its own witness)\n\
         persistence: --cache-dir DIR journals completed runs to DIR/artifacts.journal;\n\
         \x20            --resume loads it first (default dir {DEFAULT_CACHE_DIR}/) and executes only\n\
         \x20            missing runs; corrupt records are reported and recomputed, never fatal;\n\
         \x20            concurrent processes sharing a cache dir coordinate through an advisory\n\
         \x20            lock for exactly-once execution (--lock-timeout SECS bounds the wait)\n\
         service: `serve` daemonizes over the cache inbox/outbox (run it N times for a\n\
         \x20            failover fleet; --serve-jobs N executes admitted requests\n\
         \x20            concurrently); `submit` drops a request file (id on stdout;\n\
         \x20            --priority orders admission, --deadline-ms bounds patience);\n\
         \x20            `wait ID` blocks for its response and replays the body\n\
         \x20            (byte-identical to the batch CLI) on stdout\n\
         exit status: 0 ok, 1 sweep failure, 2 usage, 3 degraded under --strict,\n\
         \x20            4 journal I/O error, 5 lock timeout, 7 wait timeout, 86 --crash-after",
        names.join(" | ")
    )
}

fn bail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// Map a journal failure to its documented exit status: 5 when the
/// advisory lock stayed held by a live process past the timeout, 4 for
/// any filesystem failure.
fn journal_exit(e: &JournalError) -> ! {
    eprintln!("repro: {e}");
    std::process::exit(match e.kind {
        JournalErrorKind::LockTimeout => 5,
        JournalErrorKind::Io => 4,
    });
}

/// Parsed command line.
struct Cli {
    /// Selected targets (or the `list`/`status`/`compact`/`bench`/
    /// `guard`/`chaos`/`conform` subcommand word).
    targets: Vec<String>,
    scale: Scale,
    jobs: usize,
    /// `--seeds` if given; `guard` and `conform` default to 64, `chaos`
    /// to 8, `journal-chaos` to 16 (one full lane rotation).
    seeds: Option<u64>,
    /// `--retries` (default 1): the pool's retry budget for transient
    /// failures, the same in batch runs and under `serve`.
    retries: u32,
    /// Cooperative fuel deadline per attempt, if any.
    timeout_fuel: Option<u64>,
    /// Exit 3 instead of 0 when the report is degraded.
    strict: bool,
    /// Journal completed artifacts into this directory.
    cache_dir: Option<PathBuf>,
    /// Load the journal before executing; run only what it lacks.
    resume: bool,
    /// Give up on the advisory lock after this long (default 30s).
    lock_timeout: Option<Duration>,
    /// `repro bench` output file.
    out: Option<PathBuf>,
    /// Crash harness: exit 86 after N journal appends.
    crash_after: Option<u64>,
    /// `--dispatch` if given; experiments default to every supported
    /// tier, `conform` to naive only.
    dispatch: Option<DispatchSelection>,
    /// `repro serve` admission-queue capacity per inbox scan.
    queue: Option<usize>,
    /// `repro serve`/`repro wait` poll interval in milliseconds.
    poll_ms: Option<u64>,
    /// `repro serve`: exit after this many responses (tests, bench).
    max_requests: Option<u64>,
    /// `repro serve --serve-jobs N`: admitted requests executed
    /// concurrently per scan (default 1, the sequential daemon).
    serve_jobs: Option<usize>,
    /// `repro serve --stop`: ask the running daemon to drain and exit.
    stop: bool,
    /// `repro submit --id NAME`: explicit request id.
    id: Option<String>,
    /// `repro submit --priority N`: admission priority (higher first).
    priority: Option<i64>,
    /// `repro submit --deadline-ms N`: relative patience; converted to
    /// the absolute unix-millisecond deadline the wire format carries.
    deadline_ms: Option<u64>,
    /// `repro compact --keep-responses SECS`: sweep outbox responses
    /// older than this horizon (default: keep everything).
    keep_responses: Option<Duration>,
    /// `repro wait` patience before exit status 7.
    wait_timeout: Option<Duration>,
}

impl Cli {
    /// The supervision policy the flags describe.
    fn supervise_config(&self) -> SuperviseConfig {
        let config = SuperviseConfig::new().with_retries(self.retries);
        match self.timeout_fuel {
            Some(fuel) => config.with_timeout_fuel(fuel),
            None => config,
        }
    }

    /// The cache directory the flags name (default `.repro-cache/`).
    fn cache_dir_or_default(&self) -> PathBuf {
        self.cache_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR))
    }

    /// The advisory-lock patience the flags name (default 30s).
    fn lock_timeout_or_default(&self) -> Duration {
        self.lock_timeout.unwrap_or(DEFAULT_LOCK_TIMEOUT)
    }
}

fn parse(args: &[String]) -> Cli {
    let mut targets = Vec::new();
    let mut scale: Option<Scale> = None;
    let mut paper_alias = false;
    let mut jobs: Option<usize> = None;
    let mut seeds: Option<u64> = None;
    let mut retries: u32 = 1;
    let mut timeout_fuel: Option<u64> = None;
    let mut strict = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut lock_timeout: Option<Duration> = None;
    let mut out: Option<PathBuf> = None;
    let mut crash_after: Option<u64> = None;
    let mut dispatch: Option<DispatchSelection> = None;
    let mut queue: Option<usize> = None;
    let mut poll_ms: Option<u64> = None;
    let mut max_requests: Option<u64> = None;
    let mut serve_jobs: Option<usize> = None;
    let mut stop = false;
    let mut id: Option<String> = None;
    let mut priority: Option<i64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut keep_responses: Option<Duration> = None;
    let mut wait_timeout: Option<Duration> = None;

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut take_value = |flag: &str| -> String {
            if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                return v.to_string();
            }
            match it.next() {
                Some(v) => v.clone(),
                None => bail(&format!("{flag} expects a value")),
            }
        };
        if arg == "--scale" || arg.starts_with("--scale=") {
            let v = take_value("--scale");
            match Scale::parse(&v) {
                Some(s) => scale = Some(s),
                None => bail(&format!("--scale expects test|paper, got `{v}`")),
            }
        } else if arg == "--paper" {
            paper_alias = true;
        } else if arg == "--dispatch" || arg.starts_with("--dispatch=") {
            let v = take_value("--dispatch");
            match DispatchSelection::parse(&v) {
                Some(sel) => dispatch = Some(sel),
                None => bail(&format!(
                    "--dispatch expects a comma-separated list of naive|threaded|superinstr|inline-cache|tiered|default|all, got `{v}`"
                )),
            }
        } else if arg == "--jobs" || arg.starts_with("--jobs=") {
            let v = take_value("--jobs");
            match v.parse::<usize>() {
                Ok(n) if n > 0 => jobs = Some(n),
                _ => bail(&format!("--jobs expects a positive integer, got `{v}`")),
            }
        } else if arg == "--seeds" || arg.starts_with("--seeds=") {
            let v = take_value("--seeds");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => seeds = Some(n),
                _ => bail(&format!("--seeds expects a positive integer, got `{v}`")),
            }
        } else if arg == "--retries" || arg.starts_with("--retries=") {
            let v = take_value("--retries");
            match v.parse::<u32>() {
                Ok(n) => retries = n,
                _ => bail(&format!("--retries expects a non-negative integer, got `{v}`")),
            }
        } else if arg == "--timeout-fuel" || arg.starts_with("--timeout-fuel=") {
            let v = take_value("--timeout-fuel");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => timeout_fuel = Some(n),
                _ => bail(&format!("--timeout-fuel expects a positive integer, got `{v}`")),
            }
        } else if arg == "--strict" {
            strict = true;
        } else if arg == "--cache-dir" || arg.starts_with("--cache-dir=") {
            let v = take_value("--cache-dir");
            if v.is_empty() {
                bail("--cache-dir expects a directory path");
            }
            cache_dir = Some(PathBuf::from(v));
        } else if arg == "--resume" {
            resume = true;
        } else if arg == "--lock-timeout" || arg.starts_with("--lock-timeout=") {
            let v = take_value("--lock-timeout");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => lock_timeout = Some(Duration::from_secs(n)),
                _ => bail(&format!(
                    "--lock-timeout expects a positive number of seconds, got `{v}`"
                )),
            }
        } else if arg == "--out" || arg.starts_with("--out=") {
            let v = take_value("--out");
            if v.is_empty() {
                bail("--out expects a file path");
            }
            out = Some(PathBuf::from(v));
        } else if arg == "--crash-after" || arg.starts_with("--crash-after=") {
            let v = take_value("--crash-after");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => crash_after = Some(n),
                _ => bail(&format!("--crash-after expects a positive integer, got `{v}`")),
            }
        } else if arg == "--queue" || arg.starts_with("--queue=") {
            let v = take_value("--queue");
            match v.parse::<usize>() {
                Ok(n) if n > 0 => queue = Some(n),
                _ => bail(&format!("--queue expects a positive integer, got `{v}`")),
            }
        } else if arg == "--poll-ms" || arg.starts_with("--poll-ms=") {
            let v = take_value("--poll-ms");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => poll_ms = Some(n),
                _ => bail(&format!("--poll-ms expects a positive integer, got `{v}`")),
            }
        } else if arg == "--max-requests" || arg.starts_with("--max-requests=") {
            let v = take_value("--max-requests");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => max_requests = Some(n),
                _ => bail(&format!("--max-requests expects a positive integer, got `{v}`")),
            }
        } else if arg == "--serve-jobs" || arg.starts_with("--serve-jobs=") {
            let v = take_value("--serve-jobs");
            match v.parse::<usize>() {
                Ok(n) if n > 0 => serve_jobs = Some(n),
                _ => bail(&format!("--serve-jobs expects a positive integer, got `{v}`")),
            }
        } else if arg == "--priority" || arg.starts_with("--priority=") {
            let v = take_value("--priority");
            match v.parse::<i64>() {
                Ok(n) => priority = Some(n),
                _ => bail(&format!("--priority expects an integer, got `{v}`")),
            }
        } else if arg == "--deadline-ms" || arg.starts_with("--deadline-ms=") {
            let v = take_value("--deadline-ms");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => deadline_ms = Some(n),
                _ => bail(&format!(
                    "--deadline-ms expects a positive number of milliseconds, got `{v}`"
                )),
            }
        } else if arg == "--keep-responses" || arg.starts_with("--keep-responses=") {
            let v = take_value("--keep-responses");
            match v.parse::<u64>() {
                Ok(n) => keep_responses = Some(Duration::from_secs(n)),
                _ => bail(&format!(
                    "--keep-responses expects a non-negative number of seconds, got `{v}`"
                )),
            }
        } else if arg == "--stop" {
            stop = true;
        } else if arg == "--id" || arg.starts_with("--id=") {
            let v = take_value("--id");
            if !interp_runplan::serve::valid_id(&v) {
                bail(&format!(
                    "--id expects up to 64 chars of [A-Za-z0-9._-] not starting with `.`, got `{v}`"
                ));
            }
            id = Some(v);
        } else if arg == "--wait-timeout" || arg.starts_with("--wait-timeout=") {
            let v = take_value("--wait-timeout");
            match v.parse::<u64>() {
                Ok(n) if n > 0 => wait_timeout = Some(Duration::from_secs(n)),
                _ => bail(&format!(
                    "--wait-timeout expects a positive number of seconds, got `{v}`"
                )),
            }
        } else if arg.starts_with('-') {
            bail(&format!("unknown flag `{arg}`"));
        } else {
            targets.extend(
                arg.split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::to_string),
            );
        }
    }

    let scale = match (scale, paper_alias) {
        (Some(Scale::Test), true) => bail("--paper conflicts with --scale test"),
        (Some(s), _) => s,
        (None, true) => Scale::Paper,
        (None, false) => Scale::Test,
    };
    Cli {
        targets,
        scale,
        jobs: jobs.unwrap_or_else(default_jobs),
        seeds,
        retries,
        timeout_fuel,
        strict,
        cache_dir,
        resume,
        lock_timeout,
        out,
        crash_after,
        dispatch,
        queue,
        poll_ms,
        max_requests,
        serve_jobs,
        stop,
        id,
        priority,
        deadline_ms,
        keep_responses,
        wait_timeout,
    }
}

fn print_list(scale: Scale) {
    println!("targets (canonical render order):");
    for (name, desc) in TARGETS {
        let n = requests_for(name, scale).len();
        println!("  {name:<10} {desc}  [{n} runs]");
    }
    println!("  all        every target above, one shared deduplicated plan");
    println!("  status     read-only cache snapshot: records, defects, lock, writers");
    println!("  compact    rewrite the journal dropping duplicate/stale/torn records");
    println!("  bench      benchmark trajectory (plan sizes, dedup ratio, dispatch tiers) to JSON");
    println!("  guard      seeded fault-injection sweep (not memoized)");
    println!("  chaos      full plan under seeded guest+pool fault injection");
    println!("  journal-chaos  seeded journal corruption, multi-writer races, tiered guard trips: healed");
    println!("  conform    differential conformance sweep across all five interpreters");
    println!("  serve      crash-tolerant run-plan service daemon (run N for a failover fleet)");
    println!("  submit     drop a run-plan request into the serve inbox (prints its id)");
    println!("  wait       block for a serve response; body replays on stdout");
    println!();
    println!("dispatch axis: --dispatch LIST narrows the `dispatch` family and widens");
    println!("  `conform` witnesses; per-interpreter tiers:");
    for lang in interp_core::Language::ALL {
        let tiers: Vec<&str> = DispatchStrategy::supported_by(lang)
            .iter()
            .map(|d| d.label())
            .collect();
        println!(
            "  {:<10} {} (default: {})",
            lang.tag(),
            tiers.join(", "),
            DispatchStrategy::default_for(lang).label()
        );
    }
    println!();
    println!("persistence: --cache-dir DIR journals completed runs; --resume reloads");
    println!("  the journal (default dir {DEFAULT_CACHE_DIR}/) and executes only missing runs;");
    println!("  concurrent processes sharing a cache coordinate for exactly-once execution");
    println!();
    println!("macro workloads ({}):", scale.label());
    for id in interp_workloads::macro_suite(scale) {
        println!("  {}", id.label());
    }
    println!();
    println!("micro workloads ({}):", scale.label());
    for id in interp_workloads::micro_suite(scale) {
        println!("  {}", id.label());
    }
}

fn run_guard_sweep(cli: &Cli) -> ! {
    let report = guard_sweep::sweep(cli.scale, cli.seeds.unwrap_or(64));
    print!("{}", guard_sweep::render(&report));
    std::process::exit(if report.total_panics() == 0 { 0 } else { 1 });
}

/// `repro conform`: sweep seeded IR programs through all five
/// interpreters plus the reference evaluator and report the per-pair
/// console-digest divergence table. `--dispatch` adds one witness per
/// selected `(interpreter, strategy)` pair — every fast-dispatch tier
/// must stay digest-identical to every naive column. Divergence (which
/// shrinking reduces to a minimal reproducer in the report) exits
/// nonzero.
fn run_conform(cli: &Cli) -> ! {
    let seeds = cli.seeds.unwrap_or(64);
    let selection = cli
        .dispatch
        .clone()
        .unwrap_or_else(DispatchSelection::naive_only);
    let report = interp_conformance::conform_with(
        seeds,
        &interp_conformance::LowerOptions::default(),
        &selection,
        DispatchFault::None,
    );
    print!("{}", interp_conformance::render(&report));
    std::process::exit(if report.divergent_seeds() == 0 { 0 } else { 1 });
}

/// `repro status`: read-only snapshot of the cache directory — never
/// takes the lock, never heals, safe against a campaign in flight. The
/// reuse line measures the journal against the full `all` plan at the
/// selected scale.
fn run_status(cli: &Cli) -> ! {
    let dir = cli.cache_dir_or_default();
    let status = match cache_status(&dir, current_epoch()) {
        Ok(status) => status,
        Err(e) => journal_exit(&e),
    };
    let plan = Plan::build(all_requests(cli.scale));
    let covered = plan
        .requests()
        .iter()
        .filter(|r| status.records.contains_key(&r.fingerprint()))
        .count();
    print!(
        "{}",
        render_cache_status(&status, &dir, Some((covered, plan.len())))
    );
    std::process::exit(0);
}

/// `repro compact`: rewrite the journal down to its canonical image
/// under the advisory lock, dropping duplicates, stale-epoch records,
/// and torn or corrupt tails. Already-canonical journals are left
/// untouched (the fast path byte-compares and skips the rewrite).
/// `--keep-responses SECS` additionally sweeps outbox responses older
/// than the horizon; without it every response is kept.
fn run_compact(cli: &Cli) -> ! {
    let dir = cli.cache_dir_or_default();
    match compact_with(
        &dir,
        current_epoch(),
        cli.lock_timeout_or_default(),
        cli.keep_responses,
    ) {
        Ok(report) => {
            println!("{}", report.render(&dir));
            std::process::exit(0);
        }
        Err(e) => journal_exit(&e),
    }
}

/// `repro bench`: size each target's plan and execute the combined plan
/// once, then write the machine-readable trajectory JSON (per-target
/// plan sizes, dedup reuse ratio, per-dispatch-strategy instruction
/// counts) to `--out`. A dispatch tier that fails to beat
/// its naive insns/cmd baseline is a regression: exit status 1.
fn run_bench(cli: &Cli) -> ! {
    let report = bench_report::run_bench(cli.scale, cli.jobs, &cli.supervise_config());
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(BENCH_FILE));
    if let Err(e) = std::fs::write(&path, bench_report::render_json(&report)) {
        eprintln!("repro: write {}: {e}", path.display());
        std::process::exit(4);
    }
    print!("{}", bench_report::render_summary(&report));
    println!("bench: wrote {}", path.display());
    std::process::exit(if report.dispatch_regressions().is_empty() {
        0
    } else {
        1
    });
}

/// `repro chaos`: execute the full plan once per seed with faults
/// injected into both the interpreters and the pool, asserting every
/// plan still completes — each slot resolves to an artifact or a typed
/// failure — and that a serial re-run degrades identically.
fn run_chaos(cli: &Cli) -> ! {
    let plan = Plan::build(all_requests(cli.scale));
    let config = cli.supervise_config();
    let seeds = cli.seeds.unwrap_or(8);
    let mut broken = 0u64;
    for seed in 0..seeds {
        let executed =
            with_quiet_injected_panics(|| chaos_execute(&plan, cli.jobs, seed, &config));
        for request in plan.requests() {
            if matches!(
                executed.store.resolve(request),
                Err(ResolveError::Unplanned(_))
            ) {
                eprintln!("chaos seed {seed}: {request} missing from the store");
                broken += 1;
            }
        }
        let summary = render_chaos_summary(seed, &executed);
        if cli.jobs > 1 {
            let serial = with_quiet_injected_panics(|| chaos_execute(&plan, 1, seed, &config));
            if render_chaos_summary(seed, &serial) != summary {
                eprintln!(
                    "chaos seed {seed}: degradation differs between --jobs {} and --jobs 1",
                    cli.jobs
                );
                broken += 1;
            }
        }
        print!("{summary}");
    }
    if broken == 0 {
        println!("chaos: {seeds} seed(s) completed with deterministic degradation markers");
    }
    std::process::exit(if broken == 0 { 0 } else { 1 });
}

/// `repro journal-chaos`: journal a small cold plan once, then per seed
/// either corrupt a copy of the pristine journal (rotating through every
/// defect lane, asserting detection, classification, and healing) or
/// run a multi-writer race lane (interleaved campaigns, stale-lock
/// takeover, compaction vs. appender) asserting exactly-once execution
/// and a clean, complete journal.
fn run_journal_chaos(cli: &Cli) -> ! {
    let seeds = cli.seeds.unwrap_or(16);
    let config = cli.supervise_config();
    let plan = journal_chaos_plan();
    let dir = cli.cache_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("repro-journal-chaos-{}", std::process::id()))
    });
    let result = (|| -> Result<u64, JournalError> {
        let (pristine, baseline) = journal_chaos_baseline(&plan, cli.jobs, &config, &dir)?;
        let mut failed = 0u64;
        for seed in 0..seeds {
            let verdict =
                journal_chaos_seed(&plan, cli.jobs, seed, &config, &dir, &pristine, &baseline)?;
            println!("{}", verdict.render());
            if !verdict.passed() {
                failed += 1;
            }
        }
        Ok(failed)
    })();
    if cli.cache_dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    match result {
        Ok(0) => {
            println!(
                "journal-chaos: {seeds} seed(s): every injected defect detected, classified, and healed"
            );
            std::process::exit(0);
        }
        Ok(failed) => {
            eprintln!("journal-chaos: {failed} of {seeds} seed(s) failed recovery");
            std::process::exit(1);
        }
        Err(e) => journal_exit(&e),
    }
}

/// `repro serve`: run a service daemon over the shared cache — watch
/// the inbox, admit requests through strict typed parsing (bounded by
/// `--queue` per scan, priority-ordered, excess rejected `overloaded`),
/// execute up to `--serve-jobs` admitted plans concurrently,
/// exactly-once through the journal claims (coordinating with any
/// concurrent batch invocations and fleet peers), and publish responses
/// to the outbox. Run it again on the same cache to grow a failover
/// fleet; dead members' claimed work is re-adopted by survivors.
/// `--stop` instead asks the whole fleet to drain and exit.
fn run_serve(cli: &Cli) -> ! {
    let dir = cli.cache_dir_or_default();
    if cli.stop {
        if let Err(e) = serve::request_stop(&dir) {
            journal_exit(&e);
        }
        let deadline = std::time::Instant::now() + cli.lock_timeout_or_default();
        loop {
            let members = fleet_members(&dir);
            let Some(live) = members.iter().find(|m| m.pid_live) else {
                if members.is_empty() {
                    // Nothing to stop: withdraw the marker so it cannot
                    // kill the next daemon at startup.
                    if let Err(e) = serve::withdraw_stop(&dir) {
                        eprintln!("repro: could not withdraw the stop marker: {e}");
                        std::process::exit(4);
                    }
                    eprintln!("repro: no serve daemon running in {}", dir.display());
                }
                println!("serve: stopped");
                std::process::exit(0);
            };
            if std::time::Instant::now() >= deadline {
                eprintln!(
                    "repro: serve daemon (pid {}) did not drain within the lock timeout",
                    live.pid
                );
                std::process::exit(1);
            }
            std::thread::sleep(Duration::from_millis(cli.poll_ms.unwrap_or(50)));
        }
    }
    let mut config = serve::ServeConfig::new(&dir);
    config.jobs = cli.jobs;
    config.supervise = cli.supervise_config();
    config.lock_timeout = cli.lock_timeout_or_default();
    config.max_requests = cli.max_requests;
    config.crash_after = cli.crash_after;
    if let Some(n) = cli.serve_jobs {
        config.serve_jobs = n;
    }
    if let Some(queue) = cli.queue {
        config.queue = queue;
    }
    if let Some(ms) = cli.poll_ms {
        config.poll = Duration::from_millis(ms);
    }
    match serve::serve(&config, &ExperimentService) {
        Ok(report) => {
            eprintln!("{}", report.render());
            std::process::exit(0);
        }
        Err(e) => journal_exit(&e),
    }
}

/// `repro submit TARGETS`: publish a run-plan request into the cache's
/// serve inbox (atomically — the daemon never sees a torn file from
/// us) and print its id. `--priority N` orders admission within a scan
/// (higher first); `--deadline-ms N` is relative patience, converted
/// here to the absolute unix-millisecond deadline the wire carries.
/// Target names are deliberately NOT validated here: the daemon answers
/// unknown names with a typed rejection, which `repro wait` reports.
/// Pair with `repro wait` to block on the result.
fn run_submit(cli: &Cli) -> ! {
    let dir = cli.cache_dir_or_default();
    let targets: Vec<&str> = if cli.targets.len() > 1 {
        cli.targets[1..].iter().map(String::as_str).collect()
    } else {
        vec!["all"]
    };
    let id = cli
        .id
        .clone()
        .unwrap_or_else(|| format!("req-{}", interp_runplan::fresh_token()));
    let mut request = serve::ServeRequest::new(id, &targets, cli.scale);
    request.dispatch = cli.dispatch.clone();
    request.priority = cli.priority.unwrap_or(0);
    request.deadline_unix_ms = cli.deadline_ms.map(serve::deadline_in);
    match serve::submit(&dir, &request) {
        Ok(path) => {
            eprintln!("submit: {}", path.display());
            println!("{}", request.id);
            std::process::exit(0);
        }
        Err(e) => journal_exit(&e),
    }
}

/// `repro wait ID`: poll the outbox for the response to `ID`. An ok
/// response prints its body on stdout (byte-identical to the batch CLI)
/// with the exactly-once accounting on stderr; a typed rejection prints
/// its kind and detail on stderr and exits 1; no response within
/// `--wait-timeout` exits 7.
fn run_wait(cli: &Cli) -> ! {
    if cli.targets.len() != 2 {
        bail("`wait` expects exactly one request id");
    }
    let id = cli.targets[1].as_str();
    let dir = cli.cache_dir_or_default();
    let timeout = cli.wait_timeout.unwrap_or(Duration::from_secs(120));
    let poll = Duration::from_millis(cli.poll_ms.unwrap_or(50));
    match serve::wait(&dir, id, timeout, poll) {
        Ok(serve::WaitOutcome::Response(response)) => match response.outcome {
            serve::ServeOutcome::Ok { degraded, accounting, body } => {
                eprintln!(
                    "serve {id}: reused {} of {} planned run(s), executed {}, reused-live {}",
                    accounting.reused,
                    accounting.planned,
                    accounting.executed,
                    accounting.reused_live
                );
                let mut stdout = std::io::stdout();
                if stdout.write_all(&body).and_then(|()| stdout.flush()).is_err() {
                    std::process::exit(4);
                }
                std::process::exit(if degraded && cli.strict { 3 } else { 0 });
            }
            serve::ServeOutcome::Rejected(reject) => {
                eprintln!("serve {id}: rejected ({reject})");
                std::process::exit(1);
            }
        },
        Ok(serve::WaitOutcome::TimedOut) => {
            eprintln!(
                "serve {id}: no response within {}s",
                timeout.as_secs()
            );
            std::process::exit(7);
        }
        Err(e) => journal_exit(&e),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args);

    match cli.targets.first().map(String::as_str) {
        Some("list") => {
            if cli.targets.len() > 1 {
                bail("`list` takes no further targets");
            }
            print_list(cli.scale);
            return;
        }
        Some("status") => {
            if cli.targets.len() > 1 {
                bail("`status` takes no further targets");
            }
            run_status(&cli);
        }
        Some("compact") => {
            if cli.targets.len() > 1 {
                bail("`compact` takes no further targets");
            }
            run_compact(&cli);
        }
        Some("bench") => {
            if cli.targets.len() > 1 {
                bail("`bench` takes no further targets");
            }
            run_bench(&cli);
        }
        Some("guard") => {
            if cli.targets.len() > 1 {
                bail("`guard` takes no further targets");
            }
            run_guard_sweep(&cli);
        }
        Some("chaos") => {
            if cli.targets.len() > 1 {
                bail("`chaos` takes no further targets");
            }
            run_chaos(&cli);
        }
        Some("journal-chaos") => {
            if cli.targets.len() > 1 {
                bail("`journal-chaos` takes no further targets");
            }
            run_journal_chaos(&cli);
        }
        Some("conform") => {
            if cli.targets.len() > 1 {
                bail("`conform` takes no further targets");
            }
            run_conform(&cli);
        }
        Some("serve") => {
            if cli.targets.len() > 1 {
                bail("`serve` takes no further targets");
            }
            run_serve(&cli);
        }
        Some("submit") => run_submit(&cli),
        Some("wait") => run_wait(&cli),
        _ => {}
    }

    // Validate and expand the experiment selection.
    let mut selected: Vec<String> = if cli.targets.is_empty() {
        vec!["all".to_string()]
    } else {
        cli.targets.clone()
    };
    if selected.iter().any(|t| t == "all") {
        selected = TARGETS.iter().map(|(n, _)| n.to_string()).collect();
    }
    for t in &selected {
        if !is_target(t) {
            bail(&format!("unknown target `{t}`"));
        }
    }

    // One plan for everything selected: dedup + subsumption across
    // experiments, then a single pool execution.
    let selection = cli.dispatch.clone().unwrap_or_default();
    let plan = Plan::build(
        selected
            .iter()
            .flat_map(|t| requests_for_with(t, cli.scale, &selection)),
    );
    let journaling = cli.cache_dir.is_some() || cli.resume;
    if cli.crash_after.is_some() && !journaling {
        bail("--crash-after requires --cache-dir or --resume");
    }
    let executed = if journaling {
        let dir = cli.cache_dir_or_default();
        let mut jconfig = JournalConfig::new(&dir)
            .with_resume(cli.resume)
            .with_lock_timeout(cli.lock_timeout_or_default());
        if let Some(n) = cli.crash_after {
            jconfig = jconfig.with_crash_after(n);
        }
        match execute_journaled(&plan, cli.jobs, &cli.supervise_config(), &jconfig) {
            Ok((executed, report)) => {
                eprint!("{}", render_resume_report(&report, &dir));
                executed
            }
            Err(e) => journal_exit(&e),
        }
    } else {
        execute_supervised(&plan, cli.jobs, &cli.supervise_config())
    };
    eprint!("{}", render_timings(&executed));
    // Empty when nothing failed; otherwise the typed per-slot report.
    eprint!("{}", render_failures(&executed));

    // Render in canonical order regardless of the order given. Degraded
    // slots print their `DEGRADED(<kind>)` markers in place, so the
    // report is always complete.
    for (name, _) in TARGETS {
        if selected.iter().any(|t| t == name) {
            print!(
                "{}",
                render_target_with(name, &executed.store, cli.scale, &selection)
            );
        }
    }
    if cli.strict && executed.is_degraded() {
        std::process::exit(3);
    }
}
