//! The served workload: one in-process `serve()` daemon (one worker,
//! default poll) over a warm cache, driven by one closed-loop client
//! that submits the requests the service-mode recipes in EXPERIMENTS.md
//! submit and waits for each response before the next. Nothing is
//! interpreted: every run is already journaled, so each request costs
//! the inbox scan, claim, journal load, render and publish.
//!
//! The daemon sleeps its poll interval after every scan, so a closed
//! loop's request waits out most of that sleep before it is claimed.
//! The end-to-end times are therefore service times, from the daemon's
//! claim to the client holding the response; the whole turnaround,
//! poll wait included, is reported per layer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use interp_core::{RunRequest, Scale};
use interp_guard::Rng64;
use interp_harness::experiments::{all_requests, requests_for, ExperimentService, TARGETS};
use interp_runplan::serve::{
    self, PlanService, Reject, ServeConfig, ServeOutcome, ServeReport, ServeRequest, WaitOutcome,
};
use interp_runplan::{
    current_epoch, default_jobs, execute_journaled, load_file, ArtifactStore, ExecutedPlan,
    JournalConfig, JournalError, Plan, SuperviseConfig,
};

use crate::check::{self, INTERPRETERS};
use crate::reference::{put_host_times, HostSpeed};
use crate::stats::{median, ms, pct, quantile, ratio, Metrics};
use crate::trace::{span_cost_ns, Tracer};
use crate::{probes, Args, Outcome};

/// Side-cache set-ups before the first round; one more runs before
/// each round. `setup_s` is the median of all of them.
const SETUP_REPS: usize = 4;

/// One round of the request mix: every `repro submit` of the
/// service-mode sections of EXPERIMENTS.md, once each. `table2` and
/// `fig4` are the notebook and the cron job of the serve section,
/// `table1 fig3` is its recipe, and `all` and `fig4` come from the fleet
/// recipe. That recipe's `--priority` and `--deadline-ms` are left out:
/// one closed-loop client never has two requests queued for a priority
/// to reorder, and a deadline only changes a request that expires.
const MIX: [&[&str]; 5] = [
    &["table2"],
    &["fig4"],
    &["table1", "fig3"],
    &["all"],
    &["fig4"],
];

/// Reference-loop timings before each round.
const REFERENCE_REPS: usize = 2;

/// How long one request may take before it counts as failed.
const WAIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The client's outbox poll: each `serve::wait` call lasts `CLIENT_WAIT`
/// and starts polling at `CLIENT_POLL`.
const CLIENT_WAIT: Duration = Duration::from_millis(2);
const CLIENT_POLL: Duration = Duration::from_millis(1);

const JOURNAL: &str = "artifacts.journal";

fn warm_dir(work: &Path) -> PathBuf {
    work.join("warm")
}

/// The targets a selection names (`all` is every target).
fn expand(selection: &[&'static str]) -> Vec<&'static str> {
    if selection == ["all"] {
        TARGETS.iter().map(|(t, _)| *t).collect()
    } else {
        selection.to_vec()
    }
}

/// The raw run requests of a selection, as the daemon's service asks
/// for them.
fn selection_requests(selection: &[&'static str]) -> Vec<RunRequest> {
    expand(selection)
        .iter()
        .flat_map(|t| requests_for(t, Scale::Test))
        .collect()
}

/// Every plan the workload needs journaled: `all` (the batch render the
/// responses are checked against) and each selection of the mix (a
/// selection's counting runs are not always subsumed by the pipeline
/// runs of its own plan, so they are journaled under their own
/// fingerprints).
fn mix_plans() -> Vec<Plan> {
    std::iter::once(all_requests(Scale::Test))
        .chain(MIX.iter().map(|sel| selection_requests(sel)))
        .map(Plan::build)
        .collect()
}

/// What the warm cache was filled for: the journal epoch and the
/// fingerprints of every planned run.
fn warm_stamp() -> String {
    let runs: u64 = mix_plans()
        .iter()
        .flat_map(|p| {
            p.requests()
                .iter()
                .map(RunRequest::fingerprint)
                .collect::<Vec<_>>()
        })
        .fold(0u64, |acc, f| acc.rotate_left(5) ^ f);
    format!("{} {runs:016x}", current_epoch())
}

/// Fill the warm cache (every run any request of the mix needs,
/// journaled) unless one for this code's plans is already there.
pub fn ensure_warm_cache(work: &Path) -> Result<(), String> {
    let warm = warm_dir(work);
    let stamp = warm.join("EPOCH");
    let expected = warm_stamp();
    if std::fs::read_to_string(&stamp).is_ok_and(|s| s == expected) {
        return Ok(());
    }
    let fill = work.join(format!("warm-fill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fill);
    for plan in mix_plans() {
        let (executed, _) = execute_journaled(
            &plan,
            default_jobs().min(2),
            &SuperviseConfig::new(),
            &JournalConfig::new(&fill).with_resume(true),
        )
        .map_err(|e| format!("fill: {e}"))?;
        if executed.is_degraded() {
            return Err(format!(
                "{} run(s) degraded while filling",
                executed.failure_count()
            ));
        }
    }
    std::fs::write(fill.join("EPOCH"), &expected).map_err(|e| format!("stamp: {e}"))?;
    let _ = std::fs::remove_dir_all(&warm);
    std::fs::rename(&fill, &warm).map_err(|e| format!("publish {}: {e}", warm.display()))
}

/// The warm store, as the batch CLI would hold it after `repro all`.
fn warm_store(work: &Path) -> Result<ArtifactStore, String> {
    let loaded = load_file(&warm_dir(work).join(JOURNAL), current_epoch())
        .map_err(|e| format!("warm journal: {e}"))?;
    let mut store = ArtifactStore::new();
    for request in mix_plans().iter().flat_map(|p| p.requests().to_vec()) {
        match loaded.records.get(&request.fingerprint()) {
            Some(record) if record.label == request.label() => {
                store.insert(request, record.artifact.clone());
            }
            _ => {
                return Err(format!(
                    "warm journal lacks {request}; run `perfbench warm`"
                ))
            }
        }
    }
    Ok(store)
}

/// One generated request: its wire form and which selection it asks for.
struct Generated {
    seq: u64,
    request: ServeRequest,
    /// Index into [`MIX`].
    selection: usize,
}

/// What the client expects of each selection of [`MIX`].
struct Selections {
    /// Expected body per selection (the batch render of it).
    bodies: Vec<String>,
    /// Simulated native instructions behind each selection's runs.
    instructions: Vec<u64>,
    /// Raw requests and planned runs per selection (one round's worth).
    requests: Vec<(usize, usize)>,
}

impl Selections {
    fn new(store: &ArtifactStore, renders: &BTreeMap<&'static str, String>) -> Selections {
        let mut bodies = Vec::new();
        let mut instructions = Vec::new();
        let mut requests = Vec::new();
        for sel in MIX {
            bodies.push(expand(sel).iter().map(|t| renders[t].as_str()).collect());
            let raw = selection_requests(sel);
            let raw_len = raw.len();
            let plan = Plan::build(raw);
            instructions.push(
                plan.requests()
                    .iter()
                    .filter_map(|r| store.get(r))
                    .map(|a| a.stats.instructions)
                    .sum(),
            );
            requests.push((raw_len, plan.len()));
        }
        Selections {
            bodies,
            instructions,
            requests,
        }
    }

    /// The seeded request sequence: rounds that each hold every
    /// selection of the mix once, in seeded order. Request `n` is a pure
    /// function of `(seed, n)`.
    fn generate(seed: u64, round: u64) -> Vec<Generated> {
        let mut rng = Rng64::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order: Vec<usize> = (0..MIX.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(0, i + 1));
        }
        order
            .into_iter()
            .enumerate()
            .map(|(i, selection)| {
                let seq = round * MIX.len() as u64 + i as u64;
                Generated {
                    seq,
                    request: ServeRequest::new(
                        format!("s{seed}-{seq:06}"),
                        MIX[selection],
                        Scale::Test,
                    ),
                    selection,
                }
            })
            .collect()
    }
}

/// The registry's service with timestamps around its calls. The
/// daemon calls `plan` right after it claims a request, so the `plan`
/// call starts the request's service time; traced, it also records
/// spans for `plan`, the daemon's journaled execution (the gap between
/// `plan` returning and `render` being called) and `render`.
struct TimedService<'a> {
    tracer: &'a Tracer,
    /// When the daemon began serving each request, by sequence number.
    claimed_at: Mutex<BTreeMap<u64, Instant>>,
    planned_at: Mutex<BTreeMap<u64, Instant>>,
}

fn seq_of(request: &ServeRequest) -> u64 {
    request
        .id
        .rsplit('-')
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

impl TimedService<'_> {
    /// When the daemon began serving request `seq`, if it has.
    fn claimed(&self, seq: u64) -> Option<Instant> {
        self.claimed_at
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&seq)
    }
}

impl PlanService for TimedService<'_> {
    fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject> {
        let started = Instant::now();
        let seq = seq_of(request);
        self.claimed_at
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(seq, started);
        let plan = ExperimentService.plan(request);
        let done = Instant::now();
        self.tracer.record("plan", seq, started, done);
        self.planned_at
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(seq, done);
        plan
    }

    fn render(&self, request: &ServeRequest, executed: &ExecutedPlan) -> String {
        let started = Instant::now();
        let seq = seq_of(request);
        let planned = self
            .planned_at
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&seq);
        if let Some(planned) = planned {
            self.tracer.record("journal", seq, planned, started);
        }
        let body = ExperimentService.render(request, executed);
        self.tracer.record("render", seq, started, Instant::now());
        body
    }
}

/// One request's client-side result.
struct Served {
    seq: u64,
    selection: usize,
    /// Submit to parsed response.
    turnaround: Duration,
    /// The daemon's claim to the parsed response.
    service: Duration,
    ok: bool,
}

/// Submit `g` and wait for its response; check it against the batch
/// render of the same selection.
fn round_trip(
    dir: &Path,
    g: &Generated,
    sel: &Selections,
    service: &TimedService,
    tracer: &Tracer,
) -> Served {
    let started = Instant::now();
    let submitted = tracer.span("submit", g.seq, None, || serve::submit(dir, &g.request));
    let waited = wait(dir, &g.request.id);
    let received = Instant::now();
    let turnaround = received - started;
    tracer.record("turnaround", g.seq, started, received);
    let claimed = service.claimed(g.seq);
    let ok = match (submitted, waited) {
        (Ok(_), Ok(WaitOutcome::Response(response))) => match response.outcome {
            ServeOutcome::Ok {
                degraded,
                accounting,
                body,
            } => {
                let matches = body == sel.bodies[g.selection].as_bytes();
                if !matches {
                    eprintln!(
                        "perfbench: {} body differs from the batch render",
                        g.request.id
                    );
                }
                if accounting.executed > 0 {
                    eprintln!(
                        "perfbench: {} executed {} run(s)",
                        g.request.id, accounting.executed
                    );
                }
                if claimed.is_none() {
                    eprintln!("perfbench: {} was answered without a plan", g.request.id);
                }
                !degraded && accounting.executed == 0 && matches && claimed.is_some()
            }
            ServeOutcome::Rejected(reject) => {
                eprintln!("perfbench: {} rejected: {reject}", g.request.id);
                false
            }
        },
        (Ok(_), Ok(WaitOutcome::TimedOut)) => {
            eprintln!("perfbench: {} timed out", g.request.id);
            false
        }
        (submitted, waited) => {
            eprintln!(
                "perfbench: {} failed: {:?} / {:?}",
                g.request.id,
                submitted.err(),
                waited.err()
            );
            false
        }
    };
    let _ = std::fs::remove_file(
        dir.join(serve::OUTBOX_DIR)
            .join(format!("{}.resp", g.request.id)),
    );
    Served {
        seq: g.seq,
        selection: g.selection,
        turnaround,
        service: claimed.map_or(turnaround, |at| received.saturating_duration_since(at)),
        ok,
    }
}

/// `serve::wait` for `id`, re-armed with a short timeout so the outbox
/// is polled every millisecond or so: a single long `wait` backs off
/// exponentially, which would quantize turnarounds into its growing
/// poll intervals.
fn wait(dir: &Path, id: &str) -> Result<WaitOutcome, JournalError> {
    let deadline = Instant::now() + WAIT_TIMEOUT;
    loop {
        match serve::wait(dir, id, CLIENT_WAIT, CLIENT_POLL)? {
            WaitOutcome::TimedOut if Instant::now() < deadline => {}
            outcome => return Ok(outcome),
        }
    }
}

/// Wait until the daemon at `dir` has entered its scan loop. Its first
/// heartbeat is written after start-up has swept stale stop markers; a
/// stop requested before that point would be swept with them.
fn wait_ready(dir: &Path) -> Result<(), String> {
    let heartbeat = dir.join(serve::HEARTBEAT_FILE);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !heartbeat.exists() {
        if Instant::now() > deadline {
            return Err("daemon did not start".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Fresh cache holding a copy of the warm journal.
fn fresh_cache(dir: &Path, warm_journal: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::fs::copy(warm_journal, dir.join(JOURNAL)).map_err(|e| format!("copy journal: {e}"))?;
    Ok(())
}

/// Run the served workload.
pub fn run(args: &Args, goldens: &BTreeMap<&'static str, String>) -> Result<Outcome, String> {
    let work = args.work_dir();
    let store = warm_store(&work)?;
    let renders = check::render_targets(&expand(&["all"]), &store);
    let mut failed = check::expect_goldens("warm-cache", &renders, goldens, check::GOLDENS.len());
    let sel = Selections::new(&store, &renders);
    let warm_journal = warm_dir(&work).join(JOURNAL);
    let dir = work.join("served-cache");
    let tracer = Tracer::new(args.trace);
    let service = TimedService {
        tracer: &tracer,
        claimed_at: Mutex::new(BTreeMap::new()),
        planned_at: Mutex::new(BTreeMap::new()),
    };
    let mut config = ServeConfig::new(&dir);
    config.jobs = 1;

    let side = work.join("served-setup");
    let mut side_config = ServeConfig::new(&side);
    side_config.jobs = 1;

    let mut setups = Vec::new();
    let mut served = Vec::new();
    let mut host = HostSpeed::new();
    let report: Result<ServeReport, String> = std::thread::scope(|scope| {
        // Set-up: a fresh cache holding the warm journal, and a daemon
        // started until its first heartbeat. The measured daemon is the
        // first; more set-ups run in a side cache, before the first round
        // and between rounds, so set-up is sampled across the run.
        let started = Instant::now();
        fresh_cache(&dir, &warm_journal)?;
        let daemon = scope.spawn(|| serve::serve(&config, &service));
        let side_setup = |setups: &mut Vec<f64>| -> Result<(), String> {
            let started = Instant::now();
            fresh_cache(&side, &warm_journal)?;
            let handle = scope.spawn(|| serve::serve(&side_config, &ExperimentService));
            wait_ready(&side)?;
            setups.push(started.elapsed().as_secs_f64());
            serve::request_stop(&side).map_err(|e| format!("stop: {e}"))?;
            match handle.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("set-up daemon: {e}")),
                Err(_) => Err("set-up daemon panicked".into()),
            }
        };
        let mut measure = || -> Result<(), String> {
            wait_ready(&dir)?;
            setups.push(started.elapsed().as_secs_f64());
            for _ in 0..SETUP_REPS {
                side_setup(&mut setups)?;
            }
            host.sample(REFERENCE_REPS);
            let started = Instant::now();
            let mut round = 0u64;
            while started.elapsed().as_secs_f64() < args.seconds {
                side_setup(&mut setups)?;
                host.sample(REFERENCE_REPS);
                for g in Selections::generate(args.seed, round) {
                    if daemon.is_finished() {
                        return Ok(());
                    }
                    served.push(round_trip(&dir, &g, &sel, &service, &tracer));
                }
                round += 1;
            }
            Ok(())
        };
        // Stop the measured daemon whatever happened, so the scope can
        // join it.
        let measured = measure();
        serve::request_stop(&dir).map_err(|e| format!("stop: {e}"))?;
        let report = match daemon.join() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        };
        measured.and(report)
    });
    let report = report?;
    if served.len() < MIX.len() {
        return Err("the daemon stopped before a whole round was served".into());
    }
    let measured_spans = tracer.spans().len();

    failed += served.iter().filter(|s| !s.ok).count() as u64;
    let mut attempted = (served.len() + check::GOLDENS.len()) as u64;
    // As in the counting workload, `p50_ms` is the median of every
    // sample, while `p90_ms` and `wall_s` use each request kind's best
    // time over the run: contention on the shared host comes and goes
    // within seconds, and the `all` request's service time (where
    // `p90_ms` falls) ranges over a factor of two within one run.
    let service_ms: Vec<f64> = served.iter().map(|s| ms(s.service)).collect();
    let mut best_ms = [f64::INFINITY; MIX.len()];
    for s in &served {
        best_ms[s.selection] = best_ms[s.selection].min(ms(s.service));
    }
    let at_best: Vec<f64> = served.iter().map(|s| best_ms[s.selection]).collect();
    let wall_s = best_ms.iter().sum::<f64>() / 1e3;
    let raw = [
        ("setup_s", median(&setups)),
        ("wall_s", wall_s),
        ("p50_ms", median(&service_ms)),
        ("p90_ms", quantile(&at_best, 0.9)),
        ("req_per_s", ratio(MIX.len() as f64, wall_s)),
        (
            "sim_minsns_per_s",
            ratio(sel.instructions.iter().sum::<u64>() as f64, wall_s) / 1e6,
        ),
    ];
    let mut m = Metrics::default();
    put_host_times(&mut m, &raw, &host);
    for lang in INTERPRETERS {
        m.put(
            format!("insns_per_cmd.{}", lang.tag()),
            check::insns_per_cmd(&store, lang),
        );
    }

    if args.trace {
        m.put("host.reference_ms", host.best_ms());
        failed += layers(&tracer, &served, &sel, &report, &store, &dir, &mut m);
        attempted += probes::PROBE_INPUTS;
        let total_ms: f64 = served.iter().map(|s| ms(s.turnaround)).sum();
        m.put(
            "trace.overhead_pct",
            pct(measured_spans as f64 * span_cost_ns() / 1e6, total_ms),
        );
        m.put("trace.spans", measured_spans as f64);
        let path = work
            .join("trace")
            .join(format!("served-seed{}.jsonl", args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Split each request's turnaround into the poll wait (submit to
/// claim), plan, journal, render and the rest of the serve path
/// (claim, publish, client pickup). Returns the probes' failures.
fn layers(
    tracer: &Tracer,
    served: &[Served],
    sel: &Selections,
    report: &ServeReport,
    store: &ArtifactStore,
    dir: &Path,
    m: &mut Metrics,
) -> u64 {
    let by_seq = |name: &str| -> BTreeMap<u64, f64> {
        tracer
            .named(name)
            .iter()
            .map(|s| (s.group, s.ms()))
            .collect()
    };
    let (plan, journal, render, submit) = (
        by_seq("plan"),
        by_seq("journal"),
        by_seq("render"),
        by_seq("submit"),
    );
    let get = |map: &BTreeMap<u64, f64>, seq: u64| map.get(&seq).copied().unwrap_or(0.0);
    let turnaround: Vec<f64> = served.iter().map(|s| ms(s.turnaround)).collect();
    let poll_wait: Vec<f64> = served
        .iter()
        .map(|s| ms(s.turnaround.saturating_sub(s.service)))
        .collect();
    let overhead: Vec<f64> = served
        .iter()
        .map(|s| ms(s.turnaround) - get(&plan, s.seq) - get(&journal, s.seq) - get(&render, s.seq))
        .collect();
    let values = |map: &BTreeMap<u64, f64>| map.values().copied().collect::<Vec<f64>>();
    m.put("serve.submit_ms", median(&values(&submit)));
    m.put("serve.turnaround_ms.p50", quantile(&turnaround, 0.5));
    m.put("serve.turnaround_ms.p90", quantile(&turnaround, 0.9));
    m.put("serve.poll_wait_ms", median(&poll_wait));
    m.put("serve.overhead_ms", median(&overhead));
    m.put("serve.rejected", report.rejected as f64);
    m.put("serve.requeued", report.requeued as f64);
    let service_ms: Vec<f64> = served.iter().map(|s| ms(s.service)).collect();
    m.put("journal.load_ms", median(&values(&journal)));
    m.put(
        "journal.p50_share_pct",
        pct(median(&values(&journal)), quantile(&service_ms, 0.5)),
    );
    m.put("render.ms", median(&values(&render)));
    m.put("plan.build_ms", median(&values(&plan)));
    let (raw, planned) = sel
        .requests
        .iter()
        .fold((0, 0), |(r, p), (raw, planned)| (r + raw, p + planned));
    m.put("plan.dedup_ratio", 1.0 - ratio(planned as f64, raw as f64));
    let total: f64 = turnaround.iter().sum();
    let poll_total: f64 = poll_wait.iter().sum();
    let journal_total: f64 = values(&journal).iter().sum();
    let render_total: f64 = values(&render).iter().sum();
    m.put("share.interp_pct", 0.0);
    m.put("share.poll_pct", pct(poll_total, total));
    m.put("share.journal_pct", pct(journal_total, total));
    m.put("share.render_pct", pct(render_total, total));
    m.put(
        "share.other_pct",
        pct(
            (total - poll_total - journal_total - render_total).max(0.0),
            total,
        ),
    );
    for lang in INTERPRETERS {
        m.put(
            format!("cycles_per_cmd.{}", lang.tag()),
            check::cycles_per_cmd(store, lang),
        );
    }
    let artifacts: Vec<_> = store.iter().map(|(_, a)| a).collect();
    probes::codec(m, &artifacts);
    m.put("lock.acquire_ms", probes::lock_acquire_ms(dir));
    probes::common(m)
}
