//! The supervised worker pool: execute a [`Plan`] on `std::thread::scope`
//! threads (no external dependencies) with deterministic result ordering,
//! per-run timing, panic isolation, a fuel deadline, and bounded retries.
//!
//! Every slot's execution is wrapped in `catch_unwind`; a panicking or
//! fuel-starved run becomes a typed [`RunFailure`] in its slot instead of
//! killing the whole plan. Failures classified transient are re-queued in
//! plan order for up to [`SuperviseConfig::retries`] extra rounds, so the
//! final store content is a pure function of the request set, the runner,
//! and the retry budget — never of the worker count or finish order.

use crate::exec;
use crate::plan::Plan;
use crate::store::ArtifactStore;
use crate::supervise::{RunFailure, SuperviseConfig};
use interp_core::{RunArtifact, RunRequest};
use interp_guard::{GuardError, Limits};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one planned run went: wall time across every attempt, and how
/// many attempts the supervisor spent on it.
#[derive(Debug, Clone, Copy)]
pub struct RunTiming {
    /// The executed request.
    pub request: RunRequest,
    /// Wall-clock duration summed over all attempts of the run.
    pub duration: Duration,
    /// Attempts executed (1 for a first-try success; up to
    /// `retries + 1` for a run that kept failing transiently).
    pub attempts: u32,
}

/// The result of executing a [`Plan`]: the artifact store (successful
/// and degraded slots) plus the timing report that makes the parallel
/// speedup — and the retry spend — visible.
#[derive(Debug, Clone)]
pub struct ExecutedPlan {
    /// Memoized results, one slot per planned request.
    pub store: ArtifactStore,
    /// Per-run timings in plan order.
    pub timings: Vec<RunTiming>,
    /// Wall-clock time for the whole plan.
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
}

impl ExecutedPlan {
    /// Sum of per-run durations — the serial cost the pool amortized.
    pub fn cpu_time(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }

    /// Number of slots that stayed failed after retries.
    pub fn failure_count(&self) -> usize {
        self.store.failures().count()
    }

    /// True if any slot degraded — the `--strict` exit-code signal.
    pub fn is_degraded(&self) -> bool {
        self.failure_count() > 0
    }
}

/// Worker count to use when the user does not say: the machine's
/// available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Execute `plan` with the real workload runner under `config`: the
/// fuel deadline rides in on `Limits::max_host_steps`, and a
/// `HostStepBudget` trip under a configured fuel deadline classifies as
/// [`crate::FailureKind::DeadlineExceeded`].
pub fn execute_supervised(plan: &Plan, jobs: usize, config: &SuperviseConfig) -> ExecutedPlan {
    let fuel = config.timeout_fuel;
    supervise_with(plan, jobs, config, move |request, attempt| {
        exec::try_run_request(request, deadline_limits(fuel))
            .map_err(|e| classify_guard_failure(e, attempt, fuel.is_some()))
    })
}

/// The per-attempt [`Limits`] a fuel deadline implies.
pub fn deadline_limits(timeout_fuel: Option<u64>) -> Limits {
    match timeout_fuel {
        Some(fuel) => Limits::unlimited().with_max_host_steps(fuel),
        None => Limits::unlimited(),
    }
}

/// Map a typed guard fault from one attempt into the supervisor's
/// failure taxonomy: a host-step budget trip under a configured fuel
/// deadline is a deadline, everything else a fault.
pub fn classify_guard_failure(
    error: GuardError,
    attempt: u32,
    fuel_deadline: bool,
) -> RunFailure {
    match &error {
        GuardError::HostStepBudget { .. } if fuel_deadline => {
            RunFailure::deadline(attempt, error.to_string())
        }
        _ => RunFailure::faulted(attempt, error.to_string()),
    }
}

/// Run `work` over `items` on up to `jobs` scoped worker threads and
/// return the results in item order. Each slot is isolated behind
/// `catch_unwind`: a panicking item yields `Err(panic message)` in its
/// slot instead of poisoning its worker or aborting the batch. This is
/// the one fan-out in the crate: every round of [`supervise_with`] and
/// the serve daemon's `--serve-jobs` concurrent request execution run
/// on it.
pub fn run_concurrently<T, R, F>(items: &[T], jobs: usize, work: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, items.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::SeqCst);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = catch_unwind(AssertUnwindSafe(|| work(item)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                let mut slot = slots[index]
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                *slot = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| Err("scope joined with an unfilled slot".to_string()))
        })
        .collect()
}

/// The supervision core: execute `plan` on `jobs` workers with a
/// fallible per-attempt runner, under `config`'s retry and deadline
/// policy.
///
/// Workers claim requests from a shared cursor, so long runs do not
/// convoy behind short ones; results land in *plan order* regardless of
/// completion order. Retries happen in rounds — round `r` re-runs, in
/// plan order, every slot whose round-`r-1` failure was transient — so
/// each slot's attempt count and final result are independent of the
/// worker count, keeping every downstream rendering byte-stable across
/// job counts. A panic is caught at the slot boundary and quarantines
/// the slot as [`crate::FailureKind::Panicked`], with a zero duration.
pub fn supervise_with<F>(
    plan: &Plan,
    jobs: usize,
    config: &SuperviseConfig,
    run: F,
) -> ExecutedPlan
where
    F: Fn(&RunRequest, u32) -> Result<RunArtifact, RunFailure> + Sync,
{
    let requests = plan.requests();
    let n = requests.len();
    let jobs = jobs.clamp(1, n.max(1));
    let started = Instant::now();

    let mut results: Vec<Option<Result<RunArtifact, RunFailure>>> = Vec::new();
    results.resize_with(n, || None);
    let mut durations = vec![Duration::ZERO; n];
    let mut attempts = vec![0u32; n];

    // Round r executes attempt r of every still-pending slot; the queue
    // is always a plan-order subset of indices, so scheduling stays a
    // pure function of the failure history.
    let mut queue: Vec<usize> = (0..n).collect();
    let mut round: u32 = 0;
    while !queue.is_empty() {
        let outcomes = run_concurrently(&queue, jobs, |&i| {
            let begun = Instant::now();
            let result = run(&requests[i], round);
            (result, begun.elapsed())
        });
        let mut next = Vec::new();
        for (&i, outcome) in queue.iter().zip(outcomes) {
            let (outcome, elapsed) = outcome.unwrap_or_else(|message| {
                (Err(RunFailure::panicked(round, message)), Duration::ZERO)
            });
            attempts[i] += 1;
            durations[i] += elapsed;
            match outcome {
                Err(ref failure) if failure.kind.is_transient() && round < config.retries => {
                    next.push(i);
                }
                final_result => results[i] = Some(final_result),
            }
        }
        queue = next;
        round += 1;
    }

    let mut store = ArtifactStore::new();
    let mut timings = Vec::with_capacity(n);
    for (i, request) in requests.iter().enumerate() {
        match results[i].take() {
            Some(Ok(artifact)) => store.insert(*request, artifact),
            Some(Err(failure)) => store.insert_failure(*request, failure),
            // Unreachable by construction — every index passes through
            // exactly one round that fills it — but a missing slot must
            // degrade, not panic.
            None => store.insert_failure(
                *request,
                RunFailure::panicked(round, "supervisor finished with an unfilled slot"),
            ),
        }
        timings.push(RunTiming {
            request: *request,
            duration: durations[i],
            attempts: attempts[i],
        });
    }
    ExecutedPlan {
        store,
        timings,
        wall: started.elapsed(),
        jobs,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Render the per-run timing report (slowest first) plus the
/// serial-vs-parallel summary line.
pub fn render_timings(executed: &ExecutedPlan) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut rows: Vec<&RunTiming> = executed.timings.iter().collect();
    rows.sort_by(|a, b| b.duration.cmp(&a.duration).then(a.request.cmp(&b.request)));
    let _ = writeln!(
        out,
        "run plan: {} runs on {} worker(s)",
        executed.timings.len(),
        executed.jobs
    );
    for t in rows {
        let retry = if t.attempts > 1 {
            format!("  ({} attempts)", t.attempts)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  {:>9.3}s  {}{retry}",
            t.duration.as_secs_f64(),
            t.request
        );
    }
    let cpu = executed.cpu_time().as_secs_f64();
    let wall = executed.wall.as_secs_f64();
    let _ = writeln!(
        out,
        "  total run time {cpu:.3}s, wall {wall:.3}s ({:.2}x)",
        if wall > 0.0 { cpu / wall } else { 1.0 }
    );
    out
}

/// Render the plan-level failure report: one line per degraded slot, in
/// deterministic store order; empty if nothing degraded. `repro` prints
/// this to stderr after the tables.
pub fn render_failures(executed: &ExecutedPlan) -> String {
    use std::fmt::Write as _;
    let failures: Vec<_> = executed.store.failures().collect();
    if failures.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "plan degraded: {} of {} run(s) failed after retries",
        failures.len(),
        executed.store.len()
    );
    for (request, failure) in failures {
        let _ = writeln!(out, "  {request}: {failure}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{Language, Scale, WorkloadId};

    fn requests(n: usize) -> Vec<RunRequest> {
        // Distinct micro names are not needed — distinct scales/languages
        // suffice to make distinct requests; use the macro registry names.
        let names = ["des", "compress", "eqntott", "espresso", "li"];
        (0..n)
            .map(|i| {
                RunRequest::pipeline(WorkloadId::macro_bench(
                    Language::Mipsi,
                    names[i % names.len()],
                    if i / names.len() == 0 { Scale::Test } else { Scale::Paper },
                ))
            })
            .collect()
    }

    /// Supervise `plan` with an infallible runner under the default
    /// policy.
    fn execute_with<F>(plan: &Plan, jobs: usize, run: F) -> ExecutedPlan
    where
        F: Fn(&RunRequest) -> RunArtifact + Sync,
    {
        supervise_with(plan, jobs, &SuperviseConfig::new(), |request, _attempt| {
            Ok(run(request))
        })
    }

    #[test]
    fn every_planned_request_executes_exactly_once() {
        let plan = Plan::build(
            // Feed heavy duplication: every request three times.
            requests(8).into_iter().flat_map(|r| [r, r, r]),
        );
        let counter = AtomicUsize::new(0);
        let executed = execute_with(&plan, 4, |_req| {
            counter.fetch_add(1, Ordering::Relaxed);
            interp_core::RunArtifact::empty()
        });
        assert_eq!(counter.load(Ordering::Relaxed), plan.len());
        assert_eq!(executed.store.len(), plan.len());
        assert_eq!(executed.timings.len(), plan.len());
        assert!(!executed.is_degraded());
        assert!(executed.timings.iter().all(|t| t.attempts == 1));
    }

    #[test]
    fn artifacts_land_in_plan_order_for_any_job_count() {
        let plan = Plan::build(requests(10));
        for jobs in [1, 2, 8, 64] {
            let executed = execute_with(&plan, jobs, |req| {
                let mut art = interp_core::RunArtifact::empty();
                // Tag the artifact so order can be checked.
                art.program_bytes = req.workload.name.len();
                art
            });
            let got: Vec<usize> = plan
                .requests()
                .iter()
                .map(|r| executed.store.get(r).expect("stored").program_bytes)
                .collect();
            let want: Vec<usize> = plan
                .requests()
                .iter()
                .map(|r| r.workload.name.len())
                .collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn timing_render_mentions_job_count_and_totals() {
        let plan = Plan::build(requests(3));
        let executed = execute_with(&plan, 2, |_| interp_core::RunArtifact::empty());
        let text = render_timings(&executed);
        assert!(text.contains("3 runs on 2 worker(s)"), "{text}");
        assert!(text.contains("total run time"), "{text}");
        assert_eq!(render_failures(&executed), "");
    }

    #[test]
    fn empty_plan_executes_to_empty_store() {
        let executed = execute_with(&Plan::build([]), 8, |_| interp_core::RunArtifact::empty());
        assert!(executed.store.is_empty());
        assert!(executed.timings.is_empty());
    }

    #[test]
    fn fuel_deadline_classifies_host_step_budget() {
        let err = GuardError::HostStepBudget { executed: 1000, cap: 1000 };
        let with_fuel = classify_guard_failure(err.clone(), 2, true);
        assert_eq!(with_fuel.kind, crate::FailureKind::DeadlineExceeded);
        assert_eq!(with_fuel.attempt, 2);
        // Without a configured fuel deadline, the same trip is a plain
        // fault (some other limit policy tripped it).
        let without = classify_guard_failure(err, 0, false);
        assert_eq!(without.kind, crate::FailureKind::Faulted);
        assert_eq!(
            deadline_limits(Some(42)),
            Limits::unlimited().with_max_host_steps(42)
        );
        assert_eq!(deadline_limits(None), Limits::unlimited());
    }

    #[test]
    fn run_concurrently_preserves_order_and_isolates_panics() {
        let items: Vec<usize> = (0..17).collect();
        for jobs in [1, 3, 32] {
            let results = crate::chaos::with_quiet_injected_panics(|| {
                run_concurrently(&items, jobs, |&n| {
                    assert!(n != 13, "chaos: unlucky");
                    n * 2
                })
            });
            assert_eq!(results.len(), items.len());
            for (n, result) in items.iter().zip(&results) {
                if *n == 13 {
                    assert_eq!(
                        *result,
                        Err("chaos: unlucky".to_string()),
                        "a panicking item must yield its panic message"
                    );
                } else {
                    assert_eq!(*result, Ok(n * 2), "jobs={jobs} item={n}");
                }
            }
        }
        assert!(run_concurrently(&Vec::<usize>::new(), 4, |&n| n).is_empty());
    }
}
