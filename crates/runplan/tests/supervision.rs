//! Supervision properties of the run-plan pool: panic quarantine,
//! fuel-deadline enforcement, deterministic bounded retries, and
//! job-count-invariant degraded reporting.

use interp_core::{Language, RunArtifact, RunRequest, Scale, WorkloadId};
use interp_runplan::{
    render_failures, supervise_with, FailureKind, Plan, ResolveError, RunFailure,
    SuperviseConfig,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A plan over distinct pipeline requests named after the macro registry.
fn plan(n: usize) -> Plan {
    let names = ["des", "compress", "eqntott", "espresso", "li"];
    Plan::build((0..n).map(|i| {
        RunRequest::pipeline(WorkloadId::macro_bench(
            Language::Mipsi,
            names[i % names.len()],
            if i / names.len() == 0 { Scale::Test } else { Scale::Paper },
        ))
    }))
}

fn artifact_for(request: &RunRequest) -> RunArtifact {
    let mut art = RunArtifact::empty();
    art.program_bytes = request.workload.name.len();
    art
}

#[test]
fn panicking_workload_quarantines_without_killing_the_plan() {
    let plan = plan(5);
    let poison = plan.requests()[2];
    let executions = AtomicUsize::new(0);
    // Plenty of retry budget — the point is that panics must not use it.
    let config = SuperviseConfig::new().with_retries(3);
    let executed = supervise_with(&plan, 4, &config, |request, _attempt| {
        if *request == poison {
            executions.fetch_add(1, Ordering::Relaxed);
            panic!("deliberate test panic in {request}");
        }
        Ok(artifact_for(request))
    });

    // The panicking slot is degraded with the panic message; every other
    // slot completed normally.
    match executed.store.resolve(&poison) {
        Err(ResolveError::Degraded(failure)) => {
            assert_eq!(failure.kind, FailureKind::Panicked);
            assert_eq!(failure.attempt, 0, "panics must quarantine on attempt 0");
            assert!(failure.detail.contains("deliberate test panic"), "{failure}");
        }
        other => panic!("expected Degraded(Panicked), got {other:?}"),
    }
    assert_eq!(executions.load(Ordering::Relaxed), 1, "quarantine means no retries");
    for request in plan.requests() {
        if *request != poison {
            assert!(executed.store.resolve(request).is_ok(), "{request} degraded");
        }
    }
    assert_eq!(executed.failure_count(), 1);
    let report = render_failures(&executed);
    assert!(report.contains("1 of 5 run(s) failed"), "{report}");
    assert!(report.contains("panicked on attempt 0"), "{report}");
}

#[test]
fn transient_failure_recovers_on_retry_two_with_exact_accounting() {
    let plan = plan(6);
    let flaky = plan.requests()[4];
    let per_attempt = Mutex::new(BTreeMap::<u32, usize>::new());
    let config = SuperviseConfig::new().with_retries(2);
    let executed = supervise_with(&plan, 3, &config, |request, attempt| {
        if *request == flaky {
            *per_attempt
                .lock()
                .expect("probe lock")
                .entry(attempt)
                .or_insert(0) += 1;
            if attempt < 2 {
                return Err(RunFailure::faulted(attempt, "injected transient fault"));
            }
        }
        Ok(artifact_for(request))
    });

    // The run recovered: the final slot is a normal artifact.
    let art = executed.store.resolve(&flaky).expect("recovered on retry 2");
    assert_eq!(art.program_bytes, flaky.workload.name.len());
    assert!(!executed.is_degraded());
    assert_eq!(render_failures(&executed), "");

    // Exactly-once per round: attempts 0, 1, 2 each executed once.
    let counts = per_attempt.lock().expect("probe lock").clone();
    assert_eq!(counts, BTreeMap::from([(0, 1), (1, 1), (2, 1)]));
    let timing = executed
        .timings
        .iter()
        .find(|t| t.request == flaky)
        .expect("timing row");
    assert_eq!(timing.attempts, 3);
    // Healthy rows spent exactly one attempt.
    assert!(executed
        .timings
        .iter()
        .filter(|t| t.request != flaky)
        .all(|t| t.attempts == 1));
}

#[test]
fn degraded_output_is_byte_identical_across_job_counts() {
    let plan = plan(10);
    // Deterministic mixed failure pattern, a pure function of the
    // request and attempt: every third request panics, every fourth
    // faults persistently, one request recovers on its retry.
    let run = |request: &RunRequest, attempt: u32| {
        let ix = plan
            .requests()
            .iter()
            .position(|r| r == request)
            .expect("planned");
        match ix % 4 {
            1 if ix % 3 == 1 => Err(RunFailure::faulted(attempt, "persistent fault")),
            _ if ix % 3 == 0 && ix > 0 => {
                panic!("deliberate test panic at slot {ix}")
            }
            2 if attempt == 0 => Err(RunFailure::faulted(attempt, "flaky fault")),
            _ => Ok(artifact_for(request)),
        }
    };
    let config = SuperviseConfig::new().with_retries(1);
    let render = |jobs: usize| {
        let executed = supervise_with(&plan, jobs, &config, run);
        let mut cells = String::new();
        for request in plan.requests() {
            let cell = match executed.store.resolve(request) {
                Ok(art) => format!("{}", art.program_bytes),
                Err(ResolveError::Degraded(f)) => f.cell(),
                Err(ResolveError::Unplanned(_)) => panic!("{request} went missing"),
            };
            cells.push_str(&format!("{request} = {cell}\n"));
        }
        cells.push_str(&render_failures(&executed));
        let attempts: Vec<u32> = executed.timings.iter().map(|t| t.attempts).collect();
        (cells, attempts)
    };

    let (serial_cells, serial_attempts) = render(1);
    let (parallel_cells, parallel_attempts) = render(8);
    assert_eq!(serial_cells, parallel_cells, "degraded tables diverged across job counts");
    assert_eq!(serial_attempts, parallel_attempts, "retry accounting diverged");
    // Sanity: the pattern actually produced each degradation kind.
    assert!(serial_cells.contains("DEGRADED(panicked)"), "{serial_cells}");
    assert!(serial_cells.contains("DEGRADED(faulted)"), "{serial_cells}");
    assert!(serial_cells.contains("plan degraded:"), "{serial_cells}");
}

#[test]
fn fuel_deadline_stops_a_real_wedged_run_deterministically() {
    // A real workload under starvation fuel: the cooperative deadline
    // trips inside the interpreter at the same poll every time.
    let wedged = RunRequest::counting(WorkloadId::macro_bench(
        Language::Mipsi,
        "des",
        Scale::Test,
    ));
    let plan = Plan::build([wedged]);
    let config = SuperviseConfig::new().with_retries(1).with_timeout_fuel(1_000);
    let first = interp_runplan::execute_supervised(&plan, 1, &config);
    let second = interp_runplan::execute_supervised(&plan, 2, &config);
    for executed in [&first, &second] {
        match executed.store.resolve(&wedged) {
            Err(ResolveError::Degraded(failure)) => {
                assert_eq!(failure.kind, FailureKind::DeadlineExceeded);
                assert_eq!(failure.attempt, 1, "deadline is transient: retried once");
                assert!(failure.detail.contains("host step budget"), "{failure}");
            }
            other => panic!("expected Degraded(DeadlineExceeded), got {other:?}"),
        }
    }
    // Deterministic: both runs record the identical failure.
    let fail = |e: &interp_runplan::ExecutedPlan| {
        e.store.failures().map(|(_, f)| f.clone()).collect::<Vec<_>>()
    };
    assert_eq!(fail(&first), fail(&second));
}
