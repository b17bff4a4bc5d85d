//! Cross-job-count determinism: the renderings `repro` prints must be
//! byte-identical whether the shared plan ran on one worker or many.
//! This holds structurally — plan order is a pure function of the
//! request set, and artifacts land in per-index slots — but the property
//! is the whole point of the engine, so pin it end to end.

use interp_core::{Language, RunRequest, WorkloadId};
use interp_harness::{ablations, arch, figures, memmodel, table1, table2, tiered, Scale};
use interp_guard::Limits;
use interp_runplan::{
    execute, render_failures, supervise_with, try_run_request, with_quiet_injected_panics, Plan,
    SuperviseConfig,
};

#[test]
fn table_renderings_are_byte_identical_across_job_counts() {
    let scale = Scale::Test;
    let plan = Plan::build(
        table1::requests(scale)
            .into_iter()
            .chain(table2::requests(scale)),
    );
    assert_eq!(
        plan.len(),
        30 + 24,
        "micro and macro pipeline suites are disjoint"
    );

    let serial = execute(&plan, 1);
    let parallel = execute(&plan, 8);
    assert_eq!(serial.jobs, 1);
    assert!(parallel.jobs > 1, "plan is large enough to use many workers");

    let render = |store| {
        format!(
            "{}{}",
            table1::render(&table1::table1_from(store, scale)),
            table2::render(&table2::table2_from(store, scale))
        )
    };
    let a = render(&serial.store);
    let b = render(&parallel.store);
    assert!(!a.is_empty());
    assert_eq!(a, b, "renderings must not depend on the worker count");
}

/// Trace recording is a pure function of the program, not of worker
/// scheduling: the tiered experiment's plan — which runs Javelin's
/// macro suite under the trace-recording tier — must produce
/// content-identical artifacts (trace counters included) and a
/// byte-identical rendering at `--jobs 1` and `--jobs 8`.
#[test]
fn tiered_artifacts_are_byte_identical_across_job_counts() {
    let scale = Scale::Test;
    let plan = Plan::build(tiered::requests(scale));
    let serial = execute(&plan, 1);
    let parallel = execute(&plan, 8);
    for request in plan.requests() {
        let a = serial.store.resolve(request).expect("serial artifact");
        let b = parallel.store.resolve(request).expect("parallel artifact");
        assert_eq!(
            a.content_hash(),
            b.content_hash(),
            "{request}: artifact content depends on the worker count"
        );
    }
    assert_eq!(
        tiered::render_from(&serial.store, scale),
        tiered::render_from(&parallel.store, scale),
        "tiered rendering must not depend on the worker count"
    );
}

/// The supervision acceptance property, end to end at the renderer
/// layer: a deliberately panicking workload injected into the full
/// `repro all` plan still yields a complete report — every table
/// renders, the poisoned cells degrade to `DEGRADED(panicked)` — and
/// that degraded report is byte-identical on 1 worker vs 8.
#[test]
fn degraded_repro_all_report_is_complete_and_byte_identical() {
    let scale = Scale::Test;
    let plan = Plan::build(
        table1::requests(scale)
            .into_iter()
            .chain(table2::requests(scale))
            .chain(figures::requests(scale))
            .chain(memmodel::requests(scale))
            .chain(arch::fig3_requests(scale))
            .chain(arch::fig4_requests(scale))
            .chain(ablations::requests(scale)),
    );
    // Poison a pipeline run that table2/fig3 read directly and whose
    // counting twin fig1/fig2/memmodel resolve through subsumption, so
    // one panic degrades cells across many tables at once.
    let poison = RunRequest::pipeline(WorkloadId::macro_bench(Language::Tclite, "des", scale));
    assert!(plan.requests().contains(&poison));
    let config = SuperviseConfig::new().with_retries(1);
    let run = |request: &RunRequest, _attempt: u32| {
        if *request == poison {
            panic!("chaos: deliberate test panic in the shared plan");
        }
        Ok(try_run_request(request, Limits::unlimited()).expect("planned run"))
    };
    let render = |jobs: usize| {
        let executed = with_quiet_injected_panics(|| supervise_with(&plan, jobs, &config, run));
        let s = &executed.store;
        let report = format!(
            "{}{}{}{}{}{}{}{}",
            table1::render(&table1::table1_from(s, scale)),
            table2::render(&table2::table2_from(s, scale)),
            figures::render_fig1(&figures::fig1_from(s, scale)),
            figures::render_fig2(&figures::fig2_from(s, scale)),
            memmodel::render(&memmodel::memmodel_from(s, scale)),
            arch::render_fig3(&arch::fig3_from(s, scale)),
            arch::render_fig4(&arch::fig4_from(s, scale)),
            ablations::render_from(s, scale),
        );
        (report, render_failures(&executed))
    };

    let (serial_report, serial_failures) = render(1);
    let (parallel_report, parallel_failures) = render(8);
    assert_eq!(
        serial_report, parallel_report,
        "degraded report must not depend on the worker count"
    );
    assert_eq!(serial_failures, parallel_failures);

    // Complete: the poisoned workload degraded its cells — directly and
    // through subsumption — while every other row rendered numerically.
    assert!(serial_report.contains("DEGRADED(panicked)"), "{serial_report}");
    assert!(serial_failures.contains("panicked on attempt 0"), "{serial_failures}");
    assert_eq!(
        serial_report.matches("DEGRADED").count(),
        5,
        "table2 + fig1 + fig2 + memmodel + fig3 each degrade one row:\n{serial_report}"
    );
}
