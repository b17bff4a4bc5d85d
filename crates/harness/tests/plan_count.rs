//! Regression pin on the deduplicated size of the `repro all` plan.
//!
//! The planner's dedup + pipeline-subsumes-counting rules decide how
//! many interpreter runs the full report costs. This count changing is
//! fine *when it is intentional* (a new experiment, a new workload); a
//! silent change means a planner regression quietly re-inflating (or
//! dropping) work. Update the constant together with the change that
//! moves it, and say why in the commit.

use interp_harness::experiments::{all_requests, requests_for, TARGETS};
use interp_harness::Scale;
use interp_runplan::Plan;

/// `repro all --scale test` runs exactly this many deduplicated runs.
/// (79 before the dispatch-tier family; +33 for the non-naive strategy
/// variants of the macro suites — naive rows dedup against table2's;
/// +5 for Javelin's tiered macro suite — the `tiered` family's naive
/// and threaded rows dedup against table2's and dispatch's; +8 for the
/// ablation probes — three Tcl symbol-table configurations, each a
/// setup-only and a setup-plus-loop run, and two Perl precompilation
/// runs. The dispatch ablation's MIPSI `des` counting runs are subsumed
/// by the `dispatch` target's pipeline runs and add nothing.)
const EXPECTED_TEST_RUNS: usize = 125;

#[test]
fn repro_all_test_scale_plan_count_is_pinned() {
    let plan = Plan::build(all_requests(Scale::Test));
    assert_eq!(
        plan.len(),
        EXPECTED_TEST_RUNS,
        "the deduplicated `repro all --scale test` plan changed size; if \
         intentional, update EXPECTED_TEST_RUNS and explain in the commit"
    );
}

#[test]
fn dedup_actually_collapses_shared_requests() {
    // The union of per-target request lists is strictly larger than the
    // deduplicated plan — otherwise dedup is doing nothing and the pin
    // above pins the wrong property.
    let raw: usize = TARGETS
        .iter()
        .map(|(name, _)| requests_for(name, Scale::Test).len())
        .sum();
    let plan = Plan::build(all_requests(Scale::Test));
    assert!(
        plan.len() < raw,
        "plan ({}) not smaller than raw request union ({raw})",
        plan.len()
    );
}
