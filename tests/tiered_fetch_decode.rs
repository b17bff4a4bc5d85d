//! Cross-layer invariant of Javelin's trace tier: a compiled trace only
//! removes fetch/decode work, so on every program the tiered tier is
//! charged no more fetch/decode instructions than the naive switch
//! interpreter. Checked per program over every test-scale Javelin
//! workload the `repro all` plan runs, not only as a suite sum.

use std::collections::BTreeSet;

use interpreters::core::{DispatchStrategy, Language, NullSink, Phase, WorkloadId, WorkloadKind};
use interpreters::guard::Limits;
use interpreters::harness::experiments::all_requests;
use interpreters::workloads::{Runner, Scale};

fn fetch_decode(id: WorkloadId, dispatch: DispatchStrategy) -> u64 {
    let run = Runner::try_run_dispatch(id, Limits::unlimited(), dispatch, NullSink)
        .unwrap_or_else(|e| panic!("{id} {}: {e}", dispatch.label()));
    run.stats.phase_instructions(Phase::FetchDecode)
}

#[test]
fn the_trace_tier_never_charges_more_fetch_decode_than_naive() {
    let workloads: BTreeSet<WorkloadId> = all_requests(Scale::Test)
        .into_iter()
        .map(|request| request.workload)
        .filter(|id| id.language == Language::Javelin)
        .collect();
    for kind in [WorkloadKind::Macro, WorkloadKind::Micro] {
        assert!(
            workloads.iter().any(|id| id.kind == kind),
            "the plan runs no Javelin {kind:?} workload: {workloads:?}"
        );
    }
    for id in workloads {
        let naive = fetch_decode(id, DispatchStrategy::Naive);
        let tiered = fetch_decode(id, DispatchStrategy::Tiered);
        assert!(
            tiered <= naive,
            "{id}: tiered fetch/decode {tiered} exceeds naive {naive}"
        );
    }
}
