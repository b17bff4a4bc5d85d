//! Request execution: dispatch one [`RunRequest`] to the unified
//! [`Runner`] facade with the concrete sink its [`SinkKind`] names, and
//! fold the sink's measurements into the sink-independent
//! [`RunArtifact`].

use interp_archsim::{CacheSweep, PipelineReport, PipelineSim, SimConfig, StallCause};
use interp_core::{
    CycleSummary, RunArtifact, RunRequest, SinkKind, StallShare, SweepPointSummary,
};
use interp_guard::{GuardError, Limits};
use interp_workloads::Runner;

/// Execute one request under `limits` and return its memoizable
/// artifact, with every failure — unknown name, compile error, limit
/// trip, failed self-check — as a typed [`GuardError`]. The supervised
/// pool calls this so a fuel deadline (`limits.max_host_steps`) stops a
/// wedged run cooperatively at its next guard poll.
pub fn try_run_request(
    request: &RunRequest,
    limits: Limits,
) -> Result<RunArtifact, GuardError> {
    let workload = request.workload;
    let dispatch = request.dispatch;
    match request.sink {
        SinkKind::Counting => {
            Runner::try_run_dispatch(workload, limits, dispatch, interp_core::NullSink)
                .map(|r| r.base_artifact())
        }
        SinkKind::Pipeline => {
            let result =
                Runner::try_run_dispatch(workload, limits, dispatch, PipelineSim::alpha_21064())?;
            let mut artifact = result.base_artifact();
            artifact.cycles = Some(cycle_summary(&result.sink.report()));
            Ok(artifact)
        }
        SinkKind::PipelineWideItlb => {
            let sim = PipelineSim::new(SimConfig::default().with_itlb_entries(32));
            let result = Runner::try_run_dispatch(workload, limits, dispatch, sim)?;
            let mut artifact = result.base_artifact();
            artifact.cycles = Some(cycle_summary(&result.sink.report()));
            Ok(artifact)
        }
        SinkKind::ICacheSweep => {
            let result = Runner::try_run_dispatch(workload, limits, dispatch, CacheSweep::figure4())?;
            let mut artifact = result.base_artifact();
            artifact.sweep = Some(
                result
                    .sink
                    .points()
                    .into_iter()
                    .map(|p| SweepPointSummary {
                        size_bytes: p.size_bytes,
                        assoc: p.assoc,
                        miss_per_100: p.miss_per_100,
                    })
                    .collect(),
            );
            Ok(artifact)
        }
    }
}

/// Fold a pipeline report into the sink-independent summary, preserving
/// the model's stall stacking order.
fn cycle_summary(report: &PipelineReport) -> CycleSummary {
    CycleSummary {
        cycles: report.cycles,
        instructions: report.instructions,
        busy_fraction: report.busy_fraction(),
        stalls: StallCause::ALL
            .iter()
            .map(|&cause| StallShare {
                label: cause.label(),
                fraction: report.stall_fraction(cause),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{Language, Scale, WorkloadId};

    fn des() -> WorkloadId {
        WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test)
    }

    fn run_request(request: &RunRequest) -> RunArtifact {
        try_run_request(request, Limits::unlimited()).expect("planned run")
    }

    #[test]
    fn counting_artifact_has_counters_but_no_timing() {
        let art = run_request(&RunRequest::counting(des()));
        assert!(art.stats.instructions > 1000);
        assert!(art.console.ok);
        assert!(art.cycles.is_none());
        assert!(art.sweep.is_none());
    }

    #[test]
    fn pipeline_artifact_adds_cycles_without_changing_counters() {
        let counting = run_request(&RunRequest::counting(des()));
        let pipeline = run_request(&RunRequest::pipeline(des()));
        // The subsumption soundness property: identical counters and
        // console, timing added on top.
        assert_eq!(counting.stats.instructions, pipeline.stats.instructions);
        assert_eq!(counting.stats.commands, pipeline.stats.commands);
        assert_eq!(counting.console, pipeline.console);
        let cycles = pipeline.cycle_summary();
        assert!(cycles.cycles > 0);
        assert_eq!(cycles.stalls.len(), StallCause::ALL.len());
    }

    #[test]
    fn sweep_artifact_carries_the_figure4_grid() {
        let art = run_request(&RunRequest::new(des(), SinkKind::ICacheSweep));
        let points = art.sweep_points();
        assert_eq!(points.len(), 12, "4 sizes x 3 associativities");
    }

    #[test]
    fn wide_itlb_artifact_reports_itlb_stalls() {
        let art = run_request(&RunRequest::new(des(), SinkKind::PipelineWideItlb));
        // Just shape: the summary exists and knows the itlb label.
        let s = art.cycle_summary();
        assert!(s.stall_fraction("itlb") >= 0.0);
    }
}
