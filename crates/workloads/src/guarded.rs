//! The guarded runner: the same workloads, machine set-up and engines
//! as [`crate::runner`] (it calls the runner's one run function), behind
//! a panic barrier and with deterministic fault injection — every
//! ending, good or bad, comes back as a structured [`RunOutcome`]
//! instead of a crash.
//!
//! This is the entry point the fault-injection harness (`repro guard`)
//! sweeps: corrupt a guest according to a seeded [`FaultPlan`], run it
//! under bounded [`Limits`], and report exactly how it ended. A
//! [`GuardedRun`] carries the same [`RunArtifact`] shape as an unguarded
//! run — counters, interned commands, console digest — captured as far as
//! the run got, wrapped in the [`RunOutcome`] that says how it ended.
//! Unlike the runner it applies no `BAD` self-check: a corrupted guest
//! that completes with a wrong answer is still a completion.

use interp_core::{
    DispatchFault, DispatchStrategy, Language, NullSink, RunArtifact, WorkloadId, WorkloadKind,
};
use interp_guard::{FaultPlan, GuardError, Limits, RunOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::runner::{guest, macro_names, run_source_dispatch, Scale};

/// Everything a guarded run reports: the structured ending plus the same
/// memoizable artifact shape normal runs produce.
#[derive(Debug, Clone)]
pub struct GuardedRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Counters, commands, and console digest as far as the run got;
    /// [`RunArtifact::empty`] if the guest did not compile or the run
    /// died in a panic before the machine could be inspected.
    pub artifact: RunArtifact,
}

/// How a supervisor should react to a [`RunOutcome`]: retry, quarantine,
/// or accept. This is the single classification point the run-plan pool
/// and the chaos harness share, so their retry policies cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The run completed; nothing to do.
    Success,
    /// A fault that a clean re-run can plausibly clear: an injected
    /// corruption, a tripped limit, a lost artifact. Worth bounded,
    /// deterministic retries.
    Transient,
    /// A fault retrying cannot fix: the program itself is bad, or the
    /// interpreter panicked (its state is suspect). Quarantine at once.
    Permanent,
}

/// Classify `outcome` for the supervisor's retry policy.
pub fn classify(outcome: &RunOutcome) -> FailureClass {
    match outcome {
        RunOutcome::Completed { .. } => FailureClass::Success,
        RunOutcome::Faulted(GuardError::BadProgram { .. }) => FailureClass::Permanent,
        RunOutcome::Faulted(_) => FailureClass::Transient,
        RunOutcome::Panicked(_) => FailureClass::Permanent,
    }
}

/// Every workload the guarded runner accepts for `language`, as typed
/// [`WorkloadId`]s — the same registry the experiments run, so guard
/// sweeps and experiments cannot drift apart.
pub fn guarded_suite(language: Language, scale: Scale) -> Vec<WorkloadId> {
    macro_names(language)
        .iter()
        .map(|&name| WorkloadId::macro_bench(language, name, scale))
        .collect()
}

/// Run one macro workload under `limits` with `plan`'s corruption
/// applied, converting every possible ending into a [`RunOutcome`].
///
/// Never panics: interpreter panics are caught at the boundary and
/// reported as [`RunOutcome::Panicked`] (a robustness bug to fix, but a
/// reportable one).
pub fn run_guarded(workload: WorkloadId, limits: Limits, plan: &FaultPlan) -> GuardedRun {
    if workload.kind != WorkloadKind::Macro
        || !macro_names(workload.language).contains(&workload.name)
    {
        return GuardedRun {
            outcome: RunOutcome::Faulted(GuardError::BadProgram {
                lang: workload.language.tag(),
                detail: format!(
                    "unknown guarded workload `{}` ({})",
                    workload.name,
                    workload.kind.label()
                ),
            }),
            artifact: RunArtifact::empty(),
        };
    }
    let plan = *plan;
    let result = catch_unwind(AssertUnwindSafe(move || {
        let guest = guest(workload)?;
        run_source_dispatch(
            workload.language,
            guest,
            limits,
            DispatchStrategy::Naive,
            DispatchFault::None,
            &plan,
            NullSink,
        )
    }));
    let (outcome, artifact) = match result {
        Ok(Ok((result, exit))) => (
            exit.map_or_else(RunOutcome::Faulted, |exit| RunOutcome::Completed { exit }),
            result.base_artifact(),
        ),
        // The guest never reached a machine: it did not compile.
        Ok(Err(e)) => (RunOutcome::Faulted(e), RunArtifact::empty()),
        Err(payload) => (
            RunOutcome::Panicked(panic_message(payload.as_ref())),
            RunArtifact::empty(),
        ),
    };
    GuardedRun { outcome, artifact }
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

#[cfg(test)]
mod tests {
    use super::*;
    use interp_guard::FaultKind;

    fn des(language: Language) -> WorkloadId {
        WorkloadId::macro_bench(language, "des", Scale::Test)
    }

    #[test]
    fn clean_runs_complete_for_every_interpreter() {
        for lang in Language::ALL {
            let run = run_guarded(des(lang), Limits::guarded(), &FaultPlan::none());
            assert!(
                matches!(run.outcome, RunOutcome::Completed { .. }),
                "{lang} des under no-fault plan: {}",
                run.outcome
            );
            assert!(
                run.artifact.stats.instructions > 1000,
                "{lang}: {} insns",
                run.artifact.stats.instructions
            );
            assert!(run.artifact.console.ok, "{lang}: self-check digest not ok");
            assert!(run.artifact.program_bytes > 0, "{lang}: no program bytes");
        }
    }

    #[test]
    fn guarded_artifact_matches_unguarded_run() {
        // A clean guarded run must report the same counters and console
        // digest as the normal runner, on every engine: one workload API,
        // one shape.
        for lang in Language::ALL {
            let id = des(lang);
            let guarded = run_guarded(id, Limits::guarded(), &FaultPlan::none());
            let normal = crate::runner::Runner::try_run_dispatch(
                id,
                Limits::unlimited(),
                DispatchStrategy::Naive,
                NullSink,
            )
            .expect("clean run")
            .base_artifact();
            assert_eq!(
                guarded.artifact.stats.instructions, normal.stats.instructions,
                "{lang}"
            );
            assert_eq!(guarded.artifact.stats.commands, normal.stats.commands, "{lang}");
            assert_eq!(guarded.artifact.console, normal.console, "{lang}");
            assert_eq!(guarded.artifact.program_bytes, normal.program_bytes, "{lang}");
        }
    }

    #[test]
    fn unknown_workload_is_a_typed_fault() {
        let run = run_guarded(
            WorkloadId::macro_bench(Language::Tclite, "no-such-workload", Scale::Test),
            Limits::guarded(),
            &FaultPlan::none(),
        );
        assert!(
            matches!(run.outcome, RunOutcome::Faulted(GuardError::BadProgram { .. })),
            "{}",
            run.outcome
        );
        // Micro workloads are not guardable either.
        let run = run_guarded(
            WorkloadId::micro(Language::Tclite, "a=b+c", Scale::Test),
            Limits::guarded(),
            &FaultPlan::none(),
        );
        assert!(
            matches!(run.outcome, RunOutcome::Faulted(GuardError::BadProgram { .. })),
            "{}",
            run.outcome
        );
    }

    #[test]
    fn command_budget_is_honored_within_one() {
        for lang in Language::ALL {
            let cap = 50u64;
            let run = run_guarded(
                des(lang),
                Limits::guarded().with_max_commands(cap),
                &FaultPlan::none(),
            );
            match run.outcome {
                RunOutcome::Faulted(GuardError::CommandBudget { executed, .. }) => {
                    assert!(
                        executed >= cap && executed <= cap + 1,
                        "{lang}: tripped at {executed}, cap {cap}"
                    );
                    assert!(
                        run.artifact.stats.commands <= cap + 1,
                        "{lang}: dispatched {} commands past cap {cap}",
                        run.artifact.stats.commands
                    );
                }
                ref other => panic!("{lang}: expected CommandBudget, got {other}"),
            }
        }
    }

    #[test]
    fn injected_alloc_failure_faults_not_panics() {
        let plan = FaultPlan { seed: 1, kind: FaultKind::AllocFail { nth: 5 } };
        for lang in Language::ALL {
            let run = run_guarded(des(lang), Limits::guarded(), &plan);
            assert!(
                run.outcome.is_structured(),
                "{lang} alloc-fail: {}",
                run.outcome
            );
        }
    }

    #[test]
    fn truncated_tcl_source_faults_or_completes() {
        let plan = FaultPlan { seed: 9, kind: FaultKind::Truncate };
        let run = run_guarded(des(Language::Tclite), Limits::guarded(), &plan);
        assert!(run.outcome.is_structured(), "{}", run.outcome);
    }

    #[test]
    fn guarded_suite_enumerates_the_macro_registry() {
        for lang in Language::ALL {
            let suite = guarded_suite(lang, Scale::Test);
            assert_eq!(suite.len(), macro_names(lang).len());
            for id in suite {
                assert_eq!(id.language, lang);
                assert_eq!(id.kind, WorkloadKind::Macro);
                // Every enumerated id must be accepted by the runner's
                // validation (clean plan, tiny budget to stay fast).
                let run = run_guarded(
                    id,
                    Limits::guarded().with_max_commands(5),
                    &FaultPlan::none(),
                );
                assert!(
                    !matches!(
                        run.outcome,
                        RunOutcome::Faulted(GuardError::BadProgram { .. })
                    ),
                    "{id}: registry id rejected: {}",
                    run.outcome
                );
            }
        }
    }
}
