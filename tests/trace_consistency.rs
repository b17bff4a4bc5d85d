//! Cross-crate invariant: the statistics the machine reports and the
//! instruction stream the sink receives are two views of the same events,
//! for every interpreter in the workspace.

use std::sync::OnceLock;

use interpreters::core::{
    CmdStats, CountingSink, DispatchStrategy, Language, NullSink, Phase, RunStats, TeeSink,
    VecSink, WorkloadId,
};
use interpreters::guard::Limits;
use interpreters::host::Machine;
use interpreters::workloads::{compiled_suite, macro_suite, run_macro, Runner, Scale};

#[test]
fn stats_and_sink_agree_for_every_interpreter() {
    for lang in Language::ALL {
        let result = run_macro(lang, "des", Scale::Test, CountingSink::default());
        assert_eq!(
            result.stats.instructions, result.sink.instructions,
            "{lang}: stats vs sink instruction counts"
        );
        assert_eq!(
            result.stats.loads, result.sink.loads,
            "{lang}: load counts"
        );
        assert_eq!(
            result.stats.stores, result.sink.stores,
            "{lang}: store counts"
        );
    }
}

/// Every test-scale macro workload (the compiled C set included) on its
/// engine's default dispatch tier, plus MIPSI's and Javelin's `a=b+c`
/// micro on the naive tier, run once and shared by the tests below.
fn suite_runs() -> &'static [(WorkloadId, RunStats)] {
    static RUNS: OnceLock<Vec<(WorkloadId, RunStats)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs: Vec<_> = macro_suite(Scale::Test)
            .into_iter()
            .chain(compiled_suite(Scale::Test).into_iter().filter(|id| id.name != "des"))
            .map(|id| (id, DispatchStrategy::default_for(id.language)))
            .collect();
        for lang in [Language::Mipsi, Language::Javelin] {
            runs.push((WorkloadId::micro(lang, "a=b+c", Scale::Test), DispatchStrategy::Naive));
        }
        runs.into_iter()
            .map(|(id, dispatch)| {
                let run = Runner::try_run_dispatch(id, Limits::unlimited(), dispatch, NullSink)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                (id, run.stats)
            })
            .collect()
    })
}

#[test]
fn phases_partition_all_instructions() {
    for (id, stats) in suite_runs() {
        let by_phase: u64 = Phase::ALL
            .iter()
            .map(|&p| stats.phase_instructions(p))
            .sum();
        assert_eq!(
            by_phase, stats.instructions,
            "{id}: phases must partition the instruction count"
        );
    }
}

#[test]
fn per_command_counters_sum_to_phase_totals() {
    for (id, stats) in suite_runs() {
        let sum = |pick: fn(&CmdStats) -> u64| -> u64 {
            stats.commands_iter().map(|(_, s)| pick(&s)).sum()
        };
        // Execute and native work only ever runs inside a command.
        assert_eq!(
            sum(|s| s.execute),
            stats.phase_instructions(Phase::Execute),
            "{id}: execute"
        );
        assert_eq!(
            sum(|s| s.native),
            stats.phase_instructions(Phase::Native),
            "{id}: native"
        );
        // Fetch/decode is credited to a command once it is identified;
        // none is ever credited twice.
        let fd_sum = sum(|s| s.fetch_decode);
        let fd_total = stats.phase_instructions(Phase::FetchDecode);
        assert!(fd_sum <= fd_total, "{id}: {fd_sum} of {fd_total} fetch/decode");
        // Engines that decode one command per loop trip leave only the
        // trailing loop-exit work unattributed.
        if matches!(id.language, Language::C | Language::Mipsi | Language::Javelin) {
            let unattributed = fd_total - fd_sum;
            assert!(
                unattributed <= 1,
                "{id}: {unattributed} of {fd_total} fetch/decode instructions unattributed"
            );
        }
    }
}

#[test]
fn trace_pcs_stay_inside_declared_text() {
    // Every instruction-fetch address an interpreter generates must fall
    // inside the text segment its routines declared.
    let mut machine = Machine::new(TeeSink::new(VecSink::default(), NullSink));
    let mut tcl = interpreters::tclite::Tclite::new(&mut machine);
    tcl.run("set s 0\nfor {set i 0} {$i < 5} {incr i} { set s [expr $s + $i] }\nputs $s")
        .unwrap();
    drop(tcl);
    let text_end = interpreters::host::TEXT_BASE + machine.layout().text_bytes();
    let (_, sink) = machine.into_parts();
    assert!(!sink.a.trace.is_empty());
    for rec in &sink.a.trace {
        assert!(
            rec.pc >= interpreters::host::TEXT_BASE && rec.pc < text_end,
            "pc {:#x} outside text [{:#x}, {:#x})",
            rec.pc,
            interpreters::host::TEXT_BASE,
            text_end
        );
    }
}

#[test]
fn deterministic_runs_produce_identical_counters() {
    for lang in [Language::Tclite, Language::Perlite] {
        let a = run_macro(lang, "des", Scale::Test, NullSink);
        let b = run_macro(lang, "des", Scale::Test, NullSink);
        assert_eq!(a.stats.instructions, b.stats.instructions, "{lang}");
        assert_eq!(a.stats.commands, b.stats.commands, "{lang}");
        assert_eq!(a.console, b.console, "{lang}");
    }
}
