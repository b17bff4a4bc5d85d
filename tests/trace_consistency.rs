//! Cross-crate invariant: the statistics the machine reports and the
//! instruction stream the sink receives are two views of the same events,
//! for every interpreter in the workspace.

use interpreters::core::{
    CountingSink, DispatchStrategy, Language, NullSink, TeeSink, VecSink, WorkloadId,
};
use interpreters::guard::Limits;
use interpreters::host::Machine;
use interpreters::workloads::{run_macro, Runner, Scale};

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

#[test]
fn phases_partition_all_instructions() {
    use interpreters::core::Phase;
    for lang in Language::ALL {
        let result = run_macro(lang, "des", Scale::Test, NullSink);
        let by_phase: u64 = Phase::ALL
            .iter()
            .map(|&p| result.stats.phase_instructions(p))
            .sum();
        assert_eq!(
            by_phase, result.stats.instructions,
            "{lang}: phases must partition the instruction count"
        );
    }
}

#[test]
fn per_command_counters_sum_to_phase_totals() {
    use interpreters::core::Phase;
    for lang in [Language::Mipsi, Language::Javelin] {
        let micro = WorkloadId::micro(lang, "a=b+c", Scale::Test);
        let result =
            Runner::try_run_dispatch(micro, Limits::unlimited(), DispatchStrategy::Naive, NullSink)
                .expect("micro run");
        let fd_sum: u64 = result
            .stats
            .commands_iter()
            .map(|(_, s)| s.fetch_decode)
            .sum();
        let fd_total = result.stats.phase_instructions(Phase::FetchDecode);
        // Commands receive fetch/decode retroactively; only trailing
        // loop-exit work may be unattributed.
        let unattributed = fd_total - fd_sum;
        assert!(
            (unattributed as f64) < 0.05 * fd_total as f64,
            "{lang}: {unattributed} of {fd_total} fetch/decode instructions unattributed"
        );
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
