//! The host machine has two charging paths: a sink that reads records
//! (`CountingSink`) is handed every instruction one record at a time,
//! while a sink that reads none (`NullSink`) takes `alu_n` runs in bulk.
//! Both must leave exactly the same counters, on every interpreter and
//! every dispatch tier it implements.

use interpreters::core::serial::ByteWriter;
use interpreters::core::{
    CountingSink, DispatchStrategy, Language, NullSink, Phase, RunStats, WorkloadId,
};
use interpreters::guard::Limits;
use interpreters::workloads::{Runner, Scale};

/// One small macro workload per language (the cheapest at test scale).
fn workload(language: Language) -> WorkloadId {
    let name = match language {
        Language::C => "des",
        Language::Mipsi => "espresso",
        Language::Javelin => "hanoi",
        Language::Perlite => "plexus",
        Language::Tclite => "hanoi",
    };
    WorkloadId::macro_bench(language, name, Scale::Test)
}

fn encoded(stats: &RunStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    stats.encode_into(&mut w);
    w.into_bytes()
}

#[test]
fn bulk_and_per_record_charging_leave_identical_counters() {
    for language in Language::ALL {
        let id = workload(language);
        for &dispatch in DispatchStrategy::supported_by(language) {
            let what = format!("{id} {}", dispatch.label());
            let bulk = Runner::try_run_dispatch(id, Limits::unlimited(), dispatch, NullSink)
                .unwrap_or_else(|e| panic!("{what} (NullSink): {e}"));
            let single = Runner::try_run_dispatch(
                id,
                Limits::unlimited(),
                dispatch,
                CountingSink::default(),
            )
            .unwrap_or_else(|e| panic!("{what} (CountingSink): {e}"));
            let (b, s) = (&bulk.stats, &single.stats);
            assert_eq!(b.instructions, s.instructions, "{what}: instructions");
            for phase in Phase::ALL {
                assert_eq!(
                    b.phase_instructions(phase),
                    s.phase_instructions(phase),
                    "{what}: {phase:?} instructions"
                );
            }
            let b_cmds: Vec<_> = b.commands_iter().collect();
            let s_cmds: Vec<_> = s.commands_iter().collect();
            assert_eq!(b_cmds, s_cmds, "{what}: per-command counters");
            assert_eq!(
                (b.loads, b.stores),
                (s.loads, s.stores),
                "{what}: loads, stores"
            );
            assert_eq!(
                (b.mem_model_instructions, b.mem_model_accesses),
                (s.mem_model_instructions, s.mem_model_accesses),
                "{what}: memory-model counters"
            );
            assert_eq!(b.commands, s.commands, "{what}: commands");
            assert_eq!(
                (
                    b.trace_commands,
                    b.trace_side_exits,
                    b.traces_recorded,
                    b.trace_aborts
                ),
                (
                    s.trace_commands,
                    s.trace_side_exits,
                    s.traces_recorded,
                    s.trace_aborts
                ),
                "{what}: trace counters"
            );
            // Every counter, including the ones named above, byte for byte.
            assert_eq!(encoded(b), encoded(s), "{what}: encoded counters");
            // And the per-record sink saw exactly what the counters say.
            let sink = &single.sink;
            assert_eq!(
                sink.instructions, s.instructions,
                "{what}: sink instructions"
            );
            assert_eq!(
                (sink.loads, sink.stores),
                (s.loads, s.stores),
                "{what}: sink loads, stores"
            );
            assert_eq!(bulk.console, single.console, "{what}: console");
        }
    }
}
