//! Layer probes for the traced run: repeated, timed calls into one
//! layer's public functions, each reported as a median.
//!
//! The `archsim` sinks are timed by replaying a bounded recorded trace,
//! since neither workload runs them. The last three probes fold in what
//! `crates/bench` and `crates/microbench` measured and the ledger did
//! not: the synthetic pipeline stream (`fig3_pipeline`), MIPSI switch
//! vs. threaded dispatch (`ablations`), and per-command profile
//! construction (`fig1_fig2_profiles`).

use std::path::Path;
use std::time::Instant;

use interp_archsim::{CacheSweep, PipelineSim, SimConfig};
use interp_core::serial::ByteReader;
use interp_core::{
    CommandProfile, DispatchStrategy, InsnKind, InsnRecord, Language, NullSink, RunArtifact,
    TraceSink, WorkloadId,
};
use interp_guard::Limits;
use interp_host::Machine;
use interp_runplan::{current_epoch, fresh_token, JournalWriter, LockConfig};
use interp_workloads::minic_progs::{instantiate, DES_C};
use interp_workloads::{joule_progs, perl_progs, run_macro, Runner, Scale};

use crate::stats::{median, ms, Metrics};

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            ms(started.elapsed())
        })
        .collect();
    median(&samples)
}

/// Front-end compile time of the `des` macro program per front end.
/// Returns the number of front ends that rejected it.
fn compile(out: &mut Metrics) -> u64 {
    let minic = instantiate(DES_C, &[("BLOCKS", "20".into())]);
    let joule = instantiate(joule_progs::DES_JL, &[("BLOCKS", "10".into())]);
    let perl = instantiate(perl_progs::DES_PL, &[("BLOCKS", "4".into())]);
    let compiled = [
        interp_minic::compile(&minic).is_ok(),
        interp_javelin::compile(&joule).is_ok(),
        interp_perlite::Perlite::new(&mut Machine::new(NullSink), &perl).is_ok(),
    ];
    let failed = compiled.iter().filter(|ok| !**ok).count() as u64;
    if failed > 0 {
        eprintln!("perfbench: compile probe: {failed} front end(s) rejected des");
    }
    out.put(
        "compile.minic.ms",
        median_ms(15, || {
            std::hint::black_box(interp_minic::compile(&minic).is_ok());
        }),
    );
    out.put(
        "compile.javelin.ms",
        median_ms(15, || {
            std::hint::black_box(interp_javelin::compile(&joule).is_ok());
        }),
    );
    out.put(
        "compile.perlite.ms",
        median_ms(15, || {
            let mut m = Machine::new(NullSink);
            std::hint::black_box(interp_perlite::Perlite::new(&mut m, &perl).is_ok());
        }),
    );
    failed
}

/// Artifact encode and decode cost over `artifacts`, per artifact.
pub fn codec(out: &mut Metrics, artifacts: &[&RunArtifact]) {
    let n = artifacts.len().max(1) as f64;
    let encoded: Vec<Vec<u8>> = artifacts.iter().map(|a| a.encode()).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let encode_ms = median_ms(9, || {
        for a in artifacts {
            std::hint::black_box(a.encode());
        }
    });
    let decode_ms = median_ms(9, || {
        for bytes in &encoded {
            std::hint::black_box(RunArtifact::decode_from(&mut ByteReader::new(bytes)).is_ok());
        }
    });
    out.put("encode.us_per_artifact", encode_ms * 1e3 / n);
    out.put("encode.bytes_per_artifact", bytes as f64 / n);
    out.put("decode.us_per_artifact", decode_ms * 1e3 / n);
}

/// Uncontended journal-lock acquire + release in `dir`, in ms.
pub fn lock_acquire_ms(dir: &Path) -> f64 {
    let config = LockConfig::for_dir(dir, &fresh_token(), current_epoch());
    median_ms(25, || {
        std::hint::black_box(interp_runplan::acquire(&config).is_ok());
    })
}

/// A resume open of the journal in `dir` (lock, load and decode every
/// record, republish the canonical image), in ms.
pub fn journal_open_ms(dir: &Path) -> f64 {
    median_ms(5, || {
        std::hint::black_box(JournalWriter::open(dir, current_epoch(), true).is_ok());
    })
}

/// Inputs the probes of [`common`] prepare and can fail on: three
/// compiles, the sink recording run and the dispatch probe's compile.
pub const PROBE_INPUTS: u64 = 5;

/// The probes every traced run makes: front-end compile, the `archsim`
/// sinks over a recorded trace, and the ones replacing `crates/bench`.
/// Returns the number of probes that could not run their input.
pub fn common(out: &mut Metrics) -> u64 {
    compile(out) + sinks(out) + folded_benches(out)
}

/// Keeps the first `cap` records of a run's instruction trace.
struct Recorder {
    cap: usize,
    trace: Vec<InsnRecord>,
}

impl TraceSink for Recorder {
    fn insn(&mut self, rec: InsnRecord) {
        if self.trace.len() < self.cap {
            self.trace.push(rec);
        }
    }
}

/// Instructions recorded for the sink replays.
const RECORDED: usize = 200_000;

/// Each `archsim` sink the campaign plan uses, replaying the first
/// 200k instructions of MIPSI `compress` (test scale, default tier), in
/// ns per instruction. Returns 1 when the recording run failed.
fn sinks(out: &mut Metrics) -> u64 {
    let workload = WorkloadId::macro_bench(Language::Mipsi, "compress", Scale::Test);
    let recorder = Recorder {
        cap: RECORDED,
        trace: Vec::with_capacity(RECORDED),
    };
    let dispatch = DispatchStrategy::default_for(Language::Mipsi);
    let Ok(run) = Runner::try_run_dispatch(workload, Limits::unlimited(), dispatch, recorder)
    else {
        eprintln!("perfbench: sink probe: recording MIPSI compress failed");
        return 1;
    };
    let trace = run.sink.trace;
    let per_insn = |run_ms: f64| run_ms * 1e6 / trace.len().max(1) as f64;
    let replay = |sink: &mut dyn TraceSink| {
        for &rec in &trace {
            sink.insn(rec);
        }
    };
    let pipeline = median_ms(9, || {
        let mut sim = PipelineSim::alpha_21064();
        replay(&mut sim);
        std::hint::black_box(sim.report().cycles);
    });
    let itlb32 = median_ms(9, || {
        let mut sim = PipelineSim::new(SimConfig::default().with_itlb_entries(32));
        replay(&mut sim);
        std::hint::black_box(sim.report().cycles);
    });
    let sweep = median_ms(9, || {
        let mut sweep = CacheSweep::figure4();
        replay(&mut sweep);
        std::hint::black_box(sweep.points().len());
    });
    out.put("sink.pipeline.ns_per_insn", per_insn(pipeline));
    out.put("sink.pipeline_itlb32.ns_per_insn", per_insn(itlb32));
    out.put("sink.icache_sweep.ns_per_insn", per_insn(sweep));
    0
}

/// The probes replacing `crates/bench` and `crates/microbench`.
/// Returns 1 when the dispatch probe could not compile its input.
fn folded_benches(out: &mut Metrics) -> u64 {
    out.put(
        "sink.pipeline.synthetic_ns_per_insn",
        synthetic_pipeline_ns(),
    );
    let speedup = mipsi_threaded_speedup();
    out.put("interp.mipsi.threaded_speedup", speedup.unwrap_or(0.0));
    out.put("profile.build_us", profile_build_us());
    u64::from(speedup.is_none())
}

/// `PipelineSim` over the synthetic 100k-instruction mixed stream of
/// the old `fig3_pipeline` bench, in ns per instruction.
fn synthetic_pipeline_ns() -> f64 {
    let mut trace = Vec::with_capacity(100_000);
    let mut addr = 0x1000_0000u32;
    for i in 0..100_000u32 {
        let pc = 0x40_0000 + (i % 2048) * 4;
        let kind = match i % 7 {
            0..=2 => InsnKind::Alu,
            3 => {
                addr = addr.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                InsnKind::Load {
                    addr: (0x1000_0000 + (addr % (1 << 20))) & !3,
                }
            }
            4 => InsnKind::Store {
                addr: 0x1000_0000 + (i % 8192) * 4,
            },
            5 => InsnKind::ShortInt,
            _ => InsnKind::Branch {
                target: 0x40_0000,
                taken: i % 3 == 0,
            },
        };
        trace.push(InsnRecord::new(pc, kind));
    }
    let run_ms = median_ms(9, || {
        let mut sim = PipelineSim::alpha_21064();
        for &rec in &trace {
            sim.insn(rec);
        }
        std::hint::black_box(sim.report().cycles);
    });
    run_ms * 1e6 / trace.len() as f64
}

/// MIPSI on test-scale `des`: switch-dispatch time over threaded-dispatch
/// time (the old `ablations` bench), samples interleaved; `None` when
/// `des` does not compile.
fn mipsi_threaded_speedup() -> Option<f64> {
    let src = instantiate(DES_C, &[("BLOCKS", "20".into())]);
    let Ok(image) = interp_minic::compile(&src) else {
        eprintln!("perfbench: dispatch probe: des does not compile");
        return None;
    };
    let run = |threaded: bool| {
        let started = Instant::now();
        let mut m = Machine::new(NullSink);
        let mut emu = interp_mipsi::Mipsi::new(&image, &mut m);
        emu.set_threaded_dispatch(threaded);
        std::hint::black_box(emu.run(1_000_000_000).is_ok());
        drop(emu);
        std::hint::black_box(m.stats().instructions);
        ms(started.elapsed())
    };
    let (mut switch, mut threaded) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        switch.push(run(false));
        threaded.push(run(true));
    }
    Some(crate::stats::ratio(median(&switch), median(&threaded)))
}

/// `CommandProfile::from_stats` on test-scale Perlite `txt2html` (the
/// old `fig1_fig2_profiles` bench), in microseconds.
fn profile_build_us() -> f64 {
    let result = run_macro(Language::Perlite, "txt2html", Scale::Test, NullSink);
    let batch = 100;
    let batch_ms = median_ms(9, || {
        for _ in 0..batch {
            let profile = CommandProfile::from_stats(&result.stats, &result.commands);
            std::hint::black_box((profile.commands_to_cover(0.9), profile.cumulative().len()));
        }
    });
    batch_ms * 1e3 / batch as f64
}
