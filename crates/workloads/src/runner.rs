//! The workload registry and runner: one entry point that builds a
//! machine, loads inputs and events, runs the right interpreter, and
//! returns the counters — the piece of plumbing every experiment shares.

use interp_core::{
    CommandSet, ConsoleDigest, Dispatch, DispatchFault, DispatchStrategy, Language, RunArtifact,
    RunStats, TraceSink, WorkloadId, WorkloadKind,
};
use interp_guard::{GuardError, Limits};
use interp_host::{Machine, UiEvent};

use crate::minic_progs::{self, instantiate};
use crate::{inputs, joule_progs, micro, perl_progs, probes, tcl_progs};

pub use interp_core::Scale;

/// Everything a finished run yields.
pub struct RunResult<S> {
    /// The counters behind Tables 1–2 and Figures 1–2.
    pub stats: RunStats,
    /// The interpreter's virtual-command names.
    pub commands: CommandSet,
    /// Console output (used to validate runs).
    pub console: String,
    /// The trace sink (e.g. a finished pipeline simulation).
    pub sink: S,
    /// Size of the interpreter's program input in bytes (Table 2 "Size").
    pub program_bytes: usize,
}

impl<S> RunResult<S> {
    /// The sink-independent part of this result as a memoizable
    /// [`RunArtifact`] (no cycle summary or sweep points — the run-plan
    /// engine fills those in from the concrete sink).
    pub fn base_artifact(&self) -> RunArtifact {
        RunArtifact {
            stats: self.stats.clone(),
            commands: self.commands.clone(),
            console: ConsoleDigest::of(&self.console),
            program_bytes: self.program_bytes,
            cycles: None,
            sweep: None,
        }
    }
}

/// Macro benchmarks per interpreted language, in Table 2 order. For `C`
/// this is the *compiled comparison set* (the Figure 3 "SPEC" programs);
/// Table 2's C section is just `des`.
pub fn macro_names(language: Language) -> &'static [&'static str] {
    match language {
        Language::C => &["des", "compress", "eqntott", "espresso", "li", "cc_lite"],
        Language::Mipsi => &["des", "compress", "eqntott", "espresso", "li"],
        Language::Javelin => &["des", "asteroids", "hanoi", "javac", "mand"],
        Language::Perlite => &["des", "a2ps", "plexus", "txt2html", "weblint"],
        Language::Tclite => &[
            "des", "tcllex", "tcltags", "hanoi", "demos", "ical", "tkdiff", "xf",
        ],
    }
}

/// The macro benchmark suite in Table 2 order, as typed [`WorkloadId`]s.
pub fn macro_suite(scale: Scale) -> Vec<WorkloadId> {
    let mut suite = vec![WorkloadId::macro_bench(Language::C, "des", scale)];
    for language in [
        Language::Mipsi,
        Language::Javelin,
        Language::Perlite,
        Language::Tclite,
    ] {
        suite.extend(
            macro_names(language)
                .iter()
                .map(|&name| WorkloadId::macro_bench(language, name, scale)),
        );
    }
    suite
}

/// The compiled comparison set for Figure 3 (the paper's SPEC programs,
/// run natively).
pub fn compiled_suite(scale: Scale) -> Vec<WorkloadId> {
    macro_names(Language::C)
        .iter()
        .map(|&name| WorkloadId::macro_bench(Language::C, name, scale))
        .collect()
}

/// The Table 1 microbenchmark grid: every micro in all five languages.
pub fn micro_suite(scale: Scale) -> Vec<WorkloadId> {
    let mut suite = Vec::new();
    for &name in micro::MICRO_NAMES.iter() {
        for language in Language::ALL {
            suite.push(WorkloadId::micro(language, name, scale));
        }
    }
    suite
}

fn n(scale: Scale, test: u32, paper: u32) -> String {
    match scale {
        Scale::Test => test.to_string(),
        Scale::Paper => paper.to_string(),
    }
}

fn nu(scale: Scale, test: usize, paper: usize) -> usize {
    match scale {
        Scale::Test => test,
        Scale::Paper => paper,
    }
}

/// Mini-C source + input files for a compiled/MIPSI workload.
// Workload names are a closed, compile-time set; `guarded::run_guarded`
// validates names before this lookup, so the panic is a programmer error.
#[allow(clippy::panic)]
pub(crate) fn minic_workload(name: &str, scale: Scale) -> (String, Vec<(String, Vec<u8>)>) {
    match name {
        "des" => (
            instantiate(minic_progs::DES_C, &[("BLOCKS", n(scale, 20, 400))]),
            vec![],
        ),
        "compress" => {
            let bufsz = nu(scale, 4096, 32768);
            let words = nu(scale, 500, 4500);
            // The paper-scale hash tables span ~1 MB, far past the
            // 32-entry dTLB's 256 KB reach — the §4.1 compress phenomenon.
            let hsize = nu(scale, 8192, 131072);
            (
                instantiate(
                    minic_progs::COMPRESS_C,
                    &[
                        ("BUFSZ", bufsz.to_string()),
                        ("HSIZE", hsize.to_string()),
                        ("HMASK", (hsize - 1).to_string()),
                    ],
                ),
                vec![("input.txt".into(), inputs::text_corpus(words))],
            )
        }
        "eqntott" => (
            instantiate(minic_progs::EQNTOTT_C, &[("VARS", n(scale, 8, 13))]),
            vec![],
        ),
        "espresso" => {
            let cubes = n(scale, 40, 160);
            (
                instantiate(
                    minic_progs::ESPRESSO_C,
                    &[("CUBES", cubes.clone()), ("CUBES2", cubes)],
                ),
                vec![],
            )
        }
        "li" => (
            instantiate(
                minic_progs::LI_C,
                &[
                    ("SRCSZ", "32768".into()),
                    ("CELLS", "8192".into()),
                    ("ROUNDS", n(scale, 3, 40)),
                ],
            ),
            vec![(
                "program.lsp".into(),
                minic_progs::lisp_program(nu(scale, 6, 10) as u32),
            )],
        ),
        "cc_lite" => (
            instantiate(minic_progs::CC_LITE_C, &[("SRCSZ", "65536".into())]),
            vec![(
                "unit.c".into(),
                inputs::source_like(nu(scale, 20, 150)),
            )],
        ),
        other => panic!("unknown mini-C workload `{other}`"),
    }
}

/// Joule source + files + events.
// Workload names are a closed, compile-time set; `guarded::run_guarded`
// validates names before this lookup, so the panic is a programmer error.
#[allow(clippy::panic)]
pub(crate) fn joule_workload(
    name: &str,
    scale: Scale,
) -> (String, Vec<(String, Vec<u8>)>, Vec<UiEvent>) {
    match name {
        "des" => (
            instantiate(joule_progs::DES_JL, &[("BLOCKS", n(scale, 10, 150))]),
            vec![],
            vec![],
        ),
        "asteroids" => {
            let frames = nu(scale, 10, 90);
            let mut events = Vec::new();
            for i in 0..frames {
                events.push(UiEvent::Tick);
                if i % 3 == 0 {
                    events.push(UiEvent::Key(b' '));
                }
            }
            events.push(UiEvent::Quit);
            (
                instantiate(joule_progs::ASTEROIDS_JL, &[("ROCKS", n(scale, 6, 14))]),
                vec![],
                events,
            )
        }
        "hanoi" => (
            instantiate(joule_progs::HANOI_JL, &[("DISKS", n(scale, 5, 8))]),
            vec![],
            vec![],
        ),
        "javac" => (
            joule_progs::JAVAC_JL.to_string(),
            vec![(
                "unit.c".into(),
                inputs::source_like(nu(scale, 15, 120)),
            )],
            vec![],
        ),
        "mand" => {
            let mut events = vec![UiEvent::Tick];
            for (x, y) in [(140u16, 100u16), (120, 90), (130, 95)] {
                events.push(UiEvent::Click { x, y });
            }
            events.push(UiEvent::Quit);
            (
                instantiate(
                    joule_progs::MAND_JL,
                    &[
                        ("W", n(scale, 32, 96)),
                        ("H", n(scale, 24, 72)),
                    ],
                ),
                vec![],
                events,
            )
        }
        other => panic!("unknown Joule workload `{other}`"),
    }
}

// Workload names are a closed, compile-time set; `guarded::run_guarded`
// validates names before this lookup, so the panic is a programmer error.
#[allow(clippy::panic)]
pub(crate) fn perl_workload(name: &str, scale: Scale) -> (String, Vec<(String, Vec<u8>)>) {
    match name {
        "des" => (
            instantiate(perl_progs::DES_PL, &[("BLOCKS", n(scale, 4, 40))]),
            vec![],
        ),
        "a2ps" => (
            perl_progs::A2PS_PL.to_string(),
            vec![(
                "input.txt".into(),
                inputs::text_corpus(nu(scale, 120, 1500)),
            )],
        ),
        "plexus" => (
            perl_progs::PLEXUS_PL.to_string(),
            vec![(
                "requests.txt".into(),
                inputs::http_requests(nu(scale, 12, 150)),
            )],
        ),
        "txt2html" => (
            perl_progs::TXT2HTML_PL.to_string(),
            vec![(
                "input.txt".into(),
                inputs::markup_text(nu(scale, 120, 1200)),
            )],
        ),
        "weblint" => (
            perl_progs::WEBLINT_PL.to_string(),
            vec![("page.html".into(), inputs::html_page(nu(scale, 10, 80)))],
        ),
        other => panic!("unknown Perl workload `{other}`"),
    }
}

// Workload names are a closed, compile-time set; `guarded::run_guarded`
// validates names before this lookup, so the panic is a programmer error.
#[allow(clippy::panic)]
pub(crate) fn tcl_workload(
    name: &str,
    scale: Scale,
) -> (String, Vec<(String, Vec<u8>)>, Vec<UiEvent>) {
    match name {
        "des" => (
            instantiate(tcl_progs::DES_TCL, &[("BLOCKS", n(scale, 1, 2))]),
            vec![],
            vec![],
        ),
        "tcllex" => (
            tcl_progs::TCLLEX_TCL.to_string(),
            vec![("source.txt".into(), inputs::source_like(nu(scale, 2, 10)))],
            vec![],
        ),
        "tcltags" => (
            tcl_progs::TCLTAGS_TCL.to_string(),
            vec![(
                "procs.tcl".into(),
                inputs::tcl_source_like(nu(scale, 6, 60)),
            )],
            vec![],
        ),
        "hanoi" => (
            instantiate(tcl_progs::HANOI_TCL, &[("DISKS", n(scale, 3, 5))]),
            vec![],
            vec![],
        ),
        "demos" => {
            let clicks = nu(scale, 2, 12);
            let mut events = Vec::new();
            for i in 0..clicks {
                events.push(UiEvent::Click {
                    x: (20 + i * 13) as u16,
                    y: (30 + i * 7) as u16,
                });
                if i % 3 == 1 {
                    events.push(UiEvent::Expose);
                }
            }
            events.push(UiEvent::Quit);
            (tcl_progs::DEMOS_TCL.to_string(), vec![], events)
        }
        "tkdiff" => {
            let (a, b) = inputs::diff_pair(nu(scale, 21, 90));
            (
                tcl_progs::TKDIFF_TCL.to_string(),
                vec![("a.txt".into(), a), ("b.txt".into(), b)],
                vec![],
            )
        }
        "ical" => {
            let clicks = nu(scale, 3, 15);
            let mut events = Vec::new();
            for i in 0..clicks {
                events.push(UiEvent::Click {
                    x: (10 + (i * 37) % 230) as u16,
                    y: (20 + (i * 29) % 150) as u16,
                });
                if i % 4 == 2 {
                    events.push(UiEvent::Expose);
                }
            }
            events.push(UiEvent::Quit);
            (tcl_progs::ICAL_TCL.to_string(), vec![], events)
        }
        "xf" => (
            tcl_progs::XF_TCL.to_string(),
            vec![(
                "layout.spec".into(),
                inputs::xf_layout(nu(scale, 8, 40)),
            )],
            vec![],
        ),
        other => panic!("unknown Tcl workload `{other}`"),
    }
}

/// Legacy per-interpreter step budget handed to engines that take one.
/// High enough that the unified [`Limits`] — not this constant — is what
/// bounds a supervised run.
const RUN_BUDGET: u64 = 2_000_000_000;

fn bad_program(language: Language, detail: impl std::fmt::Display) -> GuardError {
    GuardError::BadProgram {
        lang: language.tag(),
        detail: detail.to_string(),
    }
}

/// Compile `src` for `language` and execute it on the matching engine
/// under `limits`, with `files` preloaded into the simulated filesystem
/// and `events` queued on the UI ring. This is the one place a source
/// string meets an interpreter: the macro and micro registries resolve
/// names to sources and call it, and the conformance engine feeds it
/// generated programs directly.
pub fn run_source_with<S: TraceSink>(
    language: Language,
    src: &str,
    files: Vec<(String, Vec<u8>)>,
    events: Vec<UiEvent>,
    limits: Limits,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    run_source_dispatch(
        language,
        src,
        files,
        events,
        limits,
        DispatchStrategy::Naive,
        DispatchFault::None,
        sink,
    )
}

/// [`run_source_with`] plus the dispatch axis: selects `dispatch` on the
/// engine (through the shared [`Dispatch`] trait, clamped to what the
/// engine implements) and injects `fault` (conformance testing only).
#[allow(clippy::too_many_arguments)]
pub fn run_source_dispatch<S: TraceSink>(
    language: Language,
    src: &str,
    files: Vec<(String, Vec<u8>)>,
    events: Vec<UiEvent>,
    limits: Limits,
    dispatch: DispatchStrategy,
    fault: DispatchFault,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    let mut m = Machine::with_limits(sink, limits);
    for (fname, contents) in files {
        m.fs_add_file(&fname, contents);
    }
    for e in events {
        m.post_event(e);
    }
    match language {
        Language::C => {
            let image = interp_minic::compile(src).map_err(|e| bad_program(language, e))?;
            let program_bytes = image.size_bytes() as usize;
            let mut exec = interp_nativeref::DirectExecutor::new(&image, &mut m);
            let res = exec.run(RUN_BUDGET);
            let commands = exec.commands().clone();
            drop(exec);
            res.map_err(GuardError::from)?;
            try_finish(language, m, commands, program_bytes)
        }
        Language::Mipsi => {
            let image = interp_minic::compile(src).map_err(|e| bad_program(language, e))?;
            let program_bytes = image.size_bytes() as usize;
            let mut emu = interp_mipsi::Mipsi::new(&image, &mut m);
            emu.set_strategy(dispatch);
            emu.inject_fault(fault);
            let res = emu.run(RUN_BUDGET);
            let commands = emu.commands().clone();
            drop(emu);
            res.map_err(GuardError::from)?;
            try_finish(language, m, commands, program_bytes)
        }
        Language::Javelin => {
            let prog = interp_javelin::compile(src).map_err(|e| bad_program(language, e))?;
            let program_bytes = prog.code_bytes();
            let mut vm = interp_javelin::Jvm::new(&mut m, prog);
            vm.set_strategy(dispatch);
            vm.inject_fault(fault);
            let res = vm.run(RUN_BUDGET);
            let commands = vm.commands().clone();
            drop(vm);
            res.map_err(GuardError::from)?;
            try_finish(language, m, commands, program_bytes)
        }
        Language::Perlite => {
            let program_bytes = src.len();
            let mut p = interp_perlite::Perlite::new(&mut m, src).map_err(GuardError::from)?;
            p.set_strategy(dispatch);
            p.inject_fault(fault);
            let res = p.run();
            let commands = p.commands().clone();
            drop(p);
            res.map_err(GuardError::from)?;
            try_finish(language, m, commands, program_bytes)
        }
        Language::Tclite => {
            let program_bytes = src.len();
            let mut tcl = interp_tclite::Tclite::new(&mut m);
            tcl.set_strategy(dispatch);
            tcl.inject_fault(fault);
            let res = tcl.run(src);
            let commands = tcl.commands().clone();
            drop(tcl);
            res.map_err(GuardError::from)?;
            try_finish(language, m, commands, program_bytes)
        }
    }
}

/// Run a bare source string (no input files, no UI events) on
/// `language`'s engine under `limits`. The conformance engine's entry
/// point: lowered IR programs are self-contained by construction.
pub fn try_run_source<S: TraceSink>(
    language: Language,
    src: &str,
    limits: Limits,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    run_source_with(language, src, Vec::new(), Vec::new(), limits, sink)
}

/// [`try_run_source`] under a dispatch strategy with an optional injected
/// dispatch-tier fault — the conformance engine's strategy-witness entry
/// point.
pub fn try_run_source_dispatch<S: TraceSink>(
    language: Language,
    src: &str,
    limits: Limits,
    dispatch: DispatchStrategy,
    fault: DispatchFault,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    run_source_dispatch(
        language,
        src,
        Vec::new(),
        Vec::new(),
        limits,
        dispatch,
        fault,
        sink,
    )
}

/// Run one macro benchmark under `limits` and return its counters, with
/// every failure — unknown name, compile error, limit trip, runtime
/// error, failed self-check — as a typed [`GuardError`] instead of a
/// panic. This is the entry point the supervised run-plan pool uses so a
/// fuel deadline (`limits.max_host_steps`) stops a wedged run
/// cooperatively at its next guard poll.
pub fn try_run_macro<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    limits: Limits,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    try_run_macro_dispatch(language, name, scale, limits, DispatchStrategy::Naive, sink)
}

/// [`try_run_macro`] under a dispatch strategy.
pub fn try_run_macro_dispatch<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    limits: Limits,
    dispatch: DispatchStrategy,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    if !macro_names(language).contains(&name) {
        return Err(bad_program(language, format!("unknown macro workload `{name}`")));
    }
    let (src, files, events) = match language {
        Language::C | Language::Mipsi => {
            let (src, files) = minic_workload(name, scale);
            (src, files, vec![])
        }
        Language::Javelin => joule_workload(name, scale),
        Language::Perlite => {
            let (src, files) = perl_workload(name, scale);
            (src, files, vec![])
        }
        Language::Tclite => tcl_workload(name, scale),
    };
    run_source_dispatch(
        language,
        &src,
        files,
        events,
        limits,
        dispatch,
        DispatchFault::None,
        sink,
    )
}

/// Run one macro benchmark and return its counters.
///
/// # Panics
///
/// Panics on unknown `(language, name)` pairs or if the workload fails
/// its own self-check — benchmarks that silently compute garbage are
/// worse than crashes. Use [`try_run_macro`] for a panic-free boundary.
// The panic is the documented contract of this legacy entry point; the
// supervised pool goes through `try_run_macro` instead.
#[allow(clippy::panic)]
pub fn run_macro<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    sink: S,
) -> RunResult<S> {
    try_run_macro(language, name, scale, Limits::unlimited(), sink)
        .unwrap_or_else(|e| panic!("macro workload {language}/{name} failed: {e}"))
}

/// Run one Table 1 microbenchmark under `limits`, with every failure as
/// a typed [`GuardError`]. The C variant is also the MIPSI guest.
pub fn try_run_micro<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    limits: Limits,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    try_run_micro_dispatch(language, name, scale, limits, DispatchStrategy::Naive, sink)
}

/// [`try_run_micro`] under a dispatch strategy.
pub fn try_run_micro_dispatch<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    limits: Limits,
    dispatch: DispatchStrategy,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    if !micro::MICRO_NAMES.contains(&name) {
        return Err(bad_program(language, format!("unknown microbenchmark `{name}`")));
    }
    // Iteration counts per language tier (high-level interpreters execute
    // fewer iterations of the same operation, as the paper's 5-second
    // trials did implicitly). Counts are high enough to amortize each
    // runtime's fixed startup cost below the per-iteration cost.
    let iters_c = n(scale, 2000, 20000);
    let iters_low = n(scale, 300, 3000); // mipsi, javelin
    let iters_perl = n(scale, 120, 1000);
    let iters_tcl = n(scale, 15, 80);
    let io_iters = |base: &str| -> String {
        // The read benchmark is dominated by the shared kernel copy; keep
        // counts lower so runs stay quick.
        match base {
            "read" => n(scale, 5, 60),
            _ => unreachable!(),
        }
    };
    let warm_file = ("warm.dat".to_string(), vec![0x5au8; 4096]);
    let (template, iters) = match language {
        Language::C => (micro::micro_c(name), iters_c),
        Language::Mipsi => (micro::micro_c(name), iters_low),
        Language::Javelin => (micro::micro_joule(name), iters_low),
        Language::Perlite => (micro::micro_perl(name), iters_perl),
        Language::Tclite => (micro::micro_tcl(name), iters_tcl),
    };
    let iters = if name == "read" { io_iters("read") } else { iters };
    let src = instantiate(template, &[("N", iters)]);
    run_source_dispatch(
        language,
        &src,
        vec![warm_file],
        vec![],
        limits,
        dispatch,
        DispatchFault::None,
        sink,
    )
}

/// Run one ablation probe (see [`crate::probes`]) under `limits`, with
/// every failure as a typed [`GuardError`].
fn try_run_probe_dispatch<S: TraceSink>(
    language: Language,
    name: &str,
    limits: Limits,
    dispatch: DispatchStrategy,
    sink: S,
) -> Result<RunResult<S>, GuardError> {
    let Some(src) = probes::probe_source(language, name) else {
        return Err(bad_program(language, format!("unknown probe `{name}`")));
    };
    run_source_dispatch(
        language,
        &src,
        Vec::new(),
        Vec::new(),
        limits,
        dispatch,
        DispatchFault::None,
        sink,
    )
}

/// Run one Table 1 microbenchmark. The C variant is also the MIPSI guest.
///
/// # Panics
///
/// Panics on unknown names or failed self-checks. Use [`try_run_micro`]
/// for a panic-free boundary.
// The panic is the documented contract of this legacy entry point; the
// supervised pool goes through `try_run_micro` instead.
#[allow(clippy::panic)]
pub fn run_micro<S: TraceSink>(
    language: Language,
    name: &str,
    scale: Scale,
    sink: S,
) -> RunResult<S> {
    try_run_micro(language, name, scale, Limits::unlimited(), sink)
        .unwrap_or_else(|e| panic!("microbenchmark {language}/{name} failed: {e}"))
}

/// Run one ablation probe, panicking like [`run_macro`] on an unknown
/// name or a failed run.
#[allow(clippy::panic)]
fn run_probe<S: TraceSink>(workload: WorkloadId, sink: S) -> RunResult<S> {
    try_run_probe_dispatch(
        workload.language,
        workload.name,
        Limits::unlimited(),
        DispatchStrategy::Naive,
        sink,
    )
    .unwrap_or_else(|e| panic!("probe {workload} failed: {e}"))
}

/// Microbenchmark iteration count for `(language, name, scale)` — needed
/// to normalize slowdowns per iteration.
pub fn micro_iterations(language: Language, name: &str, scale: Scale) -> u64 {
    let v = |s: &str| s.parse::<u64>().expect("numeric");
    if name == "read" {
        return v(&n(scale, 5, 60));
    }
    match language {
        Language::C => v(&n(scale, 2000, 20000)),
        Language::Mipsi | Language::Javelin => v(&n(scale, 300, 3000)),
        Language::Perlite => v(&n(scale, 120, 1000)),
        Language::Tclite => v(&n(scale, 15, 80)),
    }
}

/// The unified runner facade: one typed entry point over
/// [`run_macro`], [`run_micro`], and the guarded runner, dispatching on
/// [`WorkloadId::kind`]. Experiments and the run-plan engine go through
/// this instead of choosing an entry point by hand.
pub struct Runner;

impl Runner {
    /// Run `workload` into `sink` and return the full result.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload names or failed self-checks, exactly
    /// like the underlying entry points. Use [`Runner::run_guarded`] for
    /// a panic-free boundary.
    pub fn run<S: TraceSink>(workload: WorkloadId, sink: S) -> RunResult<S> {
        match workload.kind {
            WorkloadKind::Macro => {
                run_macro(workload.language, workload.name, workload.scale, sink)
            }
            WorkloadKind::Micro => {
                run_micro(workload.language, workload.name, workload.scale, sink)
            }
            WorkloadKind::Probe => run_probe(workload, sink),
        }
    }

    /// Run `workload` into `sink` under `limits`, with every failure as
    /// a typed [`GuardError`] instead of a panic. This is the supervised
    /// pool's entry point: a fuel deadline rides in on
    /// `limits.max_host_steps` and surfaces as
    /// [`GuardError::HostStepBudget`].
    pub fn try_run<S: TraceSink>(
        workload: WorkloadId,
        limits: Limits,
        sink: S,
    ) -> Result<RunResult<S>, GuardError> {
        Runner::try_run_dispatch(workload, limits, DispatchStrategy::Naive, sink)
    }

    /// [`Runner::try_run`] under a dispatch strategy — the entry point
    /// the run-plan executor uses to honor [`RunRequest::dispatch`]
    /// (strategies unsupported by the workload's engine clamp to naive).
    ///
    /// [`RunRequest::dispatch`]: interp_core::RunRequest
    pub fn try_run_dispatch<S: TraceSink>(
        workload: WorkloadId,
        limits: Limits,
        dispatch: DispatchStrategy,
        sink: S,
    ) -> Result<RunResult<S>, GuardError> {
        match workload.kind {
            WorkloadKind::Macro => try_run_macro_dispatch(
                workload.language,
                workload.name,
                workload.scale,
                limits,
                dispatch,
                sink,
            ),
            WorkloadKind::Micro => try_run_micro_dispatch(
                workload.language,
                workload.name,
                workload.scale,
                limits,
                dispatch,
                sink,
            ),
            WorkloadKind::Probe => {
                try_run_probe_dispatch(workload.language, workload.name, limits, dispatch, sink)
            }
        }
    }

    /// Run `workload` under resource limits with fault injection, never
    /// panicking. See [`crate::guarded::run_guarded`].
    pub fn run_guarded(
        workload: WorkloadId,
        limits: interp_guard::Limits,
        plan: &interp_guard::FaultPlan,
    ) -> crate::guarded::GuardedRun {
        crate::guarded::run_guarded(workload, limits, plan)
    }
}

fn try_finish<S: TraceSink>(
    language: Language,
    mut machine: Machine<S>,
    commands: CommandSet,
    program_bytes: usize,
) -> Result<RunResult<S>, GuardError> {
    let console = String::from_utf8_lossy(&machine.take_console()).into_owned();
    // Benchmarks that silently compute garbage are worse than crashes:
    // a failed self-check is a runtime fault, not a degraded success.
    if console.contains("BAD") {
        return Err(GuardError::Runtime {
            lang: language.tag(),
            detail: "workload failed its self-check".into(),
        });
    }
    let (stats, sink) = machine.into_parts();
    Ok(RunResult {
        stats,
        commands,
        console,
        sink,
        program_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::NullSink;

    #[test]
    fn entire_macro_suite_runs_at_test_scale() {
        for id in macro_suite(Scale::Test) {
            let result = Runner::run(id, NullSink);
            assert!(
                result.stats.instructions > 1000,
                "{id}: too few instructions"
            );
            assert!(
                result.console.contains("OK"),
                "{id}: no self-check output: {}",
                result.console
            );
            let artifact = result.base_artifact();
            assert!(artifact.console.ok, "{id}: digest disagrees with console");
            assert_eq!(artifact.stats.instructions, result.stats.instructions);
        }
    }

    #[test]
    fn compiled_suite_runs() {
        for id in compiled_suite(Scale::Test) {
            let result = Runner::run(id, NullSink);
            assert!(result.console.contains("OK"), "{id}");
            // Native execution: fetch/decode is free.
            assert_eq!(result.stats.avg_fetch_decode(), 0.0, "{id}");
        }
    }

    #[test]
    fn suites_are_typed_and_sized_like_the_paper() {
        let macros = macro_suite(Scale::Test);
        assert_eq!(macros.len(), 24, "Table 2 has 24 rows");
        assert!(macros.iter().all(|id| id.kind == WorkloadKind::Macro));
        let micros = micro_suite(Scale::Test);
        assert_eq!(micros.len(), 30, "Table 1: 6 micros x 5 languages");
        assert!(micros.iter().all(|id| id.kind == WorkloadKind::Micro));
        // Every suite id is resolvable by name in its language registry.
        for id in macros {
            assert!(macro_names(id.language).contains(&id.name), "{id}");
        }
    }

    #[test]
    fn des_agrees_across_all_five_languages() {
        // All runs use Test scale but different BLOCKS; rerun the C
        // version at each interpreter's block count and compare.
        use crate::minic_progs::{instantiate, DES_C};
        for (lang, blocks) in [
            (Language::Mipsi, 20u32),
            (Language::Javelin, 10),
            (Language::Perlite, 4),
            (Language::Tclite, 1),
        ] {
            let interp = run_macro(lang, "des", Scale::Test, NullSink);
            let src = instantiate(DES_C, &[("BLOCKS", blocks.to_string())]);
            let image = interp_minic::compile(&src).unwrap();
            let mut m = Machine::new(NullSink);
            let mut exec = interp_nativeref::DirectExecutor::new(&image, &mut m);
            exec.run(1_000_000_000).unwrap();
            drop(exec);
            let native = String::from_utf8_lossy(m.console()).into_owned();
            assert_eq!(interp.console, native, "{lang} des disagrees with C");
        }
    }

    #[test]
    fn all_micros_run_in_all_languages() {
        for name in crate::micro::MICRO_NAMES {
            for lang in Language::ALL {
                let result = run_micro(lang, name, Scale::Test, NullSink);
                assert!(
                    result.stats.instructions > 50,
                    "{lang} {name}: {} instructions",
                    result.stats.instructions
                );
                assert!(micro_iterations(lang, name, Scale::Test) > 0);
            }
        }
    }

    #[test]
    fn fetch_decode_ordering_matches_table_2() {
        // Table 2's central claim: F/D(MIPSI) ≈ F/D(Java) ≪ F/D(Perl) ≪
        // F/D(Tcl).
        let mipsi = run_macro(Language::Mipsi, "des", Scale::Test, NullSink)
            .stats
            .avg_fetch_decode();
        let java = run_macro(Language::Javelin, "des", Scale::Test, NullSink)
            .stats
            .avg_fetch_decode();
        let perl = run_macro(Language::Perlite, "des", Scale::Test, NullSink)
            .stats
            .avg_fetch_decode();
        let tcl = run_macro(Language::Tclite, "des", Scale::Test, NullSink)
            .stats
            .avg_fetch_decode();
        assert!(java < 40.0, "java fd = {java}");
        assert!(mipsi < 100.0, "mipsi fd = {mipsi}");
        assert!(perl > java, "perl {perl} <= java {java}");
        assert!(tcl > 3.0 * perl, "tcl {tcl} not ≫ perl {perl}");
    }
}
