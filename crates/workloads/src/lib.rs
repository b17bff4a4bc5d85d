//! Benchmark workloads for the interpreter-performance reproduction.
//!
//! Provides the macro suite of Table 2 (each program in its original
//! language, with deterministic synthetic inputs), the Table 1
//! microbenchmarks in all five languages, the ablation probes
//! ([`probes`]), and one typed entry point — the
//! [`runner::Runner`] facade over [`runner::run_macro`],
//! [`runner::run_micro`], and [`guarded::run_guarded`] — that wires a
//! [`interp_core::WorkloadId`] to a machine, an interpreter, and a trace
//! sink. Suites enumerate typed ids, so experiments, guard sweeps, and
//! the run-plan engine all share one workload registry.
//!
//! Suite programs are self-checking: each prints `OK …` (often a checksum that
//! must agree across languages — des produces identical ciphertext in C,
//! MIPSI, Joule, Perl, and Tcl) so no experiment can silently measure a
//! broken run.

pub mod guarded;
pub mod inputs;
pub mod joule_progs;
pub mod micro;
pub mod minic_progs;
pub mod perl_progs;
pub mod probes;
pub mod runner;
pub mod tcl_progs;

pub use guarded::{classify, guarded_suite, run_guarded, FailureClass, GuardedRun};
pub use runner::{
    compiled_suite, macro_names, macro_suite, micro_iterations, micro_suite, run_macro,
    run_micro, run_source_dispatch, run_source_with, try_run_macro, try_run_macro_dispatch,
    try_run_micro, try_run_micro_dispatch, try_run_source, try_run_source_dispatch, RunResult,
    Runner, Scale,
};
