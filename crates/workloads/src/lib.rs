//! Benchmark workloads for the interpreter-performance reproduction.
//!
//! Provides the macro suite of Table 2 (each program in its original
//! language, with deterministic synthetic inputs), the Table 1
//! microbenchmarks in all five languages, the ablation probes
//! ([`probes`]), and the one place a guest meets an interpreter: a
//! private runner function that builds the machine, applies any fault
//! plan, compiles the guest and runs it on the one engine switch. Four
//! entry points sit over it: [`runner::Runner::try_run_dispatch`] (any
//! typed [`interp_core::WorkloadId`] into any trace sink, the run-plan
//! executor's path), [`runner::run_macro`] (the panicking shorthand the
//! examples and tests use), [`runner::try_run_source_dispatch`] (a bare
//! source string, for conformance witnesses), and
//! [`guarded::run_guarded`] (fault injection behind a panic barrier).
//! Suites enumerate typed ids, so experiments, guard sweeps, and the
//! run-plan engine all share one workload registry.
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
    try_run_source_dispatch, RunResult, Runner, Scale,
};
