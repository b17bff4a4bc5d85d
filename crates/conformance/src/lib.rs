//! Differential conformance engine for the interpreter reproduction.
//!
//! The paper's argument (and this repo's tables) assumes the five
//! execution engines — nativeref, MIPSI, Javelin, Perlite, Tclite —
//! compute the *same thing* at different VM levels. This crate checks
//! that assumption mechanically:
//!
//! 1. [`ir`] defines a small semantic IR at the intersection of all
//!    five front ends, with a checked reference evaluator that rejects
//!    any program whose meaning could legally differ between them.
//! 2. [`gen`] draws seeded programs from the IR by rejection sampling.
//! 3. [`lower`] turns one IR program into mini-C (shared by nativeref
//!    and MIPSI), Joule, Perl, and Tcl sources.
//! 4. [`engine`] runs all five through the guarded
//!    [`interp_workloads::try_run_source_dispatch`] path and asserts the
//!    console digests agree — pairwise, and against the reference
//!    evaluation.
//! 5. [`shrink`] reduces any divergent program to a minimal reproducer.
//!
//! The `repro conform --seeds N` subcommand sweeps seeds and prints the
//! per-pair divergence table; the crate's tests pin zero divergence
//! over a fixed seed range and prove the engine catches a deliberately
//! injected branch-flip bug.
//!
//! # Example
//!
//! ```
//! use interp_conformance::{conform, render, LowerOptions};
//!
//! let report = conform(2, &LowerOptions::default());
//! assert_eq!(report.divergent_seeds(), 0);
//! println!("{}", render(&report));
//! ```

pub mod engine;
pub mod gen;
pub mod ir;
pub mod lower;
pub mod shrink;

pub use engine::{
    conform, conform_with, diverges, diverges_with, divergent_pairs, observe, observe_with,
    render, witnesses_for, ConformReport, Failure, Observation, Witness, WITNESSES,
};
pub use gen::generate;
pub use ir::{eval, BinOp, Cmp, Cond, Expr, Invalid, Program, Stmt};
pub use lower::{lower, Bug, LowerOptions};
pub use shrink::shrink;
