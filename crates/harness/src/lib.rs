//! Experiment drivers: one module per table/figure of the paper, each
//! producing structured rows plus a paper-style text rendering, and the
//! `repro` binary that prints everything.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 (microbenchmark slowdowns) | [`table1`] |
//! | Table 2 (baseline measurements) | [`table2`] |
//! | Figure 1 (cumulative command distributions) | [`figures::fig1_from`] |
//! | Figure 2 (per-command histograms) | [`figures::fig2_from`] |
//! | §3.3 (memory model) | [`memmodel`] |
//! | Table 3 (machine parameters) | [`interp_archsim::SimConfig::default`] |
//! | Figure 3 (issue-slot breakdown) | [`arch::fig3_from`] |
//! | Figure 4 (I-cache sweep) | [`arch::fig4_from`] |
//! | Dispatch tiers (threaded/superinstr/inline-cache deltas) | [`dispatch`] |
//! | Tiered execution (trace recording vs the pure tiers, not in the paper) | [`tiered`] |
//! | Ablations (iTLB, dispatch, symbol table, precompilation) | [`ablations`] |
//! | Robustness (seeded fault-injection sweep, not in the paper) | [`guard_sweep`] |
//!
//! The [`experiments`] registry maps target names to request sets and
//! byte-exact renderings — the single definition of what `repro`
//! prints, shared with the golden-snapshot tests in `tests/goldens.rs`.
//!
//! # The run-plan split
//!
//! Every experiment module has two halves:
//!
//! * a **request** half (`requests(scale)`) declaring the typed
//!   [`interp_core::RunRequest`]s it needs, and
//! * a **read** half (`*_from(&store, scale)`) assembling rows from a
//!   shared [`interp_runplan::ArtifactStore`].
//!
//! The `repro` driver unions every selected experiment's requests into
//! one deduplicated [`interp_runplan::Plan`], executes it once on the
//! worker pool, and feeds the same store to every renderer — so a
//! workload that several experiments need runs exactly once. A caller
//! that wants one experiment in isolation plans its requests alone and
//! reads them back the same way.
//!
//! # Example
//!
//! ```no_run
//! use interp_harness::{table1, Scale};
//! use interp_runplan::{default_jobs, execute_supervised, Plan, SuperviseConfig};
//!
//! let plan = Plan::build(table1::requests(Scale::Test));
//! let executed = execute_supervised(&plan, default_jobs(), &SuperviseConfig::new());
//! println!("{}", table1::render(&table1::table1_from(&executed.store, Scale::Test)));
//! ```

pub mod ablations;
pub mod arch;
pub mod bench_report;
pub mod degrade;
pub mod dispatch;
pub mod experiments;
pub mod figures;
pub mod guard_sweep;
pub mod memmodel;
pub mod table1;
pub mod table2;
pub mod tiered;

pub use interp_workloads::Scale;
