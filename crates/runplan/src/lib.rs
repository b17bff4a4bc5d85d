//! The run-plan engine: one place where every experiment's workload runs
//! are declared, deduplicated, executed in parallel, and memoized.
//!
//! Experiments declare the [`RunRequest`]s they need (a typed
//! [`interp_core::WorkloadId`] plus a [`interp_core::SinkKind`]); the
//! planner builds a [`Plan`] that executes each distinct request exactly
//! once — dropping duplicates across experiments and *subsuming*
//! counting-only requests under pipeline-timing requests for the same
//! workload (a timing run produces a strict superset of a counting run's
//! artifact). The [`pool`] executes the plan on a `std::thread::scope`
//! worker pool with deterministic result ordering, and the resulting
//! [`ArtifactStore`] hands each experiment its [`interp_core::RunArtifact`]s.
//!
//! ```text
//!  table1 ─┐ requests                      ┌────────────┐   artifacts
//!  table2 ─┤    │     ┌──────────┐  plan   │ worker pool │──────┐
//!  figures ─┼────┼────►│ dedup +  │────────►│ (N scoped   │      ▼
//!  memmodel─┤    │     │ subsume  │         │  threads)   │  ArtifactStore
//!  fig3/4 ──┤    │     └──────────┘         └────────────┘      │
//!  ablations┘    │         sorted, deterministic order          ▼
//!                │                                    table renderers
//! ```
//!
//! Determinism: a [`Plan`]'s request order is a pure function of the
//! request set, artifacts land in plan order regardless of which worker
//! finished first, and every workload run is itself deterministic — so
//! `--jobs 1` and `--jobs 8` produce byte-identical tables.
//!
//! Supervision: the pool isolates each slot behind `catch_unwind`,
//! bounds attempts with an optional fuel deadline, retries transient
//! failures in deterministic plan-order rounds ([`SuperviseConfig`]),
//! and records whatever still fails as a typed [`RunFailure`] slot that
//! renderers degrade (`DEGRADED(<kind>)`) instead of crashing — one
//! starved or panicking run can no longer cost the rest of the plan. The
//! [`chaos`] module proves it by injecting seeded faults into both the
//! guests and the pool itself.
//!
//! Persistence: the [`journal`] module makes executions crash-safe.
//! Every completed artifact is appended to a checksummed on-disk journal
//! (one record written in place and data-synced; the canonical image is
//! republished by atomic write-temp → fsync → rename, the one
//! publication path every other shared file takes), keyed by a stable
//! [`RunRequest::fingerprint`] plus the code/config epoch
//! ([`fingerprint`]); a resumed plan serves journaled runs from disk and
//! executes only the residue, while any corruption — torn tail, bit
//! flip, stale epoch, format drift, duplicate key — is detected,
//! classified as a typed [`JournalDefect`], reported, and healed by
//! requeuing the affected runs. Resumed output is byte-identical to a
//! cold run at any job count.
//!
//! Coordination: the [`lock`] module makes the cache safe to *share*.
//! Every journal write happens under an advisory file lock (atomic
//! hard-link acquisition, stale-lock takeover from dead holders) with a
//! merge-on-reload pass folding in records concurrent processes landed;
//! a per-fingerprint claims registry gives N concurrent invocations
//! exactly-once execution over one cooperatively-filled cache. The
//! [`compact`] module rewrites a corrupted or bloated journal down to
//! its canonical image under the same lock, and [`status`] snapshots a
//! cache (records, defects, lock holder, writers, claims) read-only.

mod atomic;
pub mod chaos;
pub mod compact;
pub mod exec;
pub mod fingerprint;
pub mod fleet;
pub mod journal;
pub mod lock;
pub mod plan;
pub mod pool;
pub mod serve;
pub mod status;
pub mod store;
pub mod supervise;

pub use chaos::{chaos_execute, render_chaos_summary, with_quiet_injected_panics, ChaosLane};
pub use compact::{compact, compact_with, CompactReport};
pub use exec::try_run_request;
pub use fleet::{
    fleet_members, live_member, sweep_dead_members, FleetMemberInfo, FleetMembership,
    DEFAULT_MEMBER_STALE, FLEET_DIR,
};
pub use fingerprint::{current_epoch, journal_key};
pub use journal::{
    execute_journaled, execute_journaled_with, load_bytes, load_file, render_resume_report,
    Gate, ImageCache, JournalConfig, JournalDefect, JournalDefectKind, JournalError, JournalErrorKind,
    JournalSession, JournalWriter, LoadedJournal, ResumeReport, DEFAULT_CACHE_DIR,
};
pub use lock::{
    acquire, fresh_token, parse_field, pid_alive, probe, Claims, LockConfig, LockError,
    LockErrorKind, LockGuard, LockStatus, SessionInfo, Sessions, DEFAULT_LOCK_TIMEOUT,
};
pub use serve::{
    deadline_in, parse_request, parse_response, request_stop, serve, serve_status, submit,
    wait, withdraw_stop, PlanService, Reject, RejectKind, ServeAccounting, ServeConfig,
    ServeOutcome, ServeReport, ServeRequest, ServeResponse, ServeStatus, WaitOutcome,
    DEFAULT_SERVE_POLL, DEFAULT_SERVE_QUEUE,
};
pub use status::{cache_status, render_cache_status, CacheStatus};
pub use plan::Plan;
pub use pool::{
    default_jobs, execute_supervised, render_failures, render_timings, run_concurrently,
    supervise_with, ExecutedPlan, RunTiming,
};
pub use store::{ArtifactStore, ResolveError};
pub use supervise::{backoff_delay, FailureKind, RunFailure, SuperviseConfig};
