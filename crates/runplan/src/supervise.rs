//! Supervision vocabulary: typed per-run failures and the supervisor's
//! retry/deadline policy.
//!
//! A supervised plan never dies with one run. Each slot's execution is
//! isolated behind `catch_unwind`, bounded by an optional fuel deadline,
//! and classified on failure: *transient* failures (injected
//! faults, tripped limits, deadlines) earn deterministic bounded
//! retries, while panics quarantine the slot immediately. Whatever is
//! still failing when retries run out lands in the
//! [`crate::ArtifactStore`] as a [`RunFailure`], and every renderer
//! degrades that cell instead of crashing the report.

use std::fmt;
use std::time::Duration;

/// Why a supervised run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker panicked mid-run (or its result slot was poisoned).
    /// Interpreter state is suspect, so the slot quarantines at once —
    /// no retries.
    Panicked,
    /// The run crossed its fuel deadline (`--timeout-fuel` simulated
    /// host steps, enforced cooperatively at guard polls). The same run
    /// always trips at the same step, so the failure is deterministic.
    DeadlineExceeded,
    /// The run stopped with a typed guard fault: injected corruption, a
    /// tripped resource limit, a failed self-check, a dropped artifact.
    Faulted,
}

impl FailureKind {
    /// Short stable tag for cells and logs.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Panicked => "panicked",
            FailureKind::DeadlineExceeded => "deadline",
            FailureKind::Faulted => "faulted",
        }
    }

    /// True if a clean re-run can plausibly clear the failure. Panics
    /// are permanent: retrying an interpreter whose invariants already
    /// broke once would launder a robustness bug into flakiness.
    pub fn is_transient(&self) -> bool {
        !matches!(self, FailureKind::Panicked)
    }
}

/// A typed, renderable failure for one planned request: what happened,
/// on which attempt the supervisor gave up, and the detail string for
/// the plan-level failure report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFailure {
    /// The failure taxonomy bucket.
    pub kind: FailureKind,
    /// Zero-based attempt index on which the run last failed (so a run
    /// that exhausted `retries = 2` reports `attempt == 2`).
    pub attempt: u32,
    /// Human-readable cause for the stderr failure report.
    pub detail: String,
}

impl RunFailure {
    /// A panic (or poisoned slot) on `attempt`.
    pub fn panicked(attempt: u32, detail: impl Into<String>) -> Self {
        RunFailure { kind: FailureKind::Panicked, attempt, detail: detail.into() }
    }

    /// A fuel deadline trip on `attempt`.
    pub fn deadline(attempt: u32, detail: impl Into<String>) -> Self {
        RunFailure { kind: FailureKind::DeadlineExceeded, attempt, detail: detail.into() }
    }

    /// A typed guard fault on `attempt`.
    pub fn faulted(attempt: u32, detail: impl Into<String>) -> Self {
        RunFailure { kind: FailureKind::Faulted, attempt, detail: detail.into() }
    }

    /// The marker renderers print in place of a numeric cell. Carries
    /// only the failure kind — details vary in length and belong in the
    /// stderr report, while cells must stay short and byte-stable.
    pub fn cell(&self) -> String {
        format!("DEGRADED({})", self.kind.label())
    }
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on attempt {}: {}",
            self.kind.label(),
            self.attempt,
            self.detail
        )
    }
}

/// The supervisor's policy: how often to retry transient failures and
/// the fuel deadline that bounds each attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Maximum re-executions after the first attempt for failures
    /// classified transient. `Panicked` never retries.
    pub retries: u32,
    /// Fuel deadline: a cap on simulated host steps per attempt, mapped
    /// onto `Limits::max_host_steps` and enforced cooperatively at the
    /// interpreters' guard polls. Deterministic — the same run always
    /// trips at the same step — and the only deadline a run has.
    pub timeout_fuel: Option<u64>,
}

impl SuperviseConfig {
    /// Default policy: one retry for transient failures, no deadline.
    pub const fn new() -> Self {
        SuperviseConfig { retries: 1, timeout_fuel: None }
    }

    /// Builder-style override of `retries`.
    pub const fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Builder-style override of `timeout_fuel`.
    pub const fn with_timeout_fuel(mut self, fuel: u64) -> Self {
        self.timeout_fuel = Some(fuel);
        self
    }
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig::new()
    }
}

/// Deterministic exponential backoff for bounded retries: `base`
/// doubled per attempt (attempt 1 → `base`, attempt 2 → `2·base`, …),
/// saturating at `cap`. Pure — callers that want jitter layer it on
/// top (see the serve module's wait backoff).
pub fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    let base = base.max(Duration::from_millis(1));
    let doublings = attempt.saturating_sub(1).min(16);
    base.saturating_mul(1u32 << doublings).min(cap.max(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_quarantine_transients_retry() {
        assert!(!FailureKind::Panicked.is_transient());
        assert!(FailureKind::DeadlineExceeded.is_transient());
        assert!(FailureKind::Faulted.is_transient());
    }

    #[test]
    fn cells_carry_kind_only() {
        let f = RunFailure::deadline(2, "ran 5000000 steps, cap 1000");
        assert_eq!(f.cell(), "DEGRADED(deadline)");
        let shown = f.to_string();
        assert!(shown.contains("attempt 2") && shown.contains("cap 1000"), "{shown}");
    }

    #[test]
    fn config_builders_compose() {
        let c = SuperviseConfig::new().with_retries(3).with_timeout_fuel(1_000_000);
        assert_eq!(c.retries, 3);
        assert_eq!(c.timeout_fuel, Some(1_000_000));
        assert_eq!(SuperviseConfig::default().retries, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        assert_eq!(backoff_delay(base, 1, cap), Duration::from_millis(10));
        assert_eq!(backoff_delay(base, 2, cap), Duration::from_millis(20));
        assert_eq!(backoff_delay(base, 5, cap), Duration::from_millis(160));
        assert_eq!(backoff_delay(base, 30, cap), cap, "saturates at the cap");
        // Attempt 0 behaves like attempt 1, and a zero base is bumped
        // to a real interval so retry loops cannot spin.
        assert_eq!(backoff_delay(base, 0, cap), Duration::from_millis(10));
        assert_eq!(backoff_delay(Duration::ZERO, 1, cap), Duration::from_millis(1));
        // A cap below base never undercuts base (callers pass sane
        // caps; this keeps the function total).
        assert_eq!(backoff_delay(base, 9, Duration::from_millis(5)), base);
    }
}
