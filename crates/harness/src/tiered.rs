//! Tiered-execution experiment: what trace compilation buys Javelin over
//! the pure dispatch tiers, on the macro suite.
//!
//! The paper characterizes *pure* interpreters; this family measures the
//! first step away from purity. One row per baseline — naive switch
//! dispatch, threaded dispatch, and the trace-recording tiered stage —
//! summed over Javelin's macro suite under the pipeline model: native
//! instructions per virtual command, the fetch/decode share, how much of
//! the command stream ran inside compiled traces, how often those traces
//! side-exited, and the architectural side effects (I-cache miss and
//! branch-mispredict issue-slot fractions). The deltas against both the
//! naive and threaded rows separate "stop re-decoding" (threading) from
//! "stop dispatching at all" (traces).
//!
//! Every request is a plain pipeline run of the same workloads the
//! `dispatch` family uses, so the shared plan deduplicates all of them.

use crate::dispatch::sum_suite;
use interp_core::{DispatchStrategy, Language, RunRequest};
use interp_runplan::ArtifactStore;
use interp_workloads::{macro_suite, Scale};

/// The baselines charted, in table order: the two pure tiers the paper
/// models, then the tiered stage under test.
pub const STRATEGIES: [DispatchStrategy; 3] = [
    DispatchStrategy::Naive,
    DispatchStrategy::Threaded,
    DispatchStrategy::Tiered,
];

/// One row: Javelin's macro suite under one strategy.
#[derive(Debug, Clone)]
pub struct TieredRow {
    /// Strategy this row ran under.
    pub strategy: DispatchStrategy,
    /// Virtual commands executed across the suite.
    pub commands: u64,
    /// Native instructions executed (excluding startup) across the suite.
    pub native_instructions: u64,
    /// Native instructions per virtual command.
    pub insns_per_command: f64,
    /// Fetch/decode native instructions per virtual command.
    pub fetch_decode_per_command: f64,
    /// Share of the command stream that executed inside compiled traces.
    pub trace_coverage_pct: f64,
    /// Guard side exits per thousand traced commands.
    pub side_exits_per_kcmd: f64,
    /// Traces recorded and compiled across the suite.
    pub traces_recorded: u64,
    /// Recordings or executions aborted (blacklisted anchors).
    pub trace_aborts: u64,
    /// Percentage change of `insns_per_command` vs the naive row
    /// (negative = fewer instructions). `None` on the naive row.
    pub delta_vs_naive_pct: Option<f64>,
    /// Percentage change vs the threaded row. `None` on the first two.
    pub delta_vs_threaded_pct: Option<f64>,
    /// Cycle-weighted I-cache-miss issue-slot fraction.
    pub imiss_fraction: f64,
    /// Cycle-weighted branch-mispredict issue-slot fraction.
    pub mispredict_fraction: f64,
    /// Degradation marker when any suite run failed (numeric fields
    /// zeroed and the render prints this instead).
    pub degraded: Option<String>,
}

/// Every run the experiment needs: Javelin's macro suite under the
/// pipeline model, once per charted strategy. All requests are
/// byte-identical to the `dispatch` family's Javelin rows, so the
/// shared plan runs each workload once.
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for strategy in STRATEGIES {
        out.extend(
            macro_suite(scale)
                .into_iter()
                .filter(|w| w.language == Language::Javelin)
                .map(|w| RunRequest::pipeline(w).with_dispatch(strategy)),
        );
    }
    out
}

/// Assemble the three rows from memoized artifacts.
pub fn tiered_from(store: &ArtifactStore, scale: Scale) -> Vec<TieredRow> {
    let mut rows: Vec<TieredRow> = STRATEGIES
        .into_iter()
        .map(|strategy| suite_row(store, scale, strategy))
        .collect();
    let ipc = |rows: &[TieredRow], strategy: DispatchStrategy| {
        rows.iter()
            .find(|r| r.strategy == strategy && r.degraded.is_none())
            .filter(|r| r.insns_per_command > 0.0)
            .map(|r| r.insns_per_command)
    };
    let naive = ipc(&rows, DispatchStrategy::Naive);
    let threaded = ipc(&rows, DispatchStrategy::Threaded);
    for row in &mut rows {
        if row.degraded.is_some() || row.strategy == DispatchStrategy::Naive {
            continue;
        }
        row.delta_vs_naive_pct = naive.map(|n| (row.insns_per_command - n) / n * 100.0);
        if row.strategy == DispatchStrategy::Tiered {
            row.delta_vs_threaded_pct =
                threaded.map(|t| (row.insns_per_command - t) / t * 100.0);
        }
    }
    rows
}

/// Sum Javelin's macro suite under one strategy into a row.
fn suite_row(store: &ArtifactStore, scale: Scale, strategy: DispatchStrategy) -> TieredRow {
    let mut trace_commands = 0u64;
    let mut trace_side_exits = 0u64;
    let mut traces_recorded = 0u64;
    let mut trace_aborts = 0u64;
    let summed = sum_suite(store, scale, Language::Javelin, strategy, |stats| {
        trace_commands += stats.trace_commands;
        trace_side_exits += stats.trace_side_exits;
        traces_recorded += stats.traces_recorded;
        trace_aborts += stats.trace_aborts;
    });
    let sums = match summed {
        Ok(sums) => sums,
        Err(marker) => {
            return TieredRow {
                strategy,
                commands: 0,
                native_instructions: 0,
                insns_per_command: 0.0,
                fetch_decode_per_command: 0.0,
                trace_coverage_pct: 0.0,
                side_exits_per_kcmd: 0.0,
                traces_recorded: 0,
                trace_aborts: 0,
                delta_vs_naive_pct: None,
                delta_vs_threaded_pct: None,
                imiss_fraction: 0.0,
                mispredict_fraction: 0.0,
                degraded: Some(marker),
            }
        }
    };
    TieredRow {
        strategy,
        commands: sums.commands,
        native_instructions: sums.native,
        insns_per_command: sums.per_cmd(sums.native),
        fetch_decode_per_command: sums.per_cmd(sums.fetch_decode),
        trace_coverage_pct: sums.per_cmd(trace_commands) * 100.0,
        side_exits_per_kcmd: if trace_commands == 0 {
            0.0
        } else {
            trace_side_exits as f64 / trace_commands as f64 * 1000.0
        },
        traces_recorded,
        trace_aborts,
        delta_vs_naive_pct: None,
        delta_vs_threaded_pct: None,
        imiss_fraction: sums.per_cycle(sums.imiss_cycles),
        mispredict_fraction: sums.per_cycle(sums.mispredict_cycles),
        degraded: None,
    }
}

/// Render paper-style text.
pub fn render(rows: &[TieredRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Tiered execution: Javelin macro suite, trace compilation vs the pure tiers"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>11} {:>9} {:>9} {:>10} {:>7} {:>7} {:>9} {:>12} {:>7} {:>11}",
        "strategy",
        "vcommands",
        "insns/cmd",
        "F/D/cmd",
        "trace%",
        "exits/kc",
        "traces",
        "aborts",
        "vs-naive",
        "vs-threaded",
        "imiss",
        "mispredict"
    );
    for row in rows {
        if let Some(marker) = &row.degraded {
            let _ = writeln!(out, "{:<10} {marker}", row.strategy.label());
            continue;
        }
        let delta = |d: Option<f64>| match d {
            Some(pct) => format!("{pct:+.1}%"),
            None => "baseline".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>11.1} {:>9.1} {:>9.1} {:>10.1} {:>7} {:>7} {:>9} {:>12} {:>6.1}% {:>10.1}%",
            row.strategy.label(),
            row.commands,
            row.insns_per_command,
            row.fetch_decode_per_command,
            row.trace_coverage_pct,
            row.side_exits_per_kcmd,
            row.traces_recorded,
            row.trace_aborts,
            delta(row.delta_vs_naive_pct),
            delta(row.delta_vs_threaded_pct),
            row.imiss_fraction * 100.0,
            row.mispredict_fraction * 100.0
        );
    }
    out
}

/// Assemble and render in one step (the `repro` path).
pub fn render_from(store: &ArtifactStore, scale: Scale) -> String {
    render(&tiered_from(store, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> &'static [TieredRow] {
        use std::sync::OnceLock;
        static ROWS: OnceLock<Vec<TieredRow>> = OnceLock::new();
        ROWS.get_or_init(|| tiered_from(crate::experiments::test_store(), Scale::Test))
    }

    fn row(rows: &[TieredRow], strategy: DispatchStrategy) -> &TieredRow {
        rows.iter()
            .find(|r| r.strategy == strategy)
            .expect("row exists")
    }

    #[test]
    fn all_three_baselines_get_healthy_rows() {
        let rows = rows();
        assert_eq!(rows.len(), 3);
        for r in rows {
            assert!(r.degraded.is_none(), "{:?} degraded", r.strategy);
            assert!(r.commands > 0 && r.insns_per_command > 0.0);
        }
        // Same programs, same work: the command streams agree exactly.
        let naive = row(rows, DispatchStrategy::Naive);
        for r in rows {
            assert_eq!(r.commands, naive.commands, "{:?}", r.strategy);
        }
    }

    #[test]
    fn tiered_beats_both_pure_tiers_on_instructions_per_command() {
        let rows = rows();
        let naive = row(rows, DispatchStrategy::Naive);
        let threaded = row(rows, DispatchStrategy::Threaded);
        let tiered = row(rows, DispatchStrategy::Tiered);
        assert!(
            tiered.insns_per_command < threaded.insns_per_command,
            "tiered {} !< threaded {}",
            tiered.insns_per_command,
            threaded.insns_per_command
        );
        assert!(
            threaded.insns_per_command < naive.insns_per_command,
            "threaded {} !< naive {}",
            threaded.insns_per_command,
            naive.insns_per_command
        );
        assert!(tiered.delta_vs_naive_pct.is_some_and(|p| p < 0.0));
        assert!(tiered.delta_vs_threaded_pct.is_some_and(|p| p < 0.0));
    }

    #[test]
    fn trace_metrics_appear_only_on_the_tiered_row() {
        let rows = rows();
        let tiered = row(rows, DispatchStrategy::Tiered);
        assert!(
            tiered.traces_recorded > 0,
            "macro suite must heat at least one loop"
        );
        assert!(
            tiered.trace_coverage_pct > 0.0 && tiered.trace_coverage_pct < 100.0,
            "coverage = {}",
            tiered.trace_coverage_pct
        );
        for strategy in [DispatchStrategy::Naive, DispatchStrategy::Threaded] {
            let pure = row(rows, strategy);
            assert_eq!(pure.trace_coverage_pct, 0.0, "{strategy:?}");
            assert_eq!(pure.traces_recorded, 0, "{strategy:?}");
            assert_eq!(pure.side_exits_per_kcmd, 0.0, "{strategy:?}");
        }
    }

    #[test]
    fn traces_cut_fetch_decode_below_threading() {
        let rows = rows();
        let threaded = row(rows, DispatchStrategy::Threaded);
        let tiered = row(rows, DispatchStrategy::Tiered);
        assert!(
            tiered.fetch_decode_per_command < threaded.fetch_decode_per_command,
            "tiered F/D {} !< threaded F/D {}",
            tiered.fetch_decode_per_command,
            threaded.fetch_decode_per_command
        );
    }

    #[test]
    fn render_contains_every_row_and_both_deltas() {
        let text = render(rows());
        for s in ["naive", "threaded", "tiered", "baseline", "vs-threaded", "trace%"] {
            assert!(text.contains(s), "missing {s}:\n{text}");
        }
    }
}
