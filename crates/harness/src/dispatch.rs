//! Dispatch-tier experiment: what each fast-dispatch strategy buys, per
//! interpreter, on the macro suite.
//!
//! One row per `(language, strategy)` pair: macro-suite totals under the
//! pipeline model, rendered as native instructions per virtual command,
//! the fetch/decode share of that, the percentage delta against the same
//! language's naive row, and the architectural side effects (I-cache
//! miss and branch-mispredict issue-slot fractions) — the paper's §3
//! "cost of dispatch" argument extended with the classic remedies:
//! threaded dispatch, superinstructions, and inline caches.
//!
//! Naive rows reuse Table 2's pipeline artifacts verbatim (same
//! [`RunRequest`] fingerprints, so the shared plan runs each workload
//! once); non-naive rows add one pipeline run per supported strategy.

use interp_core::{DispatchSelection, DispatchStrategy, Language, Phase, RunRequest, RunStats};
use interp_runplan::ArtifactStore;
use interp_workloads::{macro_suite, Scale};

/// One row: one interpreter under one dispatch strategy, summed over
/// its macro suite.
#[derive(Debug, Clone)]
pub struct DispatchRow {
    /// Language (table section).
    pub language: Language,
    /// Dispatch strategy this row ran under.
    pub strategy: DispatchStrategy,
    /// Virtual commands executed across the suite.
    pub commands: u64,
    /// Native instructions executed (excluding startup) across the suite.
    pub native_instructions: u64,
    /// Native instructions per virtual command.
    pub insns_per_command: f64,
    /// Fetch/decode native instructions per virtual command.
    pub fetch_decode_per_command: f64,
    /// Percentage change of `insns_per_command` vs the language's naive
    /// row (negative = fewer instructions). `None` on the naive row.
    pub delta_vs_naive_pct: Option<f64>,
    /// Cycle-weighted I-cache-miss issue-slot fraction.
    pub imiss_fraction: f64,
    /// Cycle-weighted branch-mispredict issue-slot fraction.
    pub mispredict_fraction: f64,
    /// Degradation marker when any suite run failed (numeric fields
    /// zeroed and the render prints this instead).
    pub degraded: Option<String>,
}

/// The interpreted languages the experiment charts, in table order.
/// (Compiled C has no dispatch loop, hence no row.)
fn languages() -> impl Iterator<Item = Language> {
    Language::ALL.into_iter().filter(|l| *l != Language::C)
}

/// Every run the experiment needs under `selection`: each interpreted
/// language's macro suite under the pipeline model, once per selected
/// strategy the language supports. Naive requests are byte-identical to
/// Table 2's, so the shared plan deduplicates them.
pub fn requests_with(scale: Scale, selection: &DispatchSelection) -> Vec<RunRequest> {
    let mut out = Vec::new();
    for lang in languages() {
        for strategy in selection.for_language(lang) {
            out.extend(
                macro_suite(scale)
                    .into_iter()
                    .filter(|w| w.language == lang)
                    .map(|w| RunRequest::pipeline(w).with_dispatch(strategy)),
            );
        }
    }
    out
}

/// Every run the full experiment needs (all supported strategies).
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    requests_with(scale, &DispatchSelection::all())
}

/// Assemble the rows `selection` induces from memoized artifacts.
pub fn dispatch_from(
    store: &ArtifactStore,
    scale: Scale,
    selection: &DispatchSelection,
) -> Vec<DispatchRow> {
    let mut rows = Vec::new();
    for lang in languages() {
        let mut naive_ipc: Option<f64> = None;
        for strategy in selection.for_language(lang) {
            let mut row = suite_row(store, scale, lang, strategy);
            if strategy == DispatchStrategy::Naive {
                naive_ipc = (row.degraded.is_none()).then_some(row.insns_per_command);
            } else if row.degraded.is_none() {
                row.delta_vs_naive_pct = naive_ipc
                    .filter(|n| *n > 0.0)
                    .map(|n| (row.insns_per_command - n) / n * 100.0);
            }
            rows.push(row);
        }
    }
    rows
}

/// One language's macro-suite totals under one dispatch strategy: the
/// sums every per-suite row (this module's and [`crate::tiered`]'s) is
/// built from.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SuiteSums {
    pub commands: u64,
    /// Steady-state native instructions.
    pub native: u64,
    pub fetch_decode: u64,
    pub cycles: u64,
    /// Cycles weighted by their I-cache-miss issue-slot fraction.
    pub imiss_cycles: f64,
    /// Cycles weighted by their branch-mispredict issue-slot fraction.
    pub mispredict_cycles: f64,
}

impl SuiteSums {
    /// `n` per virtual command (0 for an empty suite).
    pub fn per_cmd(&self, n: u64) -> f64 {
        if self.commands == 0 {
            0.0
        } else {
            n as f64 / self.commands as f64
        }
    }

    /// Cycle-weighted `x` as a share of all cycles (0 for no cycles).
    pub fn per_cycle(&self, x: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            x / self.cycles as f64
        }
    }
}

/// Sum `language`'s macro suite under `strategy` from the store's
/// pipeline artifacts, handing each healthy run's stats to `each` for
/// any extra counters. A degraded run makes the whole suite degraded:
/// the last run's marker is returned in place of the sums.
pub(crate) fn sum_suite(
    store: &ArtifactStore,
    scale: Scale,
    language: Language,
    strategy: DispatchStrategy,
    mut each: impl FnMut(&RunStats),
) -> Result<SuiteSums, String> {
    let mut sums = SuiteSums::default();
    let mut degraded = None;
    for workload in macro_suite(scale).into_iter().filter(|w| w.language == language) {
        let request = RunRequest::pipeline(workload).with_dispatch(strategy);
        match crate::degrade::cell(store, &request) {
            Ok(artifact) => {
                let stats = &artifact.stats;
                sums.commands += stats.commands;
                sums.native += stats.steady_state_instructions();
                sums.fetch_decode += stats.phase_instructions(Phase::FetchDecode);
                each(stats);
                let summary = artifact.cycle_summary();
                sums.cycles += summary.cycles;
                sums.imiss_cycles += summary.cycles as f64 * summary.stall_fraction("imiss");
                sums.mispredict_cycles +=
                    summary.cycles as f64 * summary.stall_fraction("mispredict");
            }
            Err(marker) => degraded = Some(marker),
        }
    }
    match degraded {
        Some(marker) => Err(marker),
        None => Ok(sums),
    }
}

/// Sum one language's macro suite under one strategy into a row.
fn suite_row(
    store: &ArtifactStore,
    scale: Scale,
    language: Language,
    strategy: DispatchStrategy,
) -> DispatchRow {
    match sum_suite(store, scale, language, strategy, |_| {}) {
        Ok(sums) => DispatchRow {
            language,
            strategy,
            commands: sums.commands,
            native_instructions: sums.native,
            insns_per_command: sums.per_cmd(sums.native),
            fetch_decode_per_command: sums.per_cmd(sums.fetch_decode),
            delta_vs_naive_pct: None,
            imiss_fraction: sums.per_cycle(sums.imiss_cycles),
            mispredict_fraction: sums.per_cycle(sums.mispredict_cycles),
            degraded: None,
        },
        Err(marker) => DispatchRow {
            language,
            strategy,
            commands: 0,
            native_instructions: 0,
            insns_per_command: 0.0,
            fetch_decode_per_command: 0.0,
            delta_vs_naive_pct: None,
            imiss_fraction: 0.0,
            mispredict_fraction: 0.0,
            degraded: Some(marker),
        },
    }
}

/// Render paper-style text.
pub fn render(rows: &[DispatchRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Dispatch tiers: macro-suite cost per virtual command by dispatch strategy"
    );
    let _ = writeln!(
        out,
        "{:<16} {:<13} {:>12} {:>11} {:>9} {:>11} {:>7} {:>11}",
        "language",
        "strategy",
        "vcommands",
        "insns/cmd",
        "F/D/cmd",
        "vs-naive",
        "imiss",
        "mispredict"
    );
    for row in rows {
        if let Some(marker) = &row.degraded {
            let _ = writeln!(
                out,
                "{:<16} {:<13} {marker}",
                row.language.label(),
                row.strategy.label()
            );
            continue;
        }
        let delta = match row.delta_vs_naive_pct {
            Some(pct) => format!("{pct:+.1}%"),
            None => "baseline".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:<13} {:>12} {:>11.1} {:>9.1} {:>11} {:>6.1}% {:>10.1}%",
            row.language.label(),
            row.strategy.label(),
            row.commands,
            row.insns_per_command,
            row.fetch_decode_per_command,
            delta,
            row.imiss_fraction * 100.0,
            row.mispredict_fraction * 100.0
        );
    }
    out
}

/// Assemble and render in one step (the `repro` path).
pub fn render_from(store: &ArtifactStore, scale: Scale, selection: &DispatchSelection) -> String {
    render(&dispatch_from(store, scale, selection))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> &'static [DispatchRow] {
        use std::sync::OnceLock;
        static ROWS: OnceLock<Vec<DispatchRow>> = OnceLock::new();
        ROWS.get_or_init(|| {
            dispatch_from(crate::experiments::test_store(), Scale::Test, &DispatchSelection::all())
        })
    }

    fn row(rows: &[DispatchRow], lang: Language, strategy: DispatchStrategy) -> &DispatchRow {
        rows.iter()
            .find(|r| r.language == lang && r.strategy == strategy)
            .expect("row exists")
    }

    #[test]
    fn every_supported_pair_gets_a_row() {
        let rows = rows();
        // mipsi: 3, javelin: 4 (tiered included), perlite: 2, tclite: 2.
        assert_eq!(rows.len(), 11);
        for r in rows {
            assert!(r.degraded.is_none(), "{:?} degraded", (r.language, r.strategy));
            assert!(r.commands > 0 && r.insns_per_command > 0.0);
        }
    }

    #[test]
    fn fast_dispatch_tiers_reduce_host_instructions_per_command() {
        let rows = rows();
        for lang in [Language::Mipsi, Language::Javelin] {
            let naive = row(rows, lang, DispatchStrategy::Naive);
            for strategy in [DispatchStrategy::Threaded, DispatchStrategy::Superinstr] {
                let fast = row(rows, lang, strategy);
                assert!(
                    fast.insns_per_command < naive.insns_per_command,
                    "{lang:?} {strategy:?}: {} !< {}",
                    fast.insns_per_command,
                    naive.insns_per_command
                );
                assert!(
                    fast.delta_vs_naive_pct.is_some_and(|p| p < 0.0),
                    "{lang:?} {strategy:?} delta {:?}",
                    fast.delta_vs_naive_pct
                );
                // Same work, fewer instructions: command streams agree.
                assert_eq!(fast.commands, naive.commands, "{lang:?} {strategy:?}");
            }
        }
        for lang in [Language::Perlite, Language::Tclite] {
            let naive = row(rows, lang, DispatchStrategy::Naive);
            let ic = row(rows, lang, DispatchStrategy::InlineCache);
            assert!(
                ic.insns_per_command < naive.insns_per_command,
                "{lang:?} inline-cache: {} !< {}",
                ic.insns_per_command,
                naive.insns_per_command
            );
            assert_eq!(ic.commands, naive.commands, "{lang:?}");
        }
    }

    #[test]
    fn superinstructions_beat_plain_threading_on_fusable_streams() {
        // MIPSI's macro suite is dense straight-line code: fused pairs
        // must cut fetch/decode below the threaded tier's.
        let rows = rows();
        let threaded = row(rows, Language::Mipsi, DispatchStrategy::Threaded);
        let fused = row(rows, Language::Mipsi, DispatchStrategy::Superinstr);
        assert!(
            fused.fetch_decode_per_command < threaded.fetch_decode_per_command,
            "fused F/D {} !< threaded F/D {}",
            fused.fetch_decode_per_command,
            threaded.fetch_decode_per_command
        );
    }

    #[test]
    fn render_contains_every_strategy_label() {
        let text = render(rows());
        for s in ["naive", "threaded", "superinstr", "inline-cache", "baseline"] {
            assert!(text.contains(s), "missing {s}:\n{text}");
        }
    }
}
