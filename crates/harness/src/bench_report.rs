//! `repro bench`: a small committed benchmark trajectory of exact
//! numbers.
//!
//! Plans each experiment target on its own (without executing it),
//! then executes the combined `all` plan once, and reports per-target
//! plan sizes, the cross-experiment dedup reuse ratio (how much of the
//! naive union the shared plan avoids re-running), and the
//! per-dispatch-strategy macro-suite instruction counts (with a hard
//! regression gate: every fast tier must execute fewer host
//! instructions per virtual command than its naive baseline). Nothing
//! here is a wall-clock sample — timings, with their spread, are
//! `perfbench`'s job — so the report is byte-identical on every host
//! and at every job count. The JSON rendering is hand-rolled — the
//! schema is flat and the repo takes no serialization dependency — and
//! is what `repro bench` writes to `BENCH_trajectory.json`.

use crate::experiments::{all_requests, requests_for, TARGETS};
use crate::{dispatch, Scale};
use interp_core::{DispatchSelection, DispatchStrategy};
use interp_runplan::{execute_supervised, Plan, SuperviseConfig};

/// One target's plan size.
#[derive(Debug, Clone)]
pub struct BenchTarget {
    /// Experiment name (`table1`, `fig3`, ...).
    pub name: &'static str,
    /// Runs in the target's private deduplicated plan.
    pub runs: usize,
}

/// One `(interpreter, dispatch strategy)` data point: the macro suite's
/// host-instruction cost under that tier.
#[derive(Debug, Clone)]
pub struct DispatchBench {
    /// Language tag (`mipsi`, `javelin`, ...).
    pub language: &'static str,
    /// Strategy label (`naive`, `threaded`, ...).
    pub strategy: &'static str,
    /// Virtual commands across the suite.
    pub commands: u64,
    /// Native instructions across the suite (excluding startup).
    pub native_instructions: u64,
    /// Native instructions per virtual command.
    pub insns_per_command: f64,
}

/// The full trajectory `repro bench` emits.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload scale the sweep ran at.
    pub scale: Scale,
    /// Per-target plan sizes, in canonical target order.
    pub targets: Vec<BenchTarget>,
    /// Requests in the naive union of every target (with duplicates).
    pub combined_requests: usize,
    /// Runs in the shared deduplicated `all` plan.
    pub combined_plan_runs: usize,
    /// Fraction of the naive union the shared plan never has to run:
    /// `1 - combined_plan_runs / combined_requests`.
    pub dedup_reuse_ratio: f64,
    /// Per-strategy macro-suite instruction data, table order.
    pub dispatch: Vec<DispatchBench>,
}

impl BenchReport {
    /// Dispatch-tier regressions: every fast tier must execute strictly
    /// fewer host instructions per virtual command than the same
    /// interpreter's naive baseline on the macro suite. Returns one
    /// message per violated pair (empty = gate passes).
    pub fn dispatch_regressions(&self) -> Vec<String> {
        let mut out = Vec::new();
        for point in &self.dispatch {
            if point.strategy == DispatchStrategy::Naive.label() {
                continue;
            }
            let Some(naive) = self
                .dispatch
                .iter()
                .find(|p| {
                    p.language == point.language
                        && p.strategy == DispatchStrategy::Naive.label()
                })
            else {
                continue;
            };
            if point.insns_per_command >= naive.insns_per_command {
                out.push(format!(
                    "{} {}: {:.1} insns/cmd, not below naive's {:.1}",
                    point.language,
                    point.strategy,
                    point.insns_per_command,
                    naive.insns_per_command
                ));
            }
        }
        out
    }
}

/// Build the benchmark report: every target's plan size (planned, not
/// executed), then the shared plan, executed once for the dispatch
/// section.
pub fn run_bench(scale: Scale, jobs: usize, config: &SuperviseConfig) -> BenchReport {
    let targets = TARGETS
        .iter()
        .map(|&(name, _)| BenchTarget {
            name,
            runs: Plan::build(requests_for(name, scale)).len(),
        })
        .collect();
    let union = all_requests(scale);
    let combined_requests = union.len();
    let plan = Plan::build(union);
    let combined_plan_runs = plan.len();
    let executed = execute_supervised(&plan, jobs, config);
    let dedup_reuse_ratio = if combined_requests > 0 {
        1.0 - combined_plan_runs as f64 / combined_requests as f64
    } else {
        0.0
    };
    // The combined plan already holds every dispatch-family artifact;
    // read the per-strategy suite totals straight out of its store.
    let dispatch = dispatch::dispatch_from(&executed.store, scale, &DispatchSelection::all())
        .into_iter()
        .filter(|row| row.degraded.is_none())
        .map(|row| DispatchBench {
            language: row.language.tag(),
            strategy: row.strategy.label(),
            commands: row.commands,
            native_instructions: row.native_instructions,
            insns_per_command: row.insns_per_command,
        })
        .collect();
    BenchReport {
        scale,
        targets,
        combined_requests,
        combined_plan_runs,
        dedup_reuse_ratio,
        dispatch,
    }
}

/// Round to three decimals for stable, readable JSON.
fn r3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The JSON document written to `BENCH_trajectory.json`.
pub fn render_json(report: &BenchReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench-trajectory/6\",\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale.label()));
    out.push_str("  \"targets\": [\n");
    for (i, t) in report.targets.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"runs\": {}}}{}\n",
            t.name,
            t.runs,
            if i + 1 == report.targets.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"combined_requests\": {},\n",
        report.combined_requests
    ));
    out.push_str(&format!(
        "  \"combined_plan_runs\": {},\n",
        report.combined_plan_runs
    ));
    out.push_str(&format!(
        "  \"dedup_reuse_ratio\": {},\n",
        r3(report.dedup_reuse_ratio)
    ));
    out.push_str("  \"dispatch\": [\n");
    for (i, d) in report.dispatch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"language\": \"{}\", \"strategy\": \"{}\", \"vcommands\": {}, \"native_instructions\": {}, \"insns_per_command\": {}}}{}\n",
            d.language,
            d.strategy,
            d.commands,
            d.native_instructions,
            r3(d.insns_per_command),
            if i + 1 == report.dispatch.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// The human summary printed alongside the JSON file.
pub fn render_summary(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "bench ({} scale):", report.scale.label());
    for t in &report.targets {
        let _ = writeln!(out, "  {:<10} {:>3} run(s)", t.name, t.runs);
    }
    let _ = writeln!(
        out,
        "  combined   {:>3} run(s)  ({} requested, {:.0}% deduped away)",
        report.combined_plan_runs,
        report.combined_requests,
        report.dedup_reuse_ratio * 100.0
    );
    for d in &report.dispatch {
        let _ = writeln!(
            out,
            "  dispatch {:<8} {:<13} {:>10.1} insns/cmd",
            d.language, d.strategy, d.insns_per_command
        );
    }
    let regressions = report.dispatch_regressions();
    if regressions.is_empty() {
        let _ = writeln!(
            out,
            "bench: dispatch tiers ok (every fast tier below its naive insns/cmd baseline)"
        );
    } else {
        for r in &regressions {
            let _ = writeln!(out, "bench: dispatch REGRESSION: {r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            scale: Scale::Test,
            targets: vec![
                BenchTarget { name: "table1", runs: 10 },
                BenchTarget { name: "table2", runs: 20 },
            ],
            combined_requests: 30,
            combined_plan_runs: 24,
            dedup_reuse_ratio: 0.2,
            dispatch: vec![
                DispatchBench {
                    language: "mipsi",
                    strategy: "naive",
                    commands: 1000,
                    native_instructions: 60_000,
                    insns_per_command: 60.0,
                },
                DispatchBench {
                    language: "mipsi",
                    strategy: "threaded",
                    commands: 1000,
                    native_instructions: 52_000,
                    insns_per_command: 52.0,
                },
            ],
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let text = render_json(&tiny_report());
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"schema\": \"bench-trajectory/6\""), "{text}");
        assert!(text.contains("\"scale\": \"test\""), "{text}");
        assert!(text.contains("\"name\": \"table1\", \"runs\": 10}"), "{text}");
        assert!(!text.contains("wall_s"), "no wall-clock samples: {text}");
        assert!(text.contains("\"combined_plan_runs\": 24"), "{text}");
        assert!(text.contains("\"dedup_reuse_ratio\": 0.2,"), "{text}");
        assert!(
            text.contains(
                "{\"language\": \"mipsi\", \"strategy\": \"threaded\", \"vcommands\": 1000, \"native_instructions\": 52000, \"insns_per_command\": 52}"
            ),
            "{text}"
        );
        // No trailing comma before the array close.
        assert!(text.contains("\"runs\": 20}\n  ],"), "{text}");
        // Balanced braces and brackets.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
        assert_eq!(
            text.matches('[').count(),
            text.matches(']').count(),
            "{text}"
        );
    }

    #[test]
    fn summary_reports_dedup_ratio() {
        let text = render_summary(&tiny_report());
        assert!(text.contains("bench (test scale)"), "{text}");
        assert!(text.contains("20% deduped away"), "{text}");
        assert!(text.contains("dispatch tiers ok"), "{text}");
    }

    #[test]
    fn regression_gate_catches_a_slow_fast_tier() {
        let mut report = tiny_report();
        assert!(report.dispatch_regressions().is_empty());
        report.dispatch[1].insns_per_command = 60.0; // no longer below naive
        let regressions = report.dispatch_regressions();
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("mipsi threaded"), "{regressions:?}");
        assert!(
            render_summary(&report).contains("dispatch REGRESSION"),
            "summary must surface the gate"
        );
    }

    #[test]
    fn bench_sizes_every_target_plus_combined() {
        let report = run_bench(Scale::Test, 2, &SuperviseConfig::new());
        assert_eq!(report.targets.len(), TARGETS.len());
        // table3 needs no runs; every other target needs at least one.
        assert!(report.targets.iter().any(|t| t.runs == 0));
        assert!(report.targets.iter().filter(|t| t.runs > 0).count() >= 7);
        assert!(report.combined_plan_runs > 0);
        assert!(
            report.combined_plan_runs < report.combined_requests,
            "dedup must shrink the union: {} !< {}",
            report.combined_plan_runs,
            report.combined_requests
        );
        assert!(report.dedup_reuse_ratio > 0.0);
        // The dispatch section covers every supported (language, tier)
        // pair and the regression gate holds on real data. With the
        // tiered tier in Javelin's support set, the gate now also
        // requires javelin+tiered to strictly beat naive insns/cmd.
        assert_eq!(report.dispatch.len(), 11);
        assert!(
            report
                .dispatch
                .iter()
                .any(|d| d.language == "javelin" && d.strategy == "tiered"),
            "tiered point missing from the gate"
        );
        assert!(
            report.dispatch_regressions().is_empty(),
            "{:?}",
            report.dispatch_regressions()
        );
    }
}
