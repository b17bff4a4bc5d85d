//! Figures 1 and 2: per-command instruction distributions.

use interp_core::{CumulativePoint, HistogramRow, Language, RunRequest, WorkloadId};
use interp_runplan::ArtifactStore;
use interp_workloads::{macro_suite, Scale};

/// The interpreted rows of the macro suite (Figures 1/2 exclude C, which
/// has no virtual commands to profile).
fn interpreted_suite(scale: Scale) -> impl Iterator<Item = WorkloadId> {
    macro_suite(scale)
        .into_iter()
        .filter(|w| w.language != Language::C)
}

/// Every run Figures 1 and 2 need: counting runs of the interpreted
/// suite. (When table2/fig3 plan pipeline twins, the planner subsumes
/// these — the same artifacts serve both.)
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    interpreted_suite(scale).map(RunRequest::counting).collect()
}

/// Figure 1: cumulative execute-instruction distributions, one series per
/// macro benchmark.
#[derive(Debug, Clone)]
pub struct Fig1Series {
    /// Language.
    pub language: Language,
    /// Benchmark.
    pub benchmark: String,
    /// Cumulative points (rank → fraction).
    pub points: Vec<CumulativePoint>,
    /// Top commands needed to cover 90% of execute instructions.
    pub commands_for_90pct: usize,
    /// Degradation marker when the counting run failed (points empty).
    pub degraded: Option<String>,
}

/// Assemble Figure 1 from memoized artifacts.
pub fn fig1_from(store: &ArtifactStore, scale: Scale) -> Vec<Fig1Series> {
    interpreted_suite(scale)
        .map(|workload| {
            match crate::degrade::cell(store, &RunRequest::counting(workload)) {
                Ok(artifact) => {
                    let profile = artifact.profile();
                    Fig1Series {
                        language: workload.language,
                        benchmark: workload.name.to_string(),
                        commands_for_90pct: profile.commands_to_cover(0.9),
                        points: profile.cumulative(),
                        degraded: None,
                    }
                }
                Err(marker) => Fig1Series {
                    language: workload.language,
                    benchmark: workload.name.to_string(),
                    commands_for_90pct: 0,
                    points: Vec::new(),
                    degraded: Some(marker),
                },
            }
        })
        .collect()
}

/// Figure 2: paired histograms (command count % vs. execute instruction %)
/// for the top commands of one benchmark.
#[derive(Debug, Clone)]
pub struct Fig2Panel {
    /// Language.
    pub language: Language,
    /// Benchmark.
    pub benchmark: String,
    /// Rows, sorted by execute share.
    pub rows: Vec<HistogramRow>,
    /// Degradation marker when the counting run failed (rows empty).
    pub degraded: Option<String>,
}

/// Assemble Figure 2 panels (top 10 commands each) from memoized
/// artifacts.
pub fn fig2_from(store: &ArtifactStore, scale: Scale) -> Vec<Fig2Panel> {
    interpreted_suite(scale)
        .map(|workload| {
            match crate::degrade::cell(store, &RunRequest::counting(workload)) {
                Ok(artifact) => Fig2Panel {
                    language: workload.language,
                    benchmark: workload.name.to_string(),
                    rows: artifact.profile().histogram(10),
                    degraded: None,
                },
                Err(marker) => Fig2Panel {
                    language: workload.language,
                    benchmark: workload.name.to_string(),
                    rows: Vec::new(),
                    degraded: Some(marker),
                },
            }
        })
        .collect()
}

/// Render Figure 1 as text.
pub fn render_fig1(series: &[Fig1Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: top-N virtual commands vs cumulative % of execute instructions"
    );
    for s in series {
        if let Some(marker) = &s.degraded {
            let _ = writeln!(out, "{:<16} {:<10} {marker}", s.language.label(), s.benchmark);
            continue;
        }
        let head: Vec<String> = s
            .points
            .iter()
            .take(5)
            .map(|p| format!("{}:{:.0}%", p.rank, p.cumulative_fraction * 100.0))
            .collect();
        let _ = writeln!(
            out,
            "{:<16} {:<10} 90% at top-{:<3} [{}]",
            s.language.label(),
            s.benchmark,
            s.commands_for_90pct,
            head.join(" ")
        );
    }
    out
}

/// Render Figure 2 as text.
pub fn render_fig2(panels: &[Fig2Panel]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: per-command % of dispatches (white) vs % of execute instructions (grey)"
    );
    for p in panels {
        let _ = writeln!(out, "--- {} {}", p.language.label(), p.benchmark);
        if let Some(marker) = &p.degraded {
            let _ = writeln!(out, "  {marker}");
            continue;
        }
        for row in &p.rows {
            let _ = writeln!(
                out,
                "  {:<16} {:>5.1}% cmds  {:>5.1}% insns",
                row.name,
                row.command_fraction * 100.0,
                row.execute_fraction * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_store;
    use interp_runplan::{default_jobs, execute_supervised, ExecutedPlan, Plan, SuperviseConfig};

    fn execute(requests: impl IntoIterator<Item = RunRequest>) -> ExecutedPlan {
        execute_supervised(&Plan::build(requests), default_jobs(), &SuperviseConfig::new())
    }

    #[test]
    fn fig1_concentration_claims() {
        let series = fig1_from(test_store(), Scale::Test);
        assert_eq!(series.len(), 23);
        // Tcl des: a couple of commands dominate (paper: 2 commands = 96%).
        let tcl_des = series
            .iter()
            .find(|s| s.language == Language::Tclite && s.benchmark == "des")
            .unwrap();
        assert!(
            tcl_des.commands_for_90pct <= 6,
            "tcl des needs {} commands for 90%",
            tcl_des.commands_for_90pct
        );
        // Cumulative fractions are monotone and end at 1.
        for s in &series {
            let mut prev = 0.0;
            for p in &s.points {
                assert!(p.cumulative_fraction >= prev - 1e-12);
                prev = p.cumulative_fraction;
            }
            assert!((prev - 1.0).abs() < 1e-9, "{:?}", s.benchmark);
        }
    }

    #[test]
    fn fig2_txt2html_is_match_dominated() {
        let panels = fig2_from(test_store(), Scale::Test);
        let panel = panels
            .iter()
            .find(|p| p.language == Language::Perlite && p.benchmark == "txt2html")
            .unwrap();
        // The paper: match = 9% of commands but 84% of execute
        // instructions. Shape: match/subst lead the execute histogram
        // with a share far above their dispatch share.
        let top = &panel.rows[0];
        assert!(
            top.name == "match" || top.name == "subst",
            "top execute command is {}",
            top.name
        );
        assert!(
            top.execute_fraction > 3.0 * top.command_fraction,
            "{}: {:.2} exec vs {:.2} cmds",
            top.name,
            top.execute_fraction,
            top.command_fraction
        );
    }

    #[test]
    fn fig2_mipsi_memory_ops_rank_high() {
        let panels = fig2_from(test_store(), Scale::Test);
        let panel = panels
            .iter()
            .find(|p| p.language == Language::Mipsi && p.benchmark == "compress")
            .unwrap();
        let top5: Vec<&str> = panel.rows.iter().take(5).map(|r| r.name.as_str()).collect();
        assert!(
            top5.iter().any(|n| *n == "lw" || *n == "sw" || *n == "lbu" || *n == "lb"),
            "MIPSI compress top-5 {top5:?} should include memory ops"
        );
    }

    #[test]
    fn fig2_java_native_share_for_graphics() {
        let panels = fig2_from(test_store(), Scale::Test);
        let hanoi = panels
            .iter()
            .find(|p| p.language == Language::Javelin && p.benchmark == "hanoi")
            .unwrap();
        let native = hanoi.rows.iter().find(|r| r.name == "native");
        assert!(
            native.map(|r| r.execute_fraction).unwrap_or(0.0) > 0.3,
            "hanoi should spend most execute instructions in native code: {:?}",
            hanoi.rows
        );
    }

    #[test]
    fn figures_read_identically_through_a_subsuming_pipeline_plan() {
        // Plan fig1's counting requests together with table2's pipeline
        // twins: the planner drops the counting runs, and the store
        // resolves the counting lookups to the pipeline artifacts.
        let scale = Scale::Test;
        let union = requests(scale)
            .into_iter()
            .chain(crate::table2::requests(scale));
        let executed = execute(union);
        assert_eq!(
            executed.store.len(),
            24,
            "counting runs subsumed: only the 24 pipeline runs execute"
        );
        let counting_only = execute(requests(scale));
        let direct = render_fig1(&fig1_from(&counting_only.store, scale));
        let shared = render_fig1(&fig1_from(&executed.store, scale));
        assert_eq!(direct, shared);
    }

    #[test]
    fn renders_are_nonempty() {
        let f1 = fig1_from(test_store(), Scale::Test);
        let f2 = fig2_from(test_store(), Scale::Test);
        assert!(render_fig1(&f1).contains("90% at top-"));
        assert!(render_fig2(&f2).contains("% insns"));
    }
}
