//! The experiment registry: every `repro` target, its run requests, and
//! its exact stdout rendering.
//!
//! The `repro` binary and the golden-snapshot tests share this module,
//! so "what `repro all` prints" is defined in exactly one place:
//! [`render_target`] returns the byte-exact text the binary writes for
//! a target (including the trailing blank line between sections), and
//! the goldens test pins those bytes per renderer.

use interp_core::{DispatchSelection, RunRequest};
use interp_runplan::serve::{PlanService, Reject, RejectKind, ServeRequest};
use interp_runplan::{ArtifactStore, ExecutedPlan, Plan};

use crate::{ablations, arch, dispatch, figures, memmodel, table1, table2, tiered, Scale};

/// Every experiment target, in canonical render order, with its
/// one-line description.
pub const TARGETS: [(&str, &str); 11] = [
    ("table1", "microbenchmark slowdowns relative to compiled C"),
    ("table2", "baseline macro-benchmark measurements"),
    ("table3", "simulated machine parameters (no runs needed)"),
    ("fig1", "cumulative per-command instruction distributions"),
    ("fig2", "per-command dispatch vs execute histograms"),
    ("memmodel", "Section 3.3 memory-model cost"),
    ("fig3", "issue-slot breakdown under the pipeline model"),
    ("fig4", "I-cache size x associativity sweep"),
    ("dispatch", "fast-dispatch tiers: threaded, superinstr, inline-cache deltas"),
    ("tiered", "trace-recording tiered execution: coverage, side exits, deltas"),
    ("ablations", "iTLB, dispatch, symbol-table, precompilation ablations"),
];

/// Is `target` a known experiment name?
pub fn is_target(target: &str) -> bool {
    TARGETS.iter().any(|(n, _)| *n == target)
}

/// The run requests one target contributes to the shared plan under a
/// dispatch-strategy selection (only the `dispatch` family is
/// selection-sensitive). Unknown targets contribute nothing (the CLI
/// validates names before planning).
pub fn requests_for_with(
    target: &str,
    scale: Scale,
    selection: &DispatchSelection,
) -> Vec<RunRequest> {
    match target {
        "table1" => table1::requests(scale),
        "table2" => table2::requests(scale),
        "fig1" | "fig2" => figures::requests(scale),
        "memmodel" => memmodel::requests(scale),
        "fig3" => arch::fig3_requests(scale),
        "fig4" => arch::fig4_requests(scale),
        "dispatch" => dispatch::requests_with(scale, selection),
        "tiered" => tiered::requests(scale),
        "ablations" => ablations::requests(scale),
        _ => Vec::new(),
    }
}

/// The run requests one target contributes with every supported
/// dispatch strategy selected.
pub fn requests_for(target: &str, scale: Scale) -> Vec<RunRequest> {
    requests_for_with(target, scale, &DispatchSelection::all())
}

/// The union of every target's requests under a selection — the
/// `repro all` plan input.
pub fn all_requests_with(scale: Scale, selection: &DispatchSelection) -> Vec<RunRequest> {
    TARGETS
        .iter()
        .flat_map(|(name, _)| requests_for_with(name, scale, selection))
        .collect()
}

/// The union of every target's requests (full dispatch selection).
pub fn all_requests(scale: Scale) -> Vec<RunRequest> {
    all_requests_with(scale, &DispatchSelection::all())
}

/// The exact stdout text `repro` prints for `target` under a selection,
/// trailing newline included. Unknown targets render as empty.
pub fn render_target_with(
    target: &str,
    store: &ArtifactStore,
    scale: Scale,
    selection: &DispatchSelection,
) -> String {
    match target {
        "table1" => format!("{}\n", table1::render(&table1::table1_from(store, scale))),
        "table2" => format!("{}\n", table2::render(&table2::table2_from(store, scale))),
        "table3" => render_table3(),
        "fig1" => format!("{}\n", figures::render_fig1(&figures::fig1_from(store, scale))),
        "fig2" => format!("{}\n", figures::render_fig2(&figures::fig2_from(store, scale))),
        "memmodel" => format!("{}\n", memmodel::render(&memmodel::memmodel_from(store, scale))),
        "fig3" => format!("{}\n", arch::render_fig3(&arch::fig3_from(store, scale))),
        "fig4" => format!("{}\n", arch::render_fig4(&arch::fig4_from(store, scale))),
        "dispatch" => format!("{}\n", dispatch::render_from(store, scale, selection)),
        "tiered" => format!("{}\n", tiered::render_from(store, scale)),
        "ablations" => format!("{}\n", ablations::render_from(store, scale)),
        _ => String::new(),
    }
}

/// The exact stdout text `repro` prints for `target` with every
/// supported dispatch strategy selected.
pub fn render_target(target: &str, store: &ArtifactStore, scale: Scale) -> String {
    render_target_with(target, store, scale, &DispatchSelection::all())
}

/// The [`PlanService`] the `repro serve` daemon runs over this registry:
/// a request's targets are validated and expanded exactly like the batch
/// CLI's positional targets (`all` expands to every target; unknown names
/// are a typed [`RejectKind::UnknownTarget`] rejection), and the response
/// body is the same canonical-order concatenation of renders the batch
/// CLI prints — so a serve-mode response byte-diffs cleanly against a
/// cold batch run of the same selection.
pub struct ExperimentService;

impl ExperimentService {
    /// Validate and expand a request's target list into canonical
    /// registry order (the batch CLI's selection semantics).
    fn selected_targets(request: &ServeRequest) -> Result<Vec<&'static str>, Reject> {
        if request.targets.iter().any(|t| t == "all") {
            return Ok(TARGETS.iter().map(|(n, _)| *n).collect());
        }
        for t in &request.targets {
            if !is_target(t) {
                return Err(Reject::new(
                    RejectKind::UnknownTarget,
                    format!("unknown target `{t}`"),
                ));
            }
        }
        Ok(TARGETS
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| request.targets.iter().any(|t| t == n))
            .collect())
    }

    /// The dispatch selection a request names (default: every supported
    /// tier, matching the batch CLI's default).
    fn selection(request: &ServeRequest) -> DispatchSelection {
        request.dispatch.clone().unwrap_or_default()
    }
}

impl PlanService for ExperimentService {
    fn plan(&self, request: &ServeRequest) -> Result<Plan, Reject> {
        let targets = Self::selected_targets(request)?;
        let selection = Self::selection(request);
        Ok(Plan::build(targets.iter().flat_map(|t| {
            requests_for_with(t, request.scale, &selection)
        })))
    }

    fn render(&self, request: &ServeRequest, executed: &ExecutedPlan) -> String {
        // Target validation already passed in `plan`; re-expanding here
        // cannot fail for a request the daemon admitted.
        let targets = Self::selected_targets(request).unwrap_or_default();
        let selection = Self::selection(request);
        let mut out = String::new();
        for name in targets {
            out.push_str(&render_target_with(
                name,
                &executed.store,
                request.scale,
                &selection,
            ));
        }
        out
    }
}

/// Table 3 needs no runs: it renders the timing model's parameters.
pub fn render_table3() -> String {
    let cfg = interp_archsim::SimConfig::default();
    let mut out = String::new();
    out.push_str("Table 3: simulated machine parameters\n");
    out.push_str(&format!("  issue width:        {}\n", cfg.issue_width));
    out.push_str(&format!(
        "  L1 I-cache:         {} KB, {}-way, {}B lines\n",
        cfg.icache_bytes / 1024,
        cfg.icache_assoc,
        cfg.line_bytes
    ));
    out.push_str(&format!(
        "  L1 D-cache:         {} KB, {}-way\n",
        cfg.dcache_bytes / 1024,
        cfg.dcache_assoc
    ));
    out.push_str(&format!(
        "  L2 unified:         {} KB, {}-way\n",
        cfg.l2_bytes / 1024,
        cfg.l2_assoc
    ));
    out.push_str(&format!(
        "  iTLB/dTLB:          {} / {} entries, {} KB pages\n",
        cfg.itlb_entries,
        cfg.dtlb_entries,
        cfg.page_bytes / 1024
    ));
    out.push_str(&format!(
        "  branch:             {}-entry 1-bit BHT, {}-entry BTC, {}-entry return stack\n",
        cfg.bht_entries, cfg.btc_entries, cfg.ras_entries
    ));
    out.push_str(&format!(
        "  penalties (cycles): short-int {}, load-delay {}, mispredict {}, tlb {}, L1-miss {}, L2-miss {}, mul {}\n",
        cfg.short_int_delay,
        cfg.load_delay,
        cfg.mispredict_penalty,
        cfg.tlb_miss_penalty,
        cfg.l1_miss_penalty,
        cfg.l2_miss_penalty,
        cfg.mul_delay
    ));
    out.push('\n');
    out
}

/// Every run `repro all` plans at test scale, executed once per test
/// binary and shared by the experiment modules' unit tests — the same
/// deduplicated, subsuming plan the CLI renders from.
#[cfg(test)]
pub(crate) fn test_store() -> &'static ArtifactStore {
    use interp_runplan::{default_jobs, execute_supervised, SuperviseConfig};
    static STORE: std::sync::OnceLock<ArtifactStore> = std::sync::OnceLock::new();
    STORE.get_or_init(|| {
        let plan = Plan::build(all_requests(Scale::Test));
        execute_supervised(&plan, default_jobs(), &SuperviseConfig::new()).store
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_known() {
        let mut names: Vec<&str> = TARGETS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TARGETS.len());
        assert!(is_target("table1"));
        assert!(!is_target("bogus"));
    }

    #[test]
    fn table3_needs_no_runs() {
        assert!(requests_for("table3", Scale::Test).is_empty());
        assert!(render_table3().starts_with("Table 3"));
        assert!(render_table3().ends_with("\n\n"));
    }
}
