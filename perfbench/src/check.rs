//! Output checks and exact counts.
//!
//! Renders are compared byte for byte with the committed test-scale
//! goldens (`crates/harness/goldens/`); the simulated counts are read
//! straight out of an artifact store.

use std::collections::BTreeMap;
use std::path::Path;

use interp_core::{DispatchStrategy, Language, RunRequest, Scale};
use interp_harness::experiments::render_target;
use interp_runplan::ArtifactStore;
use interp_workloads::macro_suite;

/// The interpreted languages, in table order.
pub const INTERPRETERS: [Language; 4] = [
    Language::Mipsi,
    Language::Javelin,
    Language::Perlite,
    Language::Tclite,
];

/// Which golden file pins which targets: some goldens concatenate two
/// renders (`figures` = fig1 + fig2, `arch` = fig3 + fig4).
pub const GOLDENS: [(&str, &[&str]); 8] = [
    ("table1", &["table1"]),
    ("table2", &["table2"]),
    ("figures", &["fig1", "fig2"]),
    ("memmodel", &["memmodel"]),
    ("arch", &["fig3", "fig4"]),
    ("dispatch", &["dispatch"]),
    ("tiered", &["tiered"]),
    ("ablations", &["ablations"]),
];

/// The committed goldens, keyed by golden name.
pub fn load_goldens(root: &Path) -> Result<BTreeMap<&'static str, String>, String> {
    let dir = root.join("crates/harness/goldens");
    GOLDENS
        .iter()
        .map(|(name, _)| {
            let path = dir.join(format!("{name}.golden.txt"));
            std::fs::read_to_string(&path)
                .map(|text| (*name, text))
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
        })
        .collect()
}

/// Compare per-target renders with every golden whose targets were all
/// rendered; `expected` goldens must have been compared. Returns the
/// number of failures (goldens that differ, plus any shortfall), each
/// reported on stderr under `what`.
pub fn expect_goldens(
    what: &str,
    renders: &BTreeMap<&'static str, String>,
    goldens: &BTreeMap<&'static str, String>,
    expected: usize,
) -> u64 {
    let mut compared = 0;
    let mut mismatched = Vec::new();
    for (golden, targets) in GOLDENS {
        let parts: Option<Vec<&String>> = targets.iter().map(|t| renders.get(t)).collect();
        let (Some(parts), Some(expected)) = (parts, goldens.get(golden)) else {
            continue;
        };
        compared += 1;
        let actual: String = parts.into_iter().map(String::as_str).collect();
        if &actual != expected {
            mismatched.push(golden);
        }
    }
    if !mismatched.is_empty() {
        eprintln!("perfbench: {what} renders differ from goldens: {mismatched:?}");
    }
    let shortfall = expected.saturating_sub(compared);
    if shortfall > 0 {
        eprintln!("perfbench: {what} renders covered {compared} of {expected} goldens");
    }
    (mismatched.len() + shortfall) as u64
}

/// Render `targets` from `store` at test scale.
pub fn render_targets(
    targets: &[&'static str],
    store: &ArtifactStore,
) -> BTreeMap<&'static str, String> {
    targets
        .iter()
        .map(|t| (*t, render_target(t, store, Scale::Test)))
        .collect()
}

/// Macro-suite native instructions per virtual command for `language`
/// at its default dispatch tier (steady state, as Table 2 and the
/// dispatch table count them). Counting lookups resolve to pipeline
/// runs by subsumption, so any store holding the suite answers.
pub fn insns_per_cmd(store: &ArtifactStore, language: Language) -> f64 {
    let (mut insns, mut cmds) = (0u64, 0u64);
    for workload in macro_suite(Scale::Test)
        .into_iter()
        .filter(|w| w.language == language)
    {
        let req =
            RunRequest::counting(workload).with_dispatch(DispatchStrategy::default_for(language));
        if let Some(artifact) = store.get(&req) {
            insns += artifact.stats.steady_state_instructions();
            cmds += artifact.stats.commands;
        }
    }
    crate::stats::ratio(insns as f64, cmds as f64)
}

/// Macro-suite pipeline cycles per virtual command for `language` at its
/// default dispatch tier; 0 when the store holds no pipeline runs.
pub fn cycles_per_cmd(store: &ArtifactStore, language: Language) -> f64 {
    let (mut cycles, mut cmds) = (0u64, 0u64);
    for workload in macro_suite(Scale::Test)
        .into_iter()
        .filter(|w| w.language == language)
    {
        let req =
            RunRequest::pipeline(workload).with_dispatch(DispatchStrategy::default_for(language));
        if let Some((artifact, summary)) = store
            .get(&req)
            .and_then(|a| a.cycles.as_ref().map(|c| (a, c)))
        {
            cycles += summary.cycles;
            cmds += artifact.stats.commands;
        }
    }
    crate::stats::ratio(cycles as f64, cmds as f64)
}
