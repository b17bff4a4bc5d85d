//! Golden snapshots: every harness renderer's test-scale output is
//! pinned byte-for-byte against a committed file.
//!
//! The snapshots guard the *rendering* layer the way the conformance
//! engine guards the *semantics* layer: any drift in a table's numbers,
//! layout, or ordering — intended or not — fails `cargo test` with a
//! diff pointer instead of slipping into a report. To accept intended
//! changes, regenerate deterministically:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p interp-harness --test goldens
//! ```
//!
//! Renders go through `experiments::render_target`, the same function
//! the `repro` binary prints with, so a golden match is also a pin on
//! `repro <target> --scale test` stdout.

use std::fs;
use std::path::PathBuf;

use interp_harness::experiments::{all_requests, render_target};
use interp_harness::{guard_sweep, Scale};
use interp_runplan::{execute_supervised, Plan, SuperviseConfig};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{name}.golden.txt"))
}

/// Byte-compare `actual` against the committed golden, or rewrite the
/// golden when `UPDATE_GOLDENS` is set.
fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {path:?} ({e}); regenerate with \
             UPDATE_GOLDENS=1 cargo test -p interp-harness --test goldens"
        )
    });
    assert_eq!(
        expected, actual,
        "golden `{name}` drifted; if the change is intended, regenerate with \
         UPDATE_GOLDENS=1 cargo test -p interp-harness --test goldens"
    );
}

/// One shared plan execution feeds all eight renderer snapshots —
/// exactly how `repro all --scale test` produces them.
#[test]
fn renderer_outputs_match_committed_goldens() {
    let scale = Scale::Test;
    let plan = Plan::build(all_requests(scale));
    // Renders are job-count-invariant (pinned by the determinism test),
    // so any worker count produces the same bytes.
    let executed = execute_supervised(&plan, 4, &SuperviseConfig::new());
    let store = &executed.store;

    check("table1", &render_target("table1", store, scale));
    check("table2", &render_target("table2", store, scale));
    check(
        "figures",
        &format!(
            "{}{}",
            render_target("fig1", store, scale),
            render_target("fig2", store, scale)
        ),
    );
    check("memmodel", &render_target("memmodel", store, scale));
    check(
        "arch",
        &format!(
            "{}{}",
            render_target("fig3", store, scale),
            render_target("fig4", store, scale)
        ),
    );
    check("dispatch", &render_target("dispatch", store, scale));
    check("tiered", &render_target("tiered", store, scale));
    check("ablations", &render_target("ablations", store, scale));
}

/// The guard sweep renders from seeded fault plans, not the run plan;
/// snapshot a small fixed sweep.
#[test]
fn guard_sweep_output_matches_committed_golden() {
    let report = guard_sweep::sweep(Scale::Test, 8);
    check("guard_sweep", &guard_sweep::render(&report));
}
