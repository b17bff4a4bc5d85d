//! Table 1: microbenchmark slowdowns relative to compiled C.
//!
//! The paper measured wall-clock time over ≥5-second trials; here the
//! "time" is simulated cycles from the Alpha-21064-like pipeline model,
//! normalized per iteration (each language runs a different iteration
//! count, as the paper's fixed-duration trials did implicitly).
//!
//! Like every experiment module, this one splits into a *request* half
//! ([`requests`]) and a *read* half ([`table1_from`]): the `repro` driver
//! unions all requested runs into one deduplicated plan, executes it on
//! the worker pool, and hands every module the same [`ArtifactStore`].

use interp_core::{Language, RunRequest, WorkloadId};
use interp_runplan::ArtifactStore;
use interp_workloads::{micro_iterations, micro_suite, Scale};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Microbenchmark name.
    pub name: &'static str,
    /// Paper description.
    pub description: &'static str,
    /// Simulated cycles per iteration for compiled C (0 when degraded).
    pub c_cycles_per_iter: f64,
    /// Slowdown vs. C per interpreter, in `[Mipsi, Javelin, Perlite,
    /// Tclite]` order.
    pub slowdown: [f64; 4],
    /// Per-column degradation markers: a column whose run (or whose C
    /// baseline) failed renders this instead of a number.
    pub degraded: [Option<String>; 4],
}

const INTERPRETERS: [Language; 4] = [
    Language::Mipsi,
    Language::Javelin,
    Language::Perlite,
    Language::Tclite,
];

/// Every run Table 1 needs: the full micro suite under the pipeline
/// model.
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    micro_suite(scale).into_iter().map(RunRequest::pipeline).collect()
}

/// Cycles per iteration for one `(language, micro)` cell, read from the
/// store — or the degradation marker its failed run left behind.
fn cycles_per_iter(
    store: &ArtifactStore,
    language: Language,
    name: &'static str,
    scale: Scale,
) -> Result<f64, String> {
    let request = RunRequest::pipeline(WorkloadId::micro(language, name, scale));
    let cycles = crate::degrade::cell(store, &request)?.cycle_summary().cycles;
    Ok(cycles as f64 / micro_iterations(language, name, scale) as f64)
}

/// Assemble all Table 1 rows from memoized artifacts.
pub fn table1_from(store: &ArtifactStore, scale: Scale) -> Vec<Table1Row> {
    interp_workloads::micro::MICRO_NAMES
        .iter()
        .map(|&name| {
            let c = cycles_per_iter(store, Language::C, name, scale);
            let mut slowdown = [0.0; 4];
            let mut degraded: [Option<String>; 4] = Default::default();
            for (i, lang) in INTERPRETERS.into_iter().enumerate() {
                // A degraded C baseline degrades every ratio in the row.
                match (&c, cycles_per_iter(store, lang, name, scale)) {
                    (Ok(c), Ok(cycles)) => slowdown[i] = cycles / c,
                    (Err(marker), _) => degraded[i] = Some(marker.clone()),
                    (Ok(_), Err(marker)) => degraded[i] = Some(marker),
                }
            }
            Table1Row {
                name,
                description: interp_workloads::micro::micro_description(name),
                c_cycles_per_iter: c.unwrap_or(0.0),
                slowdown,
                degraded,
            }
        })
        .collect()
}

/// Render paper-style text.
pub fn render(rows: &[Table1Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: microbenchmark slowdown relative to C (simulated cycles/iteration)"
    );
    let _ = writeln!(
        out,
        "{:<15} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "MIPSI", "Java", "Perl", "Tcl"
    );
    for row in rows {
        let _ = write!(out, "{:<15}", row.name);
        for (value, marker) in row.slowdown.iter().zip(&row.degraded) {
            match marker {
                Some(cell) => {
                    let _ = write!(out, " {cell:>10}");
                }
                None => {
                    let _ = write!(out, " {value:>10.1}");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_store;

    #[test]
    fn requests_cover_the_whole_grid() {
        let reqs = requests(Scale::Test);
        assert_eq!(reqs.len(), 6 * 5, "6 micros x 5 languages");
    }

    #[test]
    fn table1_shape_matches_the_paper() {
        let rows = table1_from(test_store(), Scale::Test);
        assert_eq!(rows.len(), 6);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();

        // Every interpreter slows the non-string CPU-bound rows down
        // substantially. (String rows may approach parity for Perl/Tcl:
        // their native string runtimes compete with our -O0-style C
        // baseline, an exaggerated form of the paper's 19x/78x rows.)
        for row in &rows {
            if row.name == "read" || row.name.starts_with("string") {
                continue;
            }
            for (i, s) in row.slowdown.iter().enumerate() {
                assert!(*s > 2.0, "{} col {i}: slowdown {s}", row.name);
            }
        }

        // a=b+c: Tcl is the worst by a wide margin (paper: 6500 vs
        // 260/96/770 — our -O0-flavor C baseline compresses all columns,
        // but the ordering and the Tcl-dwarfs-Java gap survive).
        let abc = by_name("a=b+c");
        assert!(
            abc.slowdown[3] > 10.0 * abc.slowdown[1],
            "Tcl {} should dwarf Java {}",
            abc.slowdown[3],
            abc.slowdown[1]
        );
        assert!(abc.slowdown[3] > 100.0, "Tcl a=b+c = {}", abc.slowdown[3]);
        assert!(
            abc.slowdown[2] > abc.slowdown[1],
            "Perl {} should exceed Java {}",
            abc.slowdown[2],
            abc.slowdown[1]
        );

        // string ops: Perl/Tcl (native string runtimes) beat their own
        // arithmetic slowdowns by a large factor (paper: 19/78 vs 770/6500).
        let concat = by_name("string-concat");
        assert!(
            concat.slowdown[2] < abc.slowdown[2] / 3.0,
            "Perl concat {} vs a=b+c {}",
            concat.slowdown[2],
            abc.slowdown[2]
        );
        assert!(
            concat.slowdown[3] < abc.slowdown[3] / 10.0,
            "Tcl concat {} vs a=b+c {}",
            concat.slowdown[3],
            abc.slowdown[3]
        );

        // read: slowed least of all rows for every interpreter (paper:
        // 1.2-15x), because the kernel copy is shared precompiled code.
        let read = by_name("read");
        for (i, s) in read.slowdown.iter().enumerate() {
            assert!(*s < 60.0, "read col {i}: {s}");
        }
        assert!(read.slowdown[0] < abc.slowdown[0] / 2.0);
    }

    #[test]
    fn render_contains_all_rows() {
        let rows = table1_from(test_store(), Scale::Test);
        let text = render(&rows);
        for name in interp_workloads::micro::MICRO_NAMES {
            assert!(text.contains(name));
        }
    }
}
