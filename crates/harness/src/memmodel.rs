//! §3.3: memory-model measurements — per-access cost and the fraction of
//! all instructions spent naming and translating data.

use interp_core::{Language, RunRequest};
use interp_runplan::ArtifactStore;
use interp_workloads::{macro_suite, Scale};

/// One §3.3 measurement row.
#[derive(Debug, Clone)]
pub struct MemModelRow {
    /// Language.
    pub language: Language,
    /// Benchmark.
    pub benchmark: String,
    /// Virtual-machine-level data accesses observed.
    pub accesses: u64,
    /// Average native instructions per access.
    pub avg_cost: f64,
    /// Fraction of all instructions spent in the memory model.
    pub fraction: f64,
    /// Degradation marker when the row's run failed (numbers zeroed).
    pub degraded: Option<String>,
}

/// Every run §3.3 needs: counting runs of the interpreted macro suite
/// (subsumed by pipeline twins when planned together).
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    macro_suite(scale)
        .into_iter()
        .filter(|w| w.language != Language::C)
        .map(RunRequest::counting)
        .collect()
}

/// Assemble memory-model rows from memoized artifacts.
pub fn memmodel_from(store: &ArtifactStore, scale: Scale) -> Vec<MemModelRow> {
    macro_suite(scale)
        .into_iter()
        .filter(|w| w.language != Language::C)
        .map(|workload| {
            match crate::degrade::cell(store, &RunRequest::counting(workload)) {
                Ok(artifact) => {
                    let stats = &artifact.stats;
                    MemModelRow {
                        language: workload.language,
                        benchmark: workload.name.to_string(),
                        accesses: stats.mem_model_accesses,
                        avg_cost: stats.avg_mem_model_cost(),
                        fraction: stats.mem_model_fraction(),
                        degraded: None,
                    }
                }
                Err(marker) => MemModelRow {
                    language: workload.language,
                    benchmark: workload.name.to_string(),
                    accesses: 0,
                    avg_cost: 0.0,
                    fraction: 0.0,
                    degraded: Some(marker),
                },
            }
        })
        .collect()
}

/// Render as text.
pub fn render(rows: &[MemModelRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Section 3.3: memory-model cost");
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>12} {:>14} {:>10}",
        "language", "benchmark", "accesses", "instr/access", "% of total"
    );
    for row in rows {
        if let Some(marker) = &row.degraded {
            let _ = writeln!(
                out,
                "{:<16} {:<10} {marker}",
                row.language.label(),
                row.benchmark
            );
            continue;
        }
        let _ = writeln!(
            out,
            "{:<16} {:<10} {:>12} {:>14.1} {:>9.1}%",
            row.language.label(),
            row.benchmark,
            row.accesses,
            row.avg_cost,
            row.fraction * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_store;

    fn avg(rows: &[MemModelRow], lang: Language, f: impl Fn(&MemModelRow) -> f64) -> f64 {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|r| r.language == lang)
            .map(f)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn section_3_3_orderings() {
        let rows = memmodel_from(test_store(), Scale::Test);
        assert_eq!(rows.len(), 23);

        // MIPSI: uniform page-table cost, tens of instructions/access,
        // a noticeable share of total instructions (paper: 13-18%).
        let mipsi_cost = avg(&rows, Language::Mipsi, |r| r.avg_cost);
        let mipsi_frac = avg(&rows, Language::Mipsi, |r| r.fraction);
        assert!((6.0..60.0).contains(&mipsi_cost), "mipsi cost {mipsi_cost}");
        assert!(mipsi_frac > 0.05, "mipsi fraction {mipsi_frac}");

        // Java: cheap stack/field references (paper: 2-11 instr/access).
        let java_cost = avg(&rows, Language::Javelin, |r| r.avg_cost);
        assert!(java_cost < mipsi_cost, "java {java_cost} vs mipsi {mipsi_cost}");

        // Perl: compiled-away scalars keep the share tiny (paper: 0.16-3.8%)
        // even though hash accesses individually cost hundreds.
        let perl_frac = avg(&rows, Language::Perlite, |r| r.fraction);
        let tcl_frac = avg(&rows, Language::Tclite, |r| r.fraction);
        assert!(perl_frac < 0.2, "perl fraction {perl_frac}");

        // Tcl: every variable reference is a symbol-table lookup costing
        // hundreds of instructions (paper: 206-514).
        let tcl_cost = avg(&rows, Language::Tclite, |r| r.avg_cost);
        assert!(tcl_cost > 50.0, "tcl cost {tcl_cost}");
        assert!(tcl_cost > 3.0 * java_cost, "tcl {tcl_cost} vs java {java_cost}");
        assert!(tcl_frac > 0.0, "tcl fraction {tcl_frac}");
    }

    #[test]
    fn render_has_rows() {
        let rows = memmodel_from(test_store(), Scale::Test);
        let text = render(&rows);
        assert!(text.contains("instr/access"));
        assert!(text.contains("tcllex"));
    }
}
