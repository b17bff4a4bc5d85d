//! Table 2: baseline measurements of the macro suite — virtual commands,
//! native instructions, fetch/decode vs. execute split, cycles, and
//! Perl's precompilation overhead in parentheses.

use interp_core::{Language, Phase, RunRequest};
use interp_runplan::ArtifactStore;
use interp_workloads::{macro_suite, Scale};

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Language (table section).
    pub language: Language,
    /// Benchmark name.
    pub benchmark: String,
    /// Program size in bytes (the "Size" column).
    pub program_bytes: usize,
    /// Virtual commands executed.
    pub commands: u64,
    /// Native instructions executed (excluding startup).
    pub native_instructions: u64,
    /// Startup/precompilation instructions (Perl's parenthesized column).
    pub startup_instructions: u64,
    /// Average fetch/decode native instructions per virtual command.
    pub avg_fetch_decode: f64,
    /// Average execute-side native instructions per virtual command.
    pub avg_execute: f64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Degradation marker when the row's run failed (numeric fields are
    /// zeroed and the render prints this instead).
    pub degraded: Option<String>,
}

/// Every run Table 2 needs: the macro suite under the pipeline model.
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    macro_suite(scale).into_iter().map(RunRequest::pipeline).collect()
}

/// Assemble all Table 2 rows (paper order) from memoized artifacts.
pub fn table2_from(store: &ArtifactStore, scale: Scale) -> Vec<Table2Row> {
    macro_suite(scale)
        .into_iter()
        .map(|workload| {
            let artifact = match crate::degrade::cell(store, &RunRequest::pipeline(workload)) {
                Ok(artifact) => artifact,
                Err(marker) => {
                    return Table2Row {
                        language: workload.language,
                        benchmark: workload.name.to_string(),
                        program_bytes: 0,
                        commands: 0,
                        native_instructions: 0,
                        startup_instructions: 0,
                        avg_fetch_decode: 0.0,
                        avg_execute: 0.0,
                        cycles: 0,
                        degraded: Some(marker),
                    }
                }
            };
            let stats = &artifact.stats;
            Table2Row {
                language: workload.language,
                benchmark: workload.name.to_string(),
                program_bytes: artifact.program_bytes,
                commands: stats.commands,
                native_instructions: stats.steady_state_instructions(),
                startup_instructions: stats.phase_instructions(Phase::Startup),
                avg_fetch_decode: stats.avg_fetch_decode(),
                avg_execute: stats.avg_execute(),
                cycles: artifact.cycle_summary().cycles,
                degraded: None,
            }
        })
        .collect()
}

/// Render paper-style text.
pub fn render(rows: &[Table2Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: baseline macro-benchmark measurements");
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>8} {:>12} {:>14} {:>10} {:>9} {:>9} {:>12}",
        "language", "benchmark", "size(B)", "vcommands", "native-insn", "startup", "avg-F/D", "avg-exec", "cycles"
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
            "{:<16} {:<10} {:>8} {:>12} {:>14} {:>10} {:>9.1} {:>9.1} {:>12}",
            row.language.label(),
            row.benchmark,
            row.program_bytes,
            row.commands,
            row.native_instructions,
            row.startup_instructions,
            row.avg_fetch_decode,
            row.avg_execute,
            row.cycles
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_store;

    fn avg_fd(rows: &[Table2Row], lang: Language) -> f64 {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|r| r.language == lang)
            .map(|r| r.avg_fetch_decode)
            .collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn table2_reproduces_the_paper_ordering() {
        let rows = table2_from(test_store(), Scale::Test);
        assert_eq!(rows.len(), 24);

        // C row: zero fetch/decode; execute ratio ~1.0 (slightly above
        // because syscalls run charged kernel copy code).
        let c = rows.iter().find(|r| r.language == Language::C).unwrap();
        assert_eq!(c.avg_fetch_decode, 0.0);
        assert!((1.0..2.0).contains(&c.avg_execute), "C exec {}", c.avg_execute);

        // Fetch/decode hierarchy: MIPSI ≈ Java (within an order of
        // magnitude, both small) ≪ Perl ≪ Tcl (Tcl an order of magnitude
        // above Perl, as in the paper).
        let mipsi = avg_fd(&rows, Language::Mipsi);
        let java = avg_fd(&rows, Language::Javelin);
        let perl = avg_fd(&rows, Language::Perlite);
        let tcl = avg_fd(&rows, Language::Tclite);
        assert!(mipsi < 100.0 && java < 40.0, "mipsi {mipsi}, java {java}");
        assert!(perl > java, "perl {perl} vs java {java}");
        assert!(tcl > 5.0 * perl, "tcl {tcl} vs perl {perl}");

        // MIPSI's F/D is nearly fixed across benchmarks (paper: 47-51).
        let mipsi_fds: Vec<f64> = rows
            .iter()
            .filter(|r| r.language == Language::Mipsi)
            .map(|r| r.avg_fetch_decode)
            .collect();
        let (min, max) = mipsi_fds
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        assert!(max / min < 1.6, "MIPSI F/D spread {min}..{max}");

        // Perl rows carry a startup (precompilation) component; C rows
        // have none worth mentioning.
        for row in rows.iter().filter(|r| r.language == Language::Perlite) {
            assert!(
                row.startup_instructions > 1000,
                "{}: startup {}",
                row.benchmark,
                row.startup_instructions
            );
        }

        // Cycles/instructions are all positive and commands nonzero for
        // interpreted rows.
        for row in &rows {
            assert!(row.cycles > 0 && row.commands > 0, "{:?}", row.benchmark);
        }
    }

    #[test]
    fn render_contains_sections() {
        let rows = table2_from(test_store(), Scale::Test);
        let text = render(&rows);
        for lang in Language::ALL {
            assert!(text.contains(lang.label()));
        }
    }
}
