//! Ablation experiments for design choices the paper calls out.
//!
//! Every ablation is a pure function of the artifact store, so a warm
//! cache renders them without running an interpreter:
//!
//! * the iTLB ablation reads each subject's baseline pipeline run (the
//!   artifact table2/fig3 use) and its 32-entry-iTLB twin;
//! * the dispatch ablation reads MIPSI `des` counting runs under naive
//!   and threaded dispatch — inside `all` both resolve by subsumption to
//!   the `dispatch` target's pipeline runs, so they cost no extra runs;
//! * the symbol-table and precompilation ablations read the probe runs
//!   of [`interp_workloads::probes`], planned and journaled like any
//!   other run.
//!
//! The direct measurements these replaced stay in the test module as
//! references; a differential test holds the store-derived values to
//! them exactly.

use interp_archsim::StallCause;
use interp_core::{DispatchStrategy, Language, RunRequest, SinkKind, WorkloadId};
use interp_runplan::ArtifactStore;
use interp_workloads::probes::{self, probe_suite, TCL_SYMTAB};
use interp_workloads::Scale;

use crate::degrade::cell;

/// §4.1 iTLB ablation result: the same run under an 8-entry and a
/// 32-entry iTLB.
#[derive(Debug, Clone)]
pub struct ItlbAblation {
    /// Benchmark label.
    pub benchmark: String,
    /// iTLB stall fraction with the baseline 8-entry iTLB.
    pub stall_8_entries: f64,
    /// iTLB stall fraction with 32 entries.
    pub stall_32_entries: f64,
    /// Degradation marker when either variant's run failed.
    pub degraded: Option<String>,
}

/// The iTLB ablation's subjects: the two macro benchmarks the paper
/// singles out for iTLB pressure.
fn itlb_subjects(scale: Scale) -> [WorkloadId; 2] {
    [
        WorkloadId::macro_bench(Language::Perlite, "txt2html", scale),
        WorkloadId::macro_bench(Language::Tclite, "tcltags", scale),
    ]
}

/// Every run the ablations read: each iTLB subject under the baseline
/// pipeline (shared with table2/fig3) and the 32-entry variant, MIPSI
/// `des` under switch and threaded dispatch, and every probe.
pub fn requests(scale: Scale) -> Vec<RunRequest> {
    itlb_subjects(scale)
        .into_iter()
        .flat_map(|w| {
            [
                RunRequest::pipeline(w),
                RunRequest::new(w, SinkKind::PipelineWideItlb),
            ]
        })
        .chain(dispatch_requests(scale))
        .chain(probe_suite(scale).into_iter().map(RunRequest::counting))
        .collect()
}

/// Grow the iTLB from 8 to 32 entries (paper: "effectively eliminates
/// iTLB stalls"), assembled from memoized artifacts.
pub fn ablation_itlb_from(store: &ArtifactStore, scale: Scale) -> Vec<ItlbAblation> {
    itlb_subjects(scale)
        .into_iter()
        .map(|w| {
            let benchmark = format!("{}-{}", w.language.label(), w.name);
            let base = cell(store, &RunRequest::pipeline(w));
            let big = cell(store, &RunRequest::new(w, SinkKind::PipelineWideItlb));
            match (base, big) {
                (Ok(base), Ok(big)) => {
                    let itlb = StallCause::Itlb.label();
                    ItlbAblation {
                        benchmark,
                        stall_8_entries: base.cycle_summary().stall_fraction(itlb),
                        stall_32_entries: big.cycle_summary().stall_fraction(itlb),
                        degraded: None,
                    }
                }
                (Err(marker), _) | (_, Err(marker)) => ItlbAblation {
                    benchmark,
                    stall_8_entries: 0.0,
                    stall_32_entries: 0.0,
                    degraded: Some(marker),
                },
            }
        })
        .collect()
}

/// Dispatch-style ablation: MIPSI with switch vs. threaded dispatch.
#[derive(Debug, Clone)]
pub struct DispatchAblation {
    /// Average fetch/decode instructions per command, switch dispatch.
    pub switch_fd: f64,
    /// Average fetch/decode instructions per command, threaded dispatch.
    pub threaded_fd: f64,
    /// Total-instruction improvement from threading.
    pub speedup: f64,
}

/// The dispatch ablation's runs: Table 2's MIPSI `des` counted under
/// switch (naive) and threaded dispatch.
fn dispatch_requests(scale: Scale) -> [RunRequest; 2] {
    let des = RunRequest::counting(WorkloadId::macro_bench(Language::Mipsi, "des", scale));
    [des, des.with_dispatch(DispatchStrategy::Threaded)]
}

/// §5's software optimization: threaded interpretation trims MIPSI's
/// fetch/decode path. The degradation marker if either run failed.
pub fn ablation_dispatch_from(
    store: &ArtifactStore,
    scale: Scale,
) -> Result<DispatchAblation, String> {
    let [switch, threaded] = dispatch_requests(scale);
    let switch = &cell(store, &switch)?.stats;
    let threaded = &cell(store, &threaded)?.stats;
    Ok(DispatchAblation {
        switch_fd: switch.avg_fetch_decode(),
        threaded_fd: threaded.avg_fetch_decode(),
        speedup: switch.instructions as f64 / threaded.instructions as f64,
    })
}

/// Symbol-table ablation result for Tcl.
#[derive(Debug, Clone)]
pub struct SymtabAblation {
    /// Number of global variables populated before measurement.
    pub table_size: u32,
    /// Length of the variable names being accessed.
    pub name_len: usize,
    /// Average memory-model instructions per variable access.
    pub avg_lookup_cost: f64,
    /// Degradation marker when either probe run failed.
    pub degraded: Option<String>,
}

fn probe_request(language: Language, name: &'static str, scale: Scale) -> RunRequest {
    RunRequest::counting(WorkloadId::probe(language, name, scale))
}

/// §3.3's 206-vs-514 range: every Tcl variable reference hashes and
/// compares the variable *name*, so lookup cost grows with program scale —
/// bigger symbol tables (chain pressure between rehashes) and, dominantly,
/// longer names (xf's 2.7 MB of generated scripts vs des's `$l`/`$r`).
/// Each row is the access loop's cost alone: the measured probe's
/// memory-model counters minus its setup-only twin's.
pub fn ablation_tcl_symtab_from(store: &ArtifactStore, scale: Scale) -> Vec<SymtabAblation> {
    TCL_SYMTAB
        .iter()
        .map(|p| {
            let setup = cell(store, &probe_request(Language::Tclite, p.setup, scale));
            let measured = cell(store, &probe_request(Language::Tclite, p.measured, scale));
            let (avg_lookup_cost, degraded) = match (setup, measured) {
                (Ok(setup), Ok(measured)) => {
                    let (before, after) = (&setup.stats, &measured.stats);
                    let d_i = after
                        .mem_model_instructions
                        .saturating_sub(before.mem_model_instructions);
                    let d_a = after.mem_model_accesses.saturating_sub(before.mem_model_accesses);
                    (d_i as f64 / d_a as f64, None)
                }
                (Err(marker), _) | (_, Err(marker)) => (0.0, Some(marker)),
            };
            SymtabAblation {
                table_size: p.table_size,
                name_len: p.name_len,
                avg_lookup_cost,
                degraded,
            }
        })
        .collect()
}

/// Perl precompilation ablation: scalar accesses (compiled away) vs hash
/// accesses (run-time translation).
#[derive(Debug, Clone)]
pub struct PrecompileAblation {
    /// Avg memory-model instructions per access, scalar-only program.
    pub scalar_cost: f64,
    /// Avg memory-model instructions per access, hash-heavy program.
    pub hash_cost: f64,
}

/// §3.3: "these results illustrate one of the benefits of a preprocessing
/// phase" — the compiled-away scalar path vs the hash translation. The
/// degradation marker if either probe run failed.
pub fn ablation_perl_precompile_from(
    store: &ArtifactStore,
    scale: Scale,
) -> Result<PrecompileAblation, String> {
    let cost = |name| {
        cell(store, &probe_request(Language::Perlite, name, scale))
            .map(|a| a.stats.avg_mem_model_cost())
    };
    Ok(PrecompileAblation {
        scalar_cost: cost(probes::PERL_SCALAR)?,
        hash_cost: cost(probes::PERL_HASH)?,
    })
}

/// Render all ablations from memoized artifacts.
pub fn render_from(store: &ArtifactStore, scale: Scale) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Ablations");
    let _ = writeln!(out, "-- iTLB 8 -> 32 entries (Section 4.1)");
    for row in ablation_itlb_from(store, scale) {
        if let Some(marker) = &row.degraded {
            let _ = writeln!(out, "  {:<24} {marker}", row.benchmark);
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<24} itlb stalls {:>5.1}% -> {:>5.1}%",
            row.benchmark,
            row.stall_8_entries * 100.0,
            row.stall_32_entries * 100.0
        );
    }
    match ablation_dispatch_from(store, scale) {
        Ok(d) => {
            let _ = writeln!(
                out,
                "-- MIPSI dispatch: switch F/D {:.1} -> threaded F/D {:.1} (speedup {:.2}x)",
                d.switch_fd, d.threaded_fd, d.speedup
            );
        }
        Err(marker) => {
            let _ = writeln!(out, "-- MIPSI dispatch: {marker}");
        }
    }
    let _ = writeln!(out, "-- Tcl symbol table vs lookup cost (Section 3.3)");
    for row in ablation_tcl_symtab_from(store, scale) {
        let _ = write!(
            out,
            "  {:>4} globals, {:>2}-char names: ",
            row.table_size, row.name_len
        );
        let _ = match &row.degraded {
            Some(marker) => writeln!(out, "{marker}"),
            None => writeln!(out, "{:>6.1} instructions/access", row.avg_lookup_cost),
        };
    }
    let _ = match ablation_perl_precompile_from(store, scale) {
        Ok(p) => writeln!(
            out,
            "-- Perl memory model: scalars {:.1} vs hashes {:.1} instructions/access",
            p.scalar_cost, p.hash_cost
        ),
        Err(marker) => writeln!(out, "-- Perl memory model: {marker}"),
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_store as store;
    use interp_core::{NullSink, TraceSink};
    use interp_host::Machine;
    use interp_workloads::minic_progs;

    // The direct measurements the store-backed ablations replaced. They
    // drive the interpreters by hand and are kept as the oracle of the
    // differential test below.

    /// MIPSI `des` under switch vs threaded dispatch, run directly.
    fn ablation_dispatch(scale: Scale) -> DispatchAblation {
        fn run_des<S: TraceSink>(scale: Scale, threaded: bool, sink: S) -> (f64, u64) {
            let blocks = match scale {
                Scale::Test => "20",
                Scale::Paper => "200",
            };
            let src = minic_progs::instantiate(minic_progs::DES_C, &[("BLOCKS", blocks.into())]);
            let image = interp_minic::compile(&src).expect("compiles");
            let mut m = Machine::new(sink);
            let mut emu = interp_mipsi::Mipsi::new(&image, &mut m);
            emu.set_threaded_dispatch(threaded);
            emu.run(1_000_000_000).expect("runs");
            drop(emu);
            (m.stats().avg_fetch_decode(), m.stats().instructions)
        }
        let (switch_fd, switch_total) = run_des(scale, false, NullSink);
        let (threaded_fd, threaded_total) = run_des(scale, true, NullSink);
        DispatchAblation {
            switch_fd,
            threaded_fd,
            speedup: switch_total as f64 / threaded_total as f64,
        }
    }

    /// Tcl lookup cost per `(table size, name length)`, run directly.
    fn ablation_tcl_symtab(configs: &[(u32, usize)]) -> Vec<SymtabAblation> {
        configs
            .iter()
            .map(|&(size, name_len)| {
                let mut m = Machine::new(NullSink);
                let mut tcl = interp_tclite::Tclite::new(&mut m);
                // Populate the global table.
                let mut setup = String::new();
                for i in 0..size {
                    setup.push_str(&format!("set filler_variable_number_{i} {i}\n"));
                }
                let needle = "v".repeat(name_len.max(1));
                setup.push_str(&format!("set {needle} 1\n"));
                tcl.run(&setup).expect("setup");
                // Measure a fixed access loop.
                let before_i = tcl.stats().mem_model_instructions;
                let before_a = tcl.stats().mem_model_accesses;
                tcl.run(&format!(
                    "for {{set i 0}} {{$i < 50}} {{incr i}} {{ set copy ${needle} }}"
                ))
                .expect("measure");
                let d_i = tcl.stats().mem_model_instructions - before_i;
                let d_a = tcl.stats().mem_model_accesses - before_a;
                SymtabAblation {
                    table_size: size,
                    name_len,
                    avg_lookup_cost: d_i as f64 / d_a as f64,
                    degraded: None,
                }
            })
            .collect()
    }

    /// Perl scalar vs hash access cost, run directly.
    fn ablation_perl_precompile() -> PrecompileAblation {
        fn cost(src: &str) -> f64 {
            let mut m = Machine::new(NullSink);
            let mut p = interp_perlite::Perlite::new(&mut m, src).expect("compiles");
            p.run().expect("runs");
            drop(p);
            m.stats().avg_mem_model_cost()
        }
        let scalar_cost = cost(
            r#"$a = 1; $b = 2;
for ($i = 0; $i < 200; $i++) { $c = $a + $b; }"#,
        );
        let hash_cost = cost(
            r#"$h{alpha_key} = 1; $h{beta_key} = 2;
for ($i = 0; $i < 200; $i++) { $c = $h{alpha_key} + $h{beta_key}; }"#,
        );
        PrecompileAblation {
            scalar_cost,
            hash_cost,
        }
    }

    #[test]
    fn store_values_equal_the_direct_measurements_exactly() {
        let store = store();
        let direct = ablation_dispatch(Scale::Test);
        let stored = ablation_dispatch_from(store, Scale::Test).expect("dispatch runs");
        assert_eq!(stored.switch_fd, direct.switch_fd);
        assert_eq!(stored.threaded_fd, direct.threaded_fd);
        assert_eq!(stored.speedup, direct.speedup);

        let configs: Vec<(u32, usize)> =
            TCL_SYMTAB.iter().map(|p| (p.table_size, p.name_len)).collect();
        let direct = ablation_tcl_symtab(&configs);
        let stored = ablation_tcl_symtab_from(store, Scale::Test);
        assert_eq!(stored.len(), direct.len());
        for (s, d) in stored.iter().zip(&direct) {
            assert_eq!((s.table_size, s.name_len), (d.table_size, d.name_len));
            assert_eq!(s.degraded, None);
            assert_eq!(s.avg_lookup_cost, d.avg_lookup_cost, "{} globals", s.table_size);
        }

        let direct = ablation_perl_precompile();
        let stored = ablation_perl_precompile_from(store, Scale::Test).expect("perl probes");
        assert_eq!(stored.scalar_cost, direct.scalar_cost);
        assert_eq!(stored.hash_cost, direct.hash_cost);
    }

    #[test]
    fn itlb_growth_helps() {
        for row in ablation_itlb_from(store(), Scale::Test) {
            assert!(
                row.stall_32_entries <= row.stall_8_entries + 1e-9,
                "{}: {} -> {}",
                row.benchmark,
                row.stall_8_entries,
                row.stall_32_entries
            );
        }
    }

    #[test]
    fn threaded_dispatch_cuts_fetch_decode() {
        let d = ablation_dispatch_from(store(), Scale::Test).expect("dispatch runs");
        assert!(
            d.threaded_fd < d.switch_fd,
            "threaded {} vs switch {}",
            d.threaded_fd,
            d.switch_fd
        );
        assert!(d.speedup > 1.0, "speedup {}", d.speedup);
    }

    #[test]
    fn tcl_lookup_cost_grows_with_program_scale() {
        let rows = ablation_tcl_symtab_from(store(), Scale::Test);
        let (des_like, xf_like) = (&rows[0], &rows[rows.len() - 1]);
        // The measured loop mixes needle accesses with fixed-cost loop
        // variables, so the averaged growth is diluted; 20%+ still
        // demonstrates the §3.3 scale effect.
        assert!(
            xf_like.avg_lookup_cost > 1.2 * des_like.avg_lookup_cost,
            "xf-like {} vs des-like {}",
            xf_like.avg_lookup_cost,
            des_like.avg_lookup_cost
        );
        // Both ends live in the paper's order of magnitude (206-514).
        assert!(des_like.avg_lookup_cost > 30.0);
        assert!(xf_like.avg_lookup_cost < 2000.0);
    }

    #[test]
    fn perl_hashes_cost_more_than_scalars() {
        let p = ablation_perl_precompile_from(store(), Scale::Test)
            .expect("perl probes");
        assert!(
            p.hash_cost > 5.0 * p.scalar_cost,
            "hash {} vs scalar {}",
            p.hash_cost,
            p.scalar_cost
        );
    }

    #[test]
    fn a_failed_probe_degrades_only_its_own_line() {
        let mut store = store().clone();
        let p = TCL_SYMTAB[1];
        store.insert_failure(
            probe_request(Language::Tclite, p.measured, Scale::Test),
            interp_runplan::RunFailure::panicked(0, "boom"),
        );
        let text = render_from(&store, Scale::Test);
        assert!(
            text.contains("   64 globals, 12-char names: DEGRADED(panicked)\n"),
            "{text}"
        );
        assert_eq!(text.matches("DEGRADED").count(), 1, "{text}");
    }
}
