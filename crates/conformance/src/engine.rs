//! The differential engine: run one IR program through all five
//! interpreters plus the reference evaluator and compare console
//! digests.
//!
//! A *case* is one seed → one generated program → one observation per
//! witness. The classic witness set is six columns (the checked
//! reference evaluation, then nativeref, MIPSI, Javelin, Perlite,
//! Tclite via [`interp_workloads::try_run_source_dispatch`]); a
//! [`DispatchSelection`] widens it so every supported
//! `(language, dispatch strategy)` combination becomes its *own*
//! witness — threaded MIPSI must agree with naive MIPSI, and with
//! everything else, byte for byte. Two observations conform when both
//! succeeded and their [`ConsoleDigest`]s are equal; anything else —
//! differing digests, or any guarded failure on a program the
//! reference evaluator accepted — is a divergence. [`conform`] (and
//! the strategy-aware [`conform_with`]) sweeps seeds, accumulates the
//! per-pair divergence table, and shrinks every failing program to a
//! minimal reproducer.

use interp_core::{
    ConsoleDigest, DispatchFault, DispatchSelection, DispatchStrategy, Language, NullSink,
};
use interp_guard::Limits;
use interp_workloads::try_run_source_dispatch;

use crate::gen::generate;
use crate::ir::{eval, Program};
use crate::lower::{lower, LowerOptions};
use crate::shrink::shrink;

/// Display label for each observation column of the *classic* (naive
/// dispatch only) sweep: the reference evaluator first, then the five
/// interpreters in Table 2 order. Strategy-aware sweeps carry their
/// own label vector in [`ConformReport::witnesses`].
pub const WITNESSES: [&str; 6] = ["reference", "c", "mipsi", "javelin", "perlite", "tclite"];

/// One observation: the console text an interpreter produced, or the
/// error that stopped it.
pub type Observation = Result<String, String>;

/// One column of a conformance sweep: the reference evaluator, or one
/// interpreter pinned to one dispatch strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Display label: `reference`, a language tag (`mipsi`), or a
    /// language+strategy tag (`mipsi+threaded`).
    pub label: String,
    /// `None` for the reference evaluator; otherwise the engine and
    /// the dispatch strategy it runs under.
    pub engine: Option<(Language, DispatchStrategy)>,
}

/// The witness columns a [`DispatchSelection`] induces: the reference
/// evaluator, then each language under each of its selected (and
/// supported) strategies, in [`Language::ALL`] × strategy order. The
/// naive-only selection reproduces [`WITNESSES`] exactly.
pub fn witnesses_for(selection: &DispatchSelection) -> Vec<Witness> {
    let mut ws = vec![Witness {
        label: "reference".to_string(),
        engine: None,
    }];
    for lang in Language::ALL {
        for strategy in selection.for_language(lang) {
            let label = if strategy == DispatchStrategy::Naive {
                lang.tag().to_string()
            } else {
                format!("{}+{}", lang.tag(), strategy.label())
            };
            ws.push(Witness {
                label,
                engine: Some((lang, strategy)),
            });
        }
    }
    ws
}

/// All observations of one program, one per witness in order. `fault`
/// is threaded into every engine run (only fault-aware handlers react;
/// see [`DispatchFault`]) so tests can prove a buggy fast-dispatch
/// handler is caught *and* isolated to the right witness pairs.
pub fn observe_with(
    p: &Program,
    opts: &LowerOptions,
    witnesses: &[Witness],
    fault: DispatchFault,
) -> Vec<Observation> {
    let mut obs = Vec::with_capacity(witnesses.len());
    for w in witnesses {
        match w.engine {
            None => obs.push(eval(p).map_err(|e| format!("reference rejected: {e}"))),
            Some((lang, strategy)) => {
                let src = lower(p, lang, opts);
                let res = try_run_source_dispatch(
                    lang,
                    &src,
                    Limits::guarded(),
                    strategy,
                    fault,
                    NullSink,
                )
                .map(|r| r.console)
                .map_err(|e| format!("{e:?}"));
                obs.push(res);
            }
        }
    }
    obs
}

/// All six classic observations of one program, in [`WITNESSES`] order.
pub fn observe(p: &Program, opts: &LowerOptions) -> Vec<Observation> {
    observe_with(
        p,
        opts,
        &witnesses_for(&DispatchSelection::naive_only()),
        DispatchFault::None,
    )
}

/// Do two observations conform? Both must have completed, and their
/// console digests must be byte-for-byte equal.
fn conforms(a: &Observation, b: &Observation) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => ConsoleDigest::of(a) == ConsoleDigest::of(b),
        _ => false,
    }
}

/// Indices (into the witness list that produced `obs`) of every
/// observation pair that diverged.
pub fn divergent_pairs(obs: &[Observation]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..obs.len() {
        for j in (i + 1)..obs.len() {
            if !conforms(&obs[i], &obs[j]) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// Does the program diverge at all under `opts` for these witnesses?
pub fn diverges_with(
    p: &Program,
    opts: &LowerOptions,
    witnesses: &[Witness],
    fault: DispatchFault,
) -> bool {
    !divergent_pairs(&observe_with(p, opts, witnesses, fault)).is_empty()
}

/// Does the program diverge at all under `opts` (classic witnesses)?
pub fn diverges(p: &Program, opts: &LowerOptions) -> bool {
    diverges_with(
        p,
        opts,
        &witnesses_for(&DispatchSelection::naive_only()),
        DispatchFault::None,
    )
}

/// A seed whose program diverged, with the shrunk reproducer and its
/// observations.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The generator seed.
    pub seed: u64,
    /// Statement count of the program as generated.
    pub original_size: usize,
    /// The shrunk minimal reproducer.
    pub shrunk: Program,
    /// Observations of the shrunk program.
    pub observations: Vec<Observation>,
}

/// Result of a conformance sweep.
#[derive(Debug, Clone)]
pub struct ConformReport {
    /// Seeds swept (`0..seeds`).
    pub seeds: u64,
    /// Display label of every witness column, in observation order.
    pub witnesses: Vec<String>,
    /// Divergent-seed count per witness pair, indexed like
    /// [`divergent_pairs`].
    pub pair_counts: Vec<((usize, usize), u64)>,
    /// Every divergent seed, shrunk.
    pub failures: Vec<Failure>,
}

impl ConformReport {
    /// Total number of divergent seeds.
    pub fn divergent_seeds(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Sweep seeds `0..seeds` with the witness set `selection` induces:
/// generate, lower, run each witness, compare; shrink every divergent
/// case (under the same witnesses and fault, so the reproducer still
/// reproduces).
pub fn conform_with(
    seeds: u64,
    opts: &LowerOptions,
    selection: &DispatchSelection,
    fault: DispatchFault,
) -> ConformReport {
    let witnesses = witnesses_for(selection);
    let mut pair_counts: Vec<((usize, usize), u64)> = Vec::new();
    for i in 0..witnesses.len() {
        for j in (i + 1)..witnesses.len() {
            pair_counts.push(((i, j), 0));
        }
    }
    let mut failures = Vec::new();
    for seed in 0..seeds {
        let p = generate(seed);
        let obs = observe_with(&p, opts, &witnesses, fault);
        let pairs = divergent_pairs(&obs);
        if pairs.is_empty() {
            continue;
        }
        for pair in &pairs {
            if let Some(slot) = pair_counts.iter_mut().find(|(p, _)| p == pair) {
                slot.1 += 1;
            }
        }
        let shrunk = shrink(&p, |cand| diverges_with(cand, opts, &witnesses, fault));
        let observations = observe_with(&shrunk, opts, &witnesses, fault);
        failures.push(Failure {
            seed,
            original_size: p.size(),
            shrunk,
            observations,
        });
    }
    ConformReport {
        seeds,
        witnesses: witnesses.into_iter().map(|w| w.label).collect(),
        pair_counts,
        failures,
    }
}

/// Sweep seeds `0..seeds` with the classic six witnesses: generate,
/// lower, run, compare; shrink every divergent case.
pub fn conform(seeds: u64, opts: &LowerOptions) -> ConformReport {
    conform_with(
        seeds,
        opts,
        &DispatchSelection::naive_only(),
        DispatchFault::None,
    )
}

/// Render the per-pair divergence table and any shrunk reproducers.
pub fn render(report: &ConformReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Conformance: {} seeded programs x {} witnesses ({} interpreter columns + reference evaluator)\n",
        report.seeds,
        report.witnesses.len(),
        report.witnesses.len().saturating_sub(1),
    ));
    out.push_str("(each generated program lowered to mini-C/MIPS, Joule, Perl, and Tcl;\n");
    out.push_str(" console digests compared across every witness pair)\n\n");
    let width = report
        .pair_counts
        .iter()
        .map(|((i, j), _)| report.witnesses[*i].len() + 1 + report.witnesses[*j].len())
        .max()
        .unwrap_or(22)
        .max(22)
        + 2;
    out.push_str(&format!("{:<width$}{}\n", "pair", "divergent seeds"));
    for ((i, j), count) in &report.pair_counts {
        let pair = format!("{}/{}", report.witnesses[*i], report.witnesses[*j]);
        out.push_str(&format!("{pair:<width$}{count}\n"));
    }
    out.push_str(&format!(
        "\nresult: {}/{} seeds diverged\n",
        report.divergent_seeds(),
        report.seeds
    ));
    for f in &report.failures {
        out.push_str(&format!(
            "\nseed {} diverged (program: {} stmts, shrunk to {}):\n{}",
            f.seed,
            f.original_size,
            f.shrunk.size(),
            f.shrunk
        ));
        for (label, obs) in report.witnesses.iter().zip(&f.observations) {
            match obs {
                Ok(console) => {
                    let d = ConsoleDigest::of(console);
                    out.push_str(&format!(
                        "  {label:<20} fnv64={:016x} bytes={} lines={} ok={}\n",
                        d.fnv64, d.bytes, d.lines, d.ok
                    ));
                }
                Err(e) => out.push_str(&format!("  {label:<20} ERROR: {e}\n")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Cmp, Cond, Expr, Stmt};

    #[test]
    fn one_seed_agrees_everywhere() {
        let p = generate(0);
        let obs = observe(&p, &LowerOptions::default());
        assert_eq!(obs.len(), 6);
        assert!(
            divergent_pairs(&obs).is_empty(),
            "seed 0 diverged:\n{p}\n{obs:#?}"
        );
    }

    #[test]
    fn manual_program_matches_reference_console() {
        let p = Program {
            stmts: vec![
                Stmt::Assign(
                    2,
                    Expr::Bin(BinOp::Mul, Box::new(Expr::Lit(6)), Box::new(Expr::Lit(7))),
                ),
                Stmt::EmitInt(Expr::Var(2)),
            ],
        };
        let obs = observe(&p, &LowerOptions::default());
        let reference = obs[0].as_ref().expect("reference evaluates").clone();
        assert!(reference.starts_with("42\n"));
        for (label, o) in WITNESSES.iter().zip(&obs) {
            assert_eq!(
                o.as_deref(),
                Ok(reference.as_str()),
                "{label} console differs"
            );
        }
    }

    #[test]
    fn naive_selection_reproduces_the_classic_witness_columns() {
        let ws = witnesses_for(&DispatchSelection::naive_only());
        let labels: Vec<&str> = ws.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(labels, WITNESSES);
    }

    #[test]
    fn full_selection_adds_every_supported_strategy_column() {
        let ws = witnesses_for(&DispatchSelection::all());
        let labels: Vec<&str> = ws.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "reference",
                "c",
                "mipsi",
                "mipsi+threaded",
                "mipsi+superinstr",
                "javelin",
                "javelin+threaded",
                "javelin+superinstr",
                "javelin+tiered",
                "perlite",
                "perlite+inline-cache",
                "tclite",
                "tclite+inline-cache",
            ]
        );
    }

    #[test]
    fn every_dispatch_strategy_is_a_conforming_witness() {
        let report = conform_with(
            6,
            &LowerOptions::default(),
            &DispatchSelection::all(),
            DispatchFault::None,
        );
        assert_eq!(report.witnesses.len(), 13);
        assert_eq!(
            report.divergent_seeds(),
            0,
            "strategy witnesses diverged:\n{}",
            render(&report)
        );
    }

    /// A deliberately buggy threaded handler (Javelin's `isub` computes
    /// `b - a` under [`DispatchFault::ThreadedSubSwap`]) must be caught,
    /// and the divergence table must isolate it: every divergent pair
    /// involves the `javelin+threaded` witness and no other pair fires.
    #[test]
    fn injected_threaded_handler_bug_is_isolated_to_its_witness_pairs() {
        let p = Program {
            stmts: vec![
                Stmt::Assign(
                    0,
                    Expr::Bin(BinOp::Sub, Box::new(Expr::Lit(7)), Box::new(Expr::Lit(3))),
                ),
                Stmt::EmitInt(Expr::Var(0)),
            ],
        };
        let witnesses = witnesses_for(&DispatchSelection::all());
        let buggy = witnesses
            .iter()
            .position(|w| w.label == "javelin+threaded")
            .expect("javelin+threaded witness exists");

        let clean = observe_with(
            &p,
            &LowerOptions::default(),
            &witnesses,
            DispatchFault::None,
        );
        assert!(
            divergent_pairs(&clean).is_empty(),
            "program diverges even without the fault"
        );

        let obs = observe_with(
            &p,
            &LowerOptions::default(),
            &witnesses,
            DispatchFault::ThreadedSubSwap,
        );
        let pairs = divergent_pairs(&obs);
        assert_eq!(
            pairs.len(),
            witnesses.len() - 1,
            "expected the buggy witness to diverge from every other column: {pairs:?}"
        );
        for (i, j) in pairs {
            assert!(
                i == buggy || j == buggy,
                "divergent pair ({}, {}) does not involve javelin+threaded",
                witnesses[i].label,
                witnesses[j].label
            );
        }
    }

    /// A loop hot enough to compile a trace whose branch alternates
    /// direction every iteration: under [`DispatchFault::TraceGuardSkip`]
    /// the first failing guard silently follows the recorded direction
    /// instead of side-exiting, so the wrong arm executes exactly once.
    /// The divergence must be caught, isolated to pairs involving the
    /// `javelin+tiered` witness, and shrunk to a statement-minimal
    /// reproducer that still needs the loop.
    #[test]
    fn injected_trace_guard_skip_is_isolated_to_the_tiered_pairs() {
        let parity = Cond {
            cmp: Cmp::Eq,
            lhs: Expr::Bin(
                BinOp::Mod,
                Box::new(Expr::LoopVar(0)),
                Box::new(Expr::Lit(2)),
            ),
            rhs: Expr::Lit(0),
        };
        let p = Program {
            stmts: vec![
                Stmt::Loop(
                    8,
                    vec![Stmt::If(
                        parity,
                        vec![Stmt::Assign(
                            0,
                            Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::Var(0)),
                                Box::new(Expr::Lit(1)),
                            ),
                        )],
                        vec![Stmt::Assign(
                            0,
                            Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::Var(0)),
                                Box::new(Expr::Lit(7)),
                            ),
                        )],
                    )],
                ),
                Stmt::EmitInt(Expr::Var(0)),
            ],
        };
        let witnesses = witnesses_for(&DispatchSelection::all());
        let tiered = witnesses
            .iter()
            .position(|w| w.label == "javelin+tiered")
            .expect("javelin+tiered witness exists");

        let clean = observe_with(
            &p,
            &LowerOptions::default(),
            &witnesses,
            DispatchFault::None,
        );
        assert!(
            divergent_pairs(&clean).is_empty(),
            "program diverges even without the fault"
        );

        let fault = DispatchFault::TraceGuardSkip;
        let obs = observe_with(&p, &LowerOptions::default(), &witnesses, fault);
        let pairs = divergent_pairs(&obs);
        assert_eq!(
            pairs.len(),
            witnesses.len() - 1,
            "expected the tiered witness to diverge from every other column: {pairs:?}"
        );
        for (i, j) in pairs {
            assert!(
                i == tiered || j == tiered,
                "divergent pair ({}, {}) does not involve javelin+tiered",
                witnesses[i].label,
                witnesses[j].label
            );
        }

        // Shrinking under the same witnesses and fault must keep the
        // divergence alive and land on a statement-minimal reproducer:
        // nothing outside the hot loop survives.
        let shrunk = shrink(&p, |cand| {
            diverges_with(cand, &LowerOptions::default(), &witnesses, fault)
        });
        assert!(
            diverges_with(&shrunk, &LowerOptions::default(), &witnesses, fault),
            "shrunk reproducer no longer diverges"
        );
        assert!(
            shrunk.size() <= p.size(),
            "shrinking grew the program: {} -> {}",
            p.size(),
            shrunk.size()
        );
        assert!(
            shrunk
                .stmts
                .iter()
                .any(|s| matches!(s, Stmt::Loop(_, _))),
            "minimal reproducer must still contain the hot loop:\n{shrunk}"
        );
    }
}
