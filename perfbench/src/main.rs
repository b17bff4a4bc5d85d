//! The repository's benchmark: two workloads over the `repro` stack,
//! each printing every end-to-end metric (or, traced, every per-layer
//! metric) as one JSON line.
//!
//! ```text
//! perfbench --workload counting|served --seed N --seconds S --trace 0|1 [--root DIR]
//! perfbench warm [--root DIR]
//! ```
//!
//! `--root` is the repository checkout (default `.`): goldens are read
//! from it and scratch state lives under `<root>/.perfbench-work/`.
//! `warm` fills the warm cache the `served` workload copies; run it
//! before `served` so the fill does not count against that process.
//! See `perfbench/README.md` for what each workload measures and why.

mod check;
mod counting;
mod probes;
mod reference;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::Metrics;

/// End-to-end metrics and units, printed by every workload untraced.
/// Host times are scaled to the reference host (see `reference.rs`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("req_per_s", "1/s"),
    ("sim_minsns_per_s", "Minsn/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("insns_per_cmd.mipsi", "insn/cmd"),
    ("insns_per_cmd.javelin", "insn/cmd"),
    ("insns_per_cmd.perlite", "insn/cmd"),
    ("insns_per_cmd.tclite", "insn/cmd"),
];

/// Per-layer metrics and units, printed by every workload traced. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compile.minic.ms", "ms"),
    ("compile.javelin.ms", "ms"),
    ("compile.perlite.ms", "ms"),
    ("interp.c.ns_per_insn", "ns"),
    ("interp.mipsi.ns_per_insn", "ns"),
    ("interp.javelin.ns_per_insn", "ns"),
    ("interp.perlite.ns_per_insn", "ns"),
    ("interp.tclite.ns_per_insn", "ns"),
    ("interp.c.busy_s", "s"),
    ("interp.mipsi.busy_s", "s"),
    ("interp.javelin.busy_s", "s"),
    ("interp.perlite.busy_s", "s"),
    ("interp.tclite.busy_s", "s"),
    ("interp.mipsi.threaded_speedup", "x"),
    ("sink.pipeline.ns_per_insn", "ns"),
    ("sink.pipeline_itlb32.ns_per_insn", "ns"),
    ("sink.icache_sweep.ns_per_insn", "ns"),
    ("sink.pipeline.synthetic_ns_per_insn", "ns"),
    ("cycles_per_cmd.mipsi", "cycle/cmd"),
    ("cycles_per_cmd.javelin", "cycle/cmd"),
    ("cycles_per_cmd.perlite", "cycle/cmd"),
    ("cycles_per_cmd.tclite", "cycle/cmd"),
    ("encode.us_per_artifact", "us"),
    ("encode.bytes_per_artifact", "bytes"),
    ("decode.us_per_artifact", "us"),
    ("journal.append_ms.p50", "ms"),
    ("journal.append_ms.p90", "ms"),
    ("journal.bytes_written_mb", "MiB"),
    ("journal.appends", "count"),
    ("journal.load_ms", "ms"),
    ("journal.p50_share_pct", "%"),
    ("lock.acquire_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("plan.dedup_ratio", "ratio"),
    ("pool.overhead_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.turnaround_ms.p50", "ms"),
    ("serve.turnaround_ms.p90", "ms"),
    ("serve.poll_wait_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.requeued", "count"),
    ("render.ms", "ms"),
    ("profile.build_us", "us"),
    ("share.interp_pct", "%"),
    ("share.poll_pct", "%"),
    ("share.journal_pct", "%"),
    ("share.render_pct", "%"),
    ("share.other_pct", "%"),
    ("fail_ratio", "ratio"),
    ("host.reference_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The workloads.
pub const WORKLOADS: [&str; 2] = ["counting", "served"];

/// Parsed command line of a measured run.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Repository checkout root.
    pub root: PathBuf,
}

impl Args {
    /// Scratch directory for caches and span files.
    pub fn work_dir(&self) -> PathBuf {
        work_dir(&self.root)
    }
}

fn work_dir(root: &Path) -> PathBuf {
    root.join(".perfbench-work")
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted (runs, renders compared, requests).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = PathBuf::from(".");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--root" => root = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        root,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// over the metric list of this kind of run.
fn result_line(outcome: &Outcome, list: &[(&str, &str)]) -> String {
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("warm") {
        let root = match argv.get(1..) {
            Some([flag, dir]) if flag == "--root" => PathBuf::from(dir),
            Some([]) => PathBuf::from("."),
            _ => {
                eprintln!("perfbench: usage: perfbench warm [--root DIR]");
                return ExitCode::from(2);
            }
        };
        return match served::ensure_warm_cache(&work_dir(&root)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: warm cache: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let goldens = match check::load_goldens(&args.root) {
        Ok(goldens) => goldens,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "counting" => counting::run(&args, &goldens),
        _ => served::run(&args, &goldens),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.metrics.put("peak_rss_mb", stats::peak_rss_mb());
    outcome.metrics.put(
        "fail_ratio",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    outcome.metrics.put(
        "ok_ratio",
        1.0 - stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    let unknown = outcome.metrics.unknown(&all);
    if !unknown.is_empty() {
        eprintln!("perfbench: metrics missing from the metric lists: {unknown:?}");
        return ExitCode::FAILURE;
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, list));
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
