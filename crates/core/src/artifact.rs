//! Memoizable run artifacts: everything an experiment can want from one
//! finished run, in sink-independent form.
//!
//! A [`RunArtifact`] is what the run-plan engine stores per executed
//! [`RunRequest`](crate::RunRequest): the raw counters, the interned
//! command names (so per-command profiles can be recomputed), a digest of
//! the console output (runs are self-checking), the program size, and —
//! when the run streamed into a timing sink — a [`CycleSummary`] or the
//! Figure 4 sweep points. Experiments consume artifacts instead of
//! invoking interpreters, so one run can serve many tables.

use crate::command::CommandSet;
use crate::profile::CommandProfile;
use crate::serial::{intern_static, ByteReader, ByteWriter, DecodeError};
use crate::stats::RunStats;

/// Digest of a run's console output. The full text is not kept — runs are
/// validated by their self-check line and compared by hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsoleDigest {
    /// Console length in bytes.
    pub bytes: usize,
    /// Number of lines.
    pub lines: usize,
    /// FNV-1a 64-bit hash of the full console text.
    pub fnv64: u64,
    /// Whether the self-check passed (`OK` printed, no `BAD`).
    pub ok: bool,
}

impl ConsoleDigest {
    /// Digest `console`.
    pub fn of(console: &str) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for b in console.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        ConsoleDigest {
            bytes: console.len(),
            lines: console.lines().count(),
            fnv64: hash,
            ok: console.contains("OK") && !console.contains("BAD"),
        }
    }
}

/// One stacked bar segment of Figure 3: an issue-slot loss cause and the
/// fraction of slots it claimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallShare {
    /// Cause label, matching the timing model's legend (`imiss`, `dtlb`, …).
    pub label: &'static str,
    /// Fraction of issue slots lost to this cause.
    pub fraction: f64,
}

/// Sink-independent summary of a pipeline-timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleSummary {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions the timing model retired.
    pub instructions: u64,
    /// Fraction of issue slots doing useful work.
    pub busy_fraction: f64,
    /// Unfilled-slot fractions in the model's stacking order.
    pub stalls: Vec<StallShare>,
}

impl CycleSummary {
    /// Stall fraction for the cause labelled `label` (0 if absent).
    pub fn stall_fraction(&self, label: &str) -> f64 {
        self.stalls
            .iter()
            .find(|s| s.label == label)
            .map_or(0.0, |s| s.fraction)
    }
}

/// One point of the Figure 4 I-cache grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPointSummary {
    /// Cache size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Misses per 100 instructions.
    pub miss_per_100: f64,
}

/// Everything one finished run yields, in memoizable (sink-independent)
/// form.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// The counters behind Tables 1–2 and the §3.3 rows.
    pub stats: RunStats,
    /// Interned virtual-command names (Figures 1–2 recompute profiles
    /// from these plus `stats`).
    pub commands: CommandSet,
    /// Console digest (self-check validation and run comparison).
    pub console: ConsoleDigest,
    /// Program size in bytes (Table 2 "Size").
    pub program_bytes: usize,
    /// Cycle summary, present for pipeline-timing runs.
    pub cycles: Option<CycleSummary>,
    /// Figure 4 sweep points, present for I-cache-sweep runs.
    pub sweep: Option<Vec<SweepPointSummary>>,
}

impl RunArtifact {
    /// An empty artifact: the shape of a run that died before producing
    /// anything (e.g. a guarded run ending in a caught panic).
    pub fn empty() -> Self {
        RunArtifact {
            stats: RunStats::new(),
            commands: CommandSet::new(""),
            console: ConsoleDigest::of(""),
            program_bytes: 0,
            cycles: None,
            sweep: None,
        }
    }

    /// Per-command profile (Figures 1–2), recomputed from the counters.
    pub fn profile(&self) -> CommandProfile {
        CommandProfile::from_stats(&self.stats, &self.commands)
    }

    /// The cycle summary of a timing run.
    ///
    /// # Panics
    ///
    /// Panics if this artifact came from a non-timing sink — requesting
    /// cycles from a counting artifact is a planner bug.
    pub fn cycle_summary(&self) -> &CycleSummary {
        self.cycles
            .as_ref()
            .expect("artifact has no cycle summary (counting run)")
    }

    /// The Figure 4 sweep points of an I-cache-sweep run.
    ///
    /// # Panics
    ///
    /// Panics if this artifact came from a non-sweep sink.
    pub fn sweep_points(&self) -> &[SweepPointSummary] {
        self.sweep
            .as_deref()
            .expect("artifact has no sweep points (non-sweep run)")
    }

    /// Append the stable binary encoding of this artifact to `w` — the
    /// journal payload format. Floats are encoded by bit pattern, so a
    /// decoded artifact renders byte-identically to the original.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.stats.encode_into(w);
        self.commands.encode_into(w);
        w.put_usize(self.console.bytes);
        w.put_usize(self.console.lines);
        w.put_u64(self.console.fnv64);
        w.put_bool(self.console.ok);
        w.put_usize(self.program_bytes);
        match &self.cycles {
            None => w.put_bool(false),
            Some(c) => {
                w.put_bool(true);
                w.put_u64(c.cycles);
                w.put_u64(c.instructions);
                w.put_f64(c.busy_fraction);
                w.put_u32(c.stalls.len() as u32);
                for s in &c.stalls {
                    w.put_str(s.label);
                    w.put_f64(s.fraction);
                }
            }
        }
        match &self.sweep {
            None => w.put_bool(false),
            Some(points) => {
                w.put_bool(true);
                w.put_u32(points.len() as u32);
                for p in points {
                    w.put_usize(p.size_bytes);
                    w.put_usize(p.assoc);
                    w.put_f64(p.miss_per_100);
                }
            }
        }
    }

    /// Decode an artifact encoded by [`RunArtifact::encode_into`].
    /// Stall labels are re-interned into `&'static str`s (the legend is
    /// a small closed set), so the decoded artifact is structurally
    /// identical to the one the timing model produced.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<RunArtifact, DecodeError> {
        let stats = RunStats::decode_from(r)?;
        let commands = CommandSet::decode_from(r)?;
        let console = ConsoleDigest {
            bytes: r.get_usize("console.bytes")?,
            lines: r.get_usize("console.lines")?,
            fnv64: r.get_u64("console.fnv64")?,
            ok: r.get_bool("console.ok")?,
        };
        let program_bytes = r.get_usize("artifact.program_bytes")?;
        let cycles = if r.get_bool("artifact.has_cycles")? {
            let cycles = r.get_u64("cycles.cycles")?;
            let instructions = r.get_u64("cycles.instructions")?;
            let busy_fraction = r.get_f64("cycles.busy_fraction")?;
            let n = r.get_len(12, "cycles.stalls.len")?;
            let mut stalls = Vec::with_capacity(n);
            for _ in 0..n {
                let label = r.get_string("stall.label")?;
                stalls.push(StallShare {
                    label: intern_static(&label),
                    fraction: r.get_f64("stall.fraction")?,
                });
            }
            Some(CycleSummary { cycles, instructions, busy_fraction, stalls })
        } else {
            None
        };
        let sweep = if r.get_bool("artifact.has_sweep")? {
            let n = r.get_len(24, "sweep.len")?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(SweepPointSummary {
                    size_bytes: r.get_usize("sweep.size_bytes")?,
                    assoc: r.get_usize("sweep.assoc")?,
                    miss_per_100: r.get_f64("sweep.miss_per_100")?,
                });
            }
            Some(points)
        } else {
            None
        };
        Ok(RunArtifact { stats, commands, console, program_bytes, cycles, sweep })
    }

    /// The stable binary encoding as owned bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// FNV-1a hash of the stable encoding — an exact content identity
    /// for comparing artifacts across processes (`RunArtifact` itself
    /// derives no `PartialEq`; two artifacts with equal hashes render
    /// identically in every table).
    pub fn content_hash(&self) -> u64 {
        crate::serial::fnv1a(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn console_digest_distinguishes_text() {
        let a = ConsoleDigest::of("OK 123\n");
        let b = ConsoleDigest::of("OK 124\n");
        assert_ne!(a.fnv64, b.fnv64);
        assert_eq!(a.bytes, 7);
        assert_eq!(a.lines, 1);
        assert!(a.ok);
        assert!(!ConsoleDigest::of("BAD checksum\n").ok);
        assert!(!ConsoleDigest::of("").ok);
    }

    #[test]
    fn cycle_summary_lookup_by_label() {
        let s = CycleSummary {
            cycles: 100,
            instructions: 150,
            busy_fraction: 0.75,
            stalls: vec![
                StallShare { label: "imiss", fraction: 0.1 },
                StallShare { label: "dtlb", fraction: 0.05 },
            ],
        };
        assert_eq!(s.stall_fraction("imiss"), 0.1);
        assert_eq!(s.stall_fraction("nothing"), 0.0);
    }

    fn fat_artifact() -> RunArtifact {
        let mut commands = CommandSet::new("demo");
        commands.intern("add");
        commands.intern("beq");
        let mut stats = RunStats::new();
        let add = crate::CmdId(0);
        stats.begin_command(add);
        stats.charge_n(crate::Phase::Execute, Some(add), 1);
        stats.count_mem_model_instructions(1);
        stats.count_load();
        RunArtifact {
            stats,
            commands,
            console: ConsoleDigest::of("OK 99\n"),
            program_bytes: 4096,
            cycles: Some(CycleSummary {
                cycles: 123_456,
                instructions: 99_000,
                busy_fraction: 0.4375,
                stalls: vec![
                    StallShare { label: "imiss", fraction: 0.125 },
                    StallShare { label: "dtlb", fraction: 0.0625 },
                ],
            }),
            sweep: Some(vec![SweepPointSummary {
                size_bytes: 8 * 1024,
                assoc: 2,
                miss_per_100: 3.5,
            }]),
        }
    }

    #[test]
    fn artifact_encoding_round_trips_exactly() {
        let art = fat_artifact();
        let bytes = art.encode();
        let mut r = crate::serial::ByteReader::new(&bytes);
        let decoded = RunArtifact::decode_from(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        assert_eq!(decoded.console, art.console);
        assert_eq!(decoded.program_bytes, art.program_bytes);
        assert_eq!(decoded.cycles, art.cycles);
        assert_eq!(decoded.sweep, art.sweep);
        assert_eq!(decoded.stats.instructions, art.stats.instructions);
        assert_eq!(decoded.commands.get("beq"), art.commands.get("beq"));
        assert_eq!(decoded.content_hash(), art.content_hash());
        // Re-encoding the decoded artifact is byte-identical: the codec
        // is a fixed point, which is what makes journal healing exact.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn minimal_artifact_round_trips() {
        let art = RunArtifact::empty();
        let bytes = art.encode();
        let mut r = crate::serial::ByteReader::new(&bytes);
        let decoded = RunArtifact::decode_from(&mut r).expect("round trip");
        assert!(decoded.cycles.is_none());
        assert!(decoded.sweep.is_none());
        assert_eq!(decoded.content_hash(), art.content_hash());
    }

    #[test]
    fn content_hash_distinguishes_artifacts() {
        let a = fat_artifact();
        let mut b = fat_artifact();
        b.program_bytes += 1;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_truncation_of_an_encoded_artifact_errors_cleanly() {
        let bytes = fat_artifact().encode();
        for cut in 0..bytes.len() {
            let mut r = crate::serial::ByteReader::new(&bytes[..cut]);
            assert!(RunArtifact::decode_from(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_artifact_has_no_timing() {
        let a = RunArtifact::empty();
        assert!(a.cycles.is_none());
        assert!(a.sweep.is_none());
        assert_eq!(a.stats.instructions, 0);
        assert!(a.profile().is_empty());
    }
}
