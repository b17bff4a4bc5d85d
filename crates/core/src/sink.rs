//! Trace sinks: consumers of the native-instruction stream.
//!
//! The simulated host machine is generic over its sink, so a pure counting
//! run ([`NullSink`]) compiles down to nothing while a timing run streams
//! every [`InsnRecord`] into the architecture simulator without buffering
//! gigabytes of trace.

use crate::insn::{InsnKind, InsnRecord};

/// A consumer of retired native instructions.
///
/// Implementors receive instructions strictly in program order, one call per
/// retired instruction. `interp-archsim`'s pipeline model and cache sweeps
/// implement this trait; so do the lightweight sinks below.
pub trait TraceSink {
    /// Observe one retired instruction.
    fn insn(&mut self, rec: InsnRecord);

    /// Whether this sink reads the records it is given. A sink that
    /// answers `false` may be handed runs of instructions in bulk, with no
    /// record built and no per-instruction pc walk; its counters in
    /// `RunStats` are exactly those of a sink that answers `true`. The
    /// answer must not change over the sink's life.
    ///
    /// A provided method rather than an associated constant, so that
    /// `dyn TraceSink` stays usable; for a concrete sink type it inlines
    /// to a constant.
    #[inline(always)]
    fn records(&self) -> bool {
        true
    }
}

/// Discards the trace; used for counting-only runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn insn(&mut self, _rec: InsnRecord) {}

    #[inline(always)]
    fn records(&self) -> bool {
        false
    }
}

/// Counts instructions by class without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Total retired instructions.
    pub instructions: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Control-transfer instructions retired.
    pub control: u64,
    /// Taken branches (including calls and returns).
    pub taken: u64,
}

impl TraceSink for CountingSink {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        self.instructions += 1;
        match rec.kind {
            InsnKind::Load { .. } => self.loads += 1,
            InsnKind::Store { .. } => self.stores += 1,
            InsnKind::Branch { taken, .. } => {
                self.control += 1;
                if taken {
                    self.taken += 1;
                }
            }
            InsnKind::Call { .. } | InsnKind::Ret { .. } => {
                self.control += 1;
                self.taken += 1;
            }
            _ => {}
        }
    }
}

/// Stores the full trace in memory. Only suitable for short runs (tests).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// The recorded trace, in program order.
    pub trace: Vec<InsnRecord>,
}

impl TraceSink for VecSink {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        self.trace.push(rec);
    }
}

/// Fans one instruction stream out to two sinks.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    /// First sink (receives each record first).
    pub a: A,
    /// Second sink.
    pub b: B,
}

impl<A, B> TeeSink<A, B> {
    /// Combine two sinks.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        self.a.insn(rec);
        self.b.insn(rec);
    }

    #[inline(always)]
    fn records(&self) -> bool {
        self.a.records() || self.b.records()
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn insn(&mut self, rec: InsnRecord) {
        (**self).insn(rec)
    }

    #[inline(always)]
    fn records(&self) -> bool {
        (**self).records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<InsnRecord> {
        vec![
            InsnRecord::new(0, InsnKind::Alu),
            InsnRecord::new(4, InsnKind::Load { addr: 100 }),
            InsnRecord::new(8, InsnKind::Store { addr: 104 }),
            InsnRecord::new(
                12,
                InsnKind::Branch {
                    target: 0,
                    taken: true,
                },
            ),
            InsnRecord::new(
                16,
                InsnKind::Branch {
                    target: 24,
                    taken: false,
                },
            ),
            InsnRecord::new(20, InsnKind::Call { target: 64 }),
            InsnRecord::new(64, InsnKind::Ret { target: 24 }),
        ]
    }

    #[test]
    fn counting_sink_classifies() {
        let mut sink = CountingSink::default();
        for rec in sample() {
            sink.insn(rec);
        }
        assert_eq!(sink.instructions, 7);
        assert_eq!(sink.loads, 1);
        assert_eq!(sink.stores, 1);
        assert_eq!(sink.control, 4);
        assert_eq!(sink.taken, 3);
    }

    #[test]
    fn vec_sink_preserves_order() {
        let mut sink = VecSink::default();
        for rec in sample() {
            sink.insn(rec);
        }
        assert_eq!(sink.trace, sample());
    }

    #[test]
    fn tee_feeds_both() {
        let mut tee = TeeSink::new(CountingSink::default(), VecSink::default());
        for rec in sample() {
            tee.insn(rec);
        }
        assert_eq!(tee.a.instructions as usize, tee.b.trace.len());
    }

    #[test]
    fn only_sinks_that_read_records_say_so() {
        assert!(!NullSink.records());
        assert!(CountingSink::default().records());
        assert!(VecSink::default().records());
        assert!(!TeeSink::new(NullSink, NullSink).records());
        assert!(TeeSink::new(NullSink, CountingSink::default()).records());
        assert!(TeeSink::new(VecSink::default(), NullSink).records());
        let mut null = NullSink;
        let by_ref: &mut NullSink = &mut null;
        assert!(!by_ref.records());
        let mut counting = CountingSink::default();
        let as_dyn: &mut dyn TraceSink = &mut counting;
        assert!(as_dyn.records());
    }

    #[test]
    fn mut_ref_is_a_sink() {
        let mut counting = CountingSink::default();
        {
            let mut by_ref: &mut CountingSink = &mut counting;
            by_ref.insn(InsnRecord::new(0, InsnKind::Alu));
        }
        assert_eq!(counting.instructions, 1);
    }
}
