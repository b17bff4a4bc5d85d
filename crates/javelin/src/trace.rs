//! Trace recording and caching for the tiered dispatch tier.
//!
//! The classic trace-JIT shape: the interpreter counts taken backedges
//! per loop head; a head that crosses [`HOT_THRESHOLD`] switches the VM
//! into recording mode, which captures the bytecodes (and the branch
//! directions they took) through one circuit of the loop. When control
//! returns to the anchor the recording is "compiled" — on the simulated
//! host that means subsequent circuits charge a straight-line
//! host-primitive sequence with a guard at every side exit instead of
//! the full fetch/decode path. A guard observing a different branch
//! direction side-exits back to the interpreter at the exact bytecode
//! where the directions diverged; an aborted trace (a call inside the
//! loop, an over-long recording, a spurious guard trip) blacklists its
//! anchor so the recorder never retries it.
//!
//! This module is pure bookkeeping: every charged instruction of trace
//! entry, guard checks, and side exits stays in the VM's dispatch loop,
//! next to the charges of the tiers it replaces. Semantics are shared
//! with the interpreter *by construction* — a traced bytecode executes
//! through the same handler code as an interpreted one, so the only
//! thing a trace can change is the charged fetch/decode cost. All state
//! is keyed and stored deterministically, which makes trace recording a
//! pure function of the program.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Taken backedges at one loop head before recording starts. Low enough
/// that the conformance IR's counted loops (at most 8 iterations per
/// activation) heat up and exercise the trace path.
pub const HOT_THRESHOLD: u32 = 4;

/// Longest recording kept; a loop body that unrolls past this (e.g. a
/// nested loop linearized through the anchor) aborts and blacklists.
pub const MAX_TRACE_STEPS: usize = 512;

/// A trace anchor: `(function index, loop-head pc)`.
pub type Anchor = (usize, usize);

/// One recorded bytecode of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The bytecode's pc.
    pub pc: usize,
    /// The successor the recording took.
    pub next: usize,
    /// The successor is data-dependent (a conditional branch): the
    /// compiled trace carries a guard here, and a run taking the other
    /// direction side-exits.
    pub guarded: bool,
}

/// What [`TraceEngine::record_step`] did with a captured bytecode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// Step appended; recording continues.
    Continue,
    /// The step's successor closed the loop: the trace is compiled and
    /// cached, and the engine is idle again.
    Completed,
    /// The recording overflowed [`MAX_TRACE_STEPS`]; the anchor is
    /// blacklisted and the engine is idle again.
    Overflow,
}

enum Mode {
    Idle,
    Recording { anchor: Anchor, steps: Vec<TraceStep> },
    /// The executing trace is shared with the cache, so a traced
    /// bytecode reads its step without a cache lookup.
    Executing { anchor: Anchor, trace: Rc<[TraceStep]>, step: usize },
}

/// Per-VM trace state: hotness counters, the trace cache, the
/// blacklist, and the current mode (idle / recording / executing).
pub struct TraceEngine {
    mode: Mode,
    hotness: BTreeMap<Anchor, u32>,
    traces: BTreeMap<Anchor, Rc<[TraceStep]>>,
    blacklist: BTreeSet<Anchor>,
}

impl TraceEngine {
    /// An idle engine with an empty cache.
    pub fn new() -> Self {
        TraceEngine {
            mode: Mode::Idle,
            hotness: BTreeMap::new(),
            traces: BTreeMap::new(),
            blacklist: BTreeSet::new(),
        }
    }

    /// Is a compiled trace currently executing?
    pub fn executing(&self) -> bool {
        matches!(self.mode, Mode::Executing { .. })
    }

    /// Is a recording in progress?
    pub fn recording(&self) -> bool {
        matches!(self.mode, Mode::Recording { .. })
    }

    /// Number of compiled traces in the cache.
    pub fn compiled(&self) -> usize {
        self.traces.len()
    }

    /// Number of blacklisted anchors.
    pub fn blacklisted(&self) -> usize {
        self.blacklist.len()
    }

    /// If idle and a compiled trace is anchored at `(func, pc)`, start
    /// executing it. Returns whether a trace took over.
    pub fn try_enter(&mut self, func: usize, pc: usize) -> bool {
        if !matches!(self.mode, Mode::Idle) {
            return false;
        }
        let anchor = (func, pc);
        match self.traces.get(&anchor) {
            Some(trace) => {
                let trace = Rc::clone(trace);
                self.mode = Mode::Executing { anchor, trace, step: 0 };
                true
            }
            None => false,
        }
    }

    /// The step the executing trace expects next, if executing.
    pub fn current_step(&self) -> Option<TraceStep> {
        match &self.mode {
            Mode::Executing { trace, step, .. } => trace.get(*step).copied(),
            _ => None,
        }
    }

    /// Advance the executing trace one step, wrapping from the last
    /// step back to the anchor (the compiled loop's own backedge).
    pub fn advance(&mut self) {
        if let Mode::Executing { trace, step, .. } = &mut self.mode {
            *step = (*step + 1) % trace.len().max(1);
        }
    }

    /// Leave the executing trace (guard failure): back to the
    /// interpreter, trace stays cached.
    pub fn side_exit(&mut self) {
        if self.executing() {
            self.mode = Mode::Idle;
        }
    }

    /// Abort the executing trace: evict it from the cache, blacklist
    /// its anchor, back to the interpreter.
    pub fn abort_executing(&mut self) {
        if let Mode::Executing { anchor, .. } = &self.mode {
            let anchor = *anchor;
            self.traces.remove(&anchor);
            self.blacklist.insert(anchor);
            self.mode = Mode::Idle;
        }
    }

    /// Count a taken backedge to `(func, target)` while idle. Crossing
    /// [`HOT_THRESHOLD`] on a head that is neither compiled nor
    /// blacklisted starts a recording anchored there (capture begins
    /// when control reaches the anchor, which is the very next
    /// bytecode). Returns whether recording just started.
    pub fn note_backedge(&mut self, func: usize, target: usize) -> bool {
        if !matches!(self.mode, Mode::Idle) {
            return false;
        }
        let anchor = (func, target);
        if self.traces.contains_key(&anchor) || self.blacklist.contains(&anchor) {
            return false;
        }
        let count = self.hotness.entry(anchor).or_insert(0);
        *count += 1;
        if *count >= HOT_THRESHOLD {
            self.mode = Mode::Recording { anchor, steps: Vec::new() };
            true
        } else {
            false
        }
    }

    /// Abort the in-progress recording (a call, native entry, or return
    /// inside the loop) and blacklist the anchor.
    pub fn abort_recording(&mut self) {
        if let Mode::Recording { anchor, .. } = self.mode {
            self.blacklist.insert(anchor);
            self.mode = Mode::Idle;
        }
    }

    /// Capture one executed bytecode into the in-progress recording.
    /// `next` is the successor execution actually took; `guarded` marks
    /// a data-dependent successor (conditional branch).
    pub fn record_step(&mut self, pc: usize, next: usize, guarded: bool) -> RecordOutcome {
        let Mode::Recording { anchor, steps } = &mut self.mode else {
            return RecordOutcome::Continue;
        };
        steps.push(TraceStep { pc, next, guarded });
        if next == anchor.1 {
            let anchor = *anchor;
            let trace = Rc::from(std::mem::take(steps));
            self.traces.insert(anchor, trace);
            self.mode = Mode::Idle;
            RecordOutcome::Completed
        } else if steps.len() >= MAX_TRACE_STEPS {
            let anchor = *anchor;
            self.blacklist.insert(anchor);
            self.mode = Mode::Idle;
            RecordOutcome::Overflow
        } else {
            RecordOutcome::Continue
        }
    }
}

impl Default for TraceEngine {
    fn default() -> Self {
        TraceEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heat one anchor to the threshold; returns whether the last bump
    /// started a recording.
    fn heat(e: &mut TraceEngine, func: usize, target: usize) -> bool {
        let mut started = false;
        for _ in 0..HOT_THRESHOLD {
            started = e.note_backedge(func, target);
        }
        started
    }

    #[test]
    fn hotness_threshold_starts_recording_once() {
        let mut e = TraceEngine::new();
        assert!(heat(&mut e, 0, 10));
        assert!(e.recording());
        // While recording, further backedges are not counted.
        assert!(!e.note_backedge(0, 20));
    }

    #[test]
    fn completed_recording_compiles_and_enters() {
        let mut e = TraceEngine::new();
        assert!(heat(&mut e, 0, 10));
        assert_eq!(e.record_step(10, 12, false), RecordOutcome::Continue);
        assert_eq!(e.record_step(12, 10, true), RecordOutcome::Completed);
        assert_eq!(e.compiled(), 1);
        assert!(e.try_enter(0, 10));
        let s0 = e.current_step().expect("step 0");
        assert_eq!((s0.pc, s0.next, s0.guarded), (10, 12, false));
        e.advance();
        let s1 = e.current_step().expect("step 1");
        assert!(s1.guarded);
        e.advance(); // wraps back to the anchor step
        assert_eq!(e.current_step().map(|s| s.pc), Some(10));
    }

    #[test]
    fn side_exit_keeps_trace_abort_evicts_and_blacklists() {
        let mut e = TraceEngine::new();
        assert!(heat(&mut e, 3, 7));
        assert_eq!(e.record_step(7, 7, true), RecordOutcome::Completed);
        assert!(e.try_enter(3, 7));
        e.side_exit();
        assert_eq!(e.compiled(), 1);
        assert!(e.try_enter(3, 7), "side exit keeps the trace cached");
        e.abort_executing();
        assert_eq!(e.compiled(), 0);
        assert_eq!(e.blacklisted(), 1);
        assert!(!e.try_enter(3, 7), "aborted trace is gone");
        // Blacklisted anchors never re-heat.
        assert!(!heat(&mut e, 3, 7));
        assert!(!e.recording());
    }

    #[test]
    fn recording_aborts_blacklist() {
        let mut e = TraceEngine::new();
        assert!(heat(&mut e, 1, 0));
        e.abort_recording();
        assert!(!e.recording());
        assert_eq!(e.blacklisted(), 1);
        assert!(!heat(&mut e, 1, 0), "blacklisted anchor stays cold");
    }

    #[test]
    fn overlong_recording_overflows() {
        let mut e = TraceEngine::new();
        assert!(heat(&mut e, 0, 0));
        for i in 0..MAX_TRACE_STEPS - 1 {
            assert_eq!(e.record_step(i, i + 1, false), RecordOutcome::Continue);
        }
        assert_eq!(
            e.record_step(MAX_TRACE_STEPS - 1, MAX_TRACE_STEPS, false),
            RecordOutcome::Overflow
        );
        assert_eq!(e.compiled(), 0);
        assert_eq!(e.blacklisted(), 1);
    }

    #[test]
    fn distinct_anchors_heat_independently() {
        let mut e = TraceEngine::new();
        for _ in 0..HOT_THRESHOLD - 1 {
            assert!(!e.note_backedge(0, 4));
            assert!(!e.note_backedge(1, 4));
        }
        assert!(e.note_backedge(0, 4));
        assert!(e.recording());
    }
}
