//! The instrumented simulated host machine.
//!
//! All four interpreters are written against this type's *primitives*: one
//! primitive call retires exactly one native instruction (byte accesses
//! retire two, matching an Alpha's load-plus-extract sequences), counts
//! toward the per-phase / per-command counters, and streams an
//! [`InsnRecord`] to the attached [`TraceSink`]. This substitutes for the
//! paper's ATOM binary instrumentation: counts and address traces *emerge*
//! from the work the interpreters actually perform.
//!
//! Accounting is deferred. A retired instruction only advances the pc and
//! bumps an unflushed count; the count is folded into [`RunStats`] by one
//! [`RunStats::charge_n`] whenever the attribution (phase, virtual command)
//! is about to change, and before anything reads the counters
//! ([`Machine::guard_check`], [`Machine::stats`], [`Machine::into_parts`]).
//! Every instruction between two flush points runs under one attribution,
//! so the counters are exactly those of charging each instruction as it
//! retires. The §3.3 memory-model tag needs no flush: an outermost
//! [`Machine::mem_model`] region credits the difference of the retired
//! count between its exit and its entry.

use interp_core::{CmdId, InsnKind, InsnRecord, Phase, RunStats, TraceSink};
use interp_guard::{GuardError, Limits};
use std::collections::VecDeque;

use crate::fs::FileSystem;
use crate::gfx::{Framebuffer, UiEvent};
use crate::heap::Heap;
use crate::layout::{CodeLayout, Frame, RoutineId};
use crate::mem::Memory;

/// A position inside a routine, used to model loop back-edges so that hot
/// loops replay the same instruction addresses every iteration (giving the
/// branch predictor and i-cache realistic behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label {
    routine: RoutineId,
    off: u32,
}

/// Handles to the built-in "system" routines every simulated process links
/// against (allocator, block copy, syscall stubs, graphics library).
#[derive(Debug, Clone, Copy)]
pub struct SysRoutines {
    /// Memory allocator (`malloc`/`free`).
    pub alloc: RoutineId,
    /// Bulk copy/compare (`memcpy`, `memcmp`, string runtime).
    pub string: RoutineId,
    /// Hash-table runtime.
    pub hash: RoutineId,
    /// Kernel entry stub + buffer-cache copy path.
    pub syscall: RoutineId,
    /// Graphics runtime library (large footprint, like Xlib + Tk internals).
    pub gfx: RoutineId,
}

/// The simulated host machine. Generic over the trace consumer so counting
/// runs (with [`interp_core::NullSink`]) compile to pure counter updates.
pub struct Machine<S: TraceSink> {
    pub(crate) mem: Memory,
    sink: S,
    stats: RunStats,
    layout: CodeLayout,
    /// The running routine's frame.
    frame: Frame,
    /// The callers' frames, innermost last.
    callers: Vec<Frame>,
    phase: Phase,
    phase_stack: Vec<Phase>,
    mem_model_depth: u32,
    cur_cmd: Option<CmdId>,
    pending_fd: u64,
    /// Instructions retired since the last [`Self::flush`], all under the
    /// current attribution.
    unflushed: u64,
    /// [`Self::retired`] when the open memory-model region started, or
    /// when its instructions were last credited.
    mem_model_mark: u64,
    pub(crate) heap: Heap,
    pub(crate) fs: FileSystem,
    pub(crate) console: Vec<u8>,
    pub(crate) gfx: Framebuffer,
    pub(crate) events: VecDeque<UiEvent>,
    sys: SysRoutines,
    limits: Limits,
    /// First guard violation observed (sticky until the run ends).
    pub(crate) guard_fault: Option<GuardError>,
    /// Total `malloc` calls, for deterministic allocation-fault injection.
    pub(crate) alloc_count: u64,
    /// If set, the 1-based allocation ordinal that fails (fault injection).
    pub(crate) alloc_fail_at: Option<u64>,
}

impl<S: TraceSink> std::fmt::Debug for Machine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("instructions", &self.retired())
            .field("commands", &self.stats.commands)
            .field("phase", &self.phase)
            .field("frames", &(self.callers.len() + 1))
            .finish()
    }
}

impl<S: TraceSink> Machine<S> {
    /// Create a machine whose instruction stream flows into `sink`.
    ///
    /// The machine starts inside an implicit `_start` routine with the
    /// current phase set to [`Phase::Startup`]; interpreters switch to
    /// [`Phase::FetchDecode`] when their dispatch loop begins.
    pub fn new(sink: S) -> Self {
        let mut layout = CodeLayout::new();
        let start = layout.routine("_start", 256);
        let sys = SysRoutines {
            alloc: layout.routine("sys_alloc", 1536),
            string: layout.routine("sys_string", 2048),
            hash: layout.routine("sys_hash", 1024),
            syscall: layout.routine("sys_syscall", 1024),
            gfx: layout.routine("sys_gfx", 24 * 1024),
        };
        let frame = Frame::new(&layout, start);
        Machine {
            mem: Memory::new(),
            sink,
            stats: RunStats::new(),
            layout,
            frame,
            callers: Vec::new(),
            phase: Phase::Startup,
            phase_stack: Vec::new(),
            mem_model_depth: 0,
            cur_cmd: None,
            pending_fd: 0,
            unflushed: 0,
            mem_model_mark: 0,
            heap: Heap::new(),
            fs: FileSystem::new(),
            console: Vec::new(),
            gfx: Framebuffer::new(),
            events: VecDeque::new(),
            sys,
            limits: Limits::unlimited(),
            guard_fault: None,
            alloc_count: 0,
            alloc_fail_at: None,
        }
    }

    /// Create a machine with resource caps. Interpreters poll
    /// [`Self::guard_check`] at their dispatch boundaries, so every cap in
    /// `limits` turns into a typed [`GuardError`] instead of a hang or a
    /// panic.
    pub fn with_limits(sink: S, limits: Limits) -> Self {
        let mut m = Self::new(sink);
        m.limits = limits;
        m
    }

    /// The resource caps this machine enforces.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Replace the resource caps (takes effect at the next check).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Fault injection: fail the `nth` (1-based) subsequent `malloc` with a
    /// sticky [`GuardError::OutOfMemory`].
    pub fn inject_alloc_failure(&mut self, nth: u64) {
        self.alloc_fail_at = Some(self.alloc_count + nth);
    }

    /// The first guard violation observed so far, if any. Sticky: once a
    /// fault is recorded the run is considered poisoned until it unwinds.
    pub fn guard_fault(&self) -> Option<&GuardError> {
        self.guard_fault.as_ref()
    }

    /// Record a guard violation (first one wins).
    pub(crate) fn set_guard_fault(&mut self, fault: GuardError) {
        self.guard_fault.get_or_insert(fault);
    }

    /// The per-dispatch guard poll: reports the sticky fault (heap cap,
    /// heap misuse, injected allocation failure) or a freshly-crossed
    /// command/host-step budget. Cheap — a few compares — so interpreters
    /// call it once per virtual command.
    pub fn guard_check(&mut self) -> Result<(), GuardError> {
        if let Some(fault) = &self.guard_fault {
            return Err(fault.clone());
        }
        self.flush();
        if self.stats.instructions >= self.limits.max_host_steps {
            let fault = GuardError::HostStepBudget {
                executed: self.stats.instructions,
                cap: self.limits.max_host_steps,
            };
            self.guard_fault = Some(fault.clone());
            return Err(fault);
        }
        if self.stats.commands >= self.limits.max_commands {
            let fault = GuardError::CommandBudget {
                executed: self.stats.commands,
                cap: self.limits.max_commands,
            };
            self.guard_fault = Some(fault.clone());
            return Err(fault);
        }
        Ok(())
    }

    /// Handles to the built-in system routines.
    pub fn sys(&self) -> SysRoutines {
        self.sys
    }

    /// Register an interpreter routine of `size` bytes of text.
    pub fn routine_decl(&mut self, name: &str, size: u32) -> RoutineId {
        self.layout.routine(name, size)
    }

    /// The code layout (for reporting text footprints).
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// Raw (uncharged) view of simulated memory, for loaders and tests.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Raw (uncharged) mutable view of simulated memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Statistics gathered so far (folds in the instructions not yet
    /// charged, hence `&mut`).
    pub fn stats(&mut self) -> &RunStats {
        self.settle();
        &self.stats
    }

    /// Consume the machine, returning the final statistics and the sink.
    pub fn into_parts(mut self) -> (RunStats, S) {
        self.settle();
        (self.stats, self.sink)
    }

    /// Everything the program wrote to the console (fd 1).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Take ownership of the console output, clearing it.
    pub fn take_console(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console)
    }

    // ------------------------------------------------------------------
    // The instruction engine
    // ------------------------------------------------------------------

    /// Retire one instruction of `kind` at the current program counter.
    #[inline(always)]
    fn step(&mut self, kind: InsnKind) {
        let pc = self.frame.pc();
        self.frame.advance();
        self.retire(InsnRecord { pc, kind });
    }

    /// Count one retired instruction and hand its record to the sink. The
    /// counters proper are charged at the next [`Self::flush`].
    #[inline(always)]
    fn retire(&mut self, rec: InsnRecord) {
        self.unflushed += 1;
        self.sink.insn(rec);
    }

    /// Instructions retired so far, charged or not.
    #[inline(always)]
    fn retired(&self) -> u64 {
        self.stats.instructions + self.unflushed
    }

    /// Fold the instructions retired since the last flush into the
    /// counters, under the attribution they ran with. Called whenever the
    /// attribution is about to change and before anything reads the
    /// counters.
    #[inline]
    fn flush(&mut self) {
        let n = std::mem::take(&mut self.unflushed);
        if n == 0 {
            return;
        }
        self.stats.charge_n(self.phase, self.cur_cmd, n);
        if self.cur_cmd.is_none() && self.phase == Phase::FetchDecode {
            self.pending_fd += n;
        }
    }

    /// Credit the open memory-model region's instructions so far.
    #[inline]
    fn credit_mem_model(&mut self) {
        let now = self.retired();
        self.stats
            .count_mem_model_instructions(now - self.mem_model_mark);
        self.mem_model_mark = now;
    }

    /// Bring every counter up to date, for a reader.
    fn settle(&mut self) {
        self.flush();
        if self.mem_model_depth > 0 {
            self.credit_mem_model();
        }
    }

    /// Retire an externally-constructed instruction (used by the direct
    /// executor, whose program counters come from the compiled binary rather
    /// than the routine layout).
    #[inline]
    pub fn raw_insn(&mut self, rec: InsnRecord) {
        match rec.kind {
            InsnKind::Load { .. } => self.stats.count_load(),
            InsnKind::Store { .. } => self.stats.count_store(),
            _ => {}
        }
        self.retire(rec);
    }

    /// One single-cycle ALU instruction.
    #[inline]
    pub fn alu(&mut self) {
        self.step(InsnKind::Alu);
    }

    /// `n` ALU instructions. A sink that reads no records takes them in
    /// one step: the pc lands where `n` single steps would leave it, since
    /// routine sizes are multiples of 4 and the pc offset stays below the
    /// size. This is the machine's only sink-dependent branch.
    #[inline]
    pub fn alu_n(&mut self, n: u32) {
        if self.sink.records() {
            for _ in 0..n {
                self.step(InsnKind::Alu);
            }
        } else {
            let frame = &mut self.frame;
            let off = u64::from(frame.pc_off) + 4 * u64::from(n);
            let size = u64::from(frame.size);
            frame.pc_off = if off < size { off } else { off % size } as u32;
            self.unflushed += u64::from(n);
        }
    }

    /// One shift/byte instruction (2-cycle "short int" class on the 21064).
    #[inline]
    pub fn shift(&mut self) {
        self.step(InsnKind::ShortInt);
    }

    /// One integer multiply/divide (long latency).
    #[inline]
    pub fn mul(&mut self) {
        self.step(InsnKind::Mul);
    }

    /// One no-op (delay-slot filler).
    #[inline]
    pub fn nop(&mut self) {
        self.step(InsnKind::Nop);
    }

    /// Charged aligned word load.
    #[inline]
    pub fn lw(&mut self, addr: u32) -> u32 {
        self.stats.count_load();
        self.step(InsnKind::Load { addr });
        self.mem.read_u32(addr)
    }

    /// Charged aligned word store.
    #[inline]
    pub fn sw(&mut self, addr: u32, val: u32) {
        self.stats.count_store();
        self.step(InsnKind::Store { addr });
        self.mem.write_u32(addr, val);
    }

    /// Charged byte load: one load plus one extract (short-int) instruction,
    /// matching pre-BWX Alpha code.
    #[inline]
    pub fn lb(&mut self, addr: u32) -> u8 {
        self.stats.count_load();
        self.step(InsnKind::Load { addr: addr & !3 });
        self.step(InsnKind::ShortInt);
        self.mem.read_u8(addr)
    }

    /// Charged byte store: load-modify (short-int) plus store.
    #[inline]
    pub fn sb(&mut self, addr: u32, val: u8) {
        self.stats.count_store();
        self.step(InsnKind::ShortInt);
        self.step(InsnKind::Store { addr: addr & !3 });
        self.mem.write_u8(addr, val);
    }

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------

    /// A conditional forward branch (e.g. an `if` guard). If taken, skips
    /// four instructions' worth of text.
    #[inline]
    pub fn branch_fwd(&mut self, taken: bool) {
        let frame = &mut self.frame;
        let pc = frame.pc();
        frame.advance();
        let target = frame.base + (frame.pc_off + 16) % frame.size.max(4);
        if taken {
            frame.pc_off = target - frame.base;
        }
        self.retire(InsnRecord {
            pc,
            kind: InsnKind::Branch { target, taken },
        });
    }

    /// Capture the current position for a loop back-edge.
    pub fn here(&mut self) -> Label {
        Label {
            routine: self.frame.routine,
            off: self.frame.pc_off,
        }
    }

    /// The conditional back-edge of a loop: while `taken`, control returns
    /// to `label`, so every iteration replays the same instruction
    /// addresses.
    ///
    /// # Panics
    ///
    /// Panics if `label` was captured in a different routine.
    #[inline]
    pub fn loop_back(&mut self, label: Label, taken: bool) {
        let frame = &mut self.frame;
        assert_eq!(
            frame.routine, label.routine,
            "loop label crossed a routine boundary"
        );
        let pc = frame.pc();
        frame.advance();
        let target = frame.base + label.off;
        if taken {
            frame.pc_off = label.off;
        }
        self.retire(InsnRecord {
            pc,
            kind: InsnKind::Branch { target, taken },
        });
    }

    /// Run `f` inside routine `r`: charges the call, runs `f` with the pc
    /// walking `r`'s text, then charges the return.
    #[inline]
    pub fn routine<T>(&mut self, r: RoutineId, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(r);
        let out = f(self);
        self.leave();
        out
    }

    /// Explicit call (prefer [`Self::routine`]). Must be paired with
    /// [`Self::leave`].
    pub fn enter(&mut self, r: RoutineId) {
        let target = self.layout.base(r);
        let pc = self.frame.pc();
        self.frame.advance();
        self.retire(InsnRecord {
            pc,
            kind: InsnKind::Call { target },
        });
        let callee = Frame::new(&self.layout, r);
        self.callers.push(std::mem::replace(&mut self.frame, callee));
    }

    /// Explicit return from [`Self::enter`].
    ///
    /// # Panics
    ///
    /// Panics if only the root frame remains.
    pub fn leave(&mut self) {
        let caller = self.callers.pop().expect("cannot leave the root frame");
        let pc = self.frame.pc();
        self.frame.advance();
        self.retire(InsnRecord {
            pc,
            kind: InsnKind::Ret {
                target: caller.pc(),
            },
        });
        self.frame = caller;
    }

    // ------------------------------------------------------------------
    // Attribution
    // ------------------------------------------------------------------

    /// The current accounting phase.
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// Set the phase without nesting (dispatch loops toggle
    /// `FetchDecode`/`Execute` this way).
    pub fn set_phase(&mut self, phase: Phase) {
        self.flush();
        self.phase = phase;
    }

    /// Run `f` with the phase temporarily set to `phase`.
    #[inline]
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> T) -> T {
        self.flush();
        self.phase_stack.push(self.phase);
        self.phase = phase;
        let out = f(self);
        self.flush();
        self.phase = self.phase_stack.pop().expect("phase stack");
        out
    }

    /// Mark the dispatch of virtual command `cmd`. All fetch/decode
    /// instructions accumulated since the previous command ended are
    /// credited to `cmd`.
    pub fn begin_command(&mut self, cmd: CmdId) {
        self.flush();
        self.stats.begin_command(cmd);
        if self.pending_fd > 0 {
            self.stats.credit_fetch_decode(cmd, self.pending_fd);
            self.pending_fd = 0;
        }
        self.cur_cmd = Some(cmd);
    }

    /// Mark the end of the current virtual command (the dispatch loop is
    /// about to fetch the next one).
    pub fn end_command(&mut self) {
        self.flush();
        self.cur_cmd = None;
        self.pending_fd = 0;
    }

    /// Record one virtual command executed from a compiled trace
    /// (tiered dispatch). Uncharged bookkeeping: the trace's charged
    /// cost is whatever primitives its compiled body retires.
    #[inline]
    pub fn note_trace_command(&mut self) {
        self.stats.trace_commands += 1;
    }

    /// Record a trace guard failure that side-exited to the interpreter.
    #[inline]
    pub fn note_trace_side_exit(&mut self) {
        self.stats.trace_side_exits += 1;
    }

    /// Record one hot trace recorded and compiled.
    #[inline]
    pub fn note_trace_recorded(&mut self) {
        self.stats.traces_recorded += 1;
    }

    /// Record an aborted (and blacklisted) trace.
    #[inline]
    pub fn note_trace_abort(&mut self) {
        self.stats.trace_aborts += 1;
    }

    /// Run `f` as one virtual-machine-level memory-model access (§3.3):
    /// counts one access and tags every instruction inside as memory-model
    /// work.
    #[inline]
    pub fn mem_model<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if self.mem_model_depth == 0 {
            self.mem_model_mark = self.retired();
            self.stats.count_mem_model_access();
        }
        self.mem_model_depth += 1;
        let out = f(self);
        self.mem_model_depth -= 1;
        if self.mem_model_depth == 0 {
            self.credit_mem_model();
        }
        out
    }

    /// Post a synthetic UI event (used by workload drivers for the
    /// interactive benchmarks).
    pub fn post_event(&mut self, event: UiEvent) {
        self.events.push_back(event);
    }

    /// Number of UI events still queued.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::{CommandSet, CountingSink, NullSink, VecSink};

    #[test]
    fn primitives_charge_one_instruction_each() {
        let mut m = Machine::new(NullSink);
        m.alu();
        m.shift();
        m.mul();
        m.nop();
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn byte_ops_charge_two_instructions() {
        let mut m = Machine::new(NullSink);
        m.sb(0x1000, 7);
        assert_eq!(m.lb(0x1000), 7);
        assert_eq!(m.stats().instructions, 4);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn word_roundtrip_charged() {
        let mut m = Machine::new(NullSink);
        m.sw(0x2000, 0xdead_beef);
        assert_eq!(m.lw(0x2000), 0xdead_beef);
        assert_eq!(m.stats().loads, 1);
        assert_eq!(m.stats().stores, 1);
    }

    #[test]
    fn loop_back_replays_addresses() {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("loop", 256);
        m.routine(r, |m| {
            let head = m.here();
            for i in 0..3 {
                m.alu();
                m.loop_back(head, i < 2);
            }
        });
        let (_, sink) = m.into_parts();
        // call + 3*(alu + branch) + ret
        assert_eq!(sink.trace.len(), 8);
        // The alu of iterations 2 and 3 replays iteration 1's pc.
        assert_eq!(sink.trace[1].pc, sink.trace[3].pc);
        assert_eq!(sink.trace[3].pc, sink.trace[5].pc);
    }

    #[test]
    fn routine_emits_call_and_ret() {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("callee", 64);
        let base = m.layout().base(r);
        m.routine(r, |m| m.alu());
        let (_, sink) = m.into_parts();
        assert!(matches!(sink.trace[0].kind, InsnKind::Call { target } if target == base));
        assert_eq!(sink.trace[1].pc, base);
        assert!(matches!(sink.trace[2].kind, InsnKind::Ret { .. }));
    }

    #[test]
    #[should_panic(expected = "root frame")]
    fn leaving_root_frame_panics() {
        let mut m = Machine::new(NullSink);
        m.leave();
    }

    #[test]
    fn phase_nesting_restores() {
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::Execute);
        m.phase(Phase::Native, |m| {
            m.alu();
            assert_eq!(m.current_phase(), Phase::Native);
        });
        assert_eq!(m.current_phase(), Phase::Execute);
        assert_eq!(m.stats().phase_instructions(Phase::Native), 1);
    }

    #[test]
    fn pending_fetch_decode_credits_next_command() {
        let mut cmds = CommandSet::new("t");
        let cmd = cmds.intern("add");
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::FetchDecode);
        m.end_command();
        m.alu_n(5); // decode work before the command is known
        m.begin_command(cmd);
        m.set_phase(Phase::Execute);
        m.alu_n(3);
        let stats = m.stats();
        let c = stats.command(cmd);
        assert_eq!(c.fetch_decode, 5);
        assert_eq!(c.execute, 3);
    }

    #[test]
    fn mem_model_counts_accesses_and_instructions() {
        let mut m = Machine::new(NullSink);
        m.set_phase(Phase::Execute);
        m.mem_model(|m| {
            m.alu_n(4);
            m.mem_model(|m| m.alu()); // nested: still one access
        });
        assert_eq!(m.stats().mem_model_accesses, 1);
        assert_eq!(m.stats().mem_model_instructions, 5);
    }

    #[test]
    fn branch_fwd_taken_skips_text() -> Result<(), GuardError> {
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("br", 4096);
        m.routine(r, |m| {
            m.branch_fwd(true);
            m.alu();
        });
        let (_, sink) = m.into_parts();
        let InsnKind::Branch { target, taken } = sink.trace[1].kind else {
            return Err(GuardError::TraceMismatch { expected: "branch" });
        };
        assert!(taken);
        assert_eq!(sink.trace[2].pc, target);
        Ok(())
    }

    #[test]
    fn guard_check_trips_host_step_budget() {
        let mut m =
            Machine::with_limits(NullSink, Limits::unlimited().with_max_host_steps(10));
        assert!(m.guard_check().is_ok());
        m.alu_n(10);
        let err = m.guard_check().expect_err("budget crossed");
        assert!(matches!(err, GuardError::HostStepBudget { executed: 10, cap: 10 }));
        // Sticky: still tripped on the next poll.
        assert!(m.guard_check().is_err());
    }

    #[test]
    fn guard_check_trips_command_budget_within_one() {
        let mut cmds = CommandSet::new("t");
        let cmd = cmds.intern("add");
        let mut m = Machine::with_limits(NullSink, Limits::unlimited().with_max_commands(3));
        for i in 0..3 {
            assert!(m.guard_check().is_ok(), "command {i} within budget");
            m.begin_command(cmd);
            m.alu();
            m.end_command();
        }
        let err = m.guard_check().expect_err("budget crossed");
        assert!(matches!(err, GuardError::CommandBudget { executed: 3, cap: 3 }));
    }

    #[test]
    fn bulk_alu_n_lands_where_single_steps_do() {
        // 13 words of text; 40 instructions wrap past the end three times.
        fn walk<S: TraceSink>(sink: S) -> (Label, Label, RunStats) {
            let mut m = Machine::new(sink);
            let r = m.routine_decl("wrap", 52);
            let (mid, end) = m.routine(r, |m| {
                m.alu_n(5);
                let mid = m.here();
                m.alu_n(40);
                m.branch_fwd(true);
                m.alu_n(11);
                (mid, m.here())
            });
            let (stats, _) = m.into_parts();
            (mid, end, stats)
        }
        let (null_mid, null_end, null_stats) = walk(NullSink);
        let (vec_mid, vec_end, vec_stats) = walk(VecSink::default());
        assert_eq!(null_mid, vec_mid);
        assert_eq!(null_end, vec_end);
        assert_eq!(null_stats.instructions, vec_stats.instructions);
        // And the single steps really wrapped: 5 + 40 + 1 + 11 = 57 steps.
        let mut m = Machine::new(VecSink::default());
        let r = m.routine_decl("wrap", 52);
        m.routine(r, |m| m.alu_n(57));
        let (_, sink) = m.into_parts();
        let base = sink.trace[1].pc;
        assert_eq!(sink.trace[57].pc, base + (56 % 13) * 4);
    }

    #[test]
    fn host_step_budget_crossed_inside_a_bulk_alu_n_reports_the_same_count() {
        fn run<S: TraceSink>(sink: S) -> GuardError {
            let mut m = Machine::with_limits(sink, Limits::unlimited().with_max_host_steps(103));
            m.set_phase(Phase::Execute);
            for _ in 0..30 {
                if let Err(e) = m.guard_check() {
                    return e;
                }
                m.alu();
                m.alu_n(7); // the cap (103) falls inside the 12th of these
                m.lw(0x1000);
            }
            GuardError::TraceMismatch { expected: "a tripped budget" }
        }
        let bulk = run(NullSink);
        let single = run(CountingSink::default());
        assert!(matches!(bulk, GuardError::HostStepBudget { executed: 108, cap: 103 }));
        assert_eq!(bulk, single);
    }

    #[test]
    fn deferred_counts_attribute_like_per_instruction_charging() {
        let mut cmds = CommandSet::new("t");
        let a = cmds.intern("a");
        let b = cmds.intern("b");
        let mut m = Machine::new(NullSink);
        m.alu_n(3); // startup, no command
        m.set_phase(Phase::FetchDecode);
        m.alu_n(2); // pending fetch/decode
        m.begin_command(a);
        m.alu(); // fetch/decode of a
        m.set_phase(Phase::Execute);
        m.mem_model(|m| {
            m.alu_n(4);
            m.phase(Phase::Native, |m| m.lw(0x40));
        });
        m.end_command();
        m.set_phase(Phase::FetchDecode);
        m.sw(0x44, 1);
        m.begin_command(b);
        m.set_phase(Phase::Execute);
        m.alu_n(6);
        let stats = m.stats().clone();
        assert_eq!(stats.instructions, 3 + 2 + 1 + 4 + 1 + 1 + 6);
        assert_eq!(stats.phase_instructions(Phase::Startup), 3);
        assert_eq!(stats.phase_instructions(Phase::FetchDecode), 4);
        assert_eq!(stats.phase_instructions(Phase::Execute), 10);
        assert_eq!(stats.phase_instructions(Phase::Native), 1);
        assert_eq!(stats.mem_model_instructions, 5);
        assert_eq!(stats.mem_model_accesses, 1);
        assert_eq!((stats.loads, stats.stores), (1, 1));
        let (ca, cb) = (stats.command(a), stats.command(b));
        assert_eq!((ca.fetch_decode, ca.execute, ca.native), (3, 4, 1));
        assert_eq!((cb.fetch_decode, cb.execute, cb.native), (1, 6, 0));
    }

    #[test]
    fn stats_read_inside_a_mem_model_region_are_up_to_date() {
        let mut m = Machine::new(NullSink);
        m.alu();
        m.mem_model(|m| {
            m.alu_n(3);
            assert_eq!(m.stats().mem_model_instructions, 3);
            m.lw(0x10);
            assert_eq!(m.stats().mem_model_instructions, 4);
        });
        m.alu();
        let stats = m.stats();
        assert_eq!((stats.instructions, stats.mem_model_instructions), (6, 4));
    }

    #[test]
    fn unlimited_machine_never_trips() {
        let mut m = Machine::new(NullSink);
        m.alu_n(10_000);
        assert!(m.guard_check().is_ok());
        assert!(m.guard_fault().is_none());
    }
}
