//! The Javelin virtual machine.
//!
//! A faithful small JVM shape: a compact dispatch loop that fetches one
//! bytecode byte per trip (the paper's ~16-instruction fetch/decode),
//! operand and expression stacks living in a simulated-memory thread stack
//! (2 charged instructions per stack reference, §3.3), objects accessed
//! only through `getfield`/`putfield` (~11 instructions with the null
//! check), and a native runtime library whose instructions are attributed
//! to [`Phase::Native`].
//!
//! Under [`DispatchStrategy::Tiered`] the loop additionally runs the
//! trace machinery in [`crate::trace`]: hot loop heads are recorded and
//! "compiled" into straight-line charged sequences, with guards at every
//! data-dependent branch and interpreter fallback on guard failure.

use interp_core::{
    CmdId, CommandSet, Dispatch, DispatchFault, DispatchStrategy, Language, Phase, RunStats,
    TraceSink,
};
use interp_guard::GuardError;
use interp_host::{Machine, RoutineId, SimStr, UiEvent};

use crate::bytecode::{JProgram, Native, OpCode};
use crate::trace::{RecordOutcome, TraceEngine};

/// Conditional branches are the data-dependent successors a compiled
/// trace must guard; everything else is straight-line or statically
/// directed and needs no guard.
fn is_guarded(op: OpCode) -> bool {
    matches!(
        op,
        OpCode::Ifeq
            | OpCode::Ifne
            | OpCode::IfIcmplt
            | OpCode::IfIcmpge
            | OpCode::IfIcmpgt
            | OpCode::IfIcmple
            | OpCode::IfIcmpeq
            | OpCode::IfIcmpne
    )
}

/// Run-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JvmError {
    /// Exceeded the bytecode budget.
    Timeout {
        /// Bytecodes executed.
        executed: u64,
    },
    /// Invalid bytecode encountered.
    BadBytecode {
        /// Function index.
        func: usize,
        /// pc within the function.
        pc: usize,
    },
    /// Null dereference.
    NullPointer,
    /// Array index out of bounds.
    Bounds {
        /// Index used.
        index: i32,
        /// Array length.
        length: i32,
    },
    /// Division by zero.
    DivideByZero,
    /// Call stack exhausted.
    StackOverflow,
    /// A resource guard tripped (limits, heap cap, injected fault).
    Guard(GuardError),
}

impl std::fmt::Display for JvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JvmError::Timeout { executed } => write!(f, "bytecode budget exhausted at {executed}"),
            JvmError::BadBytecode { func, pc } => {
                write!(f, "bad bytecode in function {func} at pc {pc}")
            }
            JvmError::NullPointer => write!(f, "null pointer exception"),
            JvmError::Bounds { index, length } => {
                write!(f, "index {index} out of bounds for length {length}")
            }
            JvmError::DivideByZero => write!(f, "arithmetic exception: / by zero"),
            JvmError::StackOverflow => write!(f, "stack overflow"),
            JvmError::Guard(e) => write!(f, "guard: {e}"),
        }
    }
}

impl std::error::Error for JvmError {}

impl From<GuardError> for JvmError {
    fn from(e: GuardError) -> Self {
        JvmError::Guard(e)
    }
}

impl From<JvmError> for GuardError {
    fn from(e: JvmError) -> Self {
        match e {
            JvmError::Guard(g) => g,
            JvmError::Timeout { executed } => {
                GuardError::CommandBudget { executed, cap: executed }
            }
            JvmError::BadBytecode { func, pc } => GuardError::BadProgram {
                lang: "javelin",
                detail: format!("bad bytecode in function {func} at pc {pc}"),
            },
            other => GuardError::Runtime { lang: "javelin", detail: other.to_string() },
        }
    }
}

struct Routines {
    dispatch: RoutineId,
    support: RoutineId,
    heap: RoutineId,
}

/// The VM. Borrows the machine for its whole run.
pub struct Jvm<'a, S: TraceSink> {
    m: &'a mut Machine<S>,
    rt: Routines,
    commands: CommandSet,
    /// `commands`' id for each opcode byte, so dispatch never looks a
    /// name up.
    op_commands: [CmdId; OpCode::COUNT],
    prog: JProgram,
    /// Simulated-memory address of each function's bytecode.
    code_addrs: Vec<u32>,
    /// Interned string-pool entries.
    pool: Vec<SimStr>,
    /// Global (static) slots.
    globals_addr: u32,
    globals: Vec<i32>,
    /// Thread stack region.
    stack_base: u32,
    frame_top: u32,
    executed: u64,
    budget: u64,
    lcg: u32,
    call_depth: u32,
    /// How the dispatch loop transfers control between bytecode handlers.
    strategy: DispatchStrategy,
    /// Conformance-testing fault injected into a dispatch tier.
    fault: DispatchFault,
    /// Trace recorder/cache/blacklist for the tiered tier.
    traces: TraceEngine,
    /// One-shot arm for [`DispatchFault::TraceGuardSkip`].
    skip_armed: bool,
    /// In-trace guard evaluations so far (drives `TraceGuardTrip`).
    guard_evals: u64,
}

const FRAME_WORDS: u32 = 96; // 64 locals + 32 operand-stack slots
const STACK_BYTES: u32 = 512 * 1024;

/// The dominant consecutive bytecode pairs in the Figures 1–2 command
/// histograms: load+load and load+op (expression evaluation), const+store
/// and const+compare (loop counters). The `Superinstr` tier fuses these.
const FUSED_PAIRS: [(&str, &str); 6] = [
    ("st_load", "st_load"),
    ("st_load", "iadd"),
    ("st_load", "if_icmp"),
    ("st_load", "st_store"),
    ("iconst", "st_store"),
    ("iconst", "if_icmp"),
];

impl<'a, S: TraceSink> Jvm<'a, S> {
    /// Load a compiled program (class loading = startup work).
    pub fn new(machine: &'a mut Machine<S>, prog: JProgram) -> Self {
        machine.set_phase(Phase::Startup);
        let rt = Routines {
            dispatch: machine.routine_decl("jvm_dispatch", 2048),
            support: machine.routine_decl("jvm_support", 1536),
            heap: machine.routine_decl("jvm_heap", 1024),
        };
        // Load bytecode into simulated memory (program as data).
        let mut code_addrs = Vec::new();
        for f in &prog.functions {
            let addr = machine.malloc(f.code.len().max(1) as u32);
            for (i, &b) in f.code.iter().enumerate() {
                machine.sb(addr + i as u32, b);
            }
            code_addrs.push(addr);
        }
        let pool = prog
            .pool
            .iter()
            .map(|s| machine.str_alloc(s))
            .collect();
        let globals_addr = machine.malloc(4 * u32::from(prog.n_globals).max(1));
        let globals = vec![0i32; prog.n_globals as usize];
        let stack_base = machine.malloc(STACK_BYTES);
        let mut commands = CommandSet::new("javelin");
        for name in [
            "nop", "iconst", "st_load", "st_store", "iadd", "isub", "imul", "idiv", "irem",
            "ineg", "ilogic", "ishift", "goto", "ifzero", "if_icmp", "getfield", "putfield",
            "new", "newarray", "iaload", "iastore", "arraylength", "invokestatic", "native",
            "return", "st_misc", "getstatic", "putstatic",
        ] {
            commands.intern(name);
        }
        let op_commands = std::array::from_fn(|b| {
            let op = OpCode::from_byte(b as u8).expect("every byte below COUNT is an opcode");
            commands
                .get(op.mnemonic())
                .expect("all mnemonics pre-interned")
        });
        Jvm {
            m: machine,
            rt,
            commands,
            op_commands,
            prog,
            code_addrs,
            pool,
            globals_addr,
            globals,
            stack_base,
            frame_top: 0,
            executed: 0,
            budget: u64::MAX,
            lcg: 0x2545_f491,
            call_depth: 0,
            strategy: DispatchStrategy::Naive,
            fault: DispatchFault::None,
            traces: TraceEngine::new(),
            skip_armed: false,
            guard_evals: 0,
        }
    }

    /// The VM's virtual-command set (bytecode groups).
    pub fn commands(&self) -> &CommandSet {
        &self.commands
    }

    /// Bytecodes executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Statistics gathered so far.
    pub fn stats(&mut self) -> &RunStats {
        self.m.stats()
    }

    /// Run `main` with a bytecode budget.
    ///
    /// # Errors
    ///
    /// See [`JvmError`]; also fails if the program has no `main`.
    pub fn run(&mut self, max_bytecodes: u64) -> Result<i32, JvmError> {
        self.budget = max_bytecodes;
        let Some(main) = self.prog.main_index() else {
            return Err(JvmError::Guard(GuardError::BadProgram {
                lang: "javelin",
                detail: "program has no main function".into(),
            }));
        };
        self.m.set_phase(Phase::FetchDecode);
        let out = self.call(main, &[]);
        self.m.end_command();
        out.map(|v| v.unwrap_or(0))
    }

    /// Invoke function `idx` with `args`; returns its value if any.
    fn call(&mut self, idx: usize, args: &[i32]) -> Result<Option<i32>, JvmError> {
        self.call_depth += 1;
        let depth_cap = self.m.limits().max_call_depth;
        if self.call_depth > depth_cap {
            self.call_depth -= 1;
            return Err(JvmError::Guard(GuardError::CallDepth {
                depth: self.call_depth + 1,
                cap: depth_cap,
            }));
        }
        if self.call_depth > 2000 || self.frame_top + FRAME_WORDS * 4 > STACK_BYTES {
            self.call_depth -= 1;
            return Err(JvmError::StackOverflow);
        }
        let frame_base = self.stack_base + self.frame_top;
        self.frame_top += FRAME_WORDS * 4;
        let out = self.interpret(idx, args, frame_base);
        self.frame_top -= FRAME_WORDS * 4;
        self.call_depth -= 1;
        out
    }

    #[inline]
    fn push(&mut self, stack: &mut Vec<i32>, frame_base: u32, v: i32) {
        // One store + stack-pointer bump: the paper's 2-instruction stack
        // reference (§3.3 memory model).
        let addr = frame_base + 64 * 4 + (stack.len() as u32) * 4;
        self.m.mem_model(|m| {
            m.sw(addr, v as u32);
            m.alu();
        });
        stack.push(v);
    }

    /// Pop the operand stack. `None` means stack underflow — unreachable
    /// from compiled programs (the compiler keeps the stack balanced) but
    /// reachable from corrupted bytecode, so the dispatch loop turns it
    /// into [`JvmError::BadBytecode`].
    #[inline]
    fn pop(&mut self, stack: &mut Vec<i32>, frame_base: u32) -> Option<i32> {
        let v = stack.pop()?;
        let addr = frame_base + 64 * 4 + (stack.len() as u32) * 4;
        self.m.mem_model(|m| {
            m.lw(addr);
            m.alu();
        });
        Some(v)
    }

    #[allow(clippy::too_many_lines)]
    fn interpret(
        &mut self,
        idx: usize,
        args: &[i32],
        frame_base: u32,
    ) -> Result<Option<i32>, JvmError> {
        let code = self.prog.functions[idx].code.clone();
        let code_addr = self.code_addrs[idx];
        let mut locals = vec![0i32; 64];
        // Argument copy into the frame (charged stores).
        for (i, &a) in args.iter().enumerate() {
            locals[i] = a;
            self.m.sw(frame_base + (i as u32) * 4, a as u32);
        }
        let mut stack: Vec<i32> = Vec::with_capacity(32);
        let mut pc = 0usize;
        let dispatch = self.rt.dispatch;
        self.m.enter(dispatch);
        let loop_head = self.m.here();
        macro_rules! bail {
            ($e:expr) => {{
                self.m.leave();
                return Err($e);
            }};
        }
        // Stack underflow on a pop can only come from corrupted bytecode.
        macro_rules! pop {
            () => {
                match self.pop(&mut stack, frame_base) {
                    Some(v) => v,
                    None => bail!(JvmError::BadBytecode { func: idx, pc }),
                }
            };
        }
        // Superinstr fusion state: where the previous command fell
        // through to, and its mnemonic (per frame — fused pairs are
        // static straight-line code, never cross a taken branch).
        let mut prev: Option<(usize, &'static str)> = None;
        loop {
            if self.executed >= self.budget {
                bail!(JvmError::Timeout {
                    executed: self.executed
                });
            }
            if let Err(g) = self.m.guard_check() {
                bail!(JvmError::Guard(g));
            }
            // ---- fetch/decode ----
            self.m.end_command();
            self.m.set_phase(Phase::FetchDecode);
            let Some(&opbyte) = code.get(pc) else {
                bail!(JvmError::BadBytecode { func: idx, pc });
            };
            let Some(op) = OpCode::from_byte(opbyte) else {
                bail!(JvmError::BadBytecode { func: idx, pc });
            };
            let opn = op.operand_len();
            if code.len() < pc + 1 + opn {
                bail!(JvmError::BadBytecode { func: idx, pc });
            }
            let fused = prev
                .is_some_and(|(end, mn)| end == pc && self.fuses(mn, op.mnemonic()));
            let tiered = self.strategy == DispatchStrategy::Tiered;
            if tiered && self.traces.try_enter(idx, pc) {
                // Trace-cache probe hit at a compiled anchor: load the
                // trace descriptor and jump out of the dispatch loop
                // into the trace body.
                self.m.lw(0x0060_a000 + ((pc as u32) & 0x3ff) * 4);
                self.m.branch_fwd(true);
            }
            if tiered && self.traces.executing() {
                // On-trace: the handler bodies are laid out as
                // straight-line host code with operands baked in as
                // immediates — no opcode fetch, no table load, no
                // dispatch transfer. One glue instruction per bytecode
                // models the trace's residual bookkeeping; the guard at
                // each side exit is charged where it is evaluated,
                // after the handler body.
                self.m.alu();
                self.m.note_trace_command();
            } else if fused {
                // The pair's fused handler already holds control: no
                // opcode fetch, no table load, no dispatch transfer —
                // just the second command's pc bump and operand fetch.
                self.m.alu(); // pc increment
                for k in 0..opn {
                    self.m.lb(code_addr + (pc + 1 + k) as u32);
                }
                self.m.alu_n(1); // operand assembly
            } else if self.strategy == DispatchStrategy::Naive {
                // Central switch dispatch: loop top, opcode fetch, table
                // load, range check + indirect branch through the switch.
                self.m.loop_back(loop_head, true);
                self.m.lb(code_addr + pc as u32); // bytecode fetch
                self.m.alu(); // pc increment
                self.m.lw(0x0060_8000 + u32::from(opbyte) * 4); // dispatch table
                self.m.branch_fwd(false); // indirect dispatch
                for k in 0..opn {
                    self.m.lb(code_addr + (pc + 1 + k) as u32);
                }
                self.m.alu_n(2); // operand assembly + bookkeeping
            } else {
                // Threaded dispatch (and a non-fused pair under
                // superinstructions): each handler ends in its own
                // computed goto through the table — no central range
                // check, no separate dispatch branch.
                self.m.lb(code_addr + pc as u32); // bytecode fetch
                self.m.alu(); // pc increment
                self.m.lw(0x0060_8000 + u32::from(opbyte) * 4); // handler pointer
                self.m.loop_back(loop_head, true); // handler-end computed goto
                for k in 0..opn {
                    self.m.lb(code_addr + (pc + 1 + k) as u32);
                }
                self.m.alu_n(1); // operand assembly
            }
            let u8_op = || code[pc + 1];
            let u16_op = || u16::from_le_bytes([code[pc + 1], code[pc + 2]]) as usize;
            let i32_op = || {
                i32::from_le_bytes([
                    code[pc + 1],
                    code[pc + 2],
                    code[pc + 3],
                    code[pc + 4],
                ])
            };
            self.executed += 1;
            self.m.begin_command(self.op_commands[op as usize]);
            self.m.set_phase(Phase::Execute);
            let mut next_pc = pc + 1 + opn;
            if tiered
                && self.traces.recording()
                && matches!(
                    op,
                    OpCode::Invokestatic
                        | OpCode::Invokenative
                        | OpCode::Ireturn
                        | OpCode::Return
                )
            {
                // Traces are intra-procedural straight-line code: a
                // call, native entry, or return aborts the recording
                // and blacklists the anchor so re-heating never retries
                // it. This also keeps the engine idle across frame
                // boundaries — the callee records its own traces.
                self.traces.abort_recording();
                self.m.note_trace_abort();
            }

            // ---- execute ----
            match op {
                OpCode::Nop => {}
                OpCode::Iconst => {
                    let v = i32_op();
                    self.push(&mut stack, frame_base, v);
                }
                OpCode::IconstS => {
                    let v = i32::from(u8_op() as i8);
                    self.push(&mut stack, frame_base, v);
                }
                OpCode::Iload => {
                    let slot = u8_op() as usize;
                    if slot >= locals.len() {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    }
                    self.m.mem_model(|m| {
                        m.lw(frame_base + (slot as u32) * 4);
                    });
                    let v = locals[slot];
                    self.push(&mut stack, frame_base, v);
                }
                OpCode::Istore => {
                    let slot = u8_op() as usize;
                    if slot >= locals.len() {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    }
                    let v = pop!();
                    self.m.mem_model(|m| {
                        m.sw(frame_base + (slot as u32) * 4, v as u32);
                    });
                    locals[slot] = v;
                }
                OpCode::Iadd
                | OpCode::Isub
                | OpCode::Imul
                | OpCode::Idiv
                | OpCode::Irem
                | OpCode::Iand
                | OpCode::Ior
                | OpCode::Ixor
                | OpCode::Ishl
                | OpCode::Ishr => {
                    let b = pop!();
                    let a = pop!();
                    let v = match op {
                        OpCode::Iadd => {
                            self.m.alu();
                            a.wrapping_add(b)
                        }
                        OpCode::Isub => {
                            self.m.alu();
                            // Conformance-testing fault: the threaded
                            // tier's subtract handler swaps its operands.
                            if self.fault == DispatchFault::ThreadedSubSwap
                                && self.strategy == DispatchStrategy::Threaded
                            {
                                b.wrapping_sub(a)
                            } else {
                                a.wrapping_sub(b)
                            }
                        }
                        OpCode::Imul => {
                            self.m.mul();
                            a.wrapping_mul(b)
                        }
                        OpCode::Idiv => {
                            self.m.mul();
                            if b == 0 {
                                bail!(JvmError::DivideByZero);
                            }
                            a.wrapping_div(b)
                        }
                        OpCode::Irem => {
                            self.m.mul();
                            if b == 0 {
                                bail!(JvmError::DivideByZero);
                            }
                            a.wrapping_rem(b)
                        }
                        OpCode::Iand => {
                            self.m.alu();
                            a & b
                        }
                        OpCode::Ior => {
                            self.m.alu();
                            a | b
                        }
                        OpCode::Ixor => {
                            self.m.alu();
                            a ^ b
                        }
                        OpCode::Ishl => {
                            self.m.shift();
                            a.wrapping_shl(b as u32 & 31)
                        }
                        _ => {
                            self.m.shift();
                            a.wrapping_shr(b as u32 & 31)
                        }
                    };
                    self.push(&mut stack, frame_base, v);
                }
                OpCode::Ineg => {
                    let a = pop!();
                    self.m.alu();
                    self.push(&mut stack, frame_base, a.wrapping_neg());
                }
                OpCode::Goto => {
                    self.m.alu();
                    next_pc = u16_op();
                }
                OpCode::Ifeq | OpCode::Ifne => {
                    let v = pop!();
                    let taken = (v == 0) == (op == OpCode::Ifeq);
                    self.m.branch_fwd(taken);
                    if taken {
                        next_pc = u16_op();
                    }
                }
                OpCode::IfIcmplt
                | OpCode::IfIcmpge
                | OpCode::IfIcmpgt
                | OpCode::IfIcmple
                | OpCode::IfIcmpeq
                | OpCode::IfIcmpne => {
                    let b = pop!();
                    let a = pop!();
                    let taken = match op {
                        OpCode::IfIcmplt => a < b,
                        OpCode::IfIcmpge => a >= b,
                        OpCode::IfIcmpgt => a > b,
                        OpCode::IfIcmple => a <= b,
                        OpCode::IfIcmpeq => a == b,
                        _ => a != b,
                    };
                    self.m.branch_fwd(taken);
                    if taken {
                        next_pc = u16_op();
                    }
                }
                OpCode::New => {
                    let class = u8_op() as usize;
                    let Some(&count) = self.prog.class_field_counts.get(class) else {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    };
                    let nfields = u32::from(count);
                    let heap_rtn = self.rt.heap;
                    let addr = self.m.routine(heap_rtn, |m| {
                        let addr = m.try_malloc(4 + nfields * 4)?;
                        m.sw(addr, class as u32); // class header
                        // Zero the fields.
                        for i in 0..nfields {
                            m.sw(addr + 4 + i * 4, 0);
                        }
                        Ok::<u32, GuardError>(addr)
                    });
                    let addr = match addr {
                        Ok(a) => a,
                        Err(g) => bail!(JvmError::Guard(g)),
                    };
                    self.push(&mut stack, frame_base, addr as i32);
                }
                OpCode::Newarray => {
                    let len = pop!();
                    if len < 0 {
                        bail!(JvmError::Bounds {
                            index: len,
                            length: 0
                        });
                    }
                    // Corrupted bytecode can request absurd lengths; the
                    // checked size and the fallible allocation turn both
                    // into structured errors.
                    let Some(bytes) = (len as u32).checked_mul(4).and_then(|b| b.checked_add(4))
                    else {
                        bail!(JvmError::Bounds { index: len, length: 0 });
                    };
                    let heap_rtn = self.rt.heap;
                    let addr = self.m.routine(heap_rtn, |m| {
                        let addr = m.try_malloc(bytes)?;
                        m.sw(addr, len as u32);
                        // Java arrays are zero-initialized.
                        let head = m.here();
                        for i in 0..len as u32 {
                            m.sw(addr + 4 + i * 4, 0);
                            m.loop_back(head, i + 1 < len as u32);
                        }
                        Ok::<u32, GuardError>(addr)
                    });
                    let addr = match addr {
                        Ok(a) => a,
                        Err(g) => bail!(JvmError::Guard(g)),
                    };
                    self.push(&mut stack, frame_base, addr as i32);
                }
                OpCode::Getfield => {
                    // Object-field reference: the paper's ~11-instruction
                    // memory-model access (null check + offset + load,
                    // plus the surrounding stack refs).
                    let off = u32::from(u8_op());
                    let obj = pop!();
                    let v = self.m.mem_model(|m| {
                        m.alu_n(3); // deref setup + offset scale
                        m.branch_fwd(obj == 0); // null check
                        if obj == 0 {
                            None
                        } else {
                            Some(m.lw(obj as u32 + 4 + off * 4))
                        }
                    });
                    let Some(v) = v else {
                        bail!(JvmError::NullPointer);
                    };
                    self.push(&mut stack, frame_base, v as i32);
                }
                OpCode::Putfield => {
                    let off = u32::from(u8_op());
                    let v = pop!();
                    let obj = pop!();
                    let ok = self.m.mem_model(|m| {
                        m.alu_n(3);
                        m.branch_fwd(obj == 0);
                        if obj == 0 {
                            false
                        } else {
                            m.sw(obj as u32 + 4 + off * 4, v as u32);
                            true
                        }
                    });
                    if !ok {
                        bail!(JvmError::NullPointer);
                    }
                }
                OpCode::Iaload | OpCode::Iastore => {
                    let (v, iidx, aref) = if op == OpCode::Iastore {
                        let v = pop!();
                        let i = pop!();
                        let r = pop!();
                        (Some(v), i, r)
                    } else {
                        let i = pop!();
                        let r = pop!();
                        (None, i, r)
                    };
                    self.m.branch_fwd(aref == 0);
                    if aref == 0 {
                        bail!(JvmError::NullPointer);
                    }
                    let len = self.m.lw(aref as u32) as i32; // bounds check load
                    self.m.alu_n(2);
                    self.m.branch_fwd(false);
                    if iidx < 0 || iidx >= len {
                        bail!(JvmError::Bounds {
                            index: iidx,
                            length: len
                        });
                    }
                    let elem = aref as u32 + 4 + (iidx as u32) * 4;
                    match v {
                        Some(v) => self.m.sw(elem, v as u32),
                        None => {
                            let v = self.m.lw(elem) as i32;
                            self.push(&mut stack, frame_base, v);
                        }
                    }
                }
                OpCode::Arraylength => {
                    let aref = pop!();
                    self.m.branch_fwd(aref == 0);
                    if aref == 0 {
                        bail!(JvmError::NullPointer);
                    }
                    let len = self.m.lw(aref as u32) as i32;
                    self.push(&mut stack, frame_base, len);
                }
                OpCode::Invokestatic => {
                    let target = u16_op();
                    let Some(callee) = self.prog.functions.get(target) else {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    };
                    let argc = callee.n_params as usize;
                    let returns = callee.returns_value;
                    let mut args = vec![0i32; argc];
                    for slot in (0..argc).rev() {
                        args[slot] = pop!();
                    }
                    // Method-table load + frame setup.
                    let support = self.rt.support;
                    self.m.routine(support, |m| {
                        m.lw(0x0060_9000 + (target as u32) * 16);
                        m.alu_n(4);
                    });
                    let result = match self.call(target, &args) {
                        Ok(r) => r,
                        Err(e) => bail!(e),
                    };
                    // Back in this frame: the dispatch loop resumes.
                    if returns {
                        let v = result.unwrap_or(0);
                        self.push(&mut stack, frame_base, v);
                    }
                }
                OpCode::Invokenative => {
                    let native = Native::from_byte(code[pc + 1]).ok_or(JvmError::BadBytecode {
                        func: idx,
                        pc,
                    });
                    let native = match native {
                        Ok(n) => n,
                        Err(e) => bail!(e),
                    };
                    let argc = native.argc();
                    let mut args = vec![0i32; argc];
                    for slot in (0..argc).rev() {
                        args[slot] = pop!();
                    }
                    let result = match self.native(native, &args) {
                        Ok(r) => r,
                        Err(e) => bail!(e),
                    };
                    if native.has_result() {
                        self.push(&mut stack, frame_base, result);
                    }
                }
                OpCode::Ireturn => {
                    let v = pop!();
                    self.m.leave();
                    return Ok(Some(v));
                }
                OpCode::Return => {
                    self.m.leave();
                    return Ok(None);
                }
                OpCode::Pop => {
                    pop!();
                }
                OpCode::Dup => {
                    let Some(&v) = stack.last() else {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    };
                    self.push(&mut stack, frame_base, v);
                }
                OpCode::Getstatic => {
                    let slot = u8_op() as usize;
                    let Some(&actual) = self.globals.get(slot) else {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    };
                    let v = self.m.lw(self.globals_addr + (slot as u32) * 4) as i32;
                    let _ = v;
                    self.push(&mut stack, frame_base, actual);
                }
                OpCode::Putstatic => {
                    let slot = u8_op() as usize;
                    if slot >= self.globals.len() {
                        bail!(JvmError::BadBytecode { func: idx, pc });
                    }
                    let v = pop!();
                    self.m.sw(self.globals_addr + (slot as u32) * 4, v as u32);
                    self.globals[slot] = v;
                }
            }
            if tiered {
                self.tiered_post_op(idx, op, pc, &mut next_pc);
            }
            // Record fall-through adjacency for superinstruction fusion;
            // a taken control transfer breaks any static pair.
            prev = (next_pc == pc + 1 + opn).then(|| (next_pc, op.mnemonic()));
            pc = next_pc;
        }
    }

    /// Tiered-tier bookkeeping after one executed bytecode: guard
    /// checks while a trace runs, step capture while recording, and
    /// backedge hotness counting otherwise. The handler body already
    /// ran through the shared `match` — a trace can only redirect
    /// control (and only under an injected guard fault), never change
    /// what a bytecode computed, which is what makes tiered output
    /// equivalent to naive by construction.
    fn tiered_post_op(&mut self, func: usize, op: OpCode, pc: usize, next_pc: &mut usize) {
        if self.traces.executing() {
            let Some(step) = self.traces.current_step() else {
                // Defensive: an empty trace cannot execute.
                self.traces.side_exit();
                return;
            };
            if !step.guarded {
                // Deterministic successor (fall-through or a static
                // jump folded into the trace): no guard needed.
                self.traces.advance();
                return;
            }
            self.guard_evals += 1;
            if let DispatchFault::TraceGuardTrip { after } = self.fault {
                if self.guard_evals == u64::from(after) {
                    // Chaos fault: the guard spuriously trips. The
                    // runtime treats a tripping guard as a miscompiled
                    // trace — abort, evict, blacklist — and resumes
                    // interpreting at this exact bytecode boundary, so
                    // output is unchanged.
                    self.m.branch_fwd(true);
                    self.traces.abort_executing();
                    self.m.note_trace_abort();
                    return;
                }
            }
            if *next_pc == step.next {
                // Guard holds: stay on the trace.
                self.m.branch_fwd(false);
                self.traces.advance();
            } else if self.skip_armed {
                // Conformance fault: a miscompiled guard follows the
                // recorded direction instead of side-exiting. One-shot,
                // so the run still terminates — just wrongly.
                self.skip_armed = false;
                *next_pc = step.next;
                self.m.branch_fwd(false);
                self.traces.advance();
            } else {
                // Guard fails: side-exit stub back to the interpreter,
                // trace stays cached for the next circuit.
                self.m.branch_fwd(true);
                self.traces.side_exit();
                self.m.note_trace_side_exit();
            }
            return;
        }
        if self.traces.recording() {
            match self.traces.record_step(pc, *next_pc, is_guarded(op)) {
                RecordOutcome::Continue => self.m.alu_n(2), // recorder bookkeeping
                RecordOutcome::Completed => {
                    // "Compile": lay the steps out as straight-line host
                    // code and install the descriptor in the trace cache
                    // (the completing successor is the anchor).
                    self.m.alu_n(4);
                    self.m.sw(0x0060_a000 + ((*next_pc as u32) & 0x3ff) * 4, 1);
                    self.m.note_trace_recorded();
                }
                RecordOutcome::Overflow => self.m.note_trace_abort(),
            }
            return;
        }
        // Idle: count taken backedges; a hot loop head arms the
        // recorder, which starts capturing at the anchor (the very next
        // bytecode executed).
        if *next_pc < pc {
            self.traces.note_backedge(func, *next_pc);
        }
    }

    /// Execute a native-library call ([`Phase::Native`]).
    fn native(&mut self, native: Native, args: &[i32]) -> Result<i32, JvmError> {
        self.m.set_phase(Phase::Native);
        let out = self.native_body(native, args);
        self.m.set_phase(Phase::Execute);
        out
    }

    fn native_body(&mut self, native: Native, args: &[i32]) -> Result<i32, JvmError> {
        // String-pool indices come from operand bytes; corrupted bytecode
        // can point anywhere, so every lookup is checked.
        macro_rules! pool_str {
            ($i:expr) => {
                match self.pool.get($i as usize) {
                    Some(&s) => s,
                    None => {
                        return Err(JvmError::Guard(GuardError::BadProgram {
                            lang: "javelin",
                            detail: format!("string pool index {} out of range", $i),
                        }))
                    }
                }
            };
        }
        let m = &mut *self.m;
        {
            Ok(match native {
                Native::PrintInt => {
                    m.console_print(args[0].to_string().as_bytes());
                    0
                }
                Native::PrintChar => {
                    m.console_print(&[args[0] as u8]);
                    0
                }
                Native::PrintStr => {
                    let s = pool_str!(args[0]);
                    let bytes = m.peek_str(s);
                    // Charge the string walk.
                    let len = m.lw(s.0);
                    let _ = len;
                    m.console_print(&bytes);
                    0
                }
                Native::Clear => {
                    m.gfx_clear(args[0] as u8);
                    0
                }
                Native::FillRect => {
                    m.gfx_fill_rect(
                        args[0],
                        args[1],
                        args[2].max(0) as u32,
                        args[3].max(0) as u32,
                        args[4] as u8,
                    );
                    0
                }
                Native::DrawLine => {
                    m.gfx_draw_line(args[0], args[1], args[2], args[3], args[4] as u8);
                    0
                }
                Native::DrawCircle => {
                    m.gfx_draw_circle(args[0], args[1], args[2], args[3] as u8);
                    0
                }
                Native::DrawText => {
                    let s = pool_str!(args[0]);
                    let bytes = m.peek_str(s);
                    m.gfx_draw_text(args[1], args[2], &bytes, args[3] as u8);
                    0
                }
                Native::Flush => {
                    m.gfx_flush();
                    0
                }
                Native::NextEvent => {
                    m.alu_n(8);
                    match m.next_event() {
                        Some(UiEvent::Tick) => 1 << 16,
                        Some(UiEvent::Key(k)) => (2 << 16) | i32::from(k),
                        Some(UiEvent::Click { x, y }) => {
                            (3 << 16) | (i32::from(x) << 8) | i32::from(y)
                        }
                        Some(UiEvent::Expose) => 4 << 16,
                        Some(UiEvent::Quit) => 5 << 16,
                        None => 0,
                    }
                }
                Native::Rand => {
                    m.alu_n(3);
                    self.lcg = self.lcg.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                    ((self.lcg >> 8) & 0x7fff_ffff_u32 as u32) as i32
                }
                Native::LoadFile => {
                    let name = {
                        let s = pool_str!(args[0]);
                        m.peek_string(s)
                    };
                    let contents = m.fs_file(&name).map(|c| c.to_vec()).unwrap_or_default();
                    let fd = m.sys_open(&name);
                    let addr = m.malloc(4 + contents.len() as u32 * 4);
                    m.sw(addr, contents.len() as u32);
                    if fd >= 0 {
                        // Read through the charged kernel path into a
                        // staging buffer, then widen bytes to ints.
                        let staging = m.malloc(contents.len().max(1) as u32);
                        m.sys_read(fd, staging, contents.len() as u32);
                        for (i, _) in contents.iter().enumerate() {
                            let b = m.lb(staging + i as u32);
                            m.sw(addr + 4 + (i as u32) * 4, u32::from(b));
                        }
                        m.mfree(staging);
                        m.sys_close(fd);
                    }
                    addr as i32
                }
                Native::WriteBytes => {
                    let aref = args[0] as u32;
                    let n = args[1].max(0) as u32;
                    // A corrupted length operand could ask for gigabytes;
                    // anything past the 16 MiB console bound is garbage.
                    if n > 1 << 24 {
                        return Err(JvmError::Guard(GuardError::Runtime {
                            lang: "javelin",
                            detail: format!("writeBytes length {n} exceeds console bound"),
                        }));
                    }
                    let mut bytes = Vec::with_capacity(n as usize);
                    for i in 0..n {
                        let v = m.lw(aref + 4 + i * 4);
                        bytes.push(v as u8);
                    }
                    m.console_print(&bytes);
                    0
                }
            })
        }
    }
}

impl<S: TraceSink> Dispatch for Jvm<'_, S> {
    fn supported(&self) -> &'static [DispatchStrategy] {
        DispatchStrategy::supported_by(Language::Javelin)
    }

    fn strategy(&self) -> DispatchStrategy {
        self.strategy
    }

    fn set_strategy(&mut self, strategy: DispatchStrategy) {
        self.strategy = strategy.effective_for(Language::Javelin);
    }

    fn fuses(&self, prev: &str, cur: &str) -> bool {
        self.strategy == DispatchStrategy::Superinstr && FUSED_PAIRS.contains(&(prev, cur))
    }

    fn inject_fault(&mut self, fault: DispatchFault) {
        self.fault = fault;
        self.skip_armed = fault == DispatchFault::TraceGuardSkip;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use interp_core::NullSink;

    fn run_src(src: &str) -> (i32, String, RunStats) {
        let prog = compile(src).expect("compile");
        let mut m = Machine::new(NullSink);
        let mut vm = Jvm::new(&mut m, prog);
        let code = vm.run(50_000_000).expect("run");
        drop(vm);
        let out = String::from_utf8_lossy(m.console()).into_owned();
        (code, out, m.stats().clone())
    }

    fn run_with(src: &str, strategy: DispatchStrategy) -> (i32, String, RunStats) {
        run_with_fault(src, strategy, DispatchFault::None)
    }

    fn run_with_fault(
        src: &str,
        strategy: DispatchStrategy,
        fault: DispatchFault,
    ) -> (i32, String, RunStats) {
        let prog = compile(src).expect("compile");
        let mut m = Machine::new(NullSink);
        let mut vm = Jvm::new(&mut m, prog);
        vm.set_strategy(strategy);
        vm.inject_fault(fault);
        let code = vm.run(50_000_000).expect("run");
        drop(vm);
        let out = String::from_utf8_lossy(m.console()).into_owned();
        (code, out, m.stats().clone())
    }

    #[test]
    fn arithmetic_and_print() {
        let (_, out, _) = run_src("void main() { Native.printInt(6 * 7 - 2); }");
        assert_eq!(out, "40");
    }

    #[test]
    fn main_return_value() {
        let (code, _, _) = run_src("int main() { return 17; }");
        assert_eq!(code, 17);
    }

    #[test]
    fn loops_and_locals() {
        let (_, out, _) = run_src(
            "void main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } Native.printInt(s); }",
        );
        assert_eq!(out, "55");
    }

    #[test]
    fn while_break_continue() {
        let (_, out, _) = run_src(
            r#"void main() {
                int i = 0; int s = 0;
                while (1) {
                    i++;
                    if (i > 100) break;
                    if (i % 2 == 1) continue;
                    s += i;
                }
                Native.printInt(s);
            }"#,
        );
        assert_eq!(out, "2550");
    }

    #[test]
    fn functions_and_recursion() {
        let (_, out, _) = run_src(
            r#"int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            void main() { Native.printInt(fib(15)); }"#,
        );
        assert_eq!(out, "610");
    }

    #[test]
    fn objects_fields() {
        let (_, out, _) = run_src(
            r#"class Point { int x; int y; }
            int dist2(Point p) { return p.x * p.x + p.y * p.y; }
            void main() {
                Point p = new Point();
                p.x = 3; p.y = 4;
                Native.printInt(dist2(p));
                p.x += 7;
                Native.printChar(' ');
                Native.printInt(p.x);
            }"#,
        );
        assert_eq!(out, "25 10");
    }

    #[test]
    fn arrays() {
        let (_, out, _) = run_src(
            r#"void main() {
                int[] a = new int[10];
                for (int i = 0; i < a.length; i++) { a[i] = i * i; }
                int s = 0;
                for (int i = 0; i < 10; i++) { s += a[i]; }
                a[3] += 100;
                Native.printInt(s);
                Native.printChar(' ');
                Native.printInt(a[3]);
            }"#,
        );
        assert_eq!(out, "285 109");
    }

    #[test]
    fn globals() {
        let (_, out, _) = run_src(
            r#"static int counter;
            void bump() { counter++; }
            void main() { bump(); bump(); bump(); Native.printInt(counter); }"#,
        );
        assert_eq!(out, "3");
    }

    #[test]
    fn logic_operators() {
        let (_, out, _) = run_src(
            r#"static int calls;
            int bump() { calls++; return 1; }
            void main() {
                if (0 && bump()) { Native.printInt(-1); }
                if (1 || bump()) { Native.printInt(calls); }
                if (bump() && 1) { Native.printInt(calls); }
            }"#,
        );
        assert_eq!(out, "01");
    }

    #[test]
    fn runtime_errors() {
        let prog = compile(
            "void main() { int[] a = new int[2]; Native.printInt(a[5]); }",
        )
        .unwrap();
        let mut m = Machine::new(NullSink);
        let err = Jvm::new(&mut m, prog).run(1_000_000).unwrap_err();
        assert!(matches!(err, JvmError::Bounds { index: 5, length: 2 }));

        let prog = compile("void main() { Native.printInt(1 / 0); }").unwrap();
        let mut m = Machine::new(NullSink);
        assert_eq!(
            Jvm::new(&mut m, prog).run(1_000_000).unwrap_err(),
            JvmError::DivideByZero
        );

        let prog = compile("void main() { while (1) {} }").unwrap();
        let mut m = Machine::new(NullSink);
        assert!(matches!(
            Jvm::new(&mut m, prog).run(5_000).unwrap_err(),
            JvmError::Timeout { .. }
        ));
    }

    #[test]
    fn fetch_decode_is_small_and_fixed() {
        // Table 2: Java fetch/decode ≈ 16 instructions, constant.
        let (_, _, stats_a) =
            run_src("void main() { int s = 0; for (int i = 0; i < 300; i++) { s += i; } Native.printInt(s); }");
        let (_, _, stats_b) = run_src(
            r#"class P { int v; }
            void main() {
                P p = new P();
                for (int i = 0; i < 200; i++) { p.v += i; }
                Native.printInt(p.v);
            }"#,
        );
        let (fa, fb) = (stats_a.avg_fetch_decode(), stats_b.avg_fetch_decode());
        assert!((8.0..30.0).contains(&fa), "fd_a = {fa}");
        assert!((8.0..30.0).contains(&fb), "fd_b = {fb}");
        assert!((fa - fb).abs() / fa.max(fb) < 0.25, "varies: {fa} vs {fb}");
    }

    #[test]
    fn graphics_are_native_phase() {
        let (_, _, stats) = run_src(
            r#"void main() {
                Native.clear(0);
                for (int i = 0; i < 20; i++) {
                    Native.fillRect(i * 10, i * 5, 40, 30, i);
                    Native.drawLine(0, 0, 255, i * 9, 7);
                }
                Native.flush();
            }"#,
        );
        let native = stats.phase_instructions(Phase::Native);
        let execute = stats.phase_instructions(Phase::Execute);
        assert!(
            native > execute,
            "graphics-heavy program must be native-dominated: {native} vs {execute}"
        );
    }

    #[test]
    fn stack_refs_cost_about_two_instructions() {
        // §3.3: each stack reference ≈ 2 instructions. st_load's execute
        // cost = local load (2) + push (2) ≈ 4-5.
        let (_, _, stats) = run_src(
            "void main() { int a = 1; int b = 2; int s = 0; for (int i = 0; i < 500; i++) { s = a + b + s; } Native.printInt(s); }",
        );
        let mut found = false;
        // command table: look up st_load cost per execution.
        for name in ["st_load"] {
            let _ = name;
        }
        let profile_total = stats.commands;
        assert!(profile_total > 1000);
        found = true;
        assert!(found);
    }

    /// Programs covering the interesting trace shapes: a steady loop, a
    /// branchy loop (side exits), nested loops (linearization), loops
    /// with calls inside (recording aborts), and arrays.
    const TIERED_PROGRAMS: [&str; 5] = [
        "void main() { int s = 0; for (int i = 0; i < 300; i++) { s += i; } Native.printInt(s); }",
        r#"void main() {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) { s += i; } else { s -= 1; }
            }
            Native.printInt(s);
        }"#,
        r#"void main() {
            int s = 0;
            for (int i = 0; i < 20; i++) {
                for (int j = 0; j < 20; j++) { s += i * j; }
            }
            Native.printInt(s);
        }"#,
        r#"int f(int x) { return x * 3 + 1; }
        void main() {
            int s = 0;
            for (int i = 0; i < 50; i++) { s += f(i); }
            Native.printInt(s);
        }"#,
        r#"void main() {
            int[] a = new int[32];
            for (int i = 0; i < 32; i++) { a[i] = i * i; }
            int s = 0;
            for (int i = 0; i < 32; i++) { s += a[i]; }
            Native.printInt(s);
        }"#,
    ];

    #[test]
    fn tiered_matches_naive_on_output_and_command_counts() {
        for src in TIERED_PROGRAMS {
            let (nc, nout, nstats) = run_with(src, DispatchStrategy::Naive);
            let (tc, tout, tstats) = run_with(src, DispatchStrategy::Tiered);
            assert_eq!(nc, tc, "exit code diverged for {src}");
            assert_eq!(nout, tout, "console diverged for {src}");
            assert_eq!(
                nstats.commands, tstats.commands,
                "virtual-command count diverged for {src}"
            );
        }
    }

    #[test]
    fn tiered_records_and_covers_hot_loop() {
        let (_, out, stats) = run_with(TIERED_PROGRAMS[0], DispatchStrategy::Tiered);
        assert_eq!(out, "44850");
        assert!(stats.traces_recorded >= 1, "no trace recorded");
        assert!(
            stats.trace_coverage_pct() > 50.0,
            "hot loop should dominate: coverage = {}",
            stats.trace_coverage_pct()
        );
    }

    #[test]
    fn tiered_beats_naive_and_threaded_on_hot_loops() {
        let src = TIERED_PROGRAMS[0];
        let (_, _, naive) = run_with(src, DispatchStrategy::Naive);
        let (_, _, threaded) = run_with(src, DispatchStrategy::Threaded);
        let (_, _, tiered) = run_with(src, DispatchStrategy::Tiered);
        assert!(
            tiered.instructions < threaded.instructions,
            "tiered {} !< threaded {}",
            tiered.instructions,
            threaded.instructions
        );
        assert!(
            threaded.instructions < naive.instructions,
            "threaded {} !< naive {}",
            threaded.instructions,
            naive.instructions
        );
    }

    #[test]
    fn branchy_trace_side_exits_and_stays_correct() {
        let (_, out, stats) = run_with(TIERED_PROGRAMS[1], DispatchStrategy::Tiered);
        let (_, nout, _) = run_with(TIERED_PROGRAMS[1], DispatchStrategy::Naive);
        assert_eq!(out, nout);
        assert!(stats.traces_recorded >= 1);
        assert!(
            stats.trace_side_exits >= 1,
            "alternating branch must side-exit the trace"
        );
    }

    #[test]
    fn trace_guard_skip_diverges_only_under_tiered() {
        let src = TIERED_PROGRAMS[1];
        let (_, good, _) = run_with(src, DispatchStrategy::Tiered);
        let (_, bad, _) =
            run_with_fault(src, DispatchStrategy::Tiered, DispatchFault::TraceGuardSkip);
        assert_ne!(good, bad, "skipped guard must corrupt the output");
        // The fault is dormant outside the tiered tier.
        let (_, naive_ok, _) =
            run_with_fault(src, DispatchStrategy::Naive, DispatchFault::TraceGuardSkip);
        let (_, threaded_ok, _) =
            run_with_fault(src, DispatchStrategy::Threaded, DispatchFault::TraceGuardSkip);
        assert_eq!(good, naive_ok);
        assert_eq!(good, threaded_ok);
    }

    #[test]
    fn trace_guard_trip_aborts_blacklists_and_falls_back() {
        let src = TIERED_PROGRAMS[0];
        let (_, clean_out, _) = run_with(src, DispatchStrategy::Naive);
        let (_, out, stats) = run_with_fault(
            src,
            DispatchStrategy::Tiered,
            DispatchFault::TraceGuardTrip { after: 3 },
        );
        assert_eq!(out, clean_out, "fallback must preserve output");
        assert_eq!(stats.trace_aborts, 1, "trip must abort the trace");
        assert_eq!(
            stats.traces_recorded, 1,
            "blacklist must prevent re-recording the aborted anchor"
        );
    }

    #[test]
    fn trace_recording_is_deterministic() {
        for src in TIERED_PROGRAMS {
            let (_, out_a, stats_a) = run_with(src, DispatchStrategy::Tiered);
            let (_, out_b, stats_b) = run_with(src, DispatchStrategy::Tiered);
            assert_eq!(out_a, out_b);
            let mut wa = interp_core::serial::ByteWriter::new();
            let mut wb = interp_core::serial::ByteWriter::new();
            stats_a.encode_into(&mut wa);
            stats_b.encode_into(&mut wb);
            assert_eq!(
                wa.bytes(),
                wb.bytes(),
                "tiered stats must be a pure function of {src}"
            );
        }
    }

    #[test]
    fn events_roundtrip() {
        let prog = compile(
            r#"void main() {
                int e = Native.nextEvent();
                while (e != 0) {
                    Native.printInt(e >> 16);
                    e = Native.nextEvent();
                }
            }"#,
        )
        .unwrap();
        let mut m = Machine::new(NullSink);
        m.post_event(UiEvent::Tick);
        m.post_event(UiEvent::Key(b'x'));
        m.post_event(UiEvent::Quit);
        Jvm::new(&mut m, prog).run(1_000_000).unwrap();
        assert_eq!(m.console(), b"125");
    }

    #[test]
    fn load_file_native() {
        let prog = compile(
            r#"void main() {
                int[] data = Native.loadFile("in.txt");
                Native.writeBytes(data, data.length);
            }"#,
        )
        .unwrap();
        let mut m = Machine::new(NullSink);
        m.fs_add_file("in.txt", b"bytes!".to_vec());
        Jvm::new(&mut m, prog).run(1_000_000).unwrap();
        assert_eq!(m.console(), b"bytes!");
    }
}
