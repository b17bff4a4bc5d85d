//! Direct (native) execution of compiled MIPS images.
//!
//! This is the paper's compiled-C baseline: the *same* binary image that
//! `interp-mipsi` interprets runs here at one native instruction per MIPS
//! instruction, with its own program counters and data addresses in the
//! trace — so interpreted-vs-native comparisons (Table 1 slowdowns, the
//! C-vs-MIPSI rows of Table 2 and Figure 3) are apples-to-apples.
//!
//! Architectural registers live Rust-side (they are registers, not
//! memory); guest data lives in the simulated memory so the data cache and
//! dTLB see the program's real access stream. System calls route through
//! the same charged kernel paths (`sys_read`/`sys_write` in `interp-host`)
//! the interpreters use.
//!
//! # Example
//!
//! ```
//! use interp_core::NullSink;
//! use interp_host::Machine;
//! use interp_nativeref::DirectExecutor;
//!
//! let image = interp_minic::compile(
//!     "int main() { print_int(2 + 3); return 0; }",
//! ).unwrap();
//! let mut machine = Machine::new(NullSink);
//! let mut exec = DirectExecutor::new(&image, &mut machine);
//! let exit = exec.run(1_000_000)?;
//! assert_eq!(exit, 0);
//! assert_eq!(machine.console(), b"5");
//! # Ok::<(), interp_nativeref::ExecError>(())
//! ```

use interp_core::{CmdId, CommandSet, InsnKind, InsnRecord, Phase, TraceSink};
use interp_host::Machine;
use interp_isa::{Image, Insn, Reg, Syscall, GUEST_STACK_TOP};

/// Errors during direct execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program ran past the instruction budget.
    Timeout {
        /// Instructions executed before giving up.
        executed: u64,
    },
    /// An instruction word failed to decode.
    BadInstruction {
        /// Faulting pc.
        pc: u32,
        /// The word.
        word: u32,
    },
    /// The pc left the text segment.
    PcOutOfRange {
        /// Faulting pc.
        pc: u32,
    },
    /// An unknown syscall number.
    BadSyscall {
        /// The `$v0` value.
        code: u32,
    },
    /// A host resource guard tripped (budget, heap cap, sticky fault).
    Guard(interp_guard::GuardError),
}

impl From<interp_guard::GuardError> for ExecError {
    fn from(g: interp_guard::GuardError) -> Self {
        ExecError::Guard(g)
    }
}

impl From<ExecError> for interp_guard::GuardError {
    fn from(e: ExecError) -> Self {
        use interp_guard::GuardError;
        match e {
            ExecError::Guard(g) => g,
            ExecError::Timeout { executed } => GuardError::CommandBudget {
                executed,
                cap: executed,
            },
            ExecError::BadInstruction { .. } | ExecError::PcOutOfRange { .. } => {
                GuardError::BadProgram {
                    lang: "c",
                    detail: e.to_string(),
                }
            }
            ExecError::BadSyscall { .. } => GuardError::Runtime {
                lang: "c",
                detail: e.to_string(),
            },
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Timeout { executed } => {
                write!(f, "instruction budget exhausted after {executed}")
            }
            ExecError::BadInstruction { pc, word } => {
                write!(f, "undecodable instruction {word:#010x} at {pc:#010x}")
            }
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc:#010x} outside text"),
            ExecError::BadSyscall { code } => write!(f, "unknown syscall {code}"),
            ExecError::Guard(g) => write!(f, "guard: {g}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Runs an [`Image`] natively on a simulated host machine.
pub struct DirectExecutor<'a, S: TraceSink> {
    image: &'a Image,
    machine: &'a mut Machine<S>,
    /// Architectural registers.
    regs: [u32; 32],
    hi: u32,
    lo: u32,
    pc: u32,
    brk: u32,
    /// Interned per-mnemonic command ids (for the Table 2 "C" rows), in
    /// first-executed order: that order is part of every artifact.
    commands: CommandSet,
    /// `commands`' id for each [`Insn::ordinal`], once interned.
    command_ids: [Option<CmdId>; Insn::MNEMONICS.len()],
    executed: u64,
}

impl<'a, S: TraceSink> DirectExecutor<'a, S> {
    /// Load `image` into `machine` and prepare to run.
    pub fn new(image: &'a Image, machine: &'a mut Machine<S>) -> Self {
        // Static data is loaded uncharged (exec/loader work).
        machine.mem_mut().write_bytes(image.data_base, &image.data);
        let mut regs = [0u32; 32];
        regs[Reg::Sp.num() as usize] = GUEST_STACK_TOP;
        machine.set_phase(Phase::Execute);
        DirectExecutor {
            image,
            machine,
            regs,
            hi: 0,
            lo: 0,
            pc: image.entry,
            brk: image.initial_break,
            commands: CommandSet::new("native"),
            command_ids: [None; Insn::MNEMONICS.len()],
            executed: 0,
        }
    }

    /// The per-mnemonic command set (every native instruction is its own
    /// virtual command, making the C rows' execute ratio exactly 1.0).
    pub fn commands(&self) -> &CommandSet {
        &self.commands
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The command id of `insn`'s mnemonic, interned on first use.
    #[inline]
    fn command(&mut self, insn: Insn) -> CmdId {
        let slot = &mut self.command_ids[insn.ordinal()];
        *slot.get_or_insert_with(|| self.commands.intern(insn.mnemonic()))
    }

    #[inline]
    fn reg(&self, r: Reg) -> u32 {
        self.regs[r.num() as usize]
    }

    #[inline]
    fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.regs[r.num() as usize] = v;
        }
    }

    #[inline]
    fn fetch(&self, pc: u32) -> Result<Insn, ExecError> {
        let base = self.image.text_base;
        let idx = pc.wrapping_sub(base) / 4;
        if pc < base || pc % 4 != 0 || idx as usize >= self.image.text.len() {
            return Err(ExecError::PcOutOfRange { pc });
        }
        let word = self.image.text[idx as usize];
        Insn::decode(word).map_err(|_| ExecError::BadInstruction { pc, word })
    }

    /// Run until `exit`, returning the exit code.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. `max_insns` bounds runaway programs.
    pub fn run(&mut self, max_insns: u64) -> Result<i32, ExecError> {
        loop {
            if self.executed >= max_insns {
                return Err(ExecError::Timeout {
                    executed: self.executed,
                });
            }
            if let Err(g) = self.machine.guard_check() {
                return Err(ExecError::Guard(g));
            }
            if let Some(code) = self.step()? {
                return Ok(code);
            }
        }
    }

    /// Execute one instruction (and its delay slot if it transfers
    /// control). Returns `Some(exit_code)` when the program exits.
    pub fn step(&mut self) -> Result<Option<i32>, ExecError> {
        let pc = self.pc;
        let insn = self.fetch(pc)?;
        // Control transfers execute their delay slot before redirecting.
        if insn.has_delay_slot() {
            let target = self.control_target(insn);
            self.retire(pc, insn);
            // Execute the delay-slot instruction.
            let ds_pc = pc + 4;
            let ds = self.fetch(ds_pc)?;
            if ds.has_delay_slot() {
                // Branch in a delay slot is UB on MIPS; our assembler never
                // emits it.
                return Err(ExecError::BadInstruction {
                    pc: ds_pc,
                    word: ds.encode(),
                });
            }
            let exit = self.execute_plain(ds_pc, ds)?;
            debug_assert!(exit.is_none(), "syscall in delay slot unsupported");
            self.pc = target.unwrap_or(pc + 8);
            Ok(None)
        } else {
            let exit = self.execute_plain(pc, insn)?;
            self.pc = pc + 4;
            Ok(exit)
        }
    }

    /// Resolve a control instruction's target (None = fall through, i.e.
    /// branch not taken) and update link registers.
    fn control_target(&mut self, insn: Insn) -> Option<u32> {
        let pc = self.pc;
        match insn {
            Insn::Beq { rs, rt, off } => {
                (self.reg(rs) == self.reg(rt)).then(|| branch_target(pc, off))
            }
            Insn::Bne { rs, rt, off } => {
                (self.reg(rs) != self.reg(rt)).then(|| branch_target(pc, off))
            }
            Insn::Blez { rs, off } => {
                ((self.reg(rs) as i32) <= 0).then(|| branch_target(pc, off))
            }
            Insn::Bgtz { rs, off } => ((self.reg(rs) as i32) > 0).then(|| branch_target(pc, off)),
            Insn::Bltz { rs, off } => ((self.reg(rs) as i32) < 0).then(|| branch_target(pc, off)),
            Insn::Bgez { rs, off } => {
                ((self.reg(rs) as i32) >= 0).then(|| branch_target(pc, off))
            }
            Insn::J { target } => Some((pc & 0xf000_0000) | (target << 2)),
            Insn::Jal { target } => {
                self.set_reg(Reg::Ra, pc + 8);
                Some((pc & 0xf000_0000) | (target << 2))
            }
            Insn::Jr { rs } => Some(self.reg(rs)),
            Insn::Jalr { rd, rs } => {
                let t = self.reg(rs);
                self.set_reg(rd, pc + 8);
                Some(t)
            }
            _ => unreachable!("not a control instruction"),
        }
    }

    /// Emit the trace record + per-command stats for a control instruction.
    fn retire(&mut self, pc: u32, insn: Insn) {
        self.executed += 1;
        let cmd = self.command(insn);
        self.machine.begin_command(cmd);
        let kind = match insn {
            Insn::Jal { target } => InsnKind::Call {
                target: (pc & 0xf000_0000) | (target << 2),
            },
            Insn::Jalr { rs, .. } => InsnKind::Call {
                target: self.reg(rs),
            },
            Insn::Jr { rs } if rs == Reg::Ra => InsnKind::Ret {
                target: self.reg(rs),
            },
            Insn::Jr { rs } => InsnKind::Branch {
                target: self.reg(rs),
                taken: true,
            },
            Insn::J { target } => InsnKind::Branch {
                target: (pc & 0xf000_0000) | (target << 2),
                taken: true,
            },
            Insn::Beq { rs, rt, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: self.reg(rs) == self.reg(rt),
            },
            Insn::Bne { rs, rt, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: self.reg(rs) != self.reg(rt),
            },
            Insn::Blez { rs, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: (self.reg(rs) as i32) <= 0,
            },
            Insn::Bgtz { rs, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: (self.reg(rs) as i32) > 0,
            },
            Insn::Bltz { rs, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: (self.reg(rs) as i32) < 0,
            },
            Insn::Bgez { rs, off } => InsnKind::Branch {
                target: branch_target(pc, off),
                taken: (self.reg(rs) as i32) >= 0,
            },
            _ => InsnKind::Alu,
        };
        self.machine.raw_insn(InsnRecord { pc, kind });
    }

    /// Execute a non-control instruction: perform semantics, emit its trace
    /// record, update stats. Returns `Some(code)` on `exit`.
    fn execute_plain(&mut self, pc: u32, insn: Insn) -> Result<Option<i32>, ExecError> {
        use Insn::*;
        self.executed += 1;
        let cmd = self.command(insn);
        self.machine.begin_command(cmd);
        let mut kind = InsnKind::Alu;
        match insn {
            Sll { rd, rt, sh } => {
                kind = if insn == Insn::NOP {
                    InsnKind::Nop
                } else {
                    InsnKind::ShortInt
                };
                self.set_reg(rd, self.reg(rt) << sh);
            }
            Srl { rd, rt, sh } => {
                kind = InsnKind::ShortInt;
                self.set_reg(rd, self.reg(rt) >> sh);
            }
            Sra { rd, rt, sh } => {
                kind = InsnKind::ShortInt;
                self.set_reg(rd, ((self.reg(rt) as i32) >> sh) as u32);
            }
            Sllv { rd, rt, rs } => {
                kind = InsnKind::ShortInt;
                self.set_reg(rd, self.reg(rt) << (self.reg(rs) & 31));
            }
            Srlv { rd, rt, rs } => {
                kind = InsnKind::ShortInt;
                self.set_reg(rd, self.reg(rt) >> (self.reg(rs) & 31));
            }
            Srav { rd, rt, rs } => {
                kind = InsnKind::ShortInt;
                self.set_reg(rd, ((self.reg(rt) as i32) >> (self.reg(rs) & 31)) as u32);
            }
            Mfhi { rd } => self.set_reg(rd, self.hi),
            Mflo { rd } => self.set_reg(rd, self.lo),
            Mult { rs, rt } => {
                kind = InsnKind::Mul;
                let prod =
                    i64::from(self.reg(rs) as i32).wrapping_mul(i64::from(self.reg(rt) as i32));
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Multu { rs, rt } => {
                kind = InsnKind::Mul;
                let prod = u64::from(self.reg(rs)).wrapping_mul(u64::from(self.reg(rt)));
                self.hi = (prod >> 32) as u32;
                self.lo = prod as u32;
            }
            Div { rs, rt } => {
                kind = InsnKind::Mul;
                let (a, b) = (self.reg(rs) as i32, self.reg(rt) as i32);
                if b != 0 {
                    self.lo = a.wrapping_div(b) as u32;
                    self.hi = a.wrapping_rem(b) as u32;
                }
            }
            Divu { rs, rt } => {
                kind = InsnKind::Mul;
                let (a, b) = (self.reg(rs), self.reg(rt));
                if b != 0 {
                    self.lo = a / b;
                    self.hi = a % b;
                }
            }
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_add(self.reg(rt)));
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                self.set_reg(rd, self.reg(rs).wrapping_sub(self.reg(rt)));
            }
            And { rd, rs, rt } => self.set_reg(rd, self.reg(rs) & self.reg(rt)),
            Or { rd, rs, rt } => self.set_reg(rd, self.reg(rs) | self.reg(rt)),
            Xor { rd, rs, rt } => self.set_reg(rd, self.reg(rs) ^ self.reg(rt)),
            Nor { rd, rs, rt } => self.set_reg(rd, !(self.reg(rs) | self.reg(rt))),
            Slt { rd, rs, rt } => {
                self.set_reg(rd, ((self.reg(rs) as i32) < (self.reg(rt) as i32)) as u32)
            }
            Sltu { rd, rs, rt } => self.set_reg(rd, (self.reg(rs) < self.reg(rt)) as u32),
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                self.set_reg(rt, self.reg(rs).wrapping_add(imm as i32 as u32));
            }
            Slti { rt, rs, imm } => {
                self.set_reg(rt, ((self.reg(rs) as i32) < i32::from(imm)) as u32)
            }
            Sltiu { rt, rs, imm } => {
                self.set_reg(rt, (self.reg(rs) < (imm as i32 as u32)) as u32)
            }
            Andi { rt, rs, imm } => self.set_reg(rt, self.reg(rs) & u32::from(imm)),
            Ori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) | u32::from(imm)),
            Xori { rt, rs, imm } => self.set_reg(rt, self.reg(rs) ^ u32::from(imm)),
            Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Lw { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Load { addr };
                let v = self.machine.mem().read_u32(addr);
                self.set_reg(rt, v);
            }
            Lh { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Load { addr };
                let v = self.machine.mem().read_u16(addr) as i16 as i32 as u32;
                self.set_reg(rt, v);
            }
            Lhu { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Load { addr };
                let v = u32::from(self.machine.mem().read_u16(addr));
                self.set_reg(rt, v);
            }
            Lb { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Load { addr };
                let v = self.machine.mem().read_u8(addr) as i8 as i32 as u32;
                self.set_reg(rt, v);
            }
            Lbu { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Load { addr };
                let v = u32::from(self.machine.mem().read_u8(addr));
                self.set_reg(rt, v);
            }
            Sw { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Store { addr };
                let v = self.reg(rt);
                self.machine.mem_mut().write_u32(addr, v);
            }
            Sh { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Store { addr };
                let v = self.reg(rt) as u16;
                self.machine.mem_mut().write_u16(addr, v);
            }
            Sb { rt, rs, off } => {
                let addr = self.reg(rs).wrapping_add(off as i32 as u32);
                kind = InsnKind::Store { addr };
                let v = self.reg(rt) as u8;
                self.machine.mem_mut().write_u8(addr, v);
            }
            Syscall => {
                self.machine.raw_insn(InsnRecord {
                    pc,
                    kind: InsnKind::Alu,
                });
                return self.syscall();
            }
            Jr { .. } | Jalr { .. } | J { .. } | Jal { .. } | Beq { .. } | Bne { .. }
            | Blez { .. } | Bgtz { .. } | Bltz { .. } | Bgez { .. } => {
                unreachable!("control handled by step()")
            }
        }
        self.machine.raw_insn(InsnRecord { pc, kind });
        Ok(None)
    }

    /// Dispatch a syscall through the host's charged kernel paths.
    fn syscall(&mut self) -> Result<Option<i32>, ExecError> {
        let code = self.reg(Reg::V0);
        let a0 = self.reg(Reg::A0);
        let a1 = self.reg(Reg::A1);
        let a2 = self.reg(Reg::A2);
        let sc = Syscall::from_code(code).ok_or(ExecError::BadSyscall { code })?;
        match sc {
            Syscall::PrintInt => {
                let text = (a0 as i32).to_string();
                self.machine.console_print(text.as_bytes());
            }
            Syscall::PrintChar => {
                self.machine.console_print(&[a0 as u8]);
            }
            Syscall::PrintStr => {
                let mut bytes = Vec::new();
                let mut addr = a0;
                loop {
                    let b = self.machine.mem().read_u8(addr);
                    if b == 0 {
                        break;
                    }
                    bytes.push(b);
                    addr += 1;
                }
                self.machine.console_print(&bytes);
            }
            Syscall::Sbrk => {
                let old = self.brk;
                self.brk = self.brk.wrapping_add(a0).next_multiple_of(8);
                self.set_reg(Reg::V0, old);
            }
            Syscall::Exit => return Ok(Some(a0 as i32)),
            Syscall::Open => {
                let mut name = String::new();
                let mut addr = a0;
                loop {
                    let b = self.machine.mem().read_u8(addr);
                    if b == 0 {
                        break;
                    }
                    name.push(b as char);
                    addr += 1;
                }
                let fd = self.machine.sys_open(&name);
                self.set_reg(Reg::V0, fd as u32);
            }
            Syscall::Read => {
                let n = self.machine.sys_read(a0 as i32, a1, a2);
                self.set_reg(Reg::V0, n as u32);
            }
            Syscall::Write => {
                let n = self.machine.sys_write(a0 as i32, a1, a2);
                self.set_reg(Reg::V0, n as u32);
            }
            Syscall::Close => {
                self.machine.sys_close(a0 as i32);
            }
        }
        Ok(None)
    }
}

#[inline]
fn branch_target(pc: u32, off: i16) -> u32 {
    // Relative to the delay slot.
    (pc + 4).wrapping_add((i32::from(off) << 2) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::NullSink;

    fn run_source(src: &str) -> (i32, String, u64) {
        let image = interp_minic::compile(src).expect("compile");
        let mut machine = Machine::new(NullSink);
        let mut exec = DirectExecutor::new(&image, &mut machine);
        let code = exec.run(200_000_000).expect("run");
        let executed = exec.executed();
        let out = String::from_utf8_lossy(machine.console()).into_owned();
        (code, out, executed)
    }

    #[test]
    fn arithmetic_and_print() {
        let (code, out, _) = run_source("int main() { print_int(6 * 7 - 2); return 3; }");
        assert_eq!(code, 3);
        assert_eq!(out, "40");
    }

    #[test]
    fn control_flow_loops() {
        let (_, out, _) = run_source(
            "int main() { int i; int s; s = 0; for (i = 1; i <= 10; i++) s += i; print_int(s); return 0; }",
        );
        assert_eq!(out, "55");
    }

    #[test]
    fn while_break_continue() {
        let (_, out, _) = run_source(
            r#"int main() {
                int i; int s; i = 0; s = 0;
                while (1) {
                    i++;
                    if (i > 100) break;
                    if (i % 2) continue;
                    s += i;
                }
                print_int(s);
                return 0;
            }"#,
        );
        assert_eq!(out, "2550");
    }

    #[test]
    fn recursion_fib() {
        let (_, out, _) =
            run_source("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { print_int(fib(15)); return 0; }");
        assert_eq!(out, "610");
    }

    #[test]
    fn arrays_pointers_strings() {
        let (_, out, _) = run_source(
            r#"
            int tab[5] = {5, 4, 3, 2, 1};
            char msg[16] = "ok";
            int sum(int *p, int n) {
                int i; int s; s = 0;
                for (i = 0; i < n; i++) s += p[i];
                return s;
            }
            int main() {
                int local[3];
                local[0] = 10; local[1] = 20; local[2] = 30;
                print_int(sum(tab, 5));
                print_char(' ');
                print_int(sum(local, 3));
                print_char(' ');
                print_str(msg);
                print_str(" & strings work\n");
                return 0;
            }
            "#,
        );
        assert_eq!(out, "15 60 ok & strings work\n");
    }

    #[test]
    fn char_pointer_walk() {
        let (_, out, _) = run_source(
            r#"
            int strlen_(char *s) {
                int n; n = 0;
                while (*s) { s = s + 1; n++; }
                return n;
            }
            int main() { print_int(strlen_("hello world")); return 0; }
            "#,
        );
        assert_eq!(out, "11");
    }

    #[test]
    fn division_and_modulo() {
        let (_, out, _) = run_source(
            "int main() { print_int(17 / 5); print_char(','); print_int(17 % 5); print_char(','); print_int(-9 / 2); return 0; }",
        );
        assert_eq!(out, "3,2,-4");
    }

    #[test]
    fn logical_short_circuit() {
        let (_, out, _) = run_source(
            r#"
            int g = 0;
            int bump() { g = g + 1; return 1; }
            int main() {
                if (0 && bump()) { print_int(-1); }
                if (1 || bump()) { print_int(g); }
                if (1 && bump()) { print_int(g); }
                return 0;
            }
            "#,
        );
        assert_eq!(out, "01");
    }

    #[test]
    fn sbrk_heap() {
        let (_, out, _) = run_source(
            r#"
            int main() {
                int *p;
                p = sbrk(40);
                p[0] = 11; p[9] = 99;
                print_int(p[0] + p[9]);
                return 0;
            }
            "#,
        );
        assert_eq!(out, "110");
    }

    #[test]
    fn file_io_roundtrip() {
        let image = interp_minic::compile(
            r#"
            char buf[64];
            int main() {
                int fd; int n;
                fd = open("input.txt");
                if (fd < 0) { print_str("no file"); return 1; }
                n = read(fd, buf, 64);
                write(1, buf, n);
                close(fd);
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut machine = Machine::new(NullSink);
        machine.fs_add_file("input.txt", b"file contents here".to_vec());
        let mut exec = DirectExecutor::new(&image, &mut machine);
        assert_eq!(exec.run(1_000_000).unwrap(), 0);
        assert_eq!(machine.console(), b"file contents here");
    }

    #[test]
    fn bitwise_and_shifts() {
        let (_, out, _) = run_source(
            "int main() { print_int((0xf0 | 0x0f) & 0x3c); print_char(' '); print_int(1 << 10); print_char(' '); print_int(-16 >> 2); return 0; }",
        );
        assert_eq!(out, "60 1024 -4");
    }

    #[test]
    fn stats_track_instruction_stream() {
        let image = interp_minic::compile(
            "int main() { int i; int s; s = 0; for (i = 0; i < 1000; i++) s += i; return 0; }",
        )
        .unwrap();
        let mut machine = Machine::new(NullSink);
        let mut exec = DirectExecutor::new(&image, &mut machine);
        exec.run(10_000_000).unwrap();
        let executed = exec.executed();
        let stats = machine.stats();
        assert_eq!(stats.instructions, executed);
        assert_eq!(stats.commands, executed);
        // The C rows of Table 2: exactly 1.0 execute instructions/command.
        assert!((stats.avg_execute() - 1.0).abs() < 1e-9);
        assert_eq!(stats.avg_fetch_decode(), 0.0);
    }

    #[test]
    fn timeout_detected() {
        let image = interp_minic::compile("int main() { while (1) {} return 0; }").unwrap();
        let mut machine = Machine::new(NullSink);
        let mut exec = DirectExecutor::new(&image, &mut machine);
        assert!(matches!(exec.run(10_000), Err(ExecError::Timeout { .. })));
    }

    #[test]
    fn delay_slot_nops_show_up_as_sll() {
        // The paper's footnote: for branchy programs most `sll`s are no-op
        // delay-slot fillers.
        let image = interp_minic::compile(
            "int main() { int i; for (i = 0; i < 100; i++) { } return 0; }",
        )
        .unwrap();
        let mut machine = Machine::new(NullSink);
        let mut exec = DirectExecutor::new(&image, &mut machine);
        exec.run(1_000_000).unwrap();
        let sll = exec.commands().get("sll").expect("sll must appear");
        let stats = machine.stats();
        assert!(stats.command(sll).executions > 100);
    }
}
