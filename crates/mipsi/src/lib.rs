//! MIPSI: an instruction-level MIPS R3000 emulator, instrumented.
//!
//! The internal structure follows the paper's description: "the initial
//! stages of a CPU pipeline, with the fetch, decode and execute stages
//! performed explicitly in software". Concretely, per guest instruction the
//! emulator:
//!
//! 1. **fetch** — translates the guest pc through in-core two-level page
//!    tables held in simulated memory, then loads the instruction word;
//! 2. **decode** — extracts opcode/funct/fields with shifts and masks,
//!    indexes a dispatch table, and maintains emulator bookkeeping;
//! 3. **execute** — reads guest registers from the memory-resident register
//!    file, performs the operation, and writes results back.
//!
//! Every step runs on `interp-host` primitives, so the ~50-instruction
//! fetch/decode cost and ~20-instruction execute cost of the paper's
//! Table 2 *emerge* from the implementation rather than being assumed. All
//! guest data accesses (and the page-table walks they require) are tagged
//! as memory-model work for the §3.3 accounting.
//!
//! # Example
//!
//! ```
//! use interp_core::NullSink;
//! use interp_host::Machine;
//! use interp_mipsi::Mipsi;
//!
//! let image = interp_minic::compile(
//!     "int main() { print_int(40 + 2); return 0; }",
//! ).unwrap();
//! let mut machine = Machine::new(NullSink);
//! let mut mipsi = Mipsi::new(&image, &mut machine);
//! let exit = mipsi.run(10_000_000)?;
//! assert_eq!(exit, 0);
//! assert_eq!(machine.console(), b"42");
//! # Ok::<(), interp_mipsi::MipsiError>(())
//! ```

use interp_core::{CmdId, CommandSet, Dispatch, DispatchStrategy, Language, Phase, TraceSink};
use interp_host::{Label, Machine, RoutineId};
use interp_isa::{Image, Insn, Reg, Syscall, GUEST_STACK_TOP};

/// Where guest pages are backed in host memory (identity-offset mapping
/// installed into the simulated page tables on first touch).
const GUEST_BACKING: u32 = 0x4000_0000;
/// Guest page size used by the simulated page tables.
const GUEST_PAGE: u32 = 4096;

/// Errors during emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MipsiError {
    /// Guest ran past the budget of *guest* instructions.
    Timeout {
        /// Guest instructions executed.
        executed: u64,
    },
    /// Undecodable guest instruction.
    BadInstruction {
        /// Guest pc.
        pc: u32,
        /// Instruction word.
        word: u32,
    },
    /// Unknown syscall.
    BadSyscall {
        /// `$v0` contents.
        code: u32,
    },
    /// A resource guard tripped (limits, heap cap, injected fault).
    Guard(interp_guard::GuardError),
}

impl std::fmt::Display for MipsiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MipsiError::Timeout { executed } => {
                write!(f, "guest instruction budget exhausted after {executed}")
            }
            MipsiError::BadInstruction { pc, word } => {
                write!(f, "undecodable guest instruction {word:#010x} at {pc:#010x}")
            }
            MipsiError::BadSyscall { code } => write!(f, "unknown guest syscall {code}"),
            MipsiError::Guard(e) => write!(f, "guard: {e}"),
        }
    }
}

impl std::error::Error for MipsiError {}

impl From<interp_guard::GuardError> for MipsiError {
    fn from(e: interp_guard::GuardError) -> Self {
        MipsiError::Guard(e)
    }
}

impl From<MipsiError> for interp_guard::GuardError {
    fn from(e: MipsiError) -> Self {
        use interp_guard::GuardError;
        match e {
            MipsiError::Guard(g) => g,
            MipsiError::Timeout { executed } => {
                GuardError::CommandBudget { executed, cap: executed }
            }
            MipsiError::BadInstruction { pc, word } => GuardError::BadProgram {
                lang: "mipsi",
                detail: format!("undecodable guest instruction {word:#010x} at {pc:#010x}"),
            },
            MipsiError::BadSyscall { code } => GuardError::Runtime {
                lang: "mipsi",
                detail: format!("unknown guest syscall {code}"),
            },
        }
    }
}

struct Routines {
    main_loop: RoutineId,
    translate: RoutineId,
    alu: RoutineId,
    mem: RoutineId,
    branch: RoutineId,
    muldiv: RoutineId,
    syscall: RoutineId,
}

/// The emulator. Borrows the machine for its whole run.
pub struct Mipsi<'a, S: TraceSink> {
    machine: &'a mut Machine<S>,
    routines: Routines,
    commands: CommandSet,
    /// Host address of the 34-word guest register file (32 GPRs + HI + LO).
    regs_addr: u32,
    /// Host address of the level-1 page table (1024 words).
    l1_addr: u32,
    /// Guest pc (lives in a host register; updates cost ALU ops).
    pc: u32,
    brk: u32,
    executed: u64,
    dispatch_table: u32,
    /// Host address of the emulator's instruction counter.
    counter_addr: u32,
    /// How the fetch/decode path dispatches to handlers (§5's software
    /// optimizations: threaded code replaces the switch-style double
    /// table lookup with a direct computed goto; superinstructions fuse
    /// dominant consecutive pairs so the second command skips its own
    /// dispatch and page walk).
    strategy: DispatchStrategy,
    /// Last fetch (guest pc, mnemonic, host address) — the superinstr
    /// tier's one-entry fusion/translation cache.
    prev_fetch: Option<(u32, &'static str, u32)>,
}

/// The dominant consecutive pairs the Figures 1–2 histograms identify
/// for MIPS guests: compare+branch, immediate-add+branch (loop
/// counters), lui+immediate (constant synthesis), load+add (address
/// arithmetic). The `Superinstr` tier fuses these.
const FUSED_PAIRS: [(&str, &str); 10] = [
    ("slt", "beq"),
    ("slt", "bne"),
    ("sltu", "beq"),
    ("sltu", "bne"),
    ("addiu", "beq"),
    ("addiu", "bne"),
    ("lui", "ori"),
    ("lui", "addiu"),
    ("lw", "addu"),
    ("lw", "addiu"),
];

/// The virtual command of `insn`: commands are pre-interned in
/// [`Insn::MNEMONICS`] order, so the id is the instruction's ordinal.
#[inline]
fn command_of(insn: Insn) -> CmdId {
    CmdId(insn.ordinal() as u16)
}

impl<'a, S: TraceSink> Mipsi<'a, S> {
    /// Load `image` into a fresh guest address space inside `machine`.
    pub fn new(image: &Image, machine: &'a mut Machine<S>) -> Self {
        machine.set_phase(Phase::Startup);
        let routines = Routines {
            // Sizes reflect a compact emulator: the whole loop fits well
            // inside an 8 KB instruction cache, which is the mechanism
            // behind MIPSI's 2%-imiss profile in Figure 3.
            main_loop: machine.routine_decl("mipsi_loop", 1280),
            translate: machine.routine_decl("mipsi_translate", 320),
            alu: machine.routine_decl("mipsi_alu", 768),
            mem: machine.routine_decl("mipsi_mem", 512),
            branch: machine.routine_decl("mipsi_branch", 512),
            muldiv: machine.routine_decl("mipsi_muldiv", 256),
            syscall: machine.routine_decl("mipsi_syscall", 1024),
        };
        let regs_addr = machine.malloc(34 * 4);
        let l1_addr = machine.malloc(1024 * 4);
        let dispatch_table = machine.malloc(64 * 4);
        let counter_addr = machine.malloc(8);
        let mut commands = CommandSet::new("mipsi");
        // Pre-intern in ordinal order, so `CmdId(insn.ordinal())` names
        // each instruction's command without a lookup.
        for m in Insn::MNEMONICS {
            commands.intern(m);
        }
        let mut emu = Mipsi {
            machine,
            routines,
            commands,
            regs_addr,
            l1_addr,
            pc: image.entry,
            brk: image.initial_break,
            executed: 0,
            dispatch_table,
            counter_addr,
            strategy: DispatchStrategy::Naive,
            prev_fetch: None,
        };
        emu.load(image);
        emu
    }

    /// Copy the program into guest memory through the page tables
    /// (startup-phase work, like the real loader).
    fn load(&mut self, image: &Image) {
        for (i, &word) in image.text.iter().enumerate() {
            let vaddr = image.text_base + (i as u32) * 4;
            let haddr = self.ifetch_translate(vaddr);
            self.machine.sw(haddr, word);
        }
        let mut i = 0;
        while i < image.data.len() {
            let vaddr = image.data_base + i as u32;
            let mut word = [0u8; 4];
            let n = (image.data.len() - i).min(4);
            word[..n].copy_from_slice(&image.data[i..i + n]);
            let haddr = self.ifetch_translate(vaddr);
            self.machine.sw(haddr, u32::from_le_bytes(word));
            i += 4;
        }
        // Initialize $sp.
        let sp_haddr = self.regs_addr + Reg::Sp.num() * 4;
        self.machine.sw(sp_haddr, GUEST_STACK_TOP);
    }

    /// Switch to threaded dispatch (the paper's §5 software optimization:
    /// "instruction fetch/decode overhead could be reduced by using
    /// threaded interpretation"). A boolean convenience over
    /// [`Dispatch::set_strategy`] for callers that drive the emulator by
    /// hand, such as perfbench's threaded-speedup probe; the dispatch
    /// ablation itself reads journaled `+threaded` runs.
    pub fn set_threaded_dispatch(&mut self, threaded: bool) {
        self.set_strategy(if threaded {
            DispatchStrategy::Threaded
        } else {
            DispatchStrategy::Naive
        });
    }

    /// The emulator's virtual-command set (MIPS mnemonics).
    pub fn commands(&self) -> &CommandSet {
        &self.commands
    }

    /// Guest instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    // ---- guest state accessors (charged) ----

    fn read_reg(&mut self, r: Reg) -> u32 {
        self.machine.alu(); // base + index
        self.machine.lw(self.regs_addr + r.num() * 4)
    }

    fn write_reg(&mut self, r: Reg, v: u32) {
        self.machine.alu(); // $zero guard + index
        if r != Reg::Zero {
            self.machine.sw(self.regs_addr + r.num() * 4, v);
        }
    }

    fn read_hi(&mut self) -> u32 {
        self.machine.lw(self.regs_addr + 32 * 4)
    }

    fn read_lo(&mut self) -> u32 {
        self.machine.lw(self.regs_addr + 33 * 4)
    }

    fn write_hilo(&mut self, hi: u32, lo: u32) {
        self.machine.sw(self.regs_addr + 32 * 4, hi);
        self.machine.sw(self.regs_addr + 33 * 4, lo);
    }

    /// Instruction-fetch translation (charged, but not §3.3-tagged: the
    /// paper's memory-model accounting covers the guest's *data* model).
    fn ifetch_translate(&mut self, vaddr: u32) -> u32 {
        let rt = self.routines.translate;
        let (l1, ctr) = (self.l1_addr, self.counter_addr);
        walk_page_tables(&mut self.machine, rt, l1, ctr, vaddr)
    }

    /// Data-access translation: tagged as §3.3 memory-model work.
    fn data_translate(&mut self, vaddr: u32) -> u32 {
        let rt = self.routines.translate;
        let (l1, ctr) = (self.l1_addr, self.counter_addr);
        self.machine
            .mem_model(|m| walk_page_tables(m, rt, l1, ctr, vaddr))
    }

    /// Charged guest word load (data side: memory-model tagged).
    fn guest_lw(&mut self, vaddr: u32) -> u32 {
        let haddr = self.data_translate(vaddr);
        self.machine.lw(haddr & !3)
    }

    /// Charged guest word store.
    fn guest_sw(&mut self, vaddr: u32, v: u32) {
        let haddr = self.data_translate(vaddr);
        self.machine.sw(haddr & !3, v);
    }

    fn guest_lb(&mut self, vaddr: u32) -> u8 {
        let haddr = self.data_translate(vaddr);
        self.machine.lb(haddr)
    }

    fn guest_sb(&mut self, vaddr: u32, v: u8) {
        let haddr = self.data_translate(vaddr);
        self.machine.sb(haddr, v);
    }

    /// Run the guest to completion.
    ///
    /// # Errors
    ///
    /// See [`MipsiError`].
    pub fn run(&mut self, max_guest_insns: u64) -> Result<i32, MipsiError> {
        self.machine.set_phase(Phase::FetchDecode);
        let main_loop = self.routines.main_loop;
        self.machine.enter(main_loop);
        let head = self.machine.here();
        let result = loop {
            if self.executed >= max_guest_insns {
                break Err(MipsiError::Timeout {
                    executed: self.executed,
                });
            }
            if let Err(g) = self.machine.guard_check() {
                break Err(MipsiError::Guard(g));
            }
            match self.step(head) {
                Ok(Some(code)) => break Ok(code),
                Ok(None) => {}
                Err(e) => break Err(e),
            }
        };
        self.machine.leave();
        self.machine.end_command();
        result
    }

    /// Fetch, decode and execute one guest instruction (plus the delay slot
    /// of a control transfer).
    fn step(&mut self, loop_head: Label) -> Result<Option<i32>, MipsiError> {
        let insn = self.fetch_decode(loop_head)?;
        if insn.has_delay_slot() {
            // Resolve the transfer, then run the delay slot before
            // redirecting — exactly like hardware.
            let taken = self.execute_control(insn)?;
            let ds_pc = self.pc + 4;
            let ds = self.fetch_decode_at(ds_pc, loop_head)?;
            if ds.has_delay_slot() {
                return Err(MipsiError::BadInstruction {
                    pc: ds_pc,
                    word: ds.encode(),
                });
            }
            let exit = self.execute_plain(ds)?;
            debug_assert!(exit.is_none());
            self.pc = taken.unwrap_or(self.pc + 8);
            self.machine.alu(); // pc redirect
            Ok(None)
        } else {
            let exit = self.execute_plain(insn)?;
            self.pc += 4;
            Ok(exit)
        }
    }

    /// The fetch/decode stage for the instruction at the current pc.
    fn fetch_decode(&mut self, loop_head: Label) -> Result<Insn, MipsiError> {
        let pc = self.pc;
        self.fetch_decode_at(pc, loop_head)
    }

    /// Fetch + decode the guest instruction at `pc`: the paper's ~50-native-
    /// instruction fetch/decode component, performed explicitly.
    fn fetch_decode_at(&mut self, pc: u32, loop_head: Label) -> Result<Insn, MipsiError> {
        self.machine.end_command();
        self.machine.set_phase(Phase::FetchDecode);
        // Superinstr fast path: if the previous command fetched at
        // `pc - 4` in the same 4 KB page and (prev, cur) is a fused
        // pair, control is already inside the pair's handler — the
        // second command skips the loop top, the page walk, the
        // dispatch-table load, and the counter round trip.
        if self.strategy == DispatchStrategy::Superinstr {
            if let Some((prev_pc, prev_mn, prev_haddr)) = self.prev_fetch {
                if pc == prev_pc.wrapping_add(4) && (pc >> 12) == (prev_pc >> 12) {
                    // One-entry translation cache: same page, so the host
                    // address is the cached base plus the page offset.
                    let haddr = (prev_haddr & !0xfff) | (pc & 0xfff);
                    self.machine.alu(); // fall-through pc bookkeeping
                    self.machine.alu(); // cached ifetch address
                    let word = self.machine.lw(haddr & !3);
                    let insn = Insn::decode(word)
                        .map_err(|_| MipsiError::BadInstruction { pc, word })?;
                    let mn = insn.mnemonic();
                    if FUSED_PAIRS.contains(&(prev_mn, mn)) {
                        let m = &mut self.machine;
                        // Only the second command's field extraction.
                        m.shift();
                        m.shift();
                        m.shift();
                        m.shift();
                        m.alu_n(3);
                        self.prev_fetch = Some((pc, mn, haddr));
                        self.begin(command_of(insn));
                        self.executed += 1;
                        return Ok(insn);
                    }
                    // Pair check failed: fall through to the full dispatch
                    // below. The speculative word load above models the
                    // next-opcode peek a fused-handler table performs.
                }
            }
        }
        // Top of the dispatch loop.
        self.machine.loop_back(loop_head, true);
        self.machine.alu_n(2); // pc bookkeeping, budget check
        // Instruction fetch through the page tables.
        let haddr = self.ifetch_translate(pc);
        let word = self.machine.lw(haddr & !3);
        let insn =
            Insn::decode(word).map_err(|_| MipsiError::BadInstruction { pc, word })?;
        // Decode: opcode extract, dispatch-table load, field extraction.
        let threaded = self.strategy != DispatchStrategy::Naive;
        let m = &mut self.machine;
        m.shift(); // op = word >> 26
        let table = self.dispatch_table;
        m.alu();
        m.lw(table + (word >> 26) * 4); // handler pointer
        if threaded {
            // Threaded code jumps straight through the handler pointer: no
            // SPECIAL re-dispatch, no bounds check.
            m.branch_fwd(true);
        } else {
            m.branch_fwd((word >> 26) == 0); // SPECIAL needs a second dispatch
            if word >> 26 == 0 {
                m.alu();
                m.lw(table + (word & 0x3f) * 4);
            }
            m.alu_n(2); // opcode bounds check + indirect-call setup
        }
        // Field extraction: rs, rt, rd, shamt, sign-extended immediate.
        m.shift();
        m.shift();
        m.shift();
        m.shift();
        m.alu_n(3);
        // Emulator bookkeeping: instruction counter, event check.
        let ctr = self.counter_addr;
        m.lw(ctr);
        m.alu();
        m.sw(ctr, self.executed as u32);
        self.prev_fetch = Some((pc, insn.mnemonic(), haddr));
        // Attribute to the virtual command and hand off to execute.
        self.begin(command_of(insn));
        self.executed += 1;
        Ok(insn)
    }

    fn begin(&mut self, cmd: CmdId) {
        self.machine.begin_command(cmd);
        self.machine.set_phase(Phase::Execute);
    }

    /// Execute a control-transfer instruction; returns its target if taken.
    fn execute_control(&mut self, insn: Insn) -> Result<Option<u32>, MipsiError> {
        use Insn::*;
        let pc = self.pc;
        let branch_routine = self.routines.branch;
        self.machine.enter(branch_routine);
        let out = match insn {
            Beq { rs, rt, off } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu_n(2); // compare + target computation
                self.machine.branch_fwd(a == b);
                (a == b).then(|| branch_target(pc, off))
            }
            Bne { rs, rt, off } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu_n(2);
                self.machine.branch_fwd(a != b);
                (a != b).then(|| branch_target(pc, off))
            }
            Blez { rs, off } => {
                let a = self.read_reg(rs) as i32;
                self.machine.alu_n(2);
                self.machine.branch_fwd(a <= 0);
                (a <= 0).then(|| branch_target(pc, off))
            }
            Bgtz { rs, off } => {
                let a = self.read_reg(rs) as i32;
                self.machine.alu_n(2);
                self.machine.branch_fwd(a > 0);
                (a > 0).then(|| branch_target(pc, off))
            }
            Bltz { rs, off } => {
                let a = self.read_reg(rs) as i32;
                self.machine.alu_n(2);
                self.machine.branch_fwd(a < 0);
                (a < 0).then(|| branch_target(pc, off))
            }
            Bgez { rs, off } => {
                let a = self.read_reg(rs) as i32;
                self.machine.alu_n(2);
                self.machine.branch_fwd(a >= 0);
                (a >= 0).then(|| branch_target(pc, off))
            }
            J { target } => {
                self.machine.alu_n(2);
                Some((pc & 0xf000_0000) | (target << 2))
            }
            Jal { target } => {
                self.machine.alu_n(2);
                self.write_reg(Reg::Ra, pc + 8);
                Some((pc & 0xf000_0000) | (target << 2))
            }
            Jr { rs } => {
                let t = self.read_reg(rs);
                self.machine.alu();
                Some(t)
            }
            Jalr { rd, rs } => {
                let t = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rd, pc + 8);
                Some(t)
            }
            _ => unreachable!("not control"),
        };
        self.machine.leave();
        Ok(out)
    }

    /// Execute a non-control instruction.
    fn execute_plain(&mut self, insn: Insn) -> Result<Option<i32>, MipsiError> {
        use Insn::*;
        match insn {
            Sll { .. } | Srl { .. } | Sra { .. } | Sllv { .. } | Srlv { .. } | Srav { .. }
            | Add { .. } | Addu { .. } | Sub { .. } | Subu { .. } | And { .. } | Or { .. }
            | Xor { .. } | Nor { .. } | Slt { .. } | Sltu { .. } | Addi { .. } | Addiu { .. }
            | Slti { .. } | Sltiu { .. } | Andi { .. } | Ori { .. } | Xori { .. }
            | Lui { .. } | Mfhi { .. } | Mflo { .. } => {
                let alu_routine = self.routines.alu;
                self.machine.enter(alu_routine);
                self.execute_alu(insn);
                self.machine.leave();
                Ok(None)
            }
            Mult { .. } | Multu { .. } | Div { .. } | Divu { .. } => {
                let muldiv_routine = self.routines.muldiv;
                self.machine.enter(muldiv_routine);
                self.execute_muldiv(insn);
                self.machine.leave();
                Ok(None)
            }
            Lb { .. } | Lbu { .. } | Lh { .. } | Lhu { .. } | Lw { .. } | Sb { .. }
            | Sh { .. } | Sw { .. } => {
                let mem_routine = self.routines.mem;
                self.machine.enter(mem_routine);
                self.execute_mem(insn);
                self.machine.leave();
                Ok(None)
            }
            Syscall => self.execute_syscall(),
            _ => unreachable!("control handled in step"),
        }
    }

    fn execute_alu(&mut self, insn: Insn) {
        use Insn::*;
        match insn {
            Sll { rd, rt, sh } => {
                let v = self.read_reg(rt);
                self.machine.shift();
                self.write_reg(rd, v << sh);
            }
            Srl { rd, rt, sh } => {
                let v = self.read_reg(rt);
                self.machine.shift();
                self.write_reg(rd, v >> sh);
            }
            Sra { rd, rt, sh } => {
                let v = self.read_reg(rt) as i32;
                self.machine.shift();
                self.write_reg(rd, (v >> sh) as u32);
            }
            Sllv { rd, rt, rs } => {
                let v = self.read_reg(rt);
                let s = self.read_reg(rs) & 31;
                self.machine.shift();
                self.write_reg(rd, v << s);
            }
            Srlv { rd, rt, rs } => {
                let v = self.read_reg(rt);
                let s = self.read_reg(rs) & 31;
                self.machine.shift();
                self.write_reg(rd, v >> s);
            }
            Srav { rd, rt, rs } => {
                let v = self.read_reg(rt) as i32;
                let s = self.read_reg(rs) & 31;
                self.machine.shift();
                self.write_reg(rd, (v >> s) as u32);
            }
            Mfhi { rd } => {
                let v = self.read_hi();
                self.write_reg(rd, v);
            }
            Mflo { rd } => {
                let v = self.read_lo();
                self.write_reg(rd, v);
            }
            Add { rd, rs, rt } | Addu { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, a.wrapping_add(b));
            }
            Sub { rd, rs, rt } | Subu { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, a.wrapping_sub(b));
            }
            And { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, a & b);
            }
            Or { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, a | b);
            }
            Xor { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, a ^ b);
            }
            Nor { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, !(a | b));
            }
            Slt { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs) as i32, self.read_reg(rt) as i32);
                self.machine.alu();
                self.write_reg(rd, (a < b) as u32);
            }
            Sltu { rd, rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.alu();
                self.write_reg(rd, (a < b) as u32);
            }
            Addi { rt, rs, imm } | Addiu { rt, rs, imm } => {
                let a = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rt, a.wrapping_add(imm as i32 as u32));
            }
            Slti { rt, rs, imm } => {
                let a = self.read_reg(rs) as i32;
                self.machine.alu();
                self.write_reg(rt, (a < i32::from(imm)) as u32);
            }
            Sltiu { rt, rs, imm } => {
                let a = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rt, (a < (imm as i32 as u32)) as u32);
            }
            Andi { rt, rs, imm } => {
                let a = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rt, a & u32::from(imm));
            }
            Ori { rt, rs, imm } => {
                let a = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rt, a | u32::from(imm));
            }
            Xori { rt, rs, imm } => {
                let a = self.read_reg(rs);
                self.machine.alu();
                self.write_reg(rt, a ^ u32::from(imm));
            }
            Lui { rt, imm } => {
                self.machine.shift();
                self.write_reg(rt, u32::from(imm) << 16);
            }
            _ => unreachable!(),
        }
    }

    fn execute_muldiv(&mut self, insn: Insn) {
        use Insn::*;
        match insn {
            Mult { rs, rt } => {
                let (a, b) = (self.read_reg(rs) as i32, self.read_reg(rt) as i32);
                self.machine.mul();
                let prod = i64::from(a).wrapping_mul(i64::from(b));
                self.write_hilo((prod >> 32) as u32, prod as u32);
            }
            Multu { rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.mul();
                let prod = u64::from(a).wrapping_mul(u64::from(b));
                self.write_hilo((prod >> 32) as u32, prod as u32);
            }
            Div { rs, rt } => {
                let (a, b) = (self.read_reg(rs) as i32, self.read_reg(rt) as i32);
                self.machine.mul();
                if b != 0 {
                    self.write_hilo(a.wrapping_rem(b) as u32, a.wrapping_div(b) as u32);
                }
            }
            Divu { rs, rt } => {
                let (a, b) = (self.read_reg(rs), self.read_reg(rt));
                self.machine.mul();
                if b != 0 {
                    self.write_hilo(a % b, a / b);
                }
            }
            _ => unreachable!(),
        }
    }

    fn execute_mem(&mut self, insn: Insn) {
        use Insn::*;
        match insn {
            Lw { rt, rs, off } => {
                let base = self.read_reg(rs);
                self.machine.alu();
                let vaddr = base.wrapping_add(off as i32 as u32);
                let v = self.guest_lw(vaddr);
                self.write_reg(rt, v);
            }
            Lh { rt, rs, off } | Lhu { rt, rs, off } => {
                let base = self.read_reg(rs);
                self.machine.alu();
                let vaddr = base.wrapping_add(off as i32 as u32);
                let haddr = self.data_translate(vaddr);
                let lo = self.machine.lb(haddr);
                let hi = self.machine.lb(haddr.wrapping_add(1));
                let raw = u16::from_le_bytes([lo, hi]);
                let v = if matches!(insn, Lh { .. }) {
                    raw as i16 as i32 as u32
                } else {
                    u32::from(raw)
                };
                self.write_reg(rt, v);
            }
            Lb { rt, rs, off } | Lbu { rt, rs, off } => {
                let base = self.read_reg(rs);
                self.machine.alu();
                let vaddr = base.wrapping_add(off as i32 as u32);
                let raw = self.guest_lb(vaddr);
                let v = if matches!(insn, Lb { .. }) {
                    raw as i8 as i32 as u32
                } else {
                    u32::from(raw)
                };
                self.write_reg(rt, v);
            }
            Sw { rt, rs, off } => {
                let base = self.read_reg(rs);
                let v = self.read_reg(rt);
                self.machine.alu();
                self.guest_sw(base.wrapping_add(off as i32 as u32), v);
            }
            Sh { rt, rs, off } => {
                let base = self.read_reg(rs);
                let v = self.read_reg(rt);
                self.machine.alu();
                let vaddr = base.wrapping_add(off as i32 as u32);
                let haddr = self.data_translate(vaddr);
                self.machine.sb(haddr, v as u8);
                self.machine.sb(haddr.wrapping_add(1), (v >> 8) as u8);
            }
            Sb { rt, rs, off } => {
                let base = self.read_reg(rs);
                let v = self.read_reg(rt);
                self.machine.alu();
                self.guest_sb(base.wrapping_add(off as i32 as u32), v as u8);
            }
            _ => unreachable!(),
        }
    }

    fn execute_syscall(&mut self) -> Result<Option<i32>, MipsiError> {
        let syscall_routine = self.routines.syscall;
        self.machine.enter(syscall_routine);
        let code = self.read_reg(Reg::V0);
        let a0 = self.read_reg(Reg::A0);
        let a1 = self.read_reg(Reg::A1);
        let a2 = self.read_reg(Reg::A2);
        self.machine.alu_n(3); // dispatch on the call number
        let Some(sc) = Syscall::from_code(code) else {
            self.machine.leave();
            return Err(MipsiError::BadSyscall { code });
        };
        let result: Option<Option<i32>> = match sc {
            Syscall::PrintInt => {
                let text = (a0 as i32).to_string();
                self.machine.console_print(text.as_bytes());
                Some(None)
            }
            Syscall::PrintChar => {
                self.machine.console_print(&[a0 as u8]);
                Some(None)
            }
            Syscall::PrintStr => {
                let mut bytes = Vec::new();
                let mut vaddr = a0;
                loop {
                    let b = self.guest_lb(vaddr);
                    self.machine.alu();
                    if b == 0 {
                        break;
                    }
                    bytes.push(b);
                    vaddr += 1;
                }
                self.machine.console_print(&bytes);
                Some(None)
            }
            Syscall::Sbrk => {
                let old = self.brk;
                self.brk = self.brk.wrapping_add(a0).next_multiple_of(8);
                self.machine.alu_n(2);
                self.write_reg(Reg::V0, old);
                Some(None)
            }
            Syscall::Exit => Some(Some(a0 as i32)),
            Syscall::Open => {
                let mut name = String::new();
                let mut vaddr = a0;
                loop {
                    let b = self.guest_lb(vaddr);
                    self.machine.alu();
                    if b == 0 {
                        break;
                    }
                    name.push(b as char);
                    vaddr += 1;
                }
                let fd = self.machine.sys_open(&name);
                self.write_reg(Reg::V0, fd as u32);
                Some(None)
            }
            Syscall::Read => {
                // Translate the guest buffer (identity-offset backing makes
                // it host-contiguous) and read straight into it.
                let haddr = self.data_translate(a1);
                let n = self.machine.sys_read(a0 as i32, haddr, a2);
                self.write_reg(Reg::V0, n as u32);
                Some(None)
            }
            Syscall::Write => {
                let haddr = self.data_translate(a1);
                let n = self.machine.sys_write(a0 as i32, haddr, a2);
                self.write_reg(Reg::V0, n as u32);
                Some(None)
            }
            Syscall::Close => {
                self.machine.sys_close(a0 as i32);
                Some(None)
            }
        };
        self.machine.leave();
        // Every syscall arm produces Some; treat a gap as a plain no-op
        // rather than a panic path.
        Ok(result.unwrap_or(None))
    }
}

impl<S: TraceSink> Dispatch for Mipsi<'_, S> {
    fn supported(&self) -> &'static [DispatchStrategy] {
        DispatchStrategy::supported_by(Language::Mipsi)
    }

    fn strategy(&self) -> DispatchStrategy {
        self.strategy
    }

    fn set_strategy(&mut self, strategy: DispatchStrategy) {
        self.strategy = strategy.effective_for(Language::Mipsi);
        self.prev_fetch = None;
    }

    fn fuses(&self, prev: &str, cur: &str) -> bool {
        self.strategy == DispatchStrategy::Superinstr && FUSED_PAIRS.contains(&(prev, cur))
    }
}

#[inline]
fn branch_target(pc: u32, off: i16) -> u32 {
    (pc + 4).wrapping_add((i32::from(off) << 2) as u32)
}

/// The charged two-level in-core page-table walk the paper prices at ~62
/// native instructions per access: segment dispatch, two table loads,
/// permission and referenced-bit handling, and access statistics. Installs
/// an identity-offset backing page on first touch.
fn walk_page_tables<S: TraceSink>(
    m: &mut Machine<S>,
    translate_routine: interp_host::RoutineId,
    l1_addr: u32,
    counter: u32,
    vaddr: u32,
) -> u32 {
    m.routine(translate_routine, |m| {
        // Segment dispatch + address-range validation.
        m.alu_n(4);
        m.branch_fwd(false);
        m.shift(); // l1 index = vaddr >> 22
        let l1_idx = vaddr >> 22;
        let l1_entry_addr = l1_addr + l1_idx * 4;
        m.alu();
        let mut l2 = m.lw(l1_entry_addr);
        m.branch_fwd(l2 == 0);
        if l2 == 0 {
            // Allocate and install a level-2 table (cold path).
            l2 = m.malloc(1024 * 4);
            m.sw(l1_entry_addr, l2);
        }
        m.shift(); // l2 index = (vaddr >> 12) & 1023
        m.alu();
        let l2_idx = (vaddr >> 12) & 1023;
        let l2_entry_addr = l2 + l2_idx * 4;
        let mut page = m.lw(l2_entry_addr);
        m.branch_fwd(page == 0);
        if page == 0 {
            // Install the identity-offset backing page.
            page = GUEST_BACKING + (vaddr & !(GUEST_PAGE - 1));
            m.alu_n(2);
            m.sw(l2_entry_addr, page);
        }
        // Permission bits + referenced-bit update + access statistics.
        m.alu_n(3);
        m.branch_fwd(false);
        m.lw(counter + 4);
        m.sw(counter + 4, 0);
        m.alu(); // page | offset
        page + (vaddr & (GUEST_PAGE - 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::NullSink;
    use interp_nativeref::DirectExecutor;

    fn run_mipsi(src: &str) -> (i32, String, interp_core::RunStats, CommandSet) {
        let image = interp_minic::compile(src).expect("compile");
        let mut machine = Machine::new(NullSink);
        let mut mipsi = Mipsi::new(&image, &mut machine);
        let code = mipsi.run(50_000_000).expect("run");
        let commands = std::mem::replace(&mut mipsi.commands, CommandSet::new("x"));
        drop(mipsi);
        let out = String::from_utf8_lossy(machine.console()).into_owned();
        let stats = machine.stats().clone();
        (code, out, stats, commands)
    }

    #[test]
    fn emulates_arithmetic() {
        let (code, out, _, _) = run_mipsi("int main() { print_int(6 * 7); return 5; }");
        assert_eq!(code, 5);
        assert_eq!(out, "42");
    }

    #[test]
    fn matches_native_output_on_a_nontrivial_program() {
        let src = r#"
            int tab[10];
            int main() {
                int i; int s;
                for (i = 0; i < 10; i++) tab[i] = i * i;
                s = 0;
                for (i = 0; i < 10; i++) s += tab[i];
                print_int(s);
                print_char('\n');
                print_str("done");
                return 0;
            }
        "#;
        let image = interp_minic::compile(src).unwrap();
        let mut m1 = Machine::new(NullSink);
        let native_code = DirectExecutor::new(&image, &mut m1).run(10_000_000).unwrap();
        let mut m2 = Machine::new(NullSink);
        let mipsi_code = Mipsi::new(&image, &mut m2).run(10_000_000).unwrap();
        assert_eq!(native_code, mipsi_code);
        assert_eq!(m1.console(), m2.console());
    }

    #[test]
    fn fetch_decode_cost_is_low_and_fixed() {
        // Table 2: MIPSI fetch/decode ≈ 47-51 native instructions per
        // virtual command, essentially constant across programs.
        let (_, _, stats_a, _) =
            run_mipsi("int main() { int i; for (i = 0; i < 500; i++) {} return 0; }");
        let (_, _, stats_b, _) = run_mipsi(
            "int f(int x) { return x * x % 97; } int main() { int i; int s; s = 0; for (i = 0; i < 200; i++) s += f(i); print_int(s); return 0; }",
        );
        let fd_a = stats_a.avg_fetch_decode();
        let fd_b = stats_b.avg_fetch_decode();
        assert!((15.0..80.0).contains(&fd_a), "fd_a = {fd_a}");
        assert!((15.0..80.0).contains(&fd_b), "fd_b = {fd_b}");
        // "low and roughly fixed": within 20% across programs.
        assert!(
            (fd_a - fd_b).abs() / fd_a.max(fd_b) < 0.2,
            "fd varies: {fd_a} vs {fd_b}"
        );
    }

    #[test]
    fn execute_cost_in_paper_range() {
        let (_, _, stats, _) = run_mipsi(
            "int main() { int i; int s; s = 0; for (i = 0; i < 1000; i++) s += i; print_int(s); return 0; }",
        );
        let ex = stats.avg_execute();
        assert!((4.0..40.0).contains(&ex), "execute/command = {ex}");
    }

    #[test]
    fn memory_model_tagged() {
        let (_, _, stats, _) = run_mipsi(
            r#"
            int buf[256];
            int main() {
                int i;
                for (i = 0; i < 256; i++) buf[i] = i;
                for (i = 0; i < 256; i++) buf[i] += buf[255 - i];
                return 0;
            }
            "#,
        );
        assert!(stats.mem_model_accesses > 500);
        let per_access = stats.avg_mem_model_cost();
        // Two-level in-core table walk: ~10-25 native instructions.
        assert!((6.0..40.0).contains(&per_access), "cost = {per_access}");
        let frac = stats.mem_model_fraction();
        assert!(frac > 0.05, "memory model share too small: {frac}");
    }

    #[test]
    fn lw_sw_dominate_memory_program_execute_profile() {
        // Figure 2's MIPSI panels: lw/sw are among the top execute-side
        // commands for memory-heavy programs.
        let (_, _, stats, commands) = run_mipsi(
            r#"
            int buf[512];
            int main() {
                int i; int s; s = 0;
                for (i = 0; i < 512; i++) buf[i] = i;
                for (i = 0; i < 512; i++) s += buf[i];
                print_int(s);
                return 0;
            }
            "#,
        );
        let profile = interp_core::CommandProfile::from_stats(&stats, &commands);
        let top: Vec<String> = profile
            .histogram(5)
            .into_iter()
            .map(|row| row.name)
            .collect();
        assert!(
            top.iter().any(|n| n == "lw" || n == "sw"),
            "top-5 execute commands {top:?} should include lw/sw"
        );
    }

    #[test]
    fn byte_and_halfword_guest_accesses() {
        let (_, out, _, _) = run_mipsi(
            r#"
            char buf[8] = "abc";
            int main() {
                buf[3] = 'd';
                print_str(buf);
                return 0;
            }
            "#,
        );
        assert_eq!(out, "abcd");
    }

    #[test]
    fn guest_file_io() {
        let image = interp_minic::compile(
            r#"
            char buf[32];
            int main() {
                int fd; int n;
                fd = open("f.txt");
                n = read(fd, buf, 32);
                write(1, buf, n);
                return 0;
            }
            "#,
        )
        .unwrap();
        let mut machine = Machine::new(NullSink);
        machine.fs_add_file("f.txt", b"guest io".to_vec());
        let mut mipsi = Mipsi::new(&image, &mut machine);
        assert_eq!(mipsi.run(10_000_000).unwrap(), 0);
        assert_eq!(machine.console(), b"guest io");
    }

    #[test]
    fn timeout_bounds_runaway_guests() {
        let image = interp_minic::compile("int main() { while (1) {} return 0; }").unwrap();
        let mut machine = Machine::new(NullSink);
        let mut mipsi = Mipsi::new(&image, &mut machine);
        assert!(matches!(
            mipsi.run(5_000),
            Err(MipsiError::Timeout { .. })
        ));
    }

    #[test]
    fn slowdown_vs_native_is_tens_of_x() {
        // Table 1's a=b+c row: MIPSI slows simple code by ~tens to
        // hundreds of times relative to native execution.
        let src =
            "int main() { int i; int s; s = 0; for (i = 0; i < 2000; i++) s = s + i; return 0; }";
        let image = interp_minic::compile(src).unwrap();
        let mut m1 = Machine::new(NullSink);
        DirectExecutor::new(&image, &mut m1).run(10_000_000).unwrap();
        let native = m1.stats().instructions;
        let mut m2 = Machine::new(NullSink);
        Mipsi::new(&image, &mut m2).run(10_000_000).unwrap();
        let interp = m2.stats().instructions;
        let slowdown = interp as f64 / native as f64;
        assert!(
            (20.0..200.0).contains(&slowdown),
            "slowdown = {slowdown:.1}"
        );
    }
}
