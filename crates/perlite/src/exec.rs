//! The run-time op-tree walker.
//!
//! Mirrors Perl 4's `eval()` recursion: every op node dispatched is one
//! virtual command; node fetches, value-stack traffic, SV flag checks and
//! string⇄number conversions ("shimmering") are all charged against the
//! simulated machine. Scalar and array slots were resolved at compile
//! time, so their accesses are a couple of loads; hash elements pay a full
//! charged hash translation (§3.3's ~210-instruction cost).

use interp_core::{
    CommandSet, Dispatch, DispatchStrategy, Language, Phase, RunStats, TraceSink,
};
use interp_host::{Machine, RoutineId, SimHash, SimStr};
use std::collections::HashMap;

use crate::error::PerlError;
use crate::ops::*;
use crate::parser::parse_program;

/// A Perl scalar value. `Str` holds simulated-memory strings; numeric use
/// of a string (and vice versa) pays a charged conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value {
    Undef,
    Int(i64),
    Str(SimStr),
}

/// Control flow escaping an op.
enum PFlow {
    Val(Value),
    Last,
    Next,
    Return(Value),
}

struct Routines {
    runops: RoutineId,
    pp_arith: RoutineId,
    pp_string: RoutineId,
    pp_match: RoutineId,
    pp_hash: RoutineId,
    pp_io: RoutineId,
    pp_sub: RoutineId,
    pp_ctrl: RoutineId,
}

/// The Perlite interpreter.
pub struct Perlite<'a, S: TraceSink> {
    m: &'a mut Machine<S>,
    rt: Routines,
    commands: CommandSet,
    prog: Program,
    scalars: Vec<Value>,
    scalar_base: u32,
    arrays: Vec<Vec<Value>>,
    array_regions: Vec<u32>,
    hashes: Vec<SimHash>,
    hash_values: Vec<Value>,
    groups: Vec<Option<SimStr>>,
    files: HashMap<String, i32>,
    /// Dynamic-scope save frames (one per active sub call + a base frame).
    locals: Vec<Vec<(SlotId, Value)>>,
    /// `@_` stacks for active sub calls.
    args: Vec<Vec<Value>>,
    depth: u32,
    /// How hash-element access resolves keys.
    strategy: DispatchStrategy,
    /// Lookup cache for the `InlineCache` tier: `(hash, key content)` →
    /// resolved value slot, modeling a hash-value memo table in front of
    /// the HV (the SV keeps its computed hash; a memo probe replaces the
    /// magic checks, bucket-chain walk, and full key compare). Content
    /// keyed, so dynamically-built keys — regex captures routed through
    /// `%routes` — hit on every repeat.
    hash_ic: HashMap<(HashId, Vec<u8>), Option<u32>>,
}

const ARRAY_REGION: u32 = 4096;

impl<'a, S: TraceSink> Perlite<'a, S> {
    /// Compile `src` (charged as startup/precompilation work, reported
    /// separately in Table 2) and prepare to run it.
    ///
    /// # Errors
    ///
    /// Returns [`PerlError`] on syntax errors.
    pub fn new(machine: &'a mut Machine<S>, src: &str) -> Result<Self, PerlError> {
        machine.set_phase(Phase::Startup);
        let rt = Routines {
            runops: machine.routine_decl("perl_runops", 8192),
            pp_arith: machine.routine_decl("perl_pp_arith", 6144),
            pp_string: machine.routine_decl("perl_pp_string", 8192),
            pp_match: machine.routine_decl("perl_pp_match", 10240),
            pp_hash: machine.routine_decl("perl_pp_hash", 6144),
            pp_io: machine.routine_decl("perl_pp_io", 6144),
            pp_sub: machine.routine_decl("perl_pp_sub", 6144),
            pp_ctrl: machine.routine_decl("perl_pp_ctrl", 6144),
        };
        let prog = parse_program(machine, src)?;
        let scalar_base = machine.malloc(12 * prog.n_scalars.max(1));
        let scalars = vec![Value::Undef; prog.n_scalars as usize];
        let arrays = vec![Vec::new(); prog.n_arrays as usize];
        let array_regions = (0..prog.n_arrays)
            .map(|_| machine.malloc(ARRAY_REGION))
            .collect();
        let hashes = (0..prog.n_hashes).map(|_| machine.hash_new(32)).collect();
        Ok(Perlite {
            m: machine,
            rt,
            commands: CommandSet::new("perlite"),
            prog,
            scalars,
            scalar_base,
            arrays,
            array_regions,
            hashes,
            hash_values: Vec::new(),
            groups: vec![None; 10],
            files: HashMap::new(),
            locals: vec![Vec::new()],
            args: Vec::new(),
            depth: 0,
            strategy: DispatchStrategy::Naive,
            hash_ic: HashMap::new(),
        })
    }

    /// The interpreter's virtual-command set (op names).
    pub fn commands(&self) -> &CommandSet {
        &self.commands
    }

    /// Statistics gathered so far.
    pub fn stats(&mut self) -> &RunStats {
        self.m.stats()
    }

    /// Execute the program.
    ///
    /// # Errors
    ///
    /// Returns [`PerlError`] on `die` or run-time errors.
    pub fn run(&mut self) -> Result<(), PerlError> {
        self.m.set_phase(Phase::FetchDecode);
        let top = self.prog.top.clone();
        let flow = self.exec_block(&top)?;
        let _ = flow;
        self.m.end_command();
        Ok(())
    }

    fn exec_block(&mut self, body: &[OpId]) -> Result<PFlow, PerlError> {
        for &op in body {
            match self.exec(op)? {
                PFlow::Val(_) => {}
                other => return Ok(other),
            }
        }
        Ok(PFlow::Val(Value::Undef))
    }

    /// Evaluate an op to a plain value (loop-control flows are errors in
    /// expression position; `return` propagates).
    fn eval(&mut self, op: OpId) -> Result<Value, PerlError> {
        match self.exec(op)? {
            PFlow::Val(v) => Ok(v),
            PFlow::Return(v) => Ok(v),
            _ => Err(PerlError::runtime("loop control used in an expression")),
        }
    }

    /// Dispatch one op node: the virtual-command boundary.
    fn exec(&mut self, id: OpId) -> Result<PFlow, PerlError> {
        if let Err(g) = self.m.guard_check() {
            return Err(PerlError::from(g));
        }
        self.depth += 1;
        let cap = self.m.limits().max_call_depth.min(4000);
        if self.depth > cap {
            self.depth -= 1;
            if cap < 4000 {
                return Err(PerlError::from(interp_guard::GuardError::CallDepth {
                    depth: self.depth + 1,
                    cap,
                }));
            }
            return Err(PerlError::runtime("deep recursion"));
        }
        // --- fetch/decode: runops node fetch + dispatch ---
        self.m.end_command();
        self.m.set_phase(Phase::FetchDecode);
        let runops = self.rt.runops;
        let (op, addr) = {
            let (op, addr) = &self.prog.ops[id as usize];
            (op.clone(), *addr)
        };
        self.m.enter(runops);
        // Perl 4's eval() entry: op-node field loads, context/wantarray
        // determination, argument-stack mark setup, global SP reload/save.
        // The paper measures this at 130-200 native instructions per op
        // (Table 2); the work below plus operand handling lands in that
        // neighborhood.
        self.m.lw(addr); // op type
        self.m.lw(addr + 4); // flags / sibling
        self.m.lw(addr + 8); // operand pointer
        self.m.lw(addr + 12); // pp function pointer
        self.m.alu_n(16); // context setup, wantarray, flag tests
        self.m.branch_fwd(false); // dispatch switch
        let sp_cell = self.scalar_base.wrapping_sub(16); // global SP cell
        self.m.lw(sp_cell);
        self.m.alu_n(9); // stack mark push, argument count checks
        self.m.sw(sp_cell, 0);
        self.m.lw(addr + 4); // re-check op flags on the pp side
        self.m.alu_n(8); // pp prologue: MARK/ORIGMARK, tainting checks
        // Statement bookkeeping Perl 4 performed on every op: curcop
        // file/line maintenance, stack-extension check, signal check,
        // debugger hook test, scope-stack bounds.
        self.m.lw(sp_cell.wrapping_add(4)); // curcop
        self.m.sw(sp_cell.wrapping_add(4), 0);
        self.m.lw(sp_cell.wrapping_add(8)); // stack limit
        self.m.branch_fwd(false); // extend check
        self.m.lw(sp_cell.wrapping_add(12)); // signal flag
        self.m.branch_fwd(false);
        self.m.alu_n(34);
        let cmd = self.commands.intern(op.cmd_name());
        self.m.begin_command(cmd);
        self.m.set_phase(Phase::Execute);
        let out = self.exec_op(&op);
        self.m.leave();
        self.m.end_command();
        self.m.set_phase(Phase::FetchDecode);
        self.depth -= 1;
        out
    }

    fn exec_op(&mut self, op: &Op) -> Result<PFlow, PerlError> {
        use Op::*;
        let v = match op {
            ConstInt(v) => {
                self.m.alu();
                PFlow::Val(Value::Int(*v))
            }
            ConstStr(s) => {
                self.m.alu();
                PFlow::Val(Value::Str(*s))
            }
            Interp(parts) => {
                let s = self.interp(parts)?;
                PFlow::Val(Value::Str(s))
            }
            GetScalar(slot) => {
                let v = self.scalar_read(*slot);
                PFlow::Val(v)
            }
            GetGroup(k) => {
                self.m.alu_n(2);
                PFlow::Val(match self.groups[*k as usize] {
                    Some(s) => Value::Str(s),
                    None => Value::Undef,
                })
            }
            GetElem(arr, idx) => {
                let i = {
                    let iv = self.eval(*idx)?;
                    self.to_int(iv)
                };
                let v = self.array_read(*arr, i);
                PFlow::Val(v)
            }
            GetHElem(h, key) => {
                let kv = self.eval(*key)?;
                let key_s = self.to_str(kv);
                let v = self.hash_read(*h, key_s);
                PFlow::Val(v)
            }
            ArrayLen(arr) => {
                self.m.alu_n(2);
                self.m.lw(self.array_regions[*arr as usize]);
                PFlow::Val(Value::Int(self.arrays[*arr as usize].len() as i64))
            }
            Assign(target, value) => {
                let v = self.eval(*value)?;
                self.store(target, v)?;
                PFlow::Val(v)
            }
            AssignOp(target, kind, value) => {
                let old = self.load_target(target)?;
                let rhs = self.eval(*value)?;
                let v = self.apply_bin(*kind, old, rhs)?;
                self.store(target, v)?;
                PFlow::Val(v)
            }
            PostIncr(target, delta) => {
                let old = self.load_target(target)?;
                let oldi = self.to_int(old);
                self.m.alu();
                self.store(target, Value::Int(oldi + delta))?;
                PFlow::Val(Value::Int(oldi))
            }
            PreIncr(target, delta) => {
                let old = self.load_target(target)?;
                let oldi = self.to_int(old);
                self.m.alu();
                let new = Value::Int(oldi + delta);
                self.store(target, new)?;
                PFlow::Val(new)
            }
            Bin(BinKind::And, a, b) => {
                let av = self.eval(*a)?;
                if !self.truthy(av) {
                    PFlow::Val(av)
                } else {
                    PFlow::Val(self.eval(*b)?)
                }
            }
            Bin(BinKind::Or, a, b) => {
                let av = self.eval(*a)?;
                if self.truthy(av) {
                    PFlow::Val(av)
                } else {
                    PFlow::Val(self.eval(*b)?)
                }
            }
            Bin(kind, a, b) => {
                let av = self.eval(*a)?;
                let bv = self.eval(*b)?;
                PFlow::Val(self.apply_bin(*kind, av, bv)?)
            }
            Un(kind, a) => {
                let av = self.eval(*a)?;
                let pp = self.rt.pp_arith;
                let out = match kind {
                    UnKind::Neg => {
                        let v = self.to_int(av);
                        self.m.routine(pp, |m| m.alu());
                        Value::Int(-v)
                    }
                    UnKind::Not => {
                        let t = self.truthy(av);
                        self.m.routine(pp, |m| m.alu());
                        Value::Int(i64::from(!t))
                    }
                    UnKind::BitNot => {
                        let v = self.to_int(av);
                        self.m.routine(pp, |m| m.alu());
                        Value::Int(!v)
                    }
                };
                PFlow::Val(out)
            }
            Ternary(cond, a, b) => {
                let cv = self.eval(*cond)?;
                let taken = self.truthy(cv);
                self.m.branch_fwd(!taken);
                PFlow::Val(if taken {
                    self.eval(*a)?
                } else {
                    self.eval(*b)?
                })
            }
            Match { value, re, negate } => {
                let v = self.eval(*value)?;
                let s = self.to_str(v);
                let matched = self.do_match(*re, s)?;
                self.m.alu();
                PFlow::Val(Value::Int(i64::from(matched != *negate)))
            }
            Subst {
                target,
                re,
                repl,
                global,
            } => {
                let count = self.do_subst(target, *re, repl, *global)?;
                PFlow::Val(Value::Int(count))
            }
            Print { fh, args } => {
                let fd = match fh {
                    Some(name) => *self.files.get(name).ok_or_else(|| {
                        PerlError::runtime(format!("print to unopened filehandle {name}"))
                    })?,
                    None => interp_host::FD_CONSOLE,
                };
                for &arg in args {
                    let v = self.eval(arg)?;
                    let s = self.to_str(v);
                    let io = self.rt.pp_io;
                    let len = self.m.lw(s.0);
                    self.m.routine(io, |m| {
                        m.alu_n(4);
                        m.sys_write(fd, s.data(), len);
                    });
                }
                PFlow::Val(Value::Int(1))
            }
            Call(name, arg_ops) => {
                let def = self
                    .prog
                    .subs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| PerlError::runtime(format!("undefined sub &{name}")))?;
                let mut argv = Vec::with_capacity(arg_ops.len());
                for &a in arg_ops {
                    argv.push(self.eval(a)?);
                }
                let pp = self.rt.pp_sub;
                self.m.enter(pp);
                self.m.alu_n(8); // stack frame, @_ setup
                self.args.push(argv);
                self.locals.push(Vec::new());
                self.m.leave();
                let flow = self.exec_block(&def.body);
                // Restore dynamically-scoped locals. The frame pushed above
                // must still be there; a missing one means the interpreter
                // state was corrupted, which we report instead of panicking.
                let Some(frame) = self.locals.pop() else {
                    return Err(PerlError::runtime("local-variable frame stack underflow"));
                };
                for (slot, old) in frame.into_iter().rev() {
                    self.scalar_write(slot, old);
                }
                self.args.pop();
                let out = match flow? {
                    PFlow::Return(v) | PFlow::Val(v) => v,
                    PFlow::Last | PFlow::Next => {
                        return Err(PerlError::runtime("loop exit through a sub call"))
                    }
                };
                PFlow::Val(out)
            }
            Builtin(kind, args) => PFlow::Val(self.builtin(*kind, args)?),
            SplitAssign(arr, re, value) => {
                let v = self.eval(*value)?;
                let s = self.to_str(v);
                let parts = self.do_split(*re, s)?;
                let n = parts.len() as i64;
                self.array_replace(*arr, parts);
                PFlow::Val(Value::Int(n))
            }
            ListAssign(arr, items) => {
                let mut values = Vec::with_capacity(items.len());
                for &item in items {
                    values.push(self.eval(item)?);
                }
                let n = values.len() as i64;
                self.array_replace(*arr, values);
                PFlow::Val(Value::Int(n))
            }
            JoinArr(sep, arr) => {
                let sv = self.eval(*sep)?;
                let sep_s = self.to_str(sv);
                let elems = self.arrays[*arr as usize].clone();
                let pp = self.rt.pp_string;
                self.m.enter(pp);
                let mut b = self.m.builder_new(32);
                for (i, &e) in elems.iter().enumerate() {
                    if i > 0 {
                        self.m.builder_push_str(&mut b, sep_s);
                    }
                    let es = self.to_str(e);
                    self.m.builder_push_str(&mut b, es);
                }
                let out = self.m.builder_finish(b);
                self.m.leave();
                PFlow::Val(Value::Str(out))
            }
            ArrPush(arr, values) => {
                for &v in values {
                    let val = self.eval(v)?;
                    let n = self.arrays[*arr as usize].len() as u32;
                    self.m.alu_n(2);
                    self.m
                        .sw(self.array_regions[*arr as usize] + (n * 4) % ARRAY_REGION, 0);
                    self.arrays[*arr as usize].push(val);
                }
                PFlow::Val(Value::Int(self.arrays[*arr as usize].len() as i64))
            }
            ArrPop(arr) => {
                self.m.alu_n(2);
                PFlow::Val(self.arrays[*arr as usize].pop().unwrap_or(Value::Undef))
            }
            ArrShift(arr) => {
                self.m.alu_n(3);
                let a = &mut self.arrays[*arr as usize];
                PFlow::Val(if a.is_empty() {
                    Value::Undef
                } else {
                    a.remove(0)
                })
            }
            ArrUnshift(arr, values) => {
                for &v in values.iter().rev() {
                    let val = self.eval(v)?;
                    self.m.alu_n(3);
                    self.arrays[*arr as usize].insert(0, val);
                }
                PFlow::Val(Value::Int(self.arrays[*arr as usize].len() as i64))
            }
            If { arms } => {
                let ctrl = self.rt.pp_ctrl;
                self.m.routine(ctrl, |m| m.alu_n(6)); // enter/leave scope bookkeeping
                for (cond, body) in arms {
                    let taken = match cond {
                        Some(c) => {
                            let cv = self.eval(*c)?;
                            let t = self.truthy(cv);
                            self.m.branch_fwd(!t);
                            t
                        }
                        None => true,
                    };
                    if taken {
                        return self.exec_block(body);
                    }
                }
                PFlow::Val(Value::Undef)
            }
            While { cond, body } => {
                let ctrl = self.rt.pp_ctrl;
                self.m.routine(ctrl, |m| m.alu_n(10)); // loop block setup
                loop {
                    let cv = self.eval(*cond)?;
                    if !self.truthy(cv) {
                        break;
                    }
                    match self.exec_block(body)? {
                        PFlow::Last => break,
                        PFlow::Return(v) => return Ok(PFlow::Return(v)),
                        PFlow::Next | PFlow::Val(_) => {}
                    }
                }
                PFlow::Val(Value::Undef)
            }
            ForC {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.eval(*init)?;
                }
                loop {
                    if let Some(c) = cond {
                        let cv = self.eval(*c)?;
                        if !self.truthy(cv) {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        PFlow::Last => break,
                        PFlow::Return(v) => return Ok(PFlow::Return(v)),
                        PFlow::Next | PFlow::Val(_) => {}
                    }
                    if let Some(s) = step {
                        self.eval(*s)?;
                    }
                }
                PFlow::Val(Value::Undef)
            }
            Foreach { var, source, body } => {
                let items = self.list_values(source)?;
                for item in items {
                    self.scalar_write(*var, item);
                    match self.exec_block(body)? {
                        PFlow::Last => break,
                        PFlow::Return(v) => return Ok(PFlow::Return(v)),
                        PFlow::Next | PFlow::Val(_) => {}
                    }
                }
                PFlow::Val(Value::Undef)
            }
            Last => PFlow::Last,
            Next => PFlow::Next,
            Return(value) => {
                let v = match value {
                    Some(v) => self.eval(*v)?,
                    None => Value::Undef,
                };
                PFlow::Return(v)
            }
            LocalArgs(slots) => {
                let argv = self.args.last().cloned().unwrap_or_default();
                for (i, &slot) in slots.iter().enumerate() {
                    let old = self.scalars[slot as usize];
                    if let Some(frame) = self.locals.last_mut() {
                        frame.push((slot, old));
                    }
                    let v = argv.get(i).copied().unwrap_or(Value::Undef);
                    self.scalar_write(slot, v);
                }
                PFlow::Val(Value::Int(argv.len() as i64))
            }
            Local(slots) => {
                for &slot in slots {
                    let old = self.scalars[slot as usize];
                    if let Some(frame) = self.locals.last_mut() {
                        frame.push((slot, old));
                    }
                    self.scalar_write(slot, Value::Undef);
                }
                PFlow::Val(Value::Undef)
            }
            Open(fh, name) => {
                let nv = self.eval(*name)?;
                let s = self.to_str(nv);
                let name_rs = self.m.peek_string(s);
                let fd = self.m.sys_open(name_rs.trim());
                if fd < 0 {
                    PFlow::Val(Value::Int(0))
                } else {
                    self.files.insert(fh.clone(), fd);
                    PFlow::Val(Value::Int(1))
                }
            }
            CloseFh(fh) => {
                if let Some(fd) = self.files.remove(fh) {
                    self.m.sys_close(fd);
                }
                PFlow::Val(Value::Int(1))
            }
            ReadLine(fh) => {
                let fd = *self.files.get(fh).ok_or_else(|| {
                    PerlError::runtime(format!("read from unopened filehandle {fh}"))
                })?;
                let io = self.rt.pp_io;
                let buf = self.m.malloc(4);
                let mut line = Vec::new();
                let mut eof = false;
                loop {
                    let n = self.m.routine(io, |m| m.sys_read(fd, buf, 1));
                    if n <= 0 {
                        eof = true;
                        break;
                    }
                    let c = self.m.lb(buf);
                    line.push(c);
                    if c == b'\n' {
                        break;
                    }
                }
                self.m.mfree(buf);
                if eof && line.is_empty() {
                    PFlow::Val(Value::Undef)
                } else {
                    let s = self.m.str_alloc(&line);
                    PFlow::Val(Value::Str(s))
                }
            }
            Die(args) => {
                let mut msg = String::new();
                for &a in args {
                    let v = self.eval(a)?;
                    let s = self.to_str(v);
                    msg.push_str(&self.m.peek_string(s));
                }
                return Err(PerlError::runtime(if msg.is_empty() {
                    "Died".to_string()
                } else {
                    msg
                }));
            }
        };
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Values
    // ------------------------------------------------------------------

    pub(crate) fn to_int(&mut self, v: Value) -> i64 {
        match v {
            Value::Undef => {
                self.m.alu();
                0
            }
            Value::Int(i) => i,
            Value::Str(s) => {
                // Numeric use of a string: charged parse (shimmer).
                self.m.str_to_int(s).unwrap_or_else(|| {
                    // Perl's prefix semantics: parse the leading digits.
                    let bytes = self.m.peek_str(s);
                    let mut out: i64 = 0;
                    let mut neg = false;
                    let mut it = bytes.iter().peekable();
                    if it.peek() == Some(&&b'-') {
                        neg = true;
                        it.next();
                    }
                    for &c in it {
                        if !c.is_ascii_digit() {
                            break;
                        }
                        out = out * 10 + i64::from(c - b'0');
                    }
                    if neg {
                        -out
                    } else {
                        out
                    }
                })
            }
        }
    }

    pub(crate) fn to_str(&mut self, v: Value) -> SimStr {
        match v {
            Value::Undef => self.m.str_alloc(b""),
            Value::Int(i) => self.m.str_from_int(i),
            Value::Str(s) => s,
        }
    }

    fn truthy(&mut self, v: Value) -> bool {
        match v {
            Value::Undef => {
                self.m.alu();
                false
            }
            Value::Int(i) => {
                self.m.alu();
                i != 0
            }
            Value::Str(s) => {
                let len = self.m.str_len(s);
                self.m.alu();
                if len == 0 {
                    return false;
                }
                if len == 1 {
                    let c = self.m.str_byte(s, 0);
                    return c != b'0';
                }
                true
            }
        }
    }

    fn apply_bin(&mut self, kind: BinKind, a: Value, b: Value) -> Result<Value, PerlError> {
        use BinKind::*;
        match kind {
            Concat => {
                let sa = self.to_str(a);
                let sb = self.to_str(b);
                let pp = self.rt.pp_string;
                self.m.enter(pp);
                let out = self.m.str_concat(sa, sb);
                self.m.leave();
                Ok(Value::Str(out))
            }
            StrEq | StrNe | StrLt | StrGt => {
                let sa = self.to_str(a);
                let sb = self.to_str(b);
                let pp = self.rt.pp_string;
                self.m.enter(pp);
                let ord = self.m.str_cmp(sa, sb);
                self.m.leave();
                let out = match kind {
                    StrEq => ord == std::cmp::Ordering::Equal,
                    StrNe => ord != std::cmp::Ordering::Equal,
                    StrLt => ord == std::cmp::Ordering::Less,
                    _ => ord == std::cmp::Ordering::Greater,
                };
                Ok(Value::Int(i64::from(out)))
            }
            And | Or => unreachable!("short-circuit handled by caller"),
            _ => {
                let ia = self.to_int(a);
                let ib = self.to_int(b);
                let pp = self.rt.pp_arith;
                let out = self.m.routine(pp, |m| {
                    // Operand SVs: flag loads + numeric-validity branches,
                    // then a fresh mortal SV for the result.
                    m.lw(sv_scratch(0));
                    m.branch_fwd(false);
                    m.lw(sv_scratch(1));
                    m.branch_fwd(false);
                    m.alu_n(6);
                    m.sw(sv_scratch(2), 0); // result SV flags
                    m.sw(sv_scratch(3), 0); // result SV value
                    m.alu_n(5); // mortal stack push
                    match kind {
                        Add => Ok(ia.wrapping_add(ib)),
                        Sub => Ok(ia.wrapping_sub(ib)),
                        Mul => {
                            m.mul();
                            Ok(ia.wrapping_mul(ib))
                        }
                        Div => {
                            m.mul();
                            if ib == 0 {
                                Err(PerlError::runtime("Illegal division by zero"))
                            } else {
                                Ok(ia.wrapping_div(ib))
                            }
                        }
                        Mod => {
                            m.mul();
                            if ib == 0 {
                                Err(PerlError::runtime("Illegal modulus zero"))
                            } else {
                                Ok(ia.rem_euclid(ib))
                            }
                        }
                        NumEq => Ok(i64::from(ia == ib)),
                        NumNe => Ok(i64::from(ia != ib)),
                        NumLt => Ok(i64::from(ia < ib)),
                        NumLe => Ok(i64::from(ia <= ib)),
                        NumGt => Ok(i64::from(ia > ib)),
                        NumGe => Ok(i64::from(ia >= ib)),
                        BitAnd => Ok(ia & ib),
                        BitOr => Ok(ia | ib),
                        BitXor => Ok(ia ^ ib),
                        Shl => {
                            m.shift();
                            Ok(ia.wrapping_shl(ib as u32 & 63))
                        }
                        Shr => {
                            m.shift();
                            Ok(ia.wrapping_shr(ib as u32 & 63))
                        }
                        _ => unreachable!(),
                    }
                })?;
                Ok(Value::Int(out))
            }
        }
    }

    // ------------------------------------------------------------------
    // Storage
    // ------------------------------------------------------------------

    fn scalar_read(&mut self, slot: SlotId) -> Value {
        // Compiled-away symbol lookup: two loads + a flag check.
        let addr = self.scalar_base + slot * 12;
        self.m.mem_model(|m| {
            m.lw(addr);
            m.lw(addr + 4);
            m.alu();
        });
        self.scalars[slot as usize]
    }

    fn scalar_write(&mut self, slot: SlotId, v: Value) {
        let addr = self.scalar_base + slot * 12;
        self.m.mem_model(|m| {
            m.sw(addr, 1);
            m.sw(addr + 4, 0);
            m.alu();
        });
        self.scalars[slot as usize] = v;
    }

    fn array_read(&mut self, arr: ArrId, idx: i64) -> Value {
        let region = self.array_regions[arr as usize];
        self.m.mem_model(|m| {
            m.alu_n(2); // bounds check + scale
            m.lw(region + ((idx.max(0) as u32) * 4) % ARRAY_REGION);
        });
        if idx < 0 {
            let a = &self.arrays[arr as usize];
            let n = a.len() as i64;
            return a
                .get((n + idx).max(0) as usize)
                .copied()
                .unwrap_or(Value::Undef);
        }
        self.arrays[arr as usize]
            .get(idx as usize)
            .copied()
            .unwrap_or(Value::Undef)
    }

    fn array_write(&mut self, arr: ArrId, idx: i64, v: Value) {
        let region = self.array_regions[arr as usize];
        self.m.mem_model(|m| {
            m.alu_n(2);
            m.sw(region + ((idx.max(0) as u32) * 4) % ARRAY_REGION, 0);
        });
        if idx < 0 {
            return;
        }
        let a = &mut self.arrays[arr as usize];
        if a.len() <= idx as usize {
            a.resize(idx as usize + 1, Value::Undef);
        }
        a[idx as usize] = v;
    }

    fn array_replace(&mut self, arr: ArrId, values: Vec<Value>) {
        let region = self.array_regions[arr as usize];
        for i in 0..values.len() as u32 {
            self.m.sw(region + (i * 4) % ARRAY_REGION, 0);
        }
        self.arrays[arr as usize] = values;
    }

    /// Resolve `key` in hash `h` to a value slot, through the lookup
    /// cache when the `InlineCache` tier is active: a hit still hashes
    /// the key (the memo is indexed by hash value) but charges only a
    /// memo-line load and tag compare instead of the HV magic checks,
    /// bucket-chain walk, and full key compare. Cached slots stay valid
    /// because existing entries are updated in place; the only
    /// invalidation hazard is a cached *absence* made stale by an
    /// insert, which `hash_write` handles by replacing the cache entry
    /// on every insert.
    fn hash_slot(&mut self, h: HashId, key: SimStr) -> Option<u32> {
        let table = self.hashes[h as usize];
        let pp = self.rt.pp_hash;
        if self.strategy == DispatchStrategy::InlineCache {
            let key_bytes = self.m.peek_str(key);
            if let Some(&slot) = self.hash_ic.get(&(h, key_bytes)) {
                self.m.mem_model(|m| {
                    m.str_hash(key); // the memo is indexed by key hash
                    m.routine(pp, |m| {
                        m.lw(table.0); // memo line
                        m.alu_n(3); // index + tag compare + slot extract
                    });
                });
                return slot;
            }
        }
        let found = self.m.mem_model(|m| {
            m.routine(pp, |m| {
                m.alu_n(6); // HV deref, magic checks
                m.hash_lookup(table, key)
            })
        });
        if self.strategy == DispatchStrategy::InlineCache {
            let key_bytes = self.m.peek_str(key);
            self.hash_ic.insert((h, key_bytes), found);
        }
        found
    }

    fn hash_read(&mut self, h: HashId, key: SimStr) -> Value {
        match self.hash_slot(h, key) {
            Some(idx) => self.hash_values[idx as usize],
            None => Value::Undef,
        }
    }

    fn hash_write(&mut self, h: HashId, key: SimStr, v: Value) {
        match self.hash_slot(h, key) {
            Some(idx) => {
                self.hash_values[idx as usize] = v;
                self.m.alu();
            }
            None => {
                let table = self.hashes[h as usize];
                let idx = self.hash_values.len() as u32;
                self.hash_values.push(v);
                let key_copy = self.m.str_copy(key);
                let pp = self.rt.pp_hash;
                self.m.mem_model(|m| {
                    m.routine(pp, |m| {
                        m.hash_insert(table, key_copy, idx);
                    })
                });
                if self.strategy == DispatchStrategy::InlineCache {
                    // The key now resolves to `idx`; a stale cached
                    // absence would be a semantic bug, so replace it.
                    let key_bytes = self.m.peek_str(key);
                    self.hash_ic.insert((h, key_bytes), Some(idx));
                }
            }
        }
    }

    fn load_target(&mut self, target: &Target) -> Result<Value, PerlError> {
        Ok(match target {
            Target::Scalar(slot) => self.scalar_read(*slot),
            Target::Elem(arr, idx) => {
                let iv = self.eval(*idx)?;
                let i = self.to_int(iv);
                self.array_read(*arr, i)
            }
            Target::HElem(h, key) => {
                let kv = self.eval(*key)?;
                let ks = self.to_str(kv);
                self.hash_read(*h, ks)
            }
        })
    }

    fn store(&mut self, target: &Target, v: Value) -> Result<(), PerlError> {
        match target {
            Target::Scalar(slot) => self.scalar_write(*slot, v),
            Target::Elem(arr, idx) => {
                let iv = self.eval(*idx)?;
                let i = self.to_int(iv);
                self.array_write(*arr, i, v);
            }
            Target::HElem(h, key) => {
                let kv = self.eval(*key)?;
                let ks = self.to_str(kv);
                self.hash_write(*h, ks, v);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Strings, matching, lists
    // ------------------------------------------------------------------

    fn interp(&mut self, parts: &[Part]) -> Result<SimStr, PerlError> {
        let pp = self.rt.pp_string;
        let mut b = {
            self.m.enter(pp);
            let b = self.m.builder_new(32);
            self.m.leave();
            b
        };
        for part in parts {
            match part {
                Part::Lit(s) => {
                    self.m.enter(pp);
                    self.m.builder_push_str(&mut b, *s);
                    self.m.leave();
                }
                Part::Expr(op) => {
                    let v = self.eval(*op)?;
                    let s = self.to_str(v);
                    self.m.enter(pp);
                    self.m.builder_push_str(&mut b, s);
                    self.m.leave();
                }
                Part::Group(k) => {
                    if let Some(s) = self.groups[*k as usize] {
                        self.m.enter(pp);
                        self.m.builder_push_str(&mut b, s);
                        self.m.leave();
                    }
                }
            }
        }
        self.m.enter(pp);
        let out = self.m.builder_finish(b);
        self.m.leave();
        Ok(out)
    }

    /// Run a match, setting `$1`..`$9` on success.
    fn do_match(&mut self, re: ReId, s: SimStr) -> Result<bool, PerlError> {
        let regex = self.prog.regexes[re as usize].clone();
        let pp = self.rt.pp_match;
        self.m.enter(pp);
        let result = regex.search(self.m, s, 0);
        self.m.leave();
        match result {
            Some(r) => {
                for g in self.groups.iter_mut() {
                    *g = None;
                }
                for (k, span) in r.groups.iter().enumerate() {
                    if let Some((a, b)) = span {
                        let sub = self.m.str_substr(s, *a as u32, (*b - *a) as u32);
                        self.groups[k + 1] = Some(sub);
                    }
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn do_subst(
        &mut self,
        target: &Target,
        re: ReId,
        repl: &[Part],
        global: bool,
    ) -> Result<i64, PerlError> {
        let old = self.load_target(target)?;
        let s = self.to_str(old);
        let regex = self.prog.regexes[re as usize].clone();
        let len = self.m.str_len(s) as usize;
        let pp = self.rt.pp_match;
        let mut b = self.m.builder_new(32);
        let mut pos = 0usize;
        let mut count = 0i64;
        loop {
            self.m.enter(pp);
            let found = regex.search(self.m, s, pos);
            self.m.leave();
            let Some(r) = found else {
                break;
            };
            // Copy the unmatched prefix.
            if r.start > pos {
                let pre = self.m.str_substr(s, pos as u32, (r.start - pos) as u32);
                self.m.builder_push_str(&mut b, pre);
            }
            // Save groups for $1..$9 in the replacement.
            for g in self.groups.iter_mut() {
                *g = None;
            }
            for (k, span) in r.groups.iter().enumerate() {
                if let Some((a, bb)) = span {
                    let sub = self.m.str_substr(s, *a as u32, (*bb - *a) as u32);
                    self.groups[k + 1] = Some(sub);
                }
            }
            // Apply the replacement template.
            for part in repl {
                match part {
                    Part::Lit(t) => self.m.builder_push_str(&mut b, *t),
                    Part::Expr(op) => {
                        let v = self.eval(*op)?;
                        let t = self.to_str(v);
                        self.m.builder_push_str(&mut b, t);
                    }
                    Part::Group(k) => {
                        if let Some(t) = self.groups[*k as usize] {
                            self.m.builder_push_str(&mut b, t);
                        }
                    }
                }
            }
            count += 1;
            pos = if r.end > r.start { r.end } else { r.end + 1 };
            if !global || pos > len {
                break;
            }
        }
        // Copy the tail.
        if pos < len {
            let tail = self.m.str_substr(s, pos as u32, (len - pos) as u32);
            self.m.builder_push_str(&mut b, tail);
        }
        let out = self.m.builder_finish(b);
        if count > 0 {
            self.store(target, Value::Str(out))?;
        }
        Ok(count)
    }

    fn do_split(&mut self, re: ReId, s: SimStr) -> Result<Vec<Value>, PerlError> {
        let regex = self.prog.regexes[re as usize].clone();
        let len = self.m.str_len(s) as usize;
        let pp = self.rt.pp_match;
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            self.m.enter(pp);
            let found = regex.search(self.m, s, pos);
            self.m.leave();
            let Some(r) = found else {
                break;
            };
            if r.end == r.start && r.start >= len {
                break;
            }
            let field = self.m.str_substr(s, pos as u32, (r.start.max(pos) - pos) as u32);
            out.push(Value::Str(field));
            pos = if r.end > r.start { r.end } else { r.end + 1 };
            if pos > len {
                break;
            }
        }
        if pos <= len {
            let tail = self.m.str_substr(s, pos as u32, (len - pos) as u32);
            out.push(Value::Str(tail));
        }
        // Perl drops trailing empty fields.
        while let Some(Value::Str(last)) = out.last() {
            if self.m.str_len(*last) == 0 {
                out.pop();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn list_values(&mut self, source: &ListSource) -> Result<Vec<Value>, PerlError> {
        Ok(match source {
            ListSource::Array(arr) => {
                self.m.alu_n(2);
                self.arrays[*arr as usize].clone()
            }
            ListSource::Keys(h) => {
                let table = self.hashes[*h as usize];
                let entries = self.m.hash_entries_uncharged(table);
                // Charge the table walk: one load + compare per entry.
                let pp = self.rt.pp_hash;
                let n = entries.len() as u32;
                self.m.routine(pp, |m| {
                    let head = m.here();
                    for i in 0..n {
                        m.lw(table.0 + (i * 4) % 1024);
                        m.alu();
                        m.loop_back(head, i + 1 < n);
                    }
                });
                entries
                    .into_iter()
                    .map(|(k, _)| Value::Str(self.m.str_alloc(&k)))
                    .collect()
            }
            ListSource::Range(a, b) => {
                let av = self.eval(*a)?;
                let from = self.to_int(av);
                let bv = self.eval(*b)?;
                let to = self.to_int(bv);
                (from..=to).map(Value::Int).collect()
            }
            ListSource::Split(re, value) => {
                let v = self.eval(*value)?;
                let s = self.to_str(v);
                self.do_split(*re, s)?
            }
            ListSource::Exprs(items) => {
                let mut out = Vec::with_capacity(items.len());
                for &item in items {
                    out.push(self.eval(item)?);
                }
                out
            }
        })
    }

    fn builtin(&mut self, kind: BuiltinKind, args: &[OpId]) -> Result<Value, PerlError> {
        use BuiltinKind::*;
        let pp = self.rt.pp_string;
        Ok(match kind {
            Length => {
                let v = self.eval(args[0])?;
                let s = self.to_str(v);
                let n = self.m.routine(pp, |m| m.lw(s.0));
                Value::Int(i64::from(n))
            }
            Substr => {
                let v = self.eval(args[0])?;
                let s = self.to_str(v);
                let ov = self.eval(args[1])?;
                let off = self.to_int(ov);
                let slen = self.m.str_len(s) as i64;
                let off = if off < 0 { (slen + off).max(0) } else { off };
                let n = if args.len() > 2 {
                    let nv = self.eval(args[2])?;
                    self.to_int(nv)
                } else {
                    slen - off
                };
                let out = self.m.str_substr(s, off as u32, n.max(0) as u32);
                Value::Str(out)
            }
            Index => {
                let hv = self.eval(args[0])?;
                let hay = self.to_str(hv);
                let nv = self.eval(args[1])?;
                let needle = self.to_str(nv);
                let from = if args.len() > 2 {
                    let fv = self.eval(args[2])?;
                    self.to_int(fv).max(0) as u32
                } else {
                    0
                };
                let needle_bytes = self.m.peek_str(needle);
                let hay_len = self.m.str_len(hay);
                self.m.enter(pp);
                let mut found: i64 = -1;
                if !needle_bytes.is_empty() {
                    'outer: for start in
                        from..hay_len.saturating_sub(needle_bytes.len() as u32 - 1)
                    {
                        for (k, &nc) in needle_bytes.iter().enumerate() {
                            let c = self.m.str_byte(hay, start + k as u32);
                            if c != nc {
                                continue 'outer;
                            }
                        }
                        found = i64::from(start);
                        break;
                    }
                }
                self.m.leave();
                Value::Int(found)
            }
            Sprintf => {
                let fv = self.eval(args[0])?;
                let fmt_s = self.to_str(fv);
                let fmt = self.m.peek_str(fmt_s);
                let mut values = Vec::new();
                for &a in &args[1..] {
                    values.push(self.eval(a)?);
                }
                let out = self.sprintf(&fmt, &values)?;
                Value::Str(out)
            }
            Chop => {
                // chop($x): remove the last character of an lvalue.
                let target = self.op_as_target(args[0])?;
                let v = self.load_target(&target)?;
                let s = self.to_str(v);
                let len = self.m.str_len(s);
                if len == 0 {
                    Value::Str(self.m.str_alloc(b""))
                } else {
                    let last = self.m.str_byte(s, len - 1);
                    let rest = self.m.str_substr(s, 0, len - 1);
                    self.store(&target, Value::Str(rest))?;
                    Value::Str(self.m.str_alloc(&[last]))
                }
            }
            Uc | Lc => {
                let v = self.eval(args[0])?;
                let s = self.to_str(v);
                let bytes = self.m.peek_str(s);
                self.m.enter(pp);
                let mut b = self.m.builder_new(bytes.len() as u32 + 1);
                for (i, &c) in bytes.iter().enumerate() {
                    self.m.lb(s.data() + i as u32);
                    self.m.alu();
                    let mapped = if kind == Uc {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    };
                    self.m.builder_push(&mut b, mapped);
                }
                let out = self.m.builder_finish(b);
                self.m.leave();
                Value::Str(out)
            }
            Ord => {
                let v = self.eval(args[0])?;
                let s = self.to_str(v);
                let len = self.m.str_len(s);
                Value::Int(if len > 0 {
                    i64::from(self.m.str_byte(s, 0))
                } else {
                    0
                })
            }
            Chr => {
                let v = self.eval(args[0])?;
                let c = self.to_int(v);
                Value::Str(self.m.str_alloc(&[c as u8]))
            }
            Defined => {
                let v = self.eval(args[0])?;
                self.m.alu();
                Value::Int(i64::from(v != Value::Undef))
            }
            Int => {
                let v = self.eval(args[0])?;
                Value::Int(self.to_int(v))
            }
        })
    }

    fn op_as_target(&self, id: OpId) -> Result<Target, PerlError> {
        match &self.prog.ops[id as usize].0 {
            Op::GetScalar(slot) => Ok(Target::Scalar(*slot)),
            Op::GetElem(arr, idx) => Ok(Target::Elem(*arr, *idx)),
            Op::GetHElem(h, key) => Ok(Target::HElem(*h, *key)),
            _ => Err(PerlError::runtime("argument is not an lvalue")),
        }
    }

    fn sprintf(&mut self, fmt: &[u8], values: &[Value]) -> Result<SimStr, PerlError> {
        let pp = self.rt.pp_string;
        self.m.enter(pp);
        let mut b = self.m.builder_new(32);
        let mut vi = 0usize;
        let mut i = 0usize;
        while i < fmt.len() {
            self.m.alu();
            if fmt[i] == b'%' && i + 1 < fmt.len() {
                let mut j = i + 1;
                let mut zero = false;
                let mut width = 0usize;
                if fmt[j] == b'0' {
                    zero = true;
                    j += 1;
                }
                while j < fmt.len() && fmt[j].is_ascii_digit() {
                    width = width * 10 + (fmt[j] - b'0') as usize;
                    j += 1;
                }
                let spec = fmt.get(j).copied().unwrap_or(b'%');
                match spec {
                    b'%' => self.m.builder_push(&mut b, b'%'),
                    b'd' | b'x' | b'c' | b's' => {
                        let Some(&v) = values.get(vi) else {
                            self.m.leave();
                            return Err(PerlError::runtime("sprintf: missing argument"));
                        };
                        vi += 1;
                        match spec {
                            b'd' | b'x' => {
                                let n = self.to_int(v);
                                let text = if spec == b'd' {
                                    n.to_string()
                                } else {
                                    format!("{n:x}")
                                };
                                for _ in 0..width.saturating_sub(text.len()) {
                                    self.m.builder_push(&mut b, if zero { b'0' } else { b' ' });
                                }
                                self.m.builder_push_bytes(&mut b, text.as_bytes());
                            }
                            b'c' => {
                                let n = self.to_int(v) as u8;
                                self.m.builder_push(&mut b, n);
                            }
                            _ => {
                                let s = self.to_str(v);
                                let text_len = self.m.str_len(s) as usize;
                                for _ in 0..width.saturating_sub(text_len) {
                                    self.m.builder_push(&mut b, b' ');
                                }
                                self.m.builder_push_str(&mut b, s);
                            }
                        }
                    }
                    other => {
                        self.m.leave();
                        return Err(PerlError::runtime(format!(
                            "sprintf: bad specifier %{}",
                            other as char
                        )));
                    }
                }
                i = j + 1;
            } else {
                self.m.builder_push(&mut b, fmt[i]);
                i += 1;
            }
        }
        let out = self.m.builder_finish(b);
        self.m.leave();
        Ok(out)
    }
}

impl<S: TraceSink> Dispatch for Perlite<'_, S> {
    fn supported(&self) -> &'static [DispatchStrategy] {
        DispatchStrategy::supported_by(Language::Perlite)
    }

    fn strategy(&self) -> DispatchStrategy {
        self.strategy
    }

    fn set_strategy(&mut self, strategy: DispatchStrategy) {
        self.strategy = strategy.effective_for(Language::Perlite);
        self.hash_ic.clear();
    }
}

/// Scratch SV header addresses used to model mortal-SV traffic (a fixed
/// hot region, like Perl's temporaries arena).
#[inline]
fn sv_scratch(i: u32) -> u32 {
    0x1f00_0000 + i * 4
}
