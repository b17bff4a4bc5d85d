//! The core interpreter: direct string evaluation with substitution.
//!
//! Tclite, like Tcl 7, has no intermediate representation: every command
//! evaluation re-scans ASCII source held in simulated memory, performs
//! `$variable`, `[command]` and backslash substitution into freshly built
//! word strings, resolves the command name through a hash table, and only
//! then executes. Loops re-parse their body text on every iteration. This
//! is the mechanism behind the paper's Tcl numbers: fetch/decode costs an
//! order of magnitude above every other interpreter, and every variable
//! reference is a symbol-table lookup (§3.3).

use interp_core::{
    CommandSet, Dispatch, DispatchStrategy, Language, Phase, RunStats, TraceSink,
};
use interp_host::{Machine, RoutineId, SimHash, SimStr};
use std::collections::{HashMap, HashSet};

use crate::error::{Flow, TclError};

/// Text-segment routines (sized so one trip through the command loop
/// touches a 16–32 KB working set, the Figure 4 Tcl knee).
pub(crate) struct Routines {
    pub parse: RoutineId,
    pub subst: RoutineId,
    pub var: RoutineId,
    pub expr: RoutineId,
    pub string: RoutineId,
    pub list: RoutineId,
    pub control: RoutineId,
    pub io: RoutineId,
    pub proc_call: RoutineId,
    pub tk: RoutineId,
}

pub(crate) struct FrameState {
    pub vars: SimHash,
    pub global_links: HashSet<String>,
}

pub(crate) struct ProcDef {
    pub params: Vec<String>,
    pub body: SimStr,
}

/// The Tclite interpreter, borrowed onto a simulated host machine.
pub struct Tclite<'a, S: TraceSink> {
    pub(crate) m: &'a mut Machine<S>,
    pub(crate) rt: Routines,
    pub(crate) commands: CommandSet,
    pub(crate) cmd_table: SimHash,
    pub(crate) globals: SimHash,
    pub(crate) frames: Vec<FrameState>,
    pub(crate) procs: HashMap<String, ProcDef>,
    pub(crate) result: SimStr,
    pub(crate) files: HashMap<String, i32>,
    pub(crate) file_counter: u32,
    pub(crate) depth: u32,
    /// How name resolution dispatches (the `InlineCache` tier caches the
    /// symbol-table and command-table translations Tcl 7 redoes per use).
    pub(crate) strategy: DispatchStrategy,
    /// Inline cache of variable resolutions: per symbol table (by its
    /// simulated address — tables are never freed, so addresses are
    /// unique), variable name → value-string address. Maintained by
    /// `var_set`/`var_unset`, flushed on frame push/pop.
    pub(crate) var_ic: HashMap<u32, HashMap<String, u32>>,
    /// Command names already resolved through the command table (Tcl's
    /// cached-cmdPtr trick). Purely a charging cache: the naive lookup's
    /// result is discarded anyway. Flushed when a proc is (re)defined.
    pub(crate) cmd_ic: HashSet<String>,
}

/// Built-in command names (also used to pre-populate the charged command
/// hash table).
pub(crate) const BUILTINS: &[&str] = &[
    "set", "incr", "expr", "if", "while", "for", "foreach", "proc", "return", "break",
    "continue", "puts", "append", "string", "list", "lindex", "llength", "lappend", "split",
    "join", "format", "open", "gets", "read", "close", "unset", "global", "eval", "tk_clear",
    "tk_rect", "tk_line", "tk_oval", "tk_text", "tk_update", "tk_nextevent", "tk_widget",
];

impl<'a, S: TraceSink> Tclite<'a, S> {
    /// Create an interpreter on `machine`.
    pub fn new(machine: &'a mut Machine<S>) -> Self {
        machine.set_phase(Phase::Startup);
        let rt = Routines {
            parse: machine.routine_decl("tcl_parse", 6144),
            subst: machine.routine_decl("tcl_subst", 4096),
            var: machine.routine_decl("tcl_var", 3072),
            expr: machine.routine_decl("tcl_expr", 6144),
            string: machine.routine_decl("tcl_string", 3072),
            list: machine.routine_decl("tcl_list", 3072),
            control: machine.routine_decl("tcl_control", 2048),
            io: machine.routine_decl("tcl_io", 2048),
            proc_call: machine.routine_decl("tcl_proc", 2048),
            tk: machine.routine_decl("tcl_tk", 8192),
        };
        let globals = machine.hash_new(64);
        let cmd_table = machine.hash_new(64);
        // Register the builtin command names in the charged lookup table.
        for (i, name) in BUILTINS.iter().enumerate() {
            let key = machine.str_alloc(name.as_bytes());
            machine.hash_insert(cmd_table, key, i as u32 + 1);
        }
        let result = machine.str_alloc(b"");
        Tclite {
            m: machine,
            rt,
            commands: CommandSet::new("tclite"),
            cmd_table,
            globals,
            frames: Vec::new(),
            procs: HashMap::new(),
            result,
            files: HashMap::new(),
            file_counter: 0,
            depth: 0,
            strategy: DispatchStrategy::Naive,
            var_ic: HashMap::new(),
            cmd_ic: HashSet::new(),
        }
    }

    /// The interpreter's virtual-command set (Tcl command names).
    pub fn commands(&self) -> &CommandSet {
        &self.commands
    }

    /// The last command's result as a Rust string (uncharged peek).
    pub fn result_string(&self) -> String {
        self.m.peek_string(self.result)
    }

    /// Statistics gathered so far.
    pub fn stats(&mut self) -> &RunStats {
        self.m.stats()
    }

    /// Allocate a script string in simulated memory (startup work).
    pub fn load_script(&mut self, source: &str) -> SimStr {
        self.m.phase(Phase::Startup, |m| m.str_alloc(source.as_bytes()))
    }

    /// Evaluate a whole script; convenience over [`Self::eval`].
    ///
    /// # Errors
    ///
    /// Returns [`TclError`] on any script error.
    pub fn run(&mut self, source: &str) -> Result<String, TclError> {
        let script = self.load_script(source);
        self.m.set_phase(Phase::FetchDecode);
        let flow = self.eval(script)?;
        let _ = flow;
        self.m.end_command();
        Ok(self.result_string())
    }

    // ------------------------------------------------------------------
    // Scanning (charged)
    // ------------------------------------------------------------------

    /// Charge one source-character scan. Tcl 7 examines each character
    /// more than once per evaluation (a boundary-finding pass, then the
    /// substitution pass), so a scan costs two byte loads plus
    /// classification work.
    #[inline]
    pub(crate) fn charge_scan(&mut self, script: SimStr, i: u32) {
        self.m.lb(script.data() + i);
        self.m.alu();
        self.m.lb(script.data() + i);
        self.m.alu_n(2);
    }

    // ------------------------------------------------------------------
    // Script evaluation
    // ------------------------------------------------------------------

    /// Evaluate `script`: parse and dispatch commands one at a time.
    pub fn eval(&mut self, script: SimStr) -> Result<Flow, TclError> {
        self.depth += 1;
        let cap = self.m.limits().max_call_depth.min(200);
        if self.depth > cap {
            self.depth -= 1;
            if cap < 200 {
                return Err(TclError::from(interp_guard::GuardError::CallDepth {
                    depth: self.depth + 1,
                    cap,
                }));
            }
            return Err(TclError::new("recursion limit exceeded"));
        }
        let out = self.eval_inner(script);
        self.depth -= 1;
        out
    }

    fn eval_inner(&mut self, script: SimStr) -> Result<Flow, TclError> {
        let bytes = self.m.peek_str(script);
        let len = bytes.len() as u32;
        let mut pos: u32 = 0;
        loop {
            // fetch/decode of the next command starts here.
            self.m.end_command();
            self.m.set_phase(Phase::FetchDecode);
            let parse = self.rt.parse;
            self.m.enter(parse);
            // Skip separators and comments.
            loop {
                while pos < len
                    && matches!(bytes[pos as usize], b' ' | b'\t' | b'\n' | b'\r' | b';')
                {
                    self.charge_scan(script, pos);
                    pos += 1;
                }
                if pos < len && bytes[pos as usize] == b'#' {
                    while pos < len && bytes[pos as usize] != b'\n' {
                        self.charge_scan(script, pos);
                        pos += 1;
                    }
                } else {
                    break;
                }
            }
            if pos >= len {
                self.m.leave();
                return Ok(Flow::Normal);
            }
            // Parse the words of one command.
            let mut words: Vec<(SimStr, String)> = Vec::new();
            while pos < len && !matches!(bytes[pos as usize], b'\n' | b';') {
                if matches!(bytes[pos as usize], b' ' | b'\t') {
                    self.charge_scan(script, pos);
                    pos += 1;
                    continue;
                }
                let (word, next) = self.parse_word(script, &bytes, pos)?;
                let word_rs = self.m.peek_string(word);
                words.push((word, word_rs));
                pos = next;
            }
            self.m.leave();
            if words.is_empty() {
                continue;
            }
            let flow = self.dispatch(&words)?;
            if flow != Flow::Normal {
                return Ok(flow);
            }
        }
    }

    /// Parse one word starting at `pos` (on a non-space character).
    /// Returns the substituted word and the next scan position.
    pub(crate) fn parse_word(
        &mut self,
        script: SimStr,
        bytes: &[u8],
        pos: u32,
    ) -> Result<(SimStr, u32), TclError> {
        let len = bytes.len() as u32;
        match bytes[pos as usize] {
            b'{' => {
                // Braced word: verbatim, no substitution.
                self.charge_scan(script, pos);
                let mut depth = 1;
                let mut i = pos + 1;
                while i < len {
                    self.charge_scan(script, i);
                    match bytes[i as usize] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                if depth != 0 {
                    return Err(TclError::new("missing close-brace"));
                }
                let word = self.m.str_substr(script, pos + 1, i - (pos + 1));
                Ok((word, i + 1))
            }
            b'"' => {
                self.charge_scan(script, pos);
                let subst = self.rt.subst;
                self.m.enter(subst);
                let mut b = self.m.builder_new(32);
                let mut i = pos + 1;
                while i < len && bytes[i as usize] != b'"' {
                    i = self.subst_one(script, bytes, i, &mut b)?;
                }
                if i >= len {
                    self.m.leave();
                    return Err(TclError::new("missing close-quote"));
                }
                self.charge_scan(script, i);
                let word = self.m.builder_finish(b);
                self.m.leave();
                Ok((word, i + 1))
            }
            _ => {
                // Bare word with substitution.
                let subst = self.rt.subst;
                self.m.enter(subst);
                let mut b = self.m.builder_new(16);
                let mut i = pos;
                while i < len
                    && !matches!(bytes[i as usize], b' ' | b'\t' | b'\n' | b'\r' | b';')
                {
                    i = self.subst_one(script, bytes, i, &mut b)?;
                }
                let word = self.m.builder_finish(b);
                self.m.leave();
                Ok((word, i))
            }
        }
    }

    /// Substitute one element at `i` into builder `b`; returns the next
    /// position. Handles `$var`, `$var(index)`, `[script]`, and `\x`.
    fn subst_one(
        &mut self,
        script: SimStr,
        bytes: &[u8],
        i: u32,
        b: &mut interp_host::StrBuilder,
    ) -> Result<u32, TclError> {
        let len = bytes.len() as u32;
        self.charge_scan(script, i);
        match bytes[i as usize] {
            b'$' => {
                let (name, name_rs, next) = self.parse_varname(script, bytes, i + 1)?;
                let value = self.var_get(name, &name_rs)?;
                self.m.builder_push_str(b, value);
                Ok(next)
            }
            b'[' => {
                // Find the matching bracket.
                let mut depth = 1;
                let mut j = i + 1;
                while j < len {
                    self.charge_scan(script, j);
                    match bytes[j as usize] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if depth != 0 {
                    return Err(TclError::new("missing close-bracket"));
                }
                let inner = self.m.str_substr(script, i + 1, j - (i + 1));
                // Nested evaluation; restore the fetch/decode phase after.
                self.eval(inner)?;
                self.m.end_command();
                self.m.set_phase(Phase::FetchDecode);
                let result = self.result;
                self.m.builder_push_str(b, result);
                Ok(j + 1)
            }
            b'\\' if i + 1 < len => {
                self.charge_scan(script, i + 1);
                let c = match bytes[(i + 1) as usize] {
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'r' => b'\r',
                    b'\n' => b' ',
                    other => other,
                };
                self.m.builder_push(b, c);
                Ok(i + 2)
            }
            c => {
                self.m.builder_push(b, c);
                Ok(i + 1)
            }
        }
    }

    /// Parse a variable name after `$` (with optional `(index)`, whose
    /// contents are themselves substituted). Returns the full name as a
    /// simulated string, its Rust copy, and the next position.
    pub(crate) fn parse_varname(
        &mut self,
        script: SimStr,
        bytes: &[u8],
        start: u32,
    ) -> Result<(SimStr, String, u32), TclError> {
        let len = bytes.len() as u32;
        let mut nb = self.m.builder_new(16);
        let mut i = start;
        if i < len && bytes[i as usize] == b'{' {
            // ${name}
            i += 1;
            while i < len && bytes[i as usize] != b'}' {
                self.charge_scan(script, i);
                let c = bytes[i as usize];
                self.m.builder_push(&mut nb, c);
                i += 1;
            }
            if i >= len {
                return Err(TclError::new("missing close-brace for variable"));
            }
            i += 1;
        } else {
            while i < len
                && (bytes[i as usize].is_ascii_alphanumeric() || bytes[i as usize] == b'_')
            {
                self.charge_scan(script, i);
                let c = bytes[i as usize];
                self.m.builder_push(&mut nb, c);
                i += 1;
            }
            if i < len && bytes[i as usize] == b'(' {
                self.charge_scan(script, i);
                self.m.builder_push(&mut nb, b'(');
                i += 1;
                while i < len && bytes[i as usize] != b')' {
                    i = self.subst_one(script, bytes, i, &mut nb)?;
                }
                if i >= len {
                    return Err(TclError::new("missing close-paren in array reference"));
                }
                self.charge_scan(script, i);
                self.m.builder_push(&mut nb, b')');
                i += 1;
            }
        }
        if nb.is_empty() {
            return Err(TclError::new("empty variable name after `$`"));
        }
        let name_rs = String::from_utf8_lossy(&self.m.builder_peek(&nb)).into_owned();
        let name = self.m.builder_finish(nb);
        Ok((name, name_rs, i))
    }

    // ------------------------------------------------------------------
    // Variables: every access is a symbol-table lookup (§3.3)
    // ------------------------------------------------------------------

    fn scope_table(&self, name_rs: &str) -> SimHash {
        // Array elements (`h(key)`) scope by the array name.
        let base = name_rs.split('(').next().unwrap_or(name_rs);
        match self.frames.last() {
            Some(frame) if !frame.global_links.contains(base) => frame.vars,
            _ => self.globals,
        }
    }

    /// Read a variable (charged, memory-model-tagged).
    pub(crate) fn var_get(&mut self, name: SimStr, name_rs: &str) -> Result<SimStr, TclError> {
        let table = self.scope_table(name_rs);
        let var_routine = self.rt.var;
        if self.strategy == DispatchStrategy::InlineCache {
            let hit = self
                .var_ic
                .get(&table.0)
                .and_then(|t| t.get(name_rs))
                .copied();
            if let Some(addr) = hit {
                // Inline-cache hit: the cached Var pointer replaces the
                // frame resolution, array re-scan and bucket-chain walk.
                self.m.mem_model(|m| {
                    m.routine(var_routine, |m| {
                        m.lw(table.0); // cache-tag load
                        m.alu_n(6); // tag compare + Var deref + flag test
                    })
                });
                return Ok(SimStr(addr));
            }
        }
        let value = self.m.mem_model(|m| {
            m.routine(var_routine, |m| {
                // Tcl 7's variable path: interp deref, frame resolution,
                // array-syntax re-scan, then the hash lookup, then Var
                // struct flag loads and read-trace checks on every access
                // (the paper's 206-514 instructions per reference).
                m.alu_n(18);
                m.lw(table.0); // varFramePtr / table header
                let v = m.hash_lookup(table, name);
                m.lw(table.0 + 4); // Var flags
                m.branch_fwd(false); // trace check
                m.lw(table.0 + 8); // trace list head
                m.alu_n(10);
                v
            })
        });
        match value {
            Some(addr) => {
                if self.strategy == DispatchStrategy::InlineCache {
                    self.var_ic
                        .entry(table.0)
                        .or_default()
                        .insert(name_rs.to_string(), addr);
                }
                Ok(SimStr(addr))
            }
            None => Err(TclError::new(format!(
                "can't read \"{name_rs}\": no such variable"
            ))),
        }
    }

    /// Write a variable (charged, memory-model-tagged). Takes ownership of
    /// `value`'s storage.
    pub(crate) fn var_set(&mut self, name: SimStr, name_rs: &str, value: SimStr) {
        let table = self.scope_table(name_rs);
        let var_routine = self.rt.var;
        self.m.mem_model(|m| {
            m.routine(var_routine, |m| {
                m.alu_n(18);
                m.lw(table.0);
                let existing = m.hash_lookup(table, name);
                m.lw(table.0 + 4);
                m.branch_fwd(false); // write-trace check
                m.alu_n(8);
                match existing {
                    Some(_) => {
                        m.hash_insert(table, name, value.0);
                    }
                    None => {
                        // New entry: the table keeps its own key copy.
                        let key = m.str_copy(name);
                        m.hash_insert(table, key, value.0);
                    }
                }
            })
        });
        if self.strategy == DispatchStrategy::InlineCache {
            // Writes keep the cache exact (never stale): the name now
            // resolves to `value`'s storage.
            self.var_ic
                .entry(table.0)
                .or_default()
                .insert(name_rs.to_string(), value.0);
        }
    }

    /// Remove a variable.
    pub(crate) fn var_unset(&mut self, name: SimStr, name_rs: &str) -> Result<(), TclError> {
        let table = self.scope_table(name_rs);
        let var_routine = self.rt.var;
        let removed = self.m.mem_model(|m| {
            m.routine(var_routine, |m| {
                m.alu_n(9);
                m.hash_remove(table, name)
            })
        });
        if let Some(t) = self.var_ic.get_mut(&table.0) {
            t.remove(name_rs);
        }
        removed.map(|_| ()).ok_or_else(|| {
            TclError::new(format!("can't unset \"{name_rs}\": no such variable"))
        })
    }

    /// Set the interpreter result.
    pub(crate) fn set_result(&mut self, value: SimStr) {
        self.result = value;
    }

    pub(crate) fn set_result_bytes(&mut self, bytes: &[u8]) {
        let s = self.m.str_alloc(bytes);
        self.result = s;
    }

    pub(crate) fn set_result_int(&mut self, v: i64) {
        let s = self.m.str_from_int(v);
        self.result = s;
    }

    /// Dispatch one parsed command: charged command-table lookup, virtual
    /// command attribution, then the builtin/proc body.
    fn dispatch(&mut self, words: &[(SimStr, String)]) -> Result<Flow, TclError> {
        // Poll the host guard once per command: resource-limit trips and
        // sticky heap faults surface here as typed errors.
        if let Err(g) = self.m.guard_check() {
            return Err(TclError::from(g));
        }
        let name = words[0].1.clone();
        // Charged command lookup plus the per-command frame Tcl 7 builds
        // before any command runs: the argv/argc array, the interp result
        // reset (freeing the previous result string), command-trace and
        // async-handler checks, and nesting-depth bookkeeping.
        let parse = self.rt.parse;
        let name_sim = words[0].0;
        let cmd_table = self.cmd_table;
        let old_result = self.result;
        let cmd_cached =
            self.strategy == DispatchStrategy::InlineCache && self.cmd_ic.contains(&name);
        self.m.routine(parse, |m| {
            if cmd_cached {
                // Cached-cmdPtr hit: revalidate the cached pointer
                // instead of rehashing the command name.
                m.alu_n(2);
            } else {
                m.alu_n(6);
                m.hash_lookup(cmd_table, name_sim);
            }
            // argv assembly: store each word pointer + NULL terminator.
            let argv = m.malloc(4 * (words.len() as u32 + 1));
            for (i, (w, _)) in words.iter().enumerate() {
                m.sw(argv + (i as u32) * 4, w.0);
            }
            m.sw(argv + (words.len() as u32) * 4, 0);
            // Tcl_ResetResult: free/clear the previous result.
            m.lw(old_result.0);
            m.alu_n(8);
            // Command traces, async checks, interp->numLevels.
            m.branch_fwd(false);
            m.branch_fwd(false);
            m.alu_n(22);
        });
        if self.strategy == DispatchStrategy::InlineCache && !cmd_cached {
            self.cmd_ic.insert(name.clone());
        }
        let cmd = self.commands.intern(&name);
        self.m.begin_command(cmd);
        self.m.set_phase(Phase::Execute);
        let out = self.run_command(&name, words);
        // Epilogue: result handling + frame teardown.
        self.m.alu_n(12);
        out
    }
}

impl<S: TraceSink> Dispatch for Tclite<'_, S> {
    fn supported(&self) -> &'static [DispatchStrategy] {
        DispatchStrategy::supported_by(Language::Tclite)
    }

    fn strategy(&self) -> DispatchStrategy {
        self.strategy
    }

    fn set_strategy(&mut self, strategy: DispatchStrategy) {
        self.strategy = strategy.effective_for(Language::Tclite);
        self.var_ic.clear();
        self.cmd_ic.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_core::NullSink;

    fn run(src: &str) -> (String, String) {
        let mut m = Machine::new(NullSink);
        let mut tcl = Tclite::new(&mut m);
        let result = tcl.run(src).expect("script ok");
        let console = String::from_utf8_lossy(m.console()).into_owned();
        (result, console)
    }

    #[test]
    fn set_and_substitute() {
        let (result, _) = run("set a 5\nset b $a");
        assert_eq!(result, "5");
    }

    #[test]
    fn braces_suppress_substitution() {
        let (result, _) = run("set a 5\nset b {$a}");
        assert_eq!(result, "$a");
    }

    #[test]
    fn quotes_substitute() {
        let (result, _) = run("set a 5\nset b \"a is $a!\"");
        assert_eq!(result, "a is 5!");
    }

    #[test]
    fn bracket_substitution() {
        let (result, _) = run("set a [expr 2 + 3]\nset b [expr $a * 10]");
        assert_eq!(result, "50");
    }

    #[test]
    fn comments_and_semicolons() {
        let (result, _) = run("# leading comment\nset a 1; set b 2; # trailing\nset c $b");
        assert_eq!(result, "2");
    }

    #[test]
    fn array_variables_use_full_name_keys() {
        let (result, _) = run("set i 2\nset a(x2) hello\nset b $a(x$i)");
        assert_eq!(result, "hello");
    }

    #[test]
    fn missing_variable_is_an_error() {
        let mut m = Machine::new(NullSink);
        let mut tcl = Tclite::new(&mut m);
        let err = tcl.run("set b $nope").unwrap_err();
        assert!(err.message.contains("no such variable"));
    }

    #[test]
    fn unbalanced_braces_error() {
        let mut m = Machine::new(NullSink);
        let mut tcl = Tclite::new(&mut m);
        assert!(tcl.run("set a {unclosed").is_err());
        assert!(tcl.run("set a \"unclosed").is_err());
        assert!(tcl.run("set a [unclosed").is_err());
    }

    #[test]
    fn backslash_escapes() {
        let (result, _) = run("set a \"x\\ty\\n\"");
        assert_eq!(result, "x\ty\n");
    }

    #[test]
    fn every_variable_access_is_memory_model_tagged() {
        let mut m = Machine::new(NullSink);
        let mut tcl = Tclite::new(&mut m);
        tcl.run("set a 1\nset b $a\nset c $b\nset d $c").unwrap();
        // 4 writes + 3 reads + 3 existence probes in set = >= 7 accesses.
        assert!(m.stats().mem_model_accesses >= 7);
        assert!(m.stats().avg_mem_model_cost() > 30.0);
    }

    #[test]
    fn fetch_decode_dominates_simple_commands() {
        // Table 2: Tcl fetch/decode is an order of magnitude above other
        // interpreters — hundreds-to-thousands of instructions.
        let mut m = Machine::new(NullSink);
        let mut tcl = Tclite::new(&mut m);
        tcl.run("set abc 1\nset abc 2\nset abc 3\nset abc 4").unwrap();
        let fd = m.stats().avg_fetch_decode();
        assert!(fd > 100.0, "Tcl F/D too cheap: {fd}");
    }
}
