//! Aggregate run statistics: the counters behind Table 2, Figures 1–2, and
//! the §3.3 memory-model measurements.

use crate::command::{CmdId, CommandSet};
use crate::phase::Phase;

/// Per-virtual-command counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmdStats {
    /// Times this virtual command was dispatched.
    pub executions: u64,
    /// Native instructions charged to fetching/decoding this command.
    pub fetch_decode: u64,
    /// Native instructions charged to executing this command (interpreter
    /// code, excluding native libraries).
    pub execute: u64,
    /// Native instructions executed inside native runtime libraries on
    /// behalf of this command.
    pub native: u64,
}

impl CmdStats {
    /// Execute-side instructions (interpreter execute + native library),
    /// i.e. the grey bars of Figure 2.
    pub fn execute_side(&self) -> u64 {
        self.execute + self.native
    }

    /// All instructions charged to this command.
    pub fn total(&self) -> u64 {
        self.fetch_decode + self.execute + self.native
    }
}

/// Counters for one interpreted (or native) program run.
///
/// Produced by the simulated host machine; consumed by the harness to print
/// paper-style tables. All counts are *native instructions* unless stated
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Total native instructions retired.
    pub instructions: u64,
    /// Instructions per attribution phase (indexed by [`Phase::ALL`] order).
    phase: [u64; 4],
    /// Instructions executed while the memory-model tag was active (§3.3).
    pub mem_model_instructions: u64,
    /// Memory-model *accesses* (one per virtual-machine-level data access).
    pub mem_model_accesses: u64,
    /// Virtual commands dispatched.
    pub commands: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Virtual commands executed inside a compiled trace (tiered
    /// dispatch only; zero for every other strategy).
    pub trace_commands: u64,
    /// Trace guard failures that side-exited back to the interpreter.
    pub trace_side_exits: u64,
    /// Hot traces recorded and compiled.
    pub traces_recorded: u64,
    /// Traces aborted (recording gave up, or a guard anomaly blacklisted
    /// a compiled trace).
    pub trace_aborts: u64,
    /// Per-command counters, indexed by [`CmdId`].
    per_command: Vec<CmdStats>,
}

impl RunStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        RunStats::default()
    }

    #[inline]
    fn phase_slot(phase: Phase) -> usize {
        match phase {
            Phase::Startup => 0,
            Phase::FetchDecode => 1,
            Phase::Execute => 2,
            Phase::Native => 3,
        }
    }

    /// Charge `n` instructions retired in `phase`, attributed to `cmd` if a
    /// virtual command is active. The only charging path: the host machine
    /// calls it once per run of instructions under one attribution, not
    /// once per instruction.
    #[inline]
    pub fn charge_n(&mut self, phase: Phase, cmd: Option<CmdId>, n: u64) {
        self.instructions += n;
        self.phase[Self::phase_slot(phase)] += n;
        if let Some(cmd) = cmd {
            let idx = cmd.index();
            if idx >= self.per_command.len() {
                self.per_command.resize(idx + 1, CmdStats::default());
            }
            let slot = &mut self.per_command[idx];
            match phase {
                Phase::FetchDecode => slot.fetch_decode += n,
                Phase::Execute => slot.execute += n,
                Phase::Native => slot.native += n,
                Phase::Startup => {}
            }
        }
    }

    /// Record a load (call in addition to [`charge_n`](Self::charge_n)).
    #[inline]
    pub fn count_load(&mut self) {
        self.loads += 1;
    }

    /// Record a store.
    #[inline]
    pub fn count_store(&mut self) {
        self.stores += 1;
    }

    /// Record the dispatch of virtual command `cmd`.
    #[inline]
    pub fn begin_command(&mut self, cmd: CmdId) {
        self.commands += 1;
        let idx = cmd.index();
        if idx >= self.per_command.len() {
            self.per_command.resize(idx + 1, CmdStats::default());
        }
        self.per_command[idx].executions += 1;
    }

    /// Record one virtual-machine-level memory-model access (§3.3).
    #[inline]
    pub fn count_mem_model_access(&mut self) {
        self.mem_model_accesses += 1;
    }

    /// Tag `n` instructions, already charged, as memory-model work (§3.3).
    #[inline]
    pub fn count_mem_model_instructions(&mut self, n: u64) {
        self.mem_model_instructions += n;
    }

    /// Retroactively credit `n` fetch/decode instructions to `cmd`.
    ///
    /// The dispatch loop cannot know which command it is fetching until the
    /// fetch completes, so the machine accumulates those instructions and
    /// transfers them to the command the moment it is identified.
    #[inline]
    pub fn credit_fetch_decode(&mut self, cmd: CmdId, n: u64) {
        let idx = cmd.index();
        if idx >= self.per_command.len() {
            self.per_command.resize(idx + 1, CmdStats::default());
        }
        self.per_command[idx].fetch_decode += n;
    }

    /// Instructions charged to `phase`.
    pub fn phase_instructions(&self, phase: Phase) -> u64 {
        self.phase[Self::phase_slot(phase)]
    }

    /// Instructions excluding startup/precompilation (the basis of Table 2's
    /// per-command averages).
    pub fn steady_state_instructions(&self) -> u64 {
        self.instructions - self.phase_instructions(Phase::Startup)
    }

    /// Table 2: average fetch/decode instructions per virtual command.
    pub fn avg_fetch_decode(&self) -> f64 {
        ratio(self.phase_instructions(Phase::FetchDecode), self.commands)
    }

    /// Table 2: average execute-side instructions per virtual command
    /// (interpreter execute + native libraries).
    pub fn avg_execute(&self) -> f64 {
        ratio(
            self.phase_instructions(Phase::Execute) + self.phase_instructions(Phase::Native),
            self.commands,
        )
    }

    /// §3.3: average native instructions per memory-model access.
    pub fn avg_mem_model_cost(&self) -> f64 {
        ratio(self.mem_model_instructions, self.mem_model_accesses)
    }

    /// §3.3: fraction of all instructions spent in the memory model.
    pub fn mem_model_fraction(&self) -> f64 {
        ratio(self.mem_model_instructions, self.instructions)
    }

    /// Tiered dispatch: percentage of virtual commands executed from a
    /// compiled trace rather than the interpreter's dispatch loop.
    pub fn trace_coverage_pct(&self) -> f64 {
        100.0 * ratio(self.trace_commands, self.commands)
    }

    /// Tiered dispatch: guard side exits per 1000 traced commands.
    pub fn trace_side_exit_per_kcmd(&self) -> f64 {
        1000.0 * ratio(self.trace_side_exits, self.trace_commands)
    }

    /// Per-command statistics for `cmd` (zeros if never seen).
    pub fn command(&self, cmd: CmdId) -> CmdStats {
        self.per_command
            .get(cmd.index())
            .copied()
            .unwrap_or_default()
    }

    /// Iterate `(CmdId, CmdStats)` for all commands that were dispatched or
    /// charged at least once.
    pub fn commands_iter(&self) -> impl Iterator<Item = (CmdId, CmdStats)> + '_ {
        self.per_command
            .iter()
            .enumerate()
            .filter(|(_, s)| s.executions > 0 || s.total() > 0)
            .map(|(i, s)| (CmdId(i as u16), *s))
    }

    /// Merge another run's counters into this one (used when a benchmark is
    /// assembled from several evaluation calls).
    pub fn merge(&mut self, other: &RunStats) {
        self.instructions += other.instructions;
        for i in 0..4 {
            self.phase[i] += other.phase[i];
        }
        self.mem_model_instructions += other.mem_model_instructions;
        self.mem_model_accesses += other.mem_model_accesses;
        self.commands += other.commands;
        self.loads += other.loads;
        self.stores += other.stores;
        self.trace_commands += other.trace_commands;
        self.trace_side_exits += other.trace_side_exits;
        self.traces_recorded += other.traces_recorded;
        self.trace_aborts += other.trace_aborts;
        if self.per_command.len() < other.per_command.len() {
            self.per_command
                .resize(other.per_command.len(), CmdStats::default());
        }
        for (slot, o) in self.per_command.iter_mut().zip(other.per_command.iter()) {
            slot.executions += o.executions;
            slot.fetch_decode += o.fetch_decode;
            slot.execute += o.execute;
            slot.native += o.native;
        }
    }

    /// Append the stable binary encoding of these counters to `w`
    /// (journal payload format; see [`crate::serial`]).
    pub fn encode_into(&self, w: &mut crate::serial::ByteWriter) {
        w.put_u64(self.instructions);
        for slot in self.phase {
            w.put_u64(slot);
        }
        w.put_u64(self.mem_model_instructions);
        w.put_u64(self.mem_model_accesses);
        w.put_u64(self.commands);
        w.put_u64(self.loads);
        w.put_u64(self.stores);
        w.put_u64(self.trace_commands);
        w.put_u64(self.trace_side_exits);
        w.put_u64(self.traces_recorded);
        w.put_u64(self.trace_aborts);
        w.put_u32(self.per_command.len() as u32);
        for c in &self.per_command {
            w.put_u64(c.executions);
            w.put_u64(c.fetch_decode);
            w.put_u64(c.execute);
            w.put_u64(c.native);
        }
    }

    /// Decode counters encoded by [`RunStats::encode_into`].
    pub fn decode_from(
        r: &mut crate::serial::ByteReader<'_>,
    ) -> Result<RunStats, crate::serial::DecodeError> {
        let instructions = r.get_u64("stats.instructions")?;
        let mut phase = [0u64; 4];
        for slot in &mut phase {
            *slot = r.get_u64("stats.phase")?;
        }
        let mem_model_instructions = r.get_u64("stats.mem_model_instructions")?;
        let mem_model_accesses = r.get_u64("stats.mem_model_accesses")?;
        let commands = r.get_u64("stats.commands")?;
        let loads = r.get_u64("stats.loads")?;
        let stores = r.get_u64("stats.stores")?;
        let trace_commands = r.get_u64("stats.trace_commands")?;
        let trace_side_exits = r.get_u64("stats.trace_side_exits")?;
        let traces_recorded = r.get_u64("stats.traces_recorded")?;
        let trace_aborts = r.get_u64("stats.trace_aborts")?;
        let n = r.get_len(32, "stats.per_command.len")?;
        let mut per_command = Vec::with_capacity(n);
        for _ in 0..n {
            per_command.push(CmdStats {
                executions: r.get_u64("stats.cmd.executions")?,
                fetch_decode: r.get_u64("stats.cmd.fetch_decode")?,
                execute: r.get_u64("stats.cmd.execute")?,
                native: r.get_u64("stats.cmd.native")?,
            });
        }
        Ok(RunStats {
            instructions,
            phase,
            mem_model_instructions,
            mem_model_accesses,
            commands,
            loads,
            stores,
            trace_commands,
            trace_side_exits,
            traces_recorded,
            trace_aborts,
            per_command,
        })
    }

    /// Render a compact human-readable summary (used by examples).
    pub fn summary(&self, commands: &CommandSet) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "instructions: {} (startup {}, fetch/decode {}, execute {}, native {})",
            self.instructions,
            self.phase_instructions(Phase::Startup),
            self.phase_instructions(Phase::FetchDecode),
            self.phase_instructions(Phase::Execute),
            self.phase_instructions(Phase::Native),
        );
        let _ = writeln!(
            out,
            "virtual commands: {} (avg F/D {:.1}, avg execute {:.1})",
            self.commands,
            self.avg_fetch_decode(),
            self.avg_execute()
        );
        let mut rows: Vec<_> = self.commands_iter().collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.execute_side()));
        for (id, s) in rows.into_iter().take(8) {
            let _ = writeln!(
                out,
                "  {:<16} x{:<8} fd {:<8} ex {:<8} native {}",
                commands.name(id),
                s.executions,
                s.fetch_decode,
                s.execute,
                s.native
            );
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(i: u16) -> CmdId {
        CmdId(i)
    }

    #[test]
    fn charge_updates_phase_and_command() {
        let mut s = RunStats::new();
        s.begin_command(cmd(0));
        s.charge_n(Phase::FetchDecode, Some(cmd(0)), 1);
        s.charge_n(Phase::Execute, Some(cmd(0)), 1);
        s.count_mem_model_instructions(1);
        s.charge_n(Phase::Native, Some(cmd(0)), 1);
        assert_eq!(s.instructions, 3);
        assert_eq!(s.phase_instructions(Phase::FetchDecode), 1);
        assert_eq!(s.phase_instructions(Phase::Execute), 1);
        assert_eq!(s.phase_instructions(Phase::Native), 1);
        assert_eq!(s.mem_model_instructions, 1);
        let c = s.command(cmd(0));
        assert_eq!(c.executions, 1);
        assert_eq!(c.fetch_decode, 1);
        assert_eq!(c.execute, 1);
        assert_eq!(c.native, 1);
        assert_eq!(c.execute_side(), 2);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn a_bulk_charge_equals_that_many_single_charges() {
        let mut bulk = RunStats::new();
        let mut single = RunStats::new();
        bulk.begin_command(cmd(2));
        single.begin_command(cmd(2));
        for phase in Phase::ALL {
            for who in [None, Some(cmd(2)), Some(cmd(5))] {
                bulk.charge_n(phase, who, 9);
                for _ in 0..9 {
                    single.charge_n(phase, who, 1);
                }
            }
        }
        let mut a = crate::serial::ByteWriter::new();
        let mut b = crate::serial::ByteWriter::new();
        bulk.encode_into(&mut a);
        single.encode_into(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
        assert_eq!(bulk.instructions, 4 * 3 * 9);
        assert_eq!(bulk.command(cmd(5)).execute, 9);
    }

    #[test]
    fn startup_excluded_from_steady_state() {
        let mut s = RunStats::new();
        s.charge_n(Phase::Startup, None, 10);
        s.charge_n(Phase::Execute, None, 5);
        assert_eq!(s.instructions, 15);
        assert_eq!(s.steady_state_instructions(), 5);
    }

    #[test]
    fn averages() {
        let mut s = RunStats::new();
        for _ in 0..4 {
            s.begin_command(cmd(1));
            s.charge_n(Phase::FetchDecode, Some(cmd(1)), 3);
            s.charge_n(Phase::Execute, Some(cmd(1)), 7);
        }
        assert!((s.avg_fetch_decode() - 3.0).abs() < 1e-9);
        assert!((s.avg_execute() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn mem_model_ratios() {
        let mut s = RunStats::new();
        s.count_mem_model_access();
        s.count_mem_model_access();
        s.charge_n(Phase::Execute, None, 10);
        s.count_mem_model_instructions(10);
        s.charge_n(Phase::Execute, None, 10);
        assert!((s.avg_mem_model_cost() - 5.0).abs() < 1e-9);
        assert!((s.mem_model_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = RunStats::new();
        a.begin_command(cmd(0));
        a.charge_n(Phase::Execute, Some(cmd(0)), 1);
        let mut b = RunStats::new();
        b.begin_command(cmd(2));
        b.charge_n(Phase::FetchDecode, Some(cmd(2)), 1);
        b.count_mem_model_instructions(1);
        b.count_load();
        a.merge(&b);
        assert_eq!(a.instructions, 2);
        assert_eq!(a.commands, 2);
        assert_eq!(a.loads, 1);
        assert_eq!(a.command(cmd(2)).fetch_decode, 1);
        assert_eq!(a.mem_model_instructions, 1);
    }

    #[test]
    fn encoding_round_trips_every_counter() {
        let mut s = RunStats::new();
        s.begin_command(cmd(0));
        s.begin_command(cmd(3));
        s.charge_n(Phase::Startup, None, 1);
        s.charge_n(Phase::FetchDecode, Some(cmd(0)), 1);
        s.charge_n(Phase::Execute, Some(cmd(3)), 1);
        s.count_mem_model_instructions(1);
        s.charge_n(Phase::Native, Some(cmd(3)), 1);
        s.count_load();
        s.count_store();
        s.count_mem_model_access();
        s.credit_fetch_decode(cmd(0), 5);
        s.trace_commands = 7;
        s.trace_side_exits = 2;
        s.traces_recorded = 3;
        s.trace_aborts = 1;
        let mut w = crate::serial::ByteWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::serial::ByteReader::new(&bytes);
        let decoded = RunStats::decode_from(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        assert_eq!(decoded.instructions, s.instructions);
        for p in Phase::ALL {
            assert_eq!(decoded.phase_instructions(p), s.phase_instructions(p));
        }
        assert_eq!(decoded.commands, s.commands);
        assert_eq!(decoded.loads, s.loads);
        assert_eq!(decoded.stores, s.stores);
        assert_eq!(decoded.mem_model_accesses, s.mem_model_accesses);
        assert_eq!(decoded.trace_commands, s.trace_commands);
        assert_eq!(decoded.trace_side_exits, s.trace_side_exits);
        assert_eq!(decoded.traces_recorded, s.traces_recorded);
        assert_eq!(decoded.trace_aborts, s.trace_aborts);
        assert_eq!(decoded.command(cmd(0)), s.command(cmd(0)));
        assert_eq!(decoded.command(cmd(3)), s.command(cmd(3)));
    }

    #[test]
    fn trace_ratios() {
        let mut s = RunStats::new();
        s.commands = 200;
        s.trace_commands = 50;
        s.trace_side_exits = 5;
        assert!((s.trace_coverage_pct() - 25.0).abs() < 1e-9);
        assert!((s.trace_side_exit_per_kcmd() - 100.0).abs() < 1e-9);
        // Non-tiered runs divide by zero nowhere.
        let z = RunStats::new();
        assert_eq!(z.trace_coverage_pct(), 0.0);
        assert_eq!(z.trace_side_exit_per_kcmd(), 0.0);
    }

    #[test]
    fn truncated_stats_decode_is_an_error_not_a_panic() {
        let mut w = crate::serial::ByteWriter::new();
        RunStats::new().encode_into(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = crate::serial::ByteReader::new(&bytes[..cut]);
            assert!(RunStats::decode_from(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn ratio_guards_divide_by_zero() {
        let s = RunStats::new();
        assert_eq!(s.avg_fetch_decode(), 0.0);
        assert_eq!(s.avg_mem_model_cost(), 0.0);
        assert_eq!(s.mem_model_fraction(), 0.0);
    }
}
