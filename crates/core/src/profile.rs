//! Derived per-command profiles: the data series behind Figures 1 and 2.

use crate::command::{CmdId, CommandSet};
use crate::stats::RunStats;

/// One point of Figure 1's cumulative distribution: the top `rank` commands
/// account for `cumulative_fraction` of execute-side native instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CumulativePoint {
    /// Number of top commands included (1-based).
    pub rank: usize,
    /// Cumulative fraction of execute-side instructions in `[0, 1]`.
    pub cumulative_fraction: f64,
}

/// One row of Figure 2's paired histogram for a single virtual command.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramRow {
    /// Command name.
    pub name: String,
    /// Fraction of all virtual commands dispatched (white bars).
    pub command_fraction: f64,
    /// Fraction of execute-side native instructions (grey bars).
    pub execute_fraction: f64,
}

/// A per-command profile of one run, sorted by execute-side instructions.
#[derive(Debug, Clone, Default)]
pub struct CommandProfile {
    rows: Vec<(CmdId, String, u64, u64)>, // (id, name, executions, execute-side instrs)
    total_commands: u64,
    total_execute: u64,
}

impl CommandProfile {
    /// Build a profile from a finished run.
    pub fn from_stats(stats: &RunStats, commands: &CommandSet) -> Self {
        let mut rows: Vec<_> = stats
            .commands_iter()
            .map(|(id, s)| (id, commands.name(id).to_string(), s.executions, s.execute_side()))
            .collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.1.cmp(&b.1)));
        let total_execute = rows.iter().map(|r| r.3).sum();
        CommandProfile {
            rows,
            total_commands: stats.commands,
            total_execute,
        }
    }

    /// Number of distinct commands observed.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the run dispatched no commands.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Figure 1: cumulative execute-instruction distribution over the top-N
    /// commands, in rank order.
    pub fn cumulative(&self) -> Vec<CumulativePoint> {
        let mut acc = 0u64;
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                acc += row.3;
                CumulativePoint {
                    rank: i + 1,
                    cumulative_fraction: fraction(acc, self.total_execute),
                }
            })
            .collect()
    }

    /// Figure 1 headline query: how many top commands cover `target`
    /// (e.g. `0.96`) of execute-side instructions?
    pub fn commands_to_cover(&self, target: f64) -> usize {
        let mut acc = 0u64;
        for (i, row) in self.rows.iter().enumerate() {
            acc += row.3;
            if fraction(acc, self.total_execute) >= target {
                return i + 1;
            }
        }
        self.rows.len()
    }

    /// Figure 2: paired histogram rows for the top `limit` commands by
    /// execute-side instructions (the paper omits infrequent commands).
    pub fn histogram(&self, limit: usize) -> Vec<HistogramRow> {
        self.rows
            .iter()
            .take(limit)
            .map(|(_, name, execs, ex)| HistogramRow {
                name: name.clone(),
                command_fraction: fraction(*execs, self.total_commands),
                execute_fraction: fraction(*ex, self.total_execute),
            })
            .collect()
    }

    /// The dominant command's name and execute-side fraction, if any
    /// commands ran.
    pub fn dominant(&self) -> Option<(&str, f64)> {
        self.rows
            .first()
            .map(|(_, name, _, ex)| (name.as_str(), fraction(*ex, self.total_execute)))
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn build() -> (RunStats, CommandSet) {
        let mut set = CommandSet::new("t");
        let a = set.intern("match");
        let b = set.intern("assign");
        let c = set.intern("print");
        let mut stats = RunStats::new();
        // match: 1 dispatch, 80 execute instructions
        stats.begin_command(a);
        stats.charge_n(Phase::Execute, Some(a), 80);
        // assign: 8 dispatches, 15 execute instructions
        for _ in 0..8 {
            stats.begin_command(b);
        }
        stats.charge_n(Phase::Execute, Some(b), 15);
        // print: 1 dispatch, 5 native instructions
        stats.begin_command(c);
        stats.charge_n(Phase::Native, Some(c), 5);
        (stats, set)
    }

    #[test]
    fn sorted_by_execute_side() {
        let (stats, set) = build();
        let profile = CommandProfile::from_stats(&stats, &set);
        assert_eq!(profile.len(), 3);
        assert_eq!(profile.dominant().unwrap().0, "match");
        assert!((profile.dominant().unwrap().1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cumulative_reaches_one() {
        let (stats, set) = build();
        let profile = CommandProfile::from_stats(&stats, &set);
        let points = profile.cumulative();
        assert_eq!(points.len(), 3);
        assert!(points[0].cumulative_fraction <= points[1].cumulative_fraction);
        assert!((points[2].cumulative_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn commands_to_cover_thresholds() {
        let (stats, set) = build();
        let profile = CommandProfile::from_stats(&stats, &set);
        assert_eq!(profile.commands_to_cover(0.5), 1);
        assert_eq!(profile.commands_to_cover(0.9), 2);
        assert_eq!(profile.commands_to_cover(1.0), 3);
    }

    #[test]
    fn histogram_fractions() {
        let (stats, set) = build();
        let profile = CommandProfile::from_stats(&stats, &set);
        let rows = profile.histogram(2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "match");
        // match is 1 of 10 dispatches but 80% of execute-side instructions:
        // the txt2html phenomenon from the paper.
        assert!((rows[0].command_fraction - 0.1).abs() < 1e-9);
        assert!((rows[0].execute_fraction - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_profile() {
        let stats = RunStats::new();
        let set = CommandSet::new("t");
        let profile = CommandProfile::from_stats(&stats, &set);
        assert!(profile.is_empty());
        assert_eq!(profile.dominant(), None);
        assert_eq!(profile.commands_to_cover(0.5), 0);
    }
}
