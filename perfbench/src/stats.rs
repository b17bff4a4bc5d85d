//! Order statistics over timing samples, the process's peak memory, and
//! the metric list every run prints.

use std::collections::BTreeMap;
use std::time::Duration;

/// The `q`-quantile (0..=1) of `samples`, linearly interpolated between
/// the two nearest order statistics. Empty input reads as 0.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `part / whole` as a percentage; 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// `num / den`; 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric values by name. The names and units a run prints come from
/// the fixed lists in `main.rs`, so every workload prints the same set.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set one metric. Non-finite values (an empty ratio) read as 0, and
    /// `-0` as `0`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(
            name.into(),
            if value.is_finite() { value + 0.0 } else { 0.0 },
        );
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names set here that `known` does not list.
    pub fn unknown<'a>(&'a self, known: &[(&str, &str)]) -> Vec<&'a str> {
        self.0
            .keys()
            .map(String::as_str)
            .filter(|name| !known.iter().any(|(k, _)| k == name))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
