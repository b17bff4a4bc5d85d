//! Host-speed normalisation. The shared host runs the same work up to
//! twice as slow for minutes at a time while its other tenants are busy,
//! and no statistic within a run can tell that from a slower program. So
//! each run also times a fixed reference loop, code of this benchmark
//! alone that no change to the repository can speed up or slow down,
//! and scales its host times to a host on which that loop's best time is
//! [`REFERENCE_MS`].

use std::time::Instant;

use crate::stats::{ratio, Metrics};

/// The reference loop's best time on the host the benchmark was first
/// measured on (2 vCPUs of an Intel Xeon at 2.0 GHz), in milliseconds.
pub const REFERENCE_MS: f64 = 1.8;

/// The best reference-loop time seen so far in a run.
pub struct HostSpeed {
    best_ms: f64,
}

impl HostSpeed {
    /// No samples yet.
    pub fn new() -> HostSpeed {
        HostSpeed {
            best_ms: f64::INFINITY,
        }
    }

    /// Time the reference loop `reps` times.
    pub fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            self.best_ms = self.best_ms.min(reference_ms());
        }
    }

    /// The loop's best time in this run, in milliseconds.
    pub fn best_ms(&self) -> f64 {
        self.best_ms
    }

    /// Factor that scales a host time measured in this run to the
    /// reference host: below 1 when this run's host was slower.
    pub fn factor(&self) -> f64 {
        ratio(REFERENCE_MS, self.best_ms)
    }
}

/// Put the run's host times into `m`, scaled to the reference host: a
/// time is multiplied by [`HostSpeed::factor`], a rate (a name ending in
/// `_per_s`) divided by it. The measured values go to stderr.
pub fn put_host_times(m: &mut Metrics, raw: &[(&str, f64)], host: &HostSpeed) {
    let factor = host.factor();
    let measured: Vec<String> = raw.iter().map(|(name, v)| format!("{name} {v}")).collect();
    eprintln!(
        "perfbench: reference loop best {:.4} ms (scale {factor:.4}); measured {}",
        host.best_ms(),
        measured.join(", ")
    );
    for (name, value) in raw {
        let scaled = if name.ends_with("_per_s") {
            ratio(*value, factor)
        } else {
            value * factor
        };
        m.put(*name, scaled);
    }
}

/// One run of the reference loop, in milliseconds: a small register
/// machine interpreting a fixed pseudo-random program over 64 KiB.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let code: Vec<u8> = (0..4096).map(|_| (next() % 8) as u8).collect();
    let mut mem = vec![0u32; 16384];
    let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..60 {
        let mut pc = 0usize;
        while pc < code.len() {
            let a = pc & 7;
            let b = (pc >> 3) & 7;
            match code[pc] {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b].rotate_left(5),
                2 => r[a] = mem[(r[b] as usize) & 16383],
                3 => mem[(r[a] as usize) & 16383] = r[b],
                4 => {
                    if r[a] & 1 == 0 {
                        pc += 1;
                    }
                }
                5 => r[a] = r[a].wrapping_mul(2_654_435_761),
                6 => r[a] = r[b] >> 3,
                _ => r[a] = r[a].wrapping_sub(1),
            }
            pc += 1;
        }
    }
    std::hint::black_box((&mem, r));
    crate::stats::ms(started.elapsed())
}
