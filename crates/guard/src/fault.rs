//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function of its seed: applying the same
//! plan to the same guest input always produces the same corruption, so
//! every failure the sweep finds is replayable from its seed alone.

use crate::rng::Rng64;

/// Stream-splitting constant so a plan's corruption stream is
/// decorrelated from any other use of the same seed.
const FAULT_STREAM: u64 = 0xFA17_1D0C_0DE5_EED0;

/// What kind of corruption a plan injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No corruption — the baseline lane of a sweep.
    None,
    /// Flip `count` random bits in a binary guest image or bytecode.
    BitFlips { count: u32 },
    /// Cut a guest source off at a random byte position.
    Truncate,
    /// Splice `count` random ASCII bytes into a guest source.
    Garbage { count: u32 },
    /// Fail the `nth` simulated heap allocation (1-based).
    AllocFail { nth: u64 },
}

/// A deterministic corruption recipe for one guarded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub const fn none() -> Self {
        FaultPlan { seed: 0, kind: FaultKind::None }
    }

    /// Sweep lane for binary guests (MIPS images, Javelin bytecode):
    /// mostly bit-flips, with baseline and allocation-failure lanes.
    pub fn image_sweep(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ FAULT_STREAM);
        let kind = match seed % 8 {
            0 => FaultKind::None,
            7 => FaultKind::AllocFail { nth: 1 + rng.range(0, 64) },
            _ => FaultKind::BitFlips { count: 1 + rng.range(0, 8) as u32 },
        };
        FaultPlan { seed, kind }
    }

    /// Sweep lane for textual guests (Perl, Tcl sources): truncation and
    /// garbage splices, with baseline and allocation-failure lanes.
    pub fn source_sweep(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ FAULT_STREAM);
        let kind = match seed % 8 {
            0 => FaultKind::None,
            7 => FaultKind::AllocFail { nth: 1 + rng.range(0, 64) },
            1 | 4 => FaultKind::Truncate,
            _ => FaultKind::Garbage { count: 1 + rng.range(0, 24) as u32 },
        };
        FaultPlan { seed, kind }
    }

    /// The corruption stream for this plan.
    fn rng(&self) -> Rng64 {
        Rng64::new(self.seed ^ FAULT_STREAM)
    }

    /// If this plan fails a host allocation, the 1-based allocation
    /// ordinal to fail at.
    pub fn alloc_fail_at(&self) -> Option<u64> {
        match self.kind {
            FaultKind::AllocFail { nth } => Some(nth),
            _ => None,
        }
    }

    /// Apply bit-flips to a byte buffer (Javelin bytecode).
    pub fn corrupt_bytes(&self, data: &mut [u8]) {
        if let FaultKind::BitFlips { count } = self.kind {
            if data.is_empty() {
                return;
            }
            let mut rng = self.rng();
            for _ in 0..count {
                let i = rng.index(0, data.len());
                data[i] ^= 1 << rng.range(0, 8);
            }
        }
    }

    /// Apply bit-flips to a word buffer (MIPS text/data segments).
    pub fn corrupt_words(&self, data: &mut [u32]) {
        if let FaultKind::BitFlips { count } = self.kind {
            if data.is_empty() {
                return;
            }
            let mut rng = self.rng();
            for _ in 0..count {
                let i = rng.index(0, data.len());
                data[i] ^= 1 << rng.range(0, 32);
            }
        }
    }

    /// Apply truncation or garbage splices to a guest source. Injected
    /// bytes are ASCII (the interpreters consume `&str`), drawn from a
    /// pool weighted toward syntax-active characters.
    pub fn corrupt_text(&self, src: &mut String) {
        const POOL: &[u8] = b"{}[]()\"\\$;# \n\t*+-/<>=!&|%^~,._abcXYZ019";
        let mut rng = self.rng();
        match self.kind {
            FaultKind::Truncate if !src.is_empty() => {
                let cut = rng.index(0, src.len());
                // &str indices must stay on char boundaries; sources
                // are ASCII today, but stay correct regardless.
                let cut = (0..=cut).rev().find(|&i| src.is_char_boundary(i)).unwrap_or(0);
                src.truncate(cut);
            }
            FaultKind::Garbage { count } => {
                let mut bytes: Vec<u8> = std::mem::take(src).into_bytes();
                for _ in 0..count {
                    let b = *rng.pick(POOL);
                    let i = rng.index(0, bytes.len() + 1);
                    // Alternate splice-in and overwrite.
                    if rng.chance(1, 2) || bytes.is_empty() {
                        bytes.insert(i.min(bytes.len()), b);
                    } else {
                        let j = rng.index(0, bytes.len());
                        bytes[j] = b;
                    }
                }
                // POOL is ASCII and sources are UTF-8; overwrites could
                // still split a multi-byte char, so repair lossily.
                *src = match String::from_utf8(bytes) {
                    Ok(s) => s,
                    Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
                };
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::image_sweep(seed), FaultPlan::image_sweep(seed));
            assert_eq!(FaultPlan::source_sweep(seed), FaultPlan::source_sweep(seed));
        }
    }

    #[test]
    fn corruption_is_replayable() {
        let plan = FaultPlan::image_sweep(3);
        assert!(matches!(plan.kind, FaultKind::BitFlips { .. }));
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        plan.corrupt_bytes(&mut a);
        plan.corrupt_bytes(&mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0), "bit flips landed");
    }

    #[test]
    fn word_flips_change_exactly_flipped_bits() {
        let plan = FaultPlan { seed: 11, kind: FaultKind::BitFlips { count: 4 } };
        let mut words = vec![0u32; 16];
        plan.corrupt_words(&mut words);
        let flipped: u32 = words.iter().map(|w| w.count_ones()).sum();
        assert!(flipped >= 1 && flipped <= 4, "{flipped} bits flipped");
    }

    #[test]
    fn truncate_shortens_and_garbage_stays_utf8() {
        let trunc = FaultPlan { seed: 5, kind: FaultKind::Truncate };
        let mut s = "set x 1\nset y 2\n".to_string();
        trunc.corrupt_text(&mut s);
        assert!(s.len() < 16);

        let garbage = FaultPlan { seed: 6, kind: FaultKind::Garbage { count: 12 } };
        let mut t = "while (1) { $i += 1; }\n".to_string();
        let before = t.clone();
        garbage.corrupt_text(&mut t);
        assert_ne!(t, before);
        assert!(t.is_ascii());
    }

    #[test]
    fn sweeps_cover_all_lanes() {
        let img: Vec<FaultKind> = (0..16).map(|s| FaultPlan::image_sweep(s).kind).collect();
        assert!(img.contains(&FaultKind::None));
        assert!(img.iter().any(|k| matches!(k, FaultKind::BitFlips { .. })));
        assert!(img.iter().any(|k| matches!(k, FaultKind::AllocFail { .. })));

        let src: Vec<FaultKind> = (0..16).map(|s| FaultPlan::source_sweep(s).kind).collect();
        assert!(src.contains(&FaultKind::Truncate));
        assert!(src.iter().any(|k| matches!(k, FaultKind::Garbage { .. })));
        assert!(src.iter().any(|k| matches!(k, FaultKind::AllocFail { .. })));
    }

    #[test]
    fn none_plan_is_inert() {
        let plan = FaultPlan::none();
        let mut bytes = vec![7u8; 8];
        let mut text = "hello".to_string();
        plan.corrupt_bytes(&mut bytes);
        plan.corrupt_text(&mut text);
        assert_eq!(bytes, vec![7u8; 8]);
        assert_eq!(text, "hello");
        assert_eq!(plan.alloc_fail_at(), None);
    }
}
