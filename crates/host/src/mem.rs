//! Sparse 32-bit simulated memory.
//!
//! All interpreter runtime state — strings, symbol tables, op-trees, guest
//! address spaces — lives in one of these. The accessors here are *raw*
//! (uncharged): [`crate::Machine`] wraps them in charged `lw`/`sw`/`lb`/`sb`
//! primitives that emit trace events. Raw access is for loaders, test
//! assertions, and Rust-side peeking that does not correspond to a native
//! instruction.
//!
//! Every run builds at least one [`Memory`], so creating and dropping an
//! empty one must cost neither a table fill nor a table walk.

/// Log2 of the internal allocation granule (16 KiB). Unrelated to the
/// architectural 8 KiB page size used by the TLB models.
const GRANULE_BITS: u32 = 14;
const GRANULE: usize = 1 << GRANULE_BITS;
const NUM_GRANULES: usize = 1 << (32 - GRANULE_BITS);

/// A sparse, lazily-populated 4 GiB byte-addressable memory.
///
/// Unmapped granules read as zero and are materialized on first write.
/// The granule table is a zero-initialised index (0 = unmapped, `i` =
/// the `i`-th materialized granule) into a dense list of the granules
/// actually written, so an empty memory costs one zeroed allocation:
/// table pages never touched are never faulted in, and dropping the
/// memory frees the table without walking it.
pub struct Memory {
    /// Per granule: 0 if unmapped, else 1 + its position in `granules`.
    index: Box<[u32; NUM_GRANULES]>,
    /// The materialized granules, in first-write order.
    granules: Vec<Box<[u8; GRANULE]>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        // One zeroed allocation; the fixed length lets every lookup by
        // `addr >> GRANULE_BITS` skip its bounds check.
        let index = vec![0u32; NUM_GRANULES]
            .try_into()
            .expect("the index has NUM_GRANULES slots");
        Memory {
            index,
            granules: Vec::new(),
        }
    }

    /// Bytes of simulated memory materialized so far.
    pub fn resident_bytes(&self) -> usize {
        self.granules.len() * GRANULE
    }

    #[inline]
    fn granule(&self, addr: u32) -> Option<&[u8; GRANULE]> {
        // Slot 0 (unmapped) wraps to `usize::MAX`, so one bounds check
        // answers both "unmapped?" and "in range?".
        let slot = self.index[(addr >> GRANULE_BITS) as usize] as usize;
        self.granules.get(slot.wrapping_sub(1)).map(|g| &**g)
    }

    #[inline]
    fn granule_mut(&mut self, addr: u32) -> &mut [u8; GRANULE] {
        let slot = &mut self.index[(addr >> GRANULE_BITS) as usize];
        if *slot == 0 {
            self.granules.push(Box::new([0u8; GRANULE]));
            // At most NUM_GRANULES (2^18) granules exist, so the count
            // always fits.
            *slot = self.granules.len() as u32;
        }
        &mut self.granules[*slot as usize - 1]
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.granule(addr) {
            Some(g) => g[(addr as usize) & (GRANULE - 1)],
            None => 0,
        }
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        let g = self.granule_mut(addr);
        g[(addr as usize) & (GRANULE - 1)] = val;
    }

    /// Read a little-endian 32-bit word. `addr` need not be aligned (the
    /// simulated ISA only issues aligned accesses; helpers may not).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr as usize) & (GRANULE - 1);
        if off + 4 <= GRANULE {
            match self.granule(addr) {
                Some(g) => {
                    let mut word = [0u8; 4];
                    word.copy_from_slice(&g[off..off + 4]);
                    u32::from_le_bytes(word)
                }
                None => 0,
            }
        } else {
            let mut bytes = [0u8; 4];
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
            u32::from_le_bytes(bytes)
        }
    }

    /// Write a little-endian 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        let off = (addr as usize) & (GRANULE - 1);
        let bytes = val.to_le_bytes();
        if off + 4 <= GRANULE {
            let g = self.granule_mut(addr);
            g[off..off + 4].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Read a 16-bit little-endian halfword.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Write a 16-bit little-endian halfword.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, val: u16) {
        let bytes = val.to_le_bytes();
        self.write_u8(addr, bytes[0]);
        self.write_u8(addr.wrapping_add(1), bytes[1]);
    }

    /// Copy `data` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Read `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp_guard::Rng64;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn zero_before_write() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xdead_beec), 0);
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn byte_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u8(5, 0xab);
        assert_eq!(mem.read_u8(5), 0xab);
        assert_eq!(mem.read_u8(6), 0);
        assert!(mem.resident_bytes() > 0);
    }

    #[test]
    fn word_roundtrip_little_endian() {
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0x1234_5678);
        assert_eq!(mem.read_u32(0x100), 0x1234_5678);
        assert_eq!(mem.read_u8(0x100), 0x78);
        assert_eq!(mem.read_u8(0x103), 0x12);
    }

    #[test]
    fn word_straddling_granule_boundary() {
        let mut mem = Memory::new();
        let addr = (1u32 << GRANULE_BITS) - 2;
        mem.write_u32(addr, 0xcafe_babe);
        assert_eq!(mem.read_u32(addr), 0xcafe_babe);
    }

    #[test]
    fn halfword_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u16(0x42, 0xbeef);
        assert_eq!(mem.read_u16(0x42), 0xbeef);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let mut mem = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        mem.write_bytes(0x7fff_ff80, &data);
        assert_eq!(mem.read_bytes(0x7fff_ff80, 256), data);
    }

    #[test]
    fn distant_addresses_independent() {
        let mut mem = Memory::new();
        mem.write_u32(0x0000_0010, 1);
        mem.write_u32(0x8000_0010, 2);
        mem.write_u32(0xfff0_0010, 3);
        assert_eq!(mem.read_u32(0x0000_0010), 1);
        assert_eq!(mem.read_u32(0x8000_0010), 2);
        assert_eq!(mem.read_u32(0xfff0_0010), 3);
    }

    /// The byte-map model `Memory` must agree with: absent bytes read as
    /// zero, and every granule a write touched is resident.
    #[derive(Default)]
    struct Reference {
        bytes: BTreeMap<u32, u8>,
        granules: BTreeSet<u32>,
    }

    impl Reference {
        fn write(&mut self, addr: u32, data: &[u8]) {
            for (i, b) in data.iter().enumerate() {
                let at = addr.wrapping_add(i as u32);
                self.bytes.insert(at, *b);
                self.granules.insert(at >> GRANULE_BITS);
            }
        }

        fn read(&self, addr: u32, len: usize) -> Vec<u8> {
            (0..len)
                .map(|i| {
                    let at = addr.wrapping_add(i as u32);
                    self.bytes.get(&at).copied().unwrap_or(0)
                })
                .collect()
        }
    }

    /// An address near one of the interesting places: granule
    /// boundaries (so words and halfwords straddle two granules), the
    /// top of the address space (so accesses wrap to 0), or anywhere.
    fn address(rng: &mut Rng64) -> u32 {
        let near = match rng.index(0, 4) {
            0 => (rng.range(1, NUM_GRANULES as u64) as u32) << GRANULE_BITS,
            1 => 0,
            2 => 0x8000_0000,
            _ => rng.next_u64() as u32,
        };
        near.wrapping_add(rng.range(0, 8) as u32).wrapping_sub(4)
    }

    #[test]
    fn matches_a_byte_map_reference() {
        for seed in 0..16 {
            let mut rng = Rng64::new(seed);
            let mut mem = Memory::new();
            let mut reference = Reference::default();
            // Revisit earlier addresses often, so reads see writes.
            let mut seen: Vec<u32> = Vec::new();
            for step in 0..2_000 {
                let addr = if !seen.is_empty() && rng.chance(1, 2) {
                    *rng.pick(&seen)
                } else {
                    let fresh = address(&mut rng);
                    seen.push(fresh);
                    fresh
                };
                let value = rng.next_u64();
                let what = format!("seed {seed} step {step} addr {addr:#010x}");
                match rng.index(0, 8) {
                    0 => {
                        mem.write_u8(addr, value as u8);
                        reference.write(addr, &[value as u8]);
                    }
                    1 => {
                        mem.write_u16(addr, value as u16);
                        reference.write(addr, &(value as u16).to_le_bytes());
                    }
                    2 => {
                        mem.write_u32(addr, value as u32);
                        reference.write(addr, &(value as u32).to_le_bytes());
                    }
                    3 => {
                        let data: Vec<u8> = (0..rng.index(0, 40)).map(|i| i as u8 ^ 0x5a).collect();
                        mem.write_bytes(addr, &data);
                        reference.write(addr, &data);
                    }
                    4 => assert_eq!(vec![mem.read_u8(addr)], reference.read(addr, 1), "{what}"),
                    5 => assert_eq!(
                        mem.read_u16(addr).to_le_bytes().to_vec(),
                        reference.read(addr, 2),
                        "{what}"
                    ),
                    6 => assert_eq!(
                        mem.read_u32(addr).to_le_bytes().to_vec(),
                        reference.read(addr, 4),
                        "{what}"
                    ),
                    _ => {
                        let len = rng.index(0, 40);
                        assert_eq!(mem.read_bytes(addr, len), reference.read(addr, len), "{what}");
                    }
                }
                assert_eq!(
                    mem.resident_bytes(),
                    reference.granules.len() * GRANULE,
                    "{what}: resident bytes"
                );
            }
        }
    }

    #[test]
    fn a_zero_write_still_materializes_its_granule() {
        let mut mem = Memory::new();
        mem.write_u8(0xffff_ffff, 0);
        assert_eq!(mem.resident_bytes(), GRANULE);
        mem.write_u32(0xffff_fffe, 0x0403_0201);
        assert_eq!(mem.resident_bytes(), 2 * GRANULE, "the word wraps into granule 0");
        assert_eq!(mem.read_u32(0xffff_fffe), 0x0403_0201);
        assert_eq!(mem.read_u16(0), 0x0403);
    }
}
