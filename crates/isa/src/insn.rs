//! Instruction definitions with real R3000 binary encodings.

use crate::reg::Reg;

/// Error returned when a word does not decode to a supported instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending instruction word.
    pub word: u32,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unsupported instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// One MIPS instruction (see the crate docs for subset coverage).
///
/// Branch offsets are in *instructions* relative to the delay slot, as
/// encoded; jump targets are 26-bit word indices within the current 256 MB
/// region, as encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Insn {
    // Shifts (sll $0,$0,0 is the canonical no-op used to fill delay slots).
    Sll { rd: Reg, rt: Reg, sh: u8 },
    Srl { rd: Reg, rt: Reg, sh: u8 },
    Sra { rd: Reg, rt: Reg, sh: u8 },
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    Srav { rd: Reg, rt: Reg, rs: Reg },
    // Jumps through registers.
    Jr { rs: Reg },
    Jalr { rd: Reg, rs: Reg },
    Syscall,
    // HI/LO.
    Mfhi { rd: Reg },
    Mflo { rd: Reg },
    Mult { rs: Reg, rt: Reg },
    Multu { rs: Reg, rt: Reg },
    Div { rs: Reg, rt: Reg },
    Divu { rs: Reg, rt: Reg },
    // Three-operand ALU.
    Add { rd: Reg, rs: Reg, rt: Reg },
    Addu { rd: Reg, rs: Reg, rt: Reg },
    Sub { rd: Reg, rs: Reg, rt: Reg },
    Subu { rd: Reg, rs: Reg, rt: Reg },
    And { rd: Reg, rs: Reg, rt: Reg },
    Or { rd: Reg, rs: Reg, rt: Reg },
    Xor { rd: Reg, rs: Reg, rt: Reg },
    Nor { rd: Reg, rs: Reg, rt: Reg },
    Slt { rd: Reg, rs: Reg, rt: Reg },
    Sltu { rd: Reg, rs: Reg, rt: Reg },
    // Branches (offset relative to the delay slot, in instructions).
    Beq { rs: Reg, rt: Reg, off: i16 },
    Bne { rs: Reg, rt: Reg, off: i16 },
    Blez { rs: Reg, off: i16 },
    Bgtz { rs: Reg, off: i16 },
    Bltz { rs: Reg, off: i16 },
    Bgez { rs: Reg, off: i16 },
    // Immediates.
    Addi { rt: Reg, rs: Reg, imm: i16 },
    Addiu { rt: Reg, rs: Reg, imm: i16 },
    Slti { rt: Reg, rs: Reg, imm: i16 },
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    Andi { rt: Reg, rs: Reg, imm: u16 },
    Ori { rt: Reg, rs: Reg, imm: u16 },
    Xori { rt: Reg, rs: Reg, imm: u16 },
    Lui { rt: Reg, imm: u16 },
    // Loads/stores.
    Lb { rt: Reg, rs: Reg, off: i16 },
    Lbu { rt: Reg, rs: Reg, off: i16 },
    Lh { rt: Reg, rs: Reg, off: i16 },
    Lhu { rt: Reg, rs: Reg, off: i16 },
    Lw { rt: Reg, rs: Reg, off: i16 },
    Sb { rt: Reg, rs: Reg, off: i16 },
    Sh { rt: Reg, rs: Reg, off: i16 },
    Sw { rt: Reg, rs: Reg, off: i16 },
    // Jumps.
    J { target: u32 },
    Jal { target: u32 },
}

const fn r(rs: u32, rt: u32, rd: u32, sh: u32, funct: u32) -> u32 {
    (rs << 21) | (rt << 16) | (rd << 11) | (sh << 6) | funct
}

const fn i(op: u32, rs: u32, rt: u32, imm: u32) -> u32 {
    (op << 26) | (rs << 21) | (rt << 16) | (imm & 0xffff)
}

impl Insn {
    /// The canonical no-op (`sll $0, $0, 0`, word `0x00000000`), used by
    /// the assembler to fill branch delay slots — the source of the paper's
    /// footnote about inflated `sll` counts.
    pub const NOP: Insn = Insn::Sll {
        rd: Reg::Zero,
        rt: Reg::Zero,
        sh: 0,
    };

    /// Encode to the R3000 binary format.
    pub fn encode(self) -> u32 {
        use Insn::*;
        match self {
            Sll { rd, rt, sh } => r(0, rt.num(), rd.num(), sh as u32, 0x00),
            Srl { rd, rt, sh } => r(0, rt.num(), rd.num(), sh as u32, 0x02),
            Sra { rd, rt, sh } => r(0, rt.num(), rd.num(), sh as u32, 0x03),
            Sllv { rd, rt, rs } => r(rs.num(), rt.num(), rd.num(), 0, 0x04),
            Srlv { rd, rt, rs } => r(rs.num(), rt.num(), rd.num(), 0, 0x06),
            Srav { rd, rt, rs } => r(rs.num(), rt.num(), rd.num(), 0, 0x07),
            Jr { rs } => r(rs.num(), 0, 0, 0, 0x08),
            Jalr { rd, rs } => r(rs.num(), 0, rd.num(), 0, 0x09),
            Syscall => r(0, 0, 0, 0, 0x0c),
            Mfhi { rd } => r(0, 0, rd.num(), 0, 0x10),
            Mflo { rd } => r(0, 0, rd.num(), 0, 0x12),
            Mult { rs, rt } => r(rs.num(), rt.num(), 0, 0, 0x18),
            Multu { rs, rt } => r(rs.num(), rt.num(), 0, 0, 0x19),
            Div { rs, rt } => r(rs.num(), rt.num(), 0, 0, 0x1a),
            Divu { rs, rt } => r(rs.num(), rt.num(), 0, 0, 0x1b),
            Add { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x20),
            Addu { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x21),
            Sub { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x22),
            Subu { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x23),
            And { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x24),
            Or { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x25),
            Xor { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x26),
            Nor { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x27),
            Slt { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x2a),
            Sltu { rd, rs, rt } => r(rs.num(), rt.num(), rd.num(), 0, 0x2b),
            Bltz { rs, off } => i(0x01, rs.num(), 0x00, off as u16 as u32),
            Bgez { rs, off } => i(0x01, rs.num(), 0x01, off as u16 as u32),
            J { target } => (0x02 << 26) | (target & 0x03ff_ffff),
            Jal { target } => (0x03 << 26) | (target & 0x03ff_ffff),
            Beq { rs, rt, off } => i(0x04, rs.num(), rt.num(), off as u16 as u32),
            Bne { rs, rt, off } => i(0x05, rs.num(), rt.num(), off as u16 as u32),
            Blez { rs, off } => i(0x06, rs.num(), 0, off as u16 as u32),
            Bgtz { rs, off } => i(0x07, rs.num(), 0, off as u16 as u32),
            Addi { rt, rs, imm } => i(0x08, rs.num(), rt.num(), imm as u16 as u32),
            Addiu { rt, rs, imm } => i(0x09, rs.num(), rt.num(), imm as u16 as u32),
            Slti { rt, rs, imm } => i(0x0a, rs.num(), rt.num(), imm as u16 as u32),
            Sltiu { rt, rs, imm } => i(0x0b, rs.num(), rt.num(), imm as u16 as u32),
            Andi { rt, rs, imm } => i(0x0c, rs.num(), rt.num(), u32::from(imm)),
            Ori { rt, rs, imm } => i(0x0d, rs.num(), rt.num(), u32::from(imm)),
            Xori { rt, rs, imm } => i(0x0e, rs.num(), rt.num(), u32::from(imm)),
            Lui { rt, imm } => i(0x0f, 0, rt.num(), u32::from(imm)),
            Lb { rt, rs, off } => i(0x20, rs.num(), rt.num(), off as u16 as u32),
            Lh { rt, rs, off } => i(0x21, rs.num(), rt.num(), off as u16 as u32),
            Lw { rt, rs, off } => i(0x23, rs.num(), rt.num(), off as u16 as u32),
            Lbu { rt, rs, off } => i(0x24, rs.num(), rt.num(), off as u16 as u32),
            Lhu { rt, rs, off } => i(0x25, rs.num(), rt.num(), off as u16 as u32),
            Sb { rt, rs, off } => i(0x28, rs.num(), rt.num(), off as u16 as u32),
            Sh { rt, rs, off } => i(0x29, rs.num(), rt.num(), off as u16 as u32),
            Sw { rt, rs, off } => i(0x2b, rs.num(), rt.num(), off as u16 as u32),
        }
    }

    /// Decode an R3000 instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for opcodes/functs outside the subset.
    pub fn decode(word: u32) -> Result<Insn, DecodeError> {
        use Insn::*;
        let op = word >> 26;
        let rs = Reg::from_num((word >> 21) & 31);
        let rt_n = (word >> 16) & 31;
        let rt = Reg::from_num(rt_n);
        let rd = Reg::from_num((word >> 11) & 31);
        let sh = ((word >> 6) & 31) as u8;
        let imm_u = (word & 0xffff) as u16;
        let imm_s = imm_u as i16;
        let err = DecodeError { word };
        Ok(match op {
            0x00 => match word & 0x3f {
                0x00 => Sll { rd, rt, sh },
                0x02 => Srl { rd, rt, sh },
                0x03 => Sra { rd, rt, sh },
                0x04 => Sllv { rd, rt, rs },
                0x06 => Srlv { rd, rt, rs },
                0x07 => Srav { rd, rt, rs },
                0x08 => Jr { rs },
                0x09 => Jalr { rd, rs },
                0x0c => Syscall,
                0x10 => Mfhi { rd },
                0x12 => Mflo { rd },
                0x18 => Mult { rs, rt },
                0x19 => Multu { rs, rt },
                0x1a => Div { rs, rt },
                0x1b => Divu { rs, rt },
                0x20 => Add { rd, rs, rt },
                0x21 => Addu { rd, rs, rt },
                0x22 => Sub { rd, rs, rt },
                0x23 => Subu { rd, rs, rt },
                0x24 => And { rd, rs, rt },
                0x25 => Or { rd, rs, rt },
                0x26 => Xor { rd, rs, rt },
                0x27 => Nor { rd, rs, rt },
                0x2a => Slt { rd, rs, rt },
                0x2b => Sltu { rd, rs, rt },
                _ => return Err(err),
            },
            0x01 => match rt_n {
                0x00 => Bltz { rs, off: imm_s },
                0x01 => Bgez { rs, off: imm_s },
                _ => return Err(err),
            },
            0x02 => J {
                target: word & 0x03ff_ffff,
            },
            0x03 => Jal {
                target: word & 0x03ff_ffff,
            },
            0x04 => Beq {
                rs,
                rt,
                off: imm_s,
            },
            0x05 => Bne {
                rs,
                rt,
                off: imm_s,
            },
            0x06 => Blez { rs, off: imm_s },
            0x07 => Bgtz { rs, off: imm_s },
            0x08 => Addi { rt, rs, imm: imm_s },
            0x09 => Addiu { rt, rs, imm: imm_s },
            0x0a => Slti { rt, rs, imm: imm_s },
            0x0b => Sltiu { rt, rs, imm: imm_s },
            0x0c => Andi { rt, rs, imm: imm_u },
            0x0d => Ori { rt, rs, imm: imm_u },
            0x0e => Xori { rt, rs, imm: imm_u },
            0x0f => Lui { rt, imm: imm_u },
            0x20 => Lb { rt, rs, off: imm_s },
            0x21 => Lh { rt, rs, off: imm_s },
            0x23 => Lw { rt, rs, off: imm_s },
            0x24 => Lbu { rt, rs, off: imm_s },
            0x25 => Lhu { rt, rs, off: imm_s },
            0x28 => Sb { rt, rs, off: imm_s },
            0x29 => Sh { rt, rs, off: imm_s },
            0x2b => Sw { rt, rs, off: imm_s },
            _ => return Err(err),
        })
    }

    /// Every mnemonic, indexed by [`Self::ordinal`] (declaration order).
    pub const MNEMONICS: [&'static str; 49] = [
        "sll", "srl", "sra", "sllv", "srlv", "srav", "jr", "jalr", "syscall", "mfhi", "mflo",
        "mult", "multu", "div", "divu", "add", "addu", "sub", "subu", "and", "or", "xor", "nor",
        "slt", "sltu", "beq", "bne", "blez", "bgtz", "bltz", "bgez", "addi", "addiu", "slti",
        "sltiu", "andi", "ori", "xori", "lui", "lb", "lbu", "lh", "lhu", "lw", "sb", "sh", "sw",
        "j", "jal",
    ];

    /// This instruction's index into [`Self::MNEMONICS`]: a dense id for
    /// per-mnemonic tables, with no string in sight.
    #[inline]
    pub fn ordinal(self) -> usize {
        use Insn::*;
        match self {
            Sll { .. } => 0,
            Srl { .. } => 1,
            Sra { .. } => 2,
            Sllv { .. } => 3,
            Srlv { .. } => 4,
            Srav { .. } => 5,
            Jr { .. } => 6,
            Jalr { .. } => 7,
            Syscall => 8,
            Mfhi { .. } => 9,
            Mflo { .. } => 10,
            Mult { .. } => 11,
            Multu { .. } => 12,
            Div { .. } => 13,
            Divu { .. } => 14,
            Add { .. } => 15,
            Addu { .. } => 16,
            Sub { .. } => 17,
            Subu { .. } => 18,
            And { .. } => 19,
            Or { .. } => 20,
            Xor { .. } => 21,
            Nor { .. } => 22,
            Slt { .. } => 23,
            Sltu { .. } => 24,
            Beq { .. } => 25,
            Bne { .. } => 26,
            Blez { .. } => 27,
            Bgtz { .. } => 28,
            Bltz { .. } => 29,
            Bgez { .. } => 30,
            Addi { .. } => 31,
            Addiu { .. } => 32,
            Slti { .. } => 33,
            Sltiu { .. } => 34,
            Andi { .. } => 35,
            Ori { .. } => 36,
            Xori { .. } => 37,
            Lui { .. } => 38,
            Lb { .. } => 39,
            Lbu { .. } => 40,
            Lh { .. } => 41,
            Lhu { .. } => 42,
            Lw { .. } => 43,
            Sb { .. } => 44,
            Sh { .. } => 45,
            Sw { .. } => 46,
            J { .. } => 47,
            Jal { .. } => 48,
        }
    }

    /// Mnemonic (the paper's "virtual command" name for MIPSI).
    #[inline]
    pub fn mnemonic(self) -> &'static str {
        Self::MNEMONICS[self.ordinal()]
    }

    /// True for conditional branches and jumps (instructions with a delay
    /// slot).
    pub fn has_delay_slot(self) -> bool {
        use Insn::*;
        matches!(
            self,
            Beq { .. }
                | Bne { .. }
                | Blez { .. }
                | Bgtz { .. }
                | Bltz { .. }
                | Bgez { .. }
                | J { .. }
                | Jal { .. }
                | Jr { .. }
                | Jalr { .. }
        )
    }
}

impl std::fmt::Display for Insn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Insn::*;
        let m = self.mnemonic();
        match *self {
            Sll { rd, rt, sh } | Srl { rd, rt, sh } | Sra { rd, rt, sh } => {
                write!(f, "{m} {rd}, {rt}, {sh}")
            }
            Sllv { rd, rt, rs } | Srlv { rd, rt, rs } | Srav { rd, rt, rs } => {
                write!(f, "{m} {rd}, {rt}, {rs}")
            }
            Jr { rs } => write!(f, "jr {rs}"),
            Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Syscall => write!(f, "syscall"),
            Mfhi { rd } | Mflo { rd } => write!(f, "{m} {rd}"),
            Mult { rs, rt } | Multu { rs, rt } | Div { rs, rt } | Divu { rs, rt } => {
                write!(f, "{m} {rs}, {rt}")
            }
            Add { rd, rs, rt }
            | Addu { rd, rs, rt }
            | Sub { rd, rs, rt }
            | Subu { rd, rs, rt }
            | And { rd, rs, rt }
            | Or { rd, rs, rt }
            | Xor { rd, rs, rt }
            | Nor { rd, rs, rt }
            | Slt { rd, rs, rt }
            | Sltu { rd, rs, rt } => write!(f, "{m} {rd}, {rs}, {rt}"),
            Beq { rs, rt, off } | Bne { rs, rt, off } => write!(f, "{m} {rs}, {rt}, {off}"),
            Blez { rs, off } | Bgtz { rs, off } | Bltz { rs, off } | Bgez { rs, off } => {
                write!(f, "{m} {rs}, {off}")
            }
            Addi { rt, rs, imm }
            | Addiu { rt, rs, imm }
            | Slti { rt, rs, imm }
            | Sltiu { rt, rs, imm } => write!(f, "{m} {rt}, {rs}, {imm}"),
            Andi { rt, rs, imm } | Ori { rt, rs, imm } | Xori { rt, rs, imm } => {
                write!(f, "{m} {rt}, {rs}, {imm:#x}")
            }
            Lui { rt, imm } => write!(f, "lui {rt}, {imm:#x}"),
            Lb { rt, rs, off }
            | Lbu { rt, rs, off }
            | Lh { rt, rs, off }
            | Lhu { rt, rs, off }
            | Lw { rt, rs, off }
            | Sb { rt, rs, off }
            | Sh { rt, rs, off }
            | Sw { rt, rs, off } => write!(f, "{m} {rt}, {off}({rs})"),
            J { target } | Jal { target } => write!(f, "{m} {:#x}", target << 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_word_zero() {
        assert_eq!(Insn::NOP.encode(), 0);
        assert_eq!(Insn::decode(0).unwrap(), Insn::NOP);
        assert_eq!(Insn::NOP.mnemonic(), "sll");
    }

    #[test]
    fn every_variant_has_its_own_ordinal_and_mnemonic() {
        let mut seen = [false; Insn::MNEMONICS.len()];
        for op in 0..64u32 {
            for rt in 0..32u32 {
                for funct in 0..64u32 {
                    if let Ok(insn) = Insn::decode((op << 26) | (rt << 16) | funct) {
                        seen[insn.ordinal()] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some ordinal is never decoded");
        let mut names = Insn::MNEMONICS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Insn::MNEMONICS.len(), "duplicate mnemonic");
        assert_eq!(Insn::Syscall.mnemonic(), "syscall");
        assert_eq!(Insn::J { target: 0 }.mnemonic(), "j");
        assert_eq!(Insn::Jal { target: 0 }.mnemonic(), "jal");
        let lw = Insn::Lw {
            rt: Reg::T0,
            rs: Reg::Sp,
            off: 0,
        };
        assert_eq!(lw.mnemonic(), "lw");
    }

    #[test]
    fn representative_encodings_match_the_manual() {
        // addu $v0, $a0, $a1 = 000000 00100 00101 00010 00000 100001
        assert_eq!(
            Insn::Addu {
                rd: Reg::V0,
                rs: Reg::A0,
                rt: Reg::A1
            }
            .encode(),
            0x0085_1021
        );
        // lw $t0, 4($sp) = 100011 11101 01000 0000000000000100
        assert_eq!(
            Insn::Lw {
                rt: Reg::T0,
                rs: Reg::Sp,
                off: 4
            }
            .encode(),
            0x8fa8_0004
        );
        // jal 0x400000 => target field 0x100000
        assert_eq!(Insn::Jal { target: 0x10_0000 }.encode(), 0x0c10_0000);
    }

    #[test]
    fn delay_slot_classification() {
        assert!(Insn::J { target: 0 }.has_delay_slot());
        assert!(Insn::Jr { rs: Reg::Ra }.has_delay_slot());
        assert!(Insn::Beq {
            rs: Reg::T0,
            rt: Reg::T1,
            off: -2
        }
        .has_delay_slot());
        assert!(!Insn::Syscall.has_delay_slot());
        assert!(!Insn::NOP.has_delay_slot());
    }

    #[test]
    fn negative_offsets_roundtrip() {
        let insn = Insn::Bne {
            rs: Reg::T0,
            rt: Reg::Zero,
            off: -17,
        };
        assert_eq!(Insn::decode(insn.encode()).unwrap(), insn);
        let insn = Insn::Lw {
            rt: Reg::S0,
            rs: Reg::Gp,
            off: -32768,
        };
        assert_eq!(Insn::decode(insn.encode()).unwrap(), insn);
    }

    #[test]
    fn unsupported_words_error() {
        // Opcode 0x3f is not in the subset.
        assert!(Insn::decode(0xfc00_0000).is_err());
        // funct 0x3f is not in the subset.
        assert!(Insn::decode(0x0000_003f).is_err());
        let e = Insn::decode(0xfc00_0000).unwrap_err();
        assert!(e.to_string().contains("0xfc000000"));
    }

    #[test]
    fn display_smoke() {
        assert_eq!(
            Insn::Addiu {
                rt: Reg::Sp,
                rs: Reg::Sp,
                imm: -16
            }
            .to_string(),
            "addiu $sp, $sp, -16"
        );
        assert_eq!(
            Insn::Sw {
                rt: Reg::Ra,
                rs: Reg::Sp,
                off: 12
            }
            .to_string(),
            "sw $ra, 12($sp)"
        );
    }
}
