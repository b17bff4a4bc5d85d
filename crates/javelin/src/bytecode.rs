//! The Javelin bytecode: a JVM-flavored stack instruction set.
//!
//! Programs are compiled offline (by [`crate::compiler`]) into per-method
//! byte arrays; the VM stores them in simulated memory and fetches one
//! byte at a time — the program-as-data structure whose cache consequences
//! §4.1 discusses.

/// Opcode values (one byte each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum OpCode {
    Nop = 0,
    /// Push a 32-bit constant (4-byte operand).
    Iconst = 1,
    /// Push local `u8`.
    Iload = 2,
    /// Pop into local `u8`.
    Istore = 3,
    Iadd = 4,
    Isub = 5,
    Imul = 6,
    Idiv = 7,
    Irem = 8,
    Ineg = 9,
    Iand = 10,
    Ior = 11,
    Ixor = 12,
    Ishl = 13,
    Ishr = 14,
    /// Unconditional branch (u16 absolute).
    Goto = 15,
    /// Branch if top == 0.
    Ifeq = 16,
    /// Branch if top != 0.
    Ifne = 17,
    IfIcmplt = 18,
    IfIcmpge = 19,
    IfIcmpgt = 20,
    IfIcmple = 21,
    IfIcmpeq = 22,
    IfIcmpne = 23,
    /// Push `obj.field[u8]`.
    Getfield = 24,
    /// Pop value, pop obj, store field `u8`.
    Putfield = 25,
    /// Allocate class `u8`, push reference.
    New = 26,
    /// Pop length, allocate int[], push reference.
    Newarray = 27,
    /// Pop index, pop ref, push element.
    Iaload = 28,
    /// Pop value, pop index, pop ref, store element.
    Iastore = 29,
    /// Pop ref, push length.
    Arraylength = 30,
    /// Call function `u16`.
    Invokestatic = 31,
    /// Call native `u8` with `u8` args.
    Invokenative = 32,
    /// Return the top of stack.
    Ireturn = 33,
    /// Return void.
    Return = 34,
    Pop = 35,
    Dup = 36,
    /// Push a small constant (i8 operand).
    IconstS = 37,
    /// Push static/global slot `u8`.
    Getstatic = 38,
    /// Pop into static/global slot `u8`.
    Putstatic = 39,
}

impl OpCode {
    /// Number of opcodes: every byte below this decodes.
    pub const COUNT: usize = 40;

    /// Decode an opcode byte.
    pub fn from_byte(b: u8) -> Option<OpCode> {
        if usize::from(b) < Self::COUNT {
            // SAFETY-free decode: exhaustive match keeps this honest.
            Some(match b {
                0 => OpCode::Nop,
                1 => OpCode::Iconst,
                2 => OpCode::Iload,
                3 => OpCode::Istore,
                4 => OpCode::Iadd,
                5 => OpCode::Isub,
                6 => OpCode::Imul,
                7 => OpCode::Idiv,
                8 => OpCode::Irem,
                9 => OpCode::Ineg,
                10 => OpCode::Iand,
                11 => OpCode::Ior,
                12 => OpCode::Ixor,
                13 => OpCode::Ishl,
                14 => OpCode::Ishr,
                15 => OpCode::Goto,
                16 => OpCode::Ifeq,
                17 => OpCode::Ifne,
                18 => OpCode::IfIcmplt,
                19 => OpCode::IfIcmpge,
                20 => OpCode::IfIcmpgt,
                21 => OpCode::IfIcmple,
                22 => OpCode::IfIcmpeq,
                23 => OpCode::IfIcmpne,
                24 => OpCode::Getfield,
                25 => OpCode::Putfield,
                26 => OpCode::New,
                27 => OpCode::Newarray,
                28 => OpCode::Iaload,
                29 => OpCode::Iastore,
                30 => OpCode::Arraylength,
                31 => OpCode::Invokestatic,
                32 => OpCode::Invokenative,
                33 => OpCode::Ireturn,
                34 => OpCode::Return,
                35 => OpCode::Pop,
                36 => OpCode::Dup,
                37 => OpCode::IconstS,
                38 => OpCode::Getstatic,
                _ => OpCode::Putstatic,
            })
        } else {
            None
        }
    }

    /// Mnemonic for virtual-command attribution (grouped the way Figure 2
    /// groups Java bytecodes: stack loads/stores, field ops, etc.).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpCode::Nop => "nop",
            OpCode::Iconst | OpCode::IconstS => "iconst",
            OpCode::Iload => "st_load",
            OpCode::Istore => "st_store",
            OpCode::Iadd => "iadd",
            OpCode::Isub => "isub",
            OpCode::Imul => "imul",
            OpCode::Idiv => "idiv",
            OpCode::Irem => "irem",
            OpCode::Ineg => "ineg",
            OpCode::Iand | OpCode::Ior | OpCode::Ixor => "ilogic",
            OpCode::Ishl | OpCode::Ishr => "ishift",
            OpCode::Goto => "goto",
            OpCode::Ifeq | OpCode::Ifne => "ifzero",
            OpCode::IfIcmplt
            | OpCode::IfIcmpge
            | OpCode::IfIcmpgt
            | OpCode::IfIcmple
            | OpCode::IfIcmpeq
            | OpCode::IfIcmpne => "if_icmp",
            OpCode::Getfield => "getfield",
            OpCode::Putfield => "putfield",
            OpCode::New => "new",
            OpCode::Newarray => "newarray",
            OpCode::Iaload => "iaload",
            OpCode::Iastore => "iastore",
            OpCode::Arraylength => "arraylength",
            OpCode::Invokestatic => "invokestatic",
            OpCode::Invokenative => "native",
            OpCode::Ireturn | OpCode::Return => "return",
            OpCode::Pop | OpCode::Dup => "st_misc",
            OpCode::Getstatic => "getstatic",
            OpCode::Putstatic => "putstatic",
        }
    }

    /// Operand bytes following the opcode.
    pub fn operand_len(self) -> usize {
        match self {
            OpCode::Iconst => 4,
            OpCode::Goto
            | OpCode::Ifeq
            | OpCode::Ifne
            | OpCode::IfIcmplt
            | OpCode::IfIcmpge
            | OpCode::IfIcmpgt
            | OpCode::IfIcmple
            | OpCode::IfIcmpeq
            | OpCode::IfIcmpne
            | OpCode::Invokestatic
            | OpCode::Invokenative => 2,
            OpCode::Iload
            | OpCode::Istore
            | OpCode::Getfield
            | OpCode::Putfield
            | OpCode::New
            | OpCode::IconstS
            | OpCode::Getstatic
            | OpCode::Putstatic => 1,
            _ => 0,
        }
    }
}

/// Native-library entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Native {
    PrintInt = 0,
    PrintChar = 1,
    /// Print string-pool entry (index on stack).
    PrintStr = 2,
    Clear = 3,
    FillRect = 4,
    DrawLine = 5,
    DrawCircle = 6,
    /// Draw string-pool entry: (poolIdx, x, y, color).
    DrawText = 7,
    Flush = 8,
    /// Pop nothing; push an encoded event (`kind << 16 | data`), 0 if none.
    NextEvent = 9,
    /// Deterministic LCG; push the next pseudo-random value.
    Rand = 10,
    /// (poolIdx) -> array reference holding the file's bytes.
    LoadFile = 11,
    /// (arrayRef, len) -> write bytes to console.
    WriteBytes = 12,
}

impl Native {
    /// Decode a native id.
    pub fn from_byte(b: u8) -> Option<Native> {
        Some(match b {
            0 => Native::PrintInt,
            1 => Native::PrintChar,
            2 => Native::PrintStr,
            3 => Native::Clear,
            4 => Native::FillRect,
            5 => Native::DrawLine,
            6 => Native::DrawCircle,
            7 => Native::DrawText,
            8 => Native::Flush,
            9 => Native::NextEvent,
            10 => Native::Rand,
            11 => Native::LoadFile,
            12 => Native::WriteBytes,
            _ => return None,
        })
    }

    /// Number of stack arguments consumed.
    pub fn argc(self) -> usize {
        match self {
            Native::PrintInt | Native::PrintChar | Native::PrintStr | Native::Clear => 1,
            Native::FillRect => 5,
            Native::DrawLine => 5,
            Native::DrawCircle => 4,
            Native::DrawText => 4,
            Native::Flush | Native::NextEvent | Native::Rand => 0,
            Native::LoadFile => 1,
            Native::WriteBytes => 2,
        }
    }

    /// Whether a result is pushed.
    pub fn has_result(self) -> bool {
        matches!(self, Native::NextEvent | Native::Rand | Native::LoadFile)
    }

    /// Resolve by source name (`Native.xxx`).
    pub fn by_name(name: &str) -> Option<Native> {
        Some(match name {
            "printInt" => Native::PrintInt,
            "printChar" => Native::PrintChar,
            "printStr" => Native::PrintStr,
            "clear" => Native::Clear,
            "fillRect" => Native::FillRect,
            "drawLine" => Native::DrawLine,
            "drawCircle" => Native::DrawCircle,
            "drawText" => Native::DrawText,
            "flush" => Native::Flush,
            "nextEvent" => Native::NextEvent,
            "rand" => Native::Rand,
            "loadFile" => Native::LoadFile,
            "writeBytes" => Native::WriteBytes,
            _ => return None,
        })
    }
}

/// A compiled function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Name, for call resolution and diagnostics.
    pub name: String,
    /// Parameter count (locals 0..n_params are arguments).
    pub n_params: u8,
    /// Total local slots (including params).
    pub n_locals: u8,
    /// Whether a value is returned.
    pub returns_value: bool,
    /// The bytecode.
    pub code: Vec<u8>,
}

/// A compiled program: functions, classes (field counts), string pool.
#[derive(Debug, Clone, Default)]
pub struct JProgram {
    /// Functions; entry is `main` (index looked up by name).
    pub functions: Vec<Function>,
    /// Field count per class.
    pub class_field_counts: Vec<u8>,
    /// Class names (diagnostics).
    pub class_names: Vec<String>,
    /// String literals.
    pub pool: Vec<Vec<u8>>,
    /// Number of global (static) slots.
    pub n_globals: u8,
}

impl JProgram {
    /// Index of `main`.
    pub fn main_index(&self) -> Option<usize> {
        self.functions.iter().position(|f| f.name == "main")
    }

    /// Total bytecode bytes (the Table 2 "Size" column analog).
    pub fn code_bytes(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip() {
        for b in 0..OpCode::COUNT as u8 {
            let op = OpCode::from_byte(b).expect("valid opcode");
            assert_eq!(op as u8, b);
        }
        assert_eq!(OpCode::from_byte(OpCode::COUNT as u8), None);
        assert_eq!(OpCode::from_byte(255), None);
    }

    #[test]
    fn operand_lengths() {
        assert_eq!(OpCode::Iconst.operand_len(), 4);
        assert_eq!(OpCode::Goto.operand_len(), 2);
        assert_eq!(OpCode::Iload.operand_len(), 1);
        assert_eq!(OpCode::Iadd.operand_len(), 0);
    }

    #[test]
    fn native_roundtrip() {
        for b in 0..=12u8 {
            let n = Native::from_byte(b).expect("valid native");
            assert_eq!(n as u8, b);
        }
        assert_eq!(Native::from_byte(13), None);
        assert_eq!(Native::by_name("fillRect"), Some(Native::FillRect));
        assert_eq!(Native::by_name("nope"), None);
    }

    #[test]
    fn mnemonics_group_like_figure_2() {
        assert_eq!(OpCode::Iload.mnemonic(), "st_load");
        assert_eq!(OpCode::Invokenative.mnemonic(), "native");
        assert_eq!(OpCode::Iconst.mnemonic(), "iconst");
        assert_eq!(OpCode::IconstS.mnemonic(), "iconst");
    }
}
