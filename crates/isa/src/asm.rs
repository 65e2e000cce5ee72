//! Textual assembly: parse programs from, and serialize programs to, the
//! same syntax the disassembler prints.
//!
//! [`Program::to_asm`] emits a complete, parseable representation
//! (instructions, labels, `.proc`/`.data`/`.entry` directives);
//! [`parse_asm`] reads it back. The two round-trip exactly, which the
//! test suite verifies over every workload.
//!
//! # Syntax
//!
//! ```text
//! .entry main            ; optional entry label
//! .data 0x1000: 1, 2, 3  ; 64-bit words at an address
//! .proc main             ; begins a procedure (also defines the label)
//! loop:                  ; label
//!   li r1, #10
//!   ldd r2, 8(r1)        ; loads/stores: <mnemonic> reg, disp(base)
//!   rvp_ldd r3, 0(r1)    ; static-RVP marking prefix
//!   add r1, r1, #-1      ; ALU: reg or #imm second source
//!   bne r1, loop         ; branches take a label or @index
//!   jmp (r2) -> @4, @7   ; indirect jumps list their targets
//!   halt
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::builder::{BuildError, ProgramBuilder};
use crate::inst::{AluOp, Cond, FpuOp, Inst, Kind, MemWidth, Operand};
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS_PER_CLASS};

/// Error from [`parse_asm`], with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmError {
    /// A line could not be parsed; the message describes why.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// The parsed program failed to assemble (unknown label, operand
    /// class violation, ...).
    Build(BuildError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            AsmError::Build(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl Error for AsmError {}

impl From<BuildError> for AsmError {
    fn from(e: BuildError) -> AsmError {
        AsmError::Build(e)
    }
}

impl Program {
    /// Serializes the program to parseable assembly text (the complete
    /// inverse of [`parse_asm`]).
    pub fn to_asm(&self) -> String {
        let mut out = String::new();
        self.write_asm(&mut out).expect("writing to a String cannot fail");
        out
    }

    /// Writes [`Program::to_asm`]'s text to `out` piece by piece, so a
    /// caller that only hashes the text never holds all of it (a data
    /// segment alone can run to hundreds of kilobytes of text).
    ///
    /// # Errors
    ///
    /// Propagates `out`'s errors.
    pub fn write_asm(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if self.entry() != 0 {
            // The entry must be a label; synthesize one if needed.
            let name = self
                .labels()
                .find(|&(_, pc)| pc == self.entry())
                .map(|(n, _)| n.to_owned())
                .unwrap_or_else(|| format!("__entry_{}", self.entry()));
            writeln!(out, ".entry {name}")?;
        }
        for seg in self.data() {
            write!(out, ".data {:#x}:", seg.base)?;
            for (i, w) in seg.words.iter().enumerate() {
                write!(out, "{} {:#x}", if i == 0 { "" } else { "," }, w)?;
            }
            out.write_char('\n')?;
        }
        let mut labels_at: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (name, pc) in self.labels() {
            labels_at.entry(pc).or_default().push(name.to_owned());
        }
        if self.entry() != 0 && !labels_at.contains_key(&self.entry()) {
            labels_at.entry(self.entry()).or_default().push(format!("__entry_{}", self.entry()));
        }
        let procs = self.procedures();
        for (pc, inst) in self.insts().iter().enumerate() {
            if let Some(p) = procs.iter().find(|p| p.range.start == pc) {
                writeln!(out, ".proc {}", p.name)?;
            }
            if let Some(names) = labels_at.get(&pc) {
                for n in names {
                    // Procedure labels are implied by `.proc`, and
                    // synthetic absolute-target labels by `@N` operands.
                    if procs.iter().any(|p| p.range.start == pc && p.name == *n)
                        || n.starts_with("__at_")
                    {
                        continue;
                    }
                    writeln!(out, "{n}:")?;
                }
            }
            writeln!(out, "  {inst}")?;
        }
        Ok(())
    }
}

/// Parses assembly text into a [`Program`].
///
/// # Errors
///
/// Returns [`AsmError::Syntax`] with the offending line for malformed
/// text, or [`AsmError::Build`] if label resolution/validation fails.
///
/// # Examples
///
/// ```
/// use rvp_isa::parse_asm;
///
/// # fn main() -> Result<(), rvp_isa::AsmError> {
/// let p = parse_asm(
///     "
///     li r1, #3
///     top:
///       sub r1, r1, #1
///       bne r1, top
///       halt
///     ",
/// )?;
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.label("top"), Some(1));
/// # Ok(())
/// # }
/// ```
pub fn parse_asm(src: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line).map_err(|msg| AsmError::Syntax { line: line_no, msg })?;
    }
    Ok(b.build()?)
}

fn parse_line(b: &mut ProgramBuilder, line: &str) -> Result<(), String> {
    if let Some(rest) = line.strip_prefix(".entry") {
        b.entry(ident(rest.trim())?);
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(".proc") {
        b.proc(ident(rest.trim())?);
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(".data") {
        let (addr, words) = rest.split_once(':').ok_or("`.data` needs `addr: words`")?;
        let base = parse_u64(addr.trim())?;
        let words: Result<Vec<u64>, String> =
            words.split(',').map(|w| parse_u64(w.trim())).collect();
        b.data(base, &words?);
        return Ok(());
    }
    if let Some(name) = line.strip_suffix(':') {
        b.label(ident(name.trim())?);
        return Ok(());
    }
    parse_inst(b, line)
}

fn parse_inst(b: &mut ProgramBuilder, line: &str) -> Result<(), String> {
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let (rvp, mnemonic) = match mnemonic.strip_prefix("rvp_") {
        Some(m) => (true, m),
        None => (false, mnemonic),
    };

    let inst = match mnemonic {
        // Three-operand ALU / FPU forms.
        "add" | "sub" | "mul" | "div" | "rem" | "and" | "or" | "xor" | "sll" | "srl" | "sra"
        | "cmpeq" | "cmplt" | "cmpltu" | "cmple" => {
            let [d, a, o] = three(rest)?;
            Inst::new(Kind::Alu {
                op: alu_op(mnemonic).expect("matched above"),
                dst: reg(d)?,
                a: reg(a)?,
                b: operand(o)?,
            })
        }
        "fadd" | "fsub" | "fmul" | "fdiv" | "fcmpeq" | "fcmplt" | "fcmple" => {
            let [d, a, o] = three(rest)?;
            Inst::new(Kind::Fpu {
                op: fpu_op(mnemonic).expect("matched above"),
                dst: reg(d)?,
                a: reg(a)?,
                b: reg(o)?,
            })
        }
        "itof" => {
            let [d, s] = two(rest)?;
            Inst::new(Kind::Itof { dst: reg(d)?, src: reg(s)? })
        }
        "ftoi" => {
            let [d, s] = two(rest)?;
            Inst::new(Kind::Ftoi { dst: reg(d)?, src: reg(s)? })
        }
        "li" => {
            let [d, imm] = two(rest)?;
            Inst::new(Kind::Li { dst: reg(d)?, imm: parse_imm(imm)? })
        }
        "lif" => {
            let [d, imm] = two(rest)?;
            let v: f64 = imm
                .strip_prefix('#')
                .ok_or("float immediate needs `#`")?
                .parse()
                .map_err(|e| format!("bad float: {e}"))?;
            Inst::new(Kind::Lif { dst: reg(d)?, bits: v.to_bits() })
        }
        "ldb" | "ldw" | "ldd" => {
            let [d, mem] = two(rest)?;
            let (disp, base) = mem_operand(mem)?;
            Inst::ld(reg(d)?, base, disp, width(mnemonic))
        }
        "stb" | "stw" | "std" => {
            let [s, mem] = two(rest)?;
            let (disp, base) = mem_operand(mem)?;
            Inst::st(reg(s)?, base, disp, width(mnemonic))
        }
        "br" => {
            let label = target_label(b, rest)?;
            b.br(&label);
            return mark(b, rvp);
        }
        "beq" | "bne" | "blt" | "ble" | "bgt" | "bge" => {
            let [r, t] = two(rest)?;
            let cond = match mnemonic {
                "beq" => Cond::Eq,
                "bne" => Cond::Ne,
                "blt" => Cond::Lt,
                "ble" => Cond::Le,
                "bgt" => Cond::Gt,
                _ => Cond::Ge,
            };
            let src = reg(r)?;
            let label = target_label(b, t)?;
            match cond {
                Cond::Eq => b.beqz(src, &label),
                Cond::Ne => b.bnez(src, &label),
                Cond::Lt => b.bltz(src, &label),
                Cond::Le => b.blez(src, &label),
                Cond::Gt => b.bgtz(src, &label),
                Cond::Ge => b.bgez(src, &label),
            };
            return mark(b, rvp);
        }
        "bsr" => {
            let [d, t] = two(rest)?;
            let label = target_label(b, t)?;
            b.bsr(reg(d)?, &label);
            return mark(b, rvp);
        }
        "ret" => {
            b.ret(paren_reg(rest)?);
            return mark(b, rvp);
        }
        "jmp" => {
            let (base, targets) =
                rest.split_once("->").ok_or("`jmp` needs `-> @t, ...` targets")?;
            let base = paren_reg(base.trim())?;
            let labels: Result<Vec<String>, String> =
                targets.split(',').map(|t| target_label(b, t.trim())).collect();
            let labels = labels?;
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            b.jmp(base, &refs);
            return mark(b, rvp);
        }
        "halt" => Inst::new(Kind::Halt),
        "nop" => Inst::new(Kind::Nop),
        other => return Err(format!("unknown mnemonic `{other}`")),
    };
    b.inst(if rvp { inst.with_rvp() } else { inst });
    Ok(())
}

fn mark(b: &mut ProgramBuilder, rvp: bool) -> Result<(), String> {
    if rvp {
        b.mark_rvp();
    }
    Ok(())
}

/// Branch targets may be `@N` (absolute instruction index) or a label
/// name. Absolute targets are lowered to synthetic labels so the builder
/// can resolve them uniformly.
fn target_label(b: &mut ProgramBuilder, t: &str) -> Result<String, String> {
    if let Some(n) = t.strip_prefix('@') {
        let idx: usize = n.trim().parse().map_err(|e| format!("bad target: {e}"))?;
        let name = format!("__at_{idx}");
        b.label_at(&name, idx);
        Ok(name)
    } else {
        Ok(ident(t)?.to_owned())
    }
}

fn ident(s: &str) -> Result<&str, String> {
    if !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.') {
        Ok(s)
    } else {
        Err(format!("invalid identifier `{s}`"))
    }
}

fn width(mnemonic: &str) -> MemWidth {
    match mnemonic.as_bytes()[2] {
        b'b' => MemWidth::B,
        b'w' => MemWidth::W,
        _ => MemWidth::D,
    }
}

fn alu_op(m: &str) -> Option<AluOp> {
    Some(match m {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        "cmpeq" => AluOp::CmpEq,
        "cmplt" => AluOp::CmpLt,
        "cmpltu" => AluOp::CmpLtu,
        "cmple" => AluOp::CmpLe,
        _ => return None,
    })
}

fn fpu_op(m: &str) -> Option<FpuOp> {
    Some(match m {
        "fadd" => FpuOp::FAdd,
        "fsub" => FpuOp::FSub,
        "fmul" => FpuOp::FMul,
        "fdiv" => FpuOp::FDiv,
        "fcmpeq" => FpuOp::FCmpEq,
        "fcmplt" => FpuOp::FCmpLt,
        "fcmple" => FpuOp::FCmpLe,
        _ => return None,
    })
}

fn split_n<const N: usize>(s: &str) -> Result<[&str; N], String> {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    parts.try_into().map_err(|_| format!("expected {N} comma-separated operands in `{s}`"))
}

fn two(s: &str) -> Result<[&str; 2], String> {
    split_n(s)
}

fn three(s: &str) -> Result<[&str; 3], String> {
    split_n(s)
}

fn reg(s: &str) -> Result<Reg, String> {
    let (class, n) = s.split_at(1.min(s.len()));
    let num: u8 = n.parse().map_err(|_| format!("bad register `{s}`"))?;
    if num >= NUM_REGS_PER_CLASS {
        return Err(format!("register number out of range in `{s}`"));
    }
    match class {
        "r" => Ok(Reg::int(num)),
        "f" => Ok(Reg::fp(num)),
        _ => Err(format!("bad register `{s}`")),
    }
}

fn operand(s: &str) -> Result<Operand, String> {
    if s.starts_with('#') {
        Ok(Operand::Imm(parse_imm(s)?))
    } else {
        Ok(Operand::Reg(reg(s)?))
    }
}

fn parse_imm(s: &str) -> Result<i64, String> {
    let s = s.strip_prefix('#').ok_or_else(|| format!("immediate `{s}` needs `#`"))?;
    let (neg, digits) = match s.strip_prefix('-') {
        Some(d) => (true, d),
        None => (false, s),
    };
    let v = if let Some(hex) = digits.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad immediate: {e}"))?
    } else {
        digits.parse::<u64>().map_err(|e| format!("bad immediate: {e}"))?
    };
    let v = v as i64;
    Ok(if neg { v.wrapping_neg() } else { v })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad number: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number: {e}"))
    }
}

/// `(reg)` operands for `ret` and `jmp`.
fn paren_reg(s: &str) -> Result<Reg, String> {
    let inner = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| format!("expected `(reg)`, got `{s}`"))?;
    reg(inner.trim())
}

/// `disp(base)` memory operands; `disp` may be negative or hex.
fn mem_operand(s: &str) -> Result<(i64, Reg), String> {
    let open = s.find('(').ok_or("memory operand needs `disp(base)`")?;
    let close = s.rfind(')').ok_or("memory operand needs closing `)`")?;
    let disp_str = s[..open].trim();
    let disp = if disp_str.is_empty() {
        0
    } else {
        let (neg, d) = match disp_str.strip_prefix('-') {
            Some(d) => (true, d),
            None => (false, disp_str),
        };
        let v = parse_u64(d)? as i64;
        if neg {
            v.wrapping_neg()
        } else {
            v
        }
    };
    Ok((disp, reg(s[open + 1..close].trim())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basics() {
        let p = parse_asm(
            "
            .data 0x1000: 0x7, 9
            li r1, #0x1000
            loop:
              ldd r2, 0(r1)
              add r3, r3, r2
              sub r2, r2, #1
              bne r2, loop
              halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.label("loop"), Some(1));
        assert_eq!(p.data()[0].words, vec![7, 9]);
    }

    #[test]
    fn round_trips_every_instruction_shape() {
        let src = "
            .entry start
            .data 0x2000: 1, 2
            .proc start
              li r1, #-5
              lif f1, #2.5
              add r2, r1, #7
              xor r3, r2, r1
              fadd f2, f1, f31
              itof f3, r1
              ftoi r4, f3
              ldd r5, 16(r1)
              rvp_ldd r6, -8(r1)
              stb r5, 0(r1)
              beq r5, start
              bsr r26, helper
              jmp (r5) -> @0, @14
              halt
            .proc helper
              nop
              ret (r26)
            ";
        let p1 = parse_asm(src).unwrap();
        let p2 = parse_asm(&p1.to_asm()).unwrap();
        assert_eq!(p1.insts(), p2.insts());
        assert_eq!(p1.entry(), p2.entry());
        assert_eq!(p1.data(), p2.data());
        assert_eq!(p1.procedures(), p2.procedures());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_asm("nop\nbogus r1\n").unwrap_err();
        match err {
            AsmError::Syntax { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("bogus"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn build_errors_are_propagated() {
        let err = parse_asm("br nowhere\n").unwrap_err();
        assert!(matches!(err, AsmError::Build(_)));
    }

    #[test]
    fn negative_and_hex_immediates() {
        let p = parse_asm("li r1, #-42\nli r2, #0xff\nhalt\n").unwrap();
        assert_eq!(p.insts()[0].to_string(), "li r1, #-42");
        assert_eq!(p.insts()[1].to_string(), "li r2, #255");
    }

    #[test]
    fn rejects_out_of_range_registers() {
        assert!(parse_asm("li r32, #1\n").is_err());
        assert!(parse_asm("li q1, #1\n").is_err());
    }
}
