//! On-disk trace format: header, metadata key and per-record codec.
//!
//! Layout (all integers little-endian, varints LEB128):
//!
//! ```text
//! magic "RVPT" | version u16 | meta_len u32 | record_count u64
//! meta bytes (meta_len of them) | meta_fnv u64
//! frame*  (count varint >0, payload_len varint, payload_fnv u64, payload)
//! end marker (single 0x00 byte, i.e. a frame with count 0)
//! ```
//!
//! `record_count` sits at a fixed offset ([`COUNT_OFFSET`]) so the
//! writer can patch it when finishing; it is written as `u64::MAX`
//! during capture, which lets readers distinguish an interrupted capture
//! from a merely truncated file.

use std::error::Error;
use std::fmt;
use std::hash::Hasher;

use rvp_emu::{Committed, EmuError, STACK_TOP};
use rvp_isa::{analysis::abi, Program, Reg, NUM_REGS};

use crate::varint::{fnv1a, get_varint, put_varint, unzigzag, zigzag, Fnv1a};

/// Current format version; bumped on any byte-level change.
pub const FORMAT_VERSION: u16 = 1;

/// Records per frame: large enough to amortize the frame header, small
/// enough that a corrupt frame loses little and the reader's resident
/// buffer stays cache-friendly.
pub const FRAME_RECORDS: usize = 4096;

/// File magic.
pub const MAGIC: [u8; 4] = *b"RVPT";

/// Byte offset of the patchable `record_count` field.
pub const COUNT_OFFSET: u64 = 4 + 2 + 4;

/// Sentinel `record_count` meaning the writer never finished.
pub const COUNT_UNFINISHED: u64 = u64::MAX;

/// Which input set a trace was captured from.
///
/// A local mirror of `rvp_workloads::Input` so this crate does not
/// depend on the workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceInput {
    /// The smaller profiling input.
    Train,
    /// The measurement input.
    Ref,
}

impl TraceInput {
    /// Stable on-disk/file-name tag.
    pub fn tag(self) -> &'static str {
        match self {
            TraceInput::Train => "train",
            TraceInput::Ref => "ref",
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            TraceInput::Train => 0,
            TraceInput::Ref => 1,
        }
    }

    fn from_byte(b: u8) -> Option<TraceInput> {
        match b {
            0 => Some(TraceInput::Train),
            1 => Some(TraceInput::Ref),
            _ => None,
        }
    }
}

/// The key a trace is stored and validated under.
///
/// Two runs may share a cached trace only if every field matches:
/// workload and input name the generator, `budget` bounds the captured
/// record count, and `program_len`/`program_hash` pin the exact static
/// program the stream was recorded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (as in `rvp_workloads`).
    pub workload: String,
    /// Input set the program was built for.
    pub input: TraceInput,
    /// Maximum committed instructions captured.
    pub budget: u64,
    /// Static instruction count of the traced program.
    pub program_len: u64,
    /// Structural hash of the traced program (see [`program_hash`]).
    pub program_hash: u64,
}

impl TraceMeta {
    /// Builds the metadata key for capturing `program`.
    pub fn for_program(
        workload: impl Into<String>,
        input: TraceInput,
        budget: u64,
        program: &Program,
    ) -> TraceMeta {
        TraceMeta {
            workload: workload.into(),
            input,
            budget,
            program_len: program.len() as u64,
            program_hash: program_hash(program),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.workload.len());
        put_varint(&mut out, self.workload.len() as u64);
        out.extend_from_slice(self.workload.as_bytes());
        out.push(self.input.to_byte());
        put_varint(&mut out, self.budget);
        put_varint(&mut out, self.program_len);
        out.extend_from_slice(&self.program_hash.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<TraceMeta> {
        let mut pos = 0;
        let name_len = get_varint(buf, &mut pos)? as usize;
        let name = buf.get(pos..pos + name_len)?;
        pos += name_len;
        let workload = std::str::from_utf8(name).ok()?.to_string();
        let input = TraceInput::from_byte(*buf.get(pos)?)?;
        pos += 1;
        let budget = get_varint(buf, &mut pos)?;
        let program_len = get_varint(buf, &mut pos)?;
        let hash = buf.get(pos..pos + 8)?;
        pos += 8;
        if pos != buf.len() {
            return None;
        }
        Some(TraceMeta {
            workload,
            input,
            budget,
            program_len,
            program_hash: u64::from_le_bytes(hash.try_into().ok()?),
        })
    }
}

/// Structural hash of a program: its full textual form (instructions,
/// data segments, procedures, entry) under FNV-1a. Any change to the
/// generated workload invalidates cached traces. The text is streamed
/// into the hash ([`Program::write_asm`]), never built in memory.
pub fn program_hash(program: &Program) -> u64 {
    struct Sink(Fnv1a);
    impl fmt::Write for Sink {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut sink = Sink(Fnv1a::default());
    program.write_asm(&mut sink).expect("hashing cannot fail");
    sink.0.finish()
}

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The emulator failed while capturing.
    Emu(EmuError),
    /// The file does not start with the trace magic.
    BadMagic,
    /// The file uses a different format version.
    Version {
        /// Version found in the file.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The header or its checksum is malformed.
    HeaderCorrupt,
    /// The writer of this file never finished; it cannot be trusted.
    Unfinished,
    /// A frame's payload did not match its checksum.
    ChecksumMismatch {
        /// Zero-based index of the bad frame.
        frame: u64,
    },
    /// The file ended before its end marker.
    Truncated,
    /// The decoded record count disagrees with the header.
    CountMismatch {
        /// Count promised by the header.
        header: u64,
        /// Records actually decoded.
        decoded: u64,
    },
    /// A record could not be decoded.
    Corrupt(&'static str),
    /// The trace exists but was captured under a different key.
    MetaMismatch {
        /// First differing field.
        field: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Emu(e) => write!(f, "emulation error during capture: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::Version { found, expected } => {
                write!(f, "trace format version {found}, expected {expected}")
            }
            TraceError::HeaderCorrupt => write!(f, "trace header corrupt"),
            TraceError::Unfinished => write!(f, "trace capture was interrupted"),
            TraceError::ChecksumMismatch { frame } => {
                write!(f, "checksum mismatch in frame {frame}")
            }
            TraceError::Truncated => write!(f, "trace truncated before end marker"),
            TraceError::CountMismatch { header, decoded } => {
                write!(f, "trace holds {decoded} records but header promised {header}")
            }
            TraceError::Corrupt(what) => write!(f, "trace record corrupt: {what}"),
            TraceError::MetaMismatch { field } => {
                write!(f, "trace metadata mismatch on {field}")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Emu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<EmuError> for TraceError {
    fn from(e: EmuError) -> TraceError {
        TraceError::Emu(e)
    }
}

/// Serializes the header (everything before the first frame).
pub fn encode_header(meta: &TraceMeta, record_count: u64) -> Vec<u8> {
    let meta_bytes = meta.encode();
    let mut out = Vec::with_capacity(26 + meta_bytes.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(meta_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_count.to_le_bytes());
    out.extend_from_slice(&meta_bytes);
    out.extend_from_slice(&fnv1a(&meta_bytes).to_le_bytes());
    out
}

/// Result of parsing a header.
pub struct Header {
    /// The stored metadata key.
    pub meta: TraceMeta,
    /// Total records promised ([`COUNT_UNFINISHED`] if never finished).
    pub record_count: u64,
}

/// Parses and validates a header from a reader positioned at the start
/// of the file.
pub fn decode_header(r: &mut impl std::io::Read) -> Result<Header, TraceError> {
    let mut fixed = [0u8; 18];
    read_exact_or(r, &mut fixed, TraceError::HeaderCorrupt)?;
    if fixed[0..4] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if version != FORMAT_VERSION {
        return Err(TraceError::Version { found: version, expected: FORMAT_VERSION });
    }
    let meta_len = u32::from_le_bytes([fixed[6], fixed[7], fixed[8], fixed[9]]) as usize;
    if meta_len > 1 << 16 {
        return Err(TraceError::HeaderCorrupt);
    }
    let record_count = u64::from_le_bytes(fixed[10..18].try_into().expect("8 bytes"));
    let mut meta_bytes = vec![0u8; meta_len];
    read_exact_or(r, &mut meta_bytes, TraceError::HeaderCorrupt)?;
    let mut stored_fnv = [0u8; 8];
    read_exact_or(r, &mut stored_fnv, TraceError::HeaderCorrupt)?;
    if fnv1a(&meta_bytes) != u64::from_le_bytes(stored_fnv) {
        return Err(TraceError::HeaderCorrupt);
    }
    let meta = TraceMeta::decode(&meta_bytes).ok_or(TraceError::HeaderCorrupt)?;
    if record_count == COUNT_UNFINISHED {
        return Err(TraceError::Unfinished);
    }
    Ok(Header { meta, record_count })
}

fn read_exact_or(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    on_eof: TraceError,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            on_eof
        } else {
            TraceError::Io(e)
        }
    })
}

const FLAG_HAS_DST: u8 = 1 << 0;
const FLAG_SAME_VALUE: u8 = 1 << 1;
const FLAG_HAS_ADDR: u8 = 1 << 2;
const FLAG_HAS_TAKEN: u8 = 1 << 3;
const FLAG_TAKEN: u8 = 1 << 4;
const FLAG_PC_SEQ: u8 = 1 << 5;
const FLAG_NEXT_SEQ: u8 = 1 << 6;

/// Shared encoder/decoder state: the codec is a deterministic function
/// of the record stream, so writer and reader evolve identical copies.
///
/// `shadow` replays the architectural register file, which is what lets
/// the format omit `old_value` entirely — it is always the shadow value
/// of the destination at decode time (the paper's prior register value).
pub struct CodecState {
    prev_next_pc: u64,
    prev_addr: u64,
    shadow: [u64; NUM_REGS],
}

impl CodecState {
    /// Initial state: registers zero except the ABI stack pointer,
    /// matching [`rvp_emu::Emulator::new`].
    pub fn new() -> CodecState {
        let mut shadow = [0u64; NUM_REGS];
        shadow[abi::SP.index()] = STACK_TOP;
        CodecState { prev_next_pc: 0, prev_addr: 0, shadow }
    }
}

impl Default for CodecState {
    fn default() -> CodecState {
        CodecState::new()
    }
}

/// Appends one record to `out`, updating `state`.
#[inline]
pub fn encode_record(state: &mut CodecState, c: &Committed, out: &mut Vec<u8>) {
    let mut flags = 0u8;
    let pc = c.pc as u64;
    let next_pc = c.next_pc as u64;
    if pc == state.prev_next_pc {
        flags |= FLAG_PC_SEQ;
    }
    if next_pc == pc + 1 {
        flags |= FLAG_NEXT_SEQ;
    }
    if let Some(dst) = c.dst {
        flags |= FLAG_HAS_DST;
        debug_assert_eq!(
            state.shadow[dst.index()],
            c.old_value,
            "shadow register file diverged from the committed stream"
        );
        if c.new_value == c.old_value {
            flags |= FLAG_SAME_VALUE;
        }
    }
    if c.eff_addr.is_some() {
        flags |= FLAG_HAS_ADDR;
    }
    if let Some(taken) = c.taken {
        flags |= FLAG_HAS_TAKEN;
        if taken {
            flags |= FLAG_TAKEN;
        }
    }
    out.push(flags);
    if flags & FLAG_PC_SEQ == 0 {
        put_varint(out, zigzag(pc.wrapping_sub(state.prev_next_pc) as i64));
    }
    if flags & FLAG_NEXT_SEQ == 0 {
        put_varint(out, zigzag(next_pc.wrapping_sub(pc + 1) as i64));
    }
    if let Some(dst) = c.dst {
        out.push(dst.index() as u8);
        if flags & FLAG_SAME_VALUE == 0 {
            put_varint(out, zigzag(c.new_value.wrapping_sub(c.old_value) as i64));
        }
        state.shadow[dst.index()] = c.new_value;
    }
    if let Some(addr) = c.eff_addr {
        put_varint(out, zigzag(addr.wrapping_sub(state.prev_addr) as i64));
        state.prev_addr = addr;
    }
    state.prev_next_pc = next_pc;
}

/// Decodes one record from `buf` at `*pos`, updating `state`.
#[inline]
pub fn decode_record(
    state: &mut CodecState,
    buf: &[u8],
    pos: &mut usize,
    seq: u64,
) -> Result<Committed, TraceError> {
    let flags = *buf.get(*pos).ok_or(TraceError::Corrupt("missing flags byte"))?;
    *pos += 1;
    if flags & 0x80 != 0 {
        return Err(TraceError::Corrupt("reserved flag bit set"));
    }
    let pc = if flags & FLAG_PC_SEQ != 0 {
        state.prev_next_pc
    } else {
        let delta = get_varint(buf, pos).ok_or(TraceError::Corrupt("bad pc delta"))?;
        state.prev_next_pc.wrapping_add(unzigzag(delta) as u64)
    };
    let next_pc = if flags & FLAG_NEXT_SEQ != 0 {
        pc + 1
    } else {
        let delta = get_varint(buf, pos).ok_or(TraceError::Corrupt("bad next_pc delta"))?;
        (pc + 1).wrapping_add(unzigzag(delta) as u64)
    };
    let (dst, old_value, new_value) = if flags & FLAG_HAS_DST != 0 {
        let idx = *buf.get(*pos).ok_or(TraceError::Corrupt("missing dst register"))? as usize;
        *pos += 1;
        if idx >= NUM_REGS {
            return Err(TraceError::Corrupt("dst register out of range"));
        }
        let old = state.shadow[idx];
        let new = if flags & FLAG_SAME_VALUE != 0 {
            old
        } else {
            let delta = get_varint(buf, pos).ok_or(TraceError::Corrupt("bad value delta"))?;
            old.wrapping_add(unzigzag(delta) as u64)
        };
        state.shadow[idx] = new;
        (Some(Reg::from_index(idx)), old, new)
    } else {
        (None, 0, 0)
    };
    let eff_addr = if flags & FLAG_HAS_ADDR != 0 {
        let delta = get_varint(buf, pos).ok_or(TraceError::Corrupt("bad address delta"))?;
        let addr = state.prev_addr.wrapping_add(unzigzag(delta) as u64);
        state.prev_addr = addr;
        Some(addr)
    } else {
        None
    };
    let taken = if flags & FLAG_HAS_TAKEN != 0 { Some(flags & FLAG_TAKEN != 0) } else { None };
    state.prev_next_pc = next_pc;
    Ok(Committed {
        seq,
        pc: pc as usize,
        next_pc: next_pc as usize,
        dst,
        old_value,
        new_value,
        eff_addr,
        taken,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, pc: usize, dst: Option<Reg>, old: u64, new: u64) -> Committed {
        Committed {
            seq,
            pc,
            next_pc: pc + 1,
            dst,
            old_value: old,
            new_value: new,
            eff_addr: None,
            taken: None,
        }
    }

    #[test]
    fn codec_round_trips_and_same_value_is_free() {
        let mut enc = CodecState::new();
        let mut buf = Vec::new();
        let records = [
            sample(0, 0, Some(Reg::int(1)), 0, 9),
            // Same-register reuse: costs flags + dst only.
            sample(1, 1, Some(Reg::int(1)), 9, 9),
            sample(2, 2, None, 0, 0),
        ];
        let mut sizes = Vec::new();
        for r in &records {
            let before = buf.len();
            encode_record(&mut enc, r, &mut buf);
            sizes.push(buf.len() - before);
        }
        assert_eq!(sizes[1], 2, "same-value record should be flags + dst");

        let mut dec = CodecState::new();
        let mut pos = 0;
        for (seq, want) in records.iter().enumerate() {
            let got = decode_record(&mut dec, &buf, &mut pos, seq as u64).unwrap();
            assert_eq!(&got, want);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn header_round_trips() {
        let meta = TraceMeta {
            workload: "m88ksim".into(),
            input: TraceInput::Train,
            budget: 1_500_000,
            program_len: 321,
            program_hash: 0xdead_beef_cafe_f00d,
        };
        let bytes = encode_header(&meta, 42);
        let h = decode_header(&mut bytes.as_slice()).unwrap();
        assert_eq!(h.meta, meta);
        assert_eq!(h.record_count, 42);
    }

    #[test]
    fn unfinished_header_is_rejected() {
        let meta = TraceMeta {
            workload: "x".into(),
            input: TraceInput::Ref,
            budget: 1,
            program_len: 1,
            program_hash: 1,
        };
        let bytes = encode_header(&meta, COUNT_UNFINISHED);
        assert!(matches!(decode_header(&mut bytes.as_slice()), Err(TraceError::Unfinished)));
    }
}
