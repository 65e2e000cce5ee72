//! Structure-of-arrays layout for a committed record stream — the one
//! form every resident committed stream takes: a shared in-memory
//! trace, and each sampled window's warmup and detail.
//!
//! A shared in-memory trace used to be an `Arc<[Committed]>`: 64 bytes
//! per dynamic instruction, streamed front to back by every grid cell.
//! The fetch stage only needs the next record's *PC* to drive the
//! I-cache model, and several fields (`old_value`, the effective
//! address, branch metadata) are consulted well after fetch or not at
//! all for most instructions — yet the AoS layout drags all of them
//! through the cache together. [`TraceColumns`] splits the stream into
//! a *hot* group (pc, destination, new value — touched by every
//! fetch/dispatch) and a *cold* group (old value, effective address and
//! branch outcome), 30 bytes per record in all.
//!
//! Neither `seq` nor `next_pc` is stored per record. A stream is
//! consecutive, so record `i`'s seq is `first_seq + i`; and it is
//! contiguous, so record `i`'s `next_pc` is record `i + 1`'s `pc` — only
//! the last record's `next_pc` is kept. [`ColumnsBuilder::push`] checks
//! both and panics, naming the record, on a stream that breaks either.
//! The round-trip `Committed` → columns → [`TraceColumns::record`] is
//! exact for every such stream (a property test enforces this), which
//! is what lets [`crate::SharedSource`] serve the record API unchanged.

use rvp_emu::Committed;
use rvp_isa::Reg;

/// Sentinel in the destination column for "writes no register".
const NO_DST: u8 = u8::MAX;

/// Flag bits for the cold per-record metadata byte.
const HAS_EFF_ADDR: u8 = 1 << 0;
const HAS_TAKEN: u8 = 1 << 1;
const TAKEN: u8 = 1 << 2;

/// Resident bytes per record: 4 + 1 + 8 hot, 8 + 8 + 1 cold.
const BYTES_PER_RECORD: u64 = 30;

/// A committed record stream in columnar (structure-of-arrays) form.
///
/// Hot columns are what the per-cycle front end streams; cold columns
/// are materialized only when a full [`Committed`] record is assembled.
#[derive(Debug)]
pub struct TraceColumns {
    /// Seq of the first record.
    first_seq: u64,
    // Hot: one touch per fetched instruction.
    pc: Box<[u32]>,
    dst: Box<[u8]>,
    new_value: Box<[u64]>,
    // Cold: assembled into records on demand.
    old_value: Box<[u64]>,
    eff_addr: Box<[u64]>,
    flags: Box<[u8]>,
    /// `next_pc` of the last record; every other record's is the pc of
    /// the one after it.
    last_next_pc: u32,
}

impl TraceColumns {
    /// Transposes `records`, a consecutive and contiguous stream that
    /// starts at any seq, into columns.
    ///
    /// # Panics
    ///
    /// As [`ColumnsBuilder::push`], on a broken stream or a PC that
    /// exceeds `u32`.
    pub fn from_records(records: &[Committed]) -> TraceColumns {
        let first_seq = records.first().map_or(0, |r| r.seq);
        let mut columns = ColumnsBuilder::new(first_seq, records.len());
        for r in records {
            columns.push(r);
        }
        columns.finish()
    }

    /// Number of records in the stream.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Seq of the first record (0 for a stream captured from the
    /// program's start or re-based there).
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Resident size of the columns: 30 bytes per record. This is the
    /// unit the shared in-memory trace cache's byte budget accounts in.
    pub fn approx_bytes(&self) -> u64 {
        self.len() as u64 * BYTES_PER_RECORD
    }

    /// The PC of record `i`, touching only the hot column — the fetch
    /// stage's peek path.
    #[inline]
    pub fn pc(&self, i: usize) -> Option<usize> {
        self.pc.get(i).map(|&p| p as usize)
    }

    /// Assembles the full record at index `i` (its `seq` is
    /// `first_seq + i`).
    #[inline]
    pub fn record(&self, i: usize) -> Option<Committed> {
        let pc = *self.pc.get(i)?;
        let next_pc = self.pc.get(i + 1).copied().unwrap_or(self.last_next_pc);
        let f = self.flags[i];
        let d = self.dst[i];
        Some(Committed {
            seq: self.first_seq + i as u64,
            pc: pc as usize,
            next_pc: next_pc as usize,
            dst: if d == NO_DST { None } else { Some(Reg::from_index(d as usize)) },
            old_value: self.old_value[i],
            new_value: self.new_value[i],
            eff_addr: if f & HAS_EFF_ADDR != 0 { Some(self.eff_addr[i]) } else { None },
            taken: if f & HAS_TAKEN != 0 { Some(f & TAKEN != 0) } else { None },
        })
    }

    /// Iterates the assembled records in order.
    pub fn records(&self) -> impl Iterator<Item = Committed> + '_ {
        (0..self.len()).map(|i| self.record(i).expect("in range"))
    }
}

/// Appends records one at a time into the columns of a
/// [`TraceColumns`], so a producer (an emulator pass, a window cut)
/// never holds the stream as a `Vec<Committed>`.
#[derive(Debug)]
pub struct ColumnsBuilder {
    first_seq: u64,
    pc: Vec<u32>,
    dst: Vec<u8>,
    new_value: Vec<u64>,
    old_value: Vec<u64>,
    eff_addr: Vec<u64>,
    flags: Vec<u8>,
    /// `next_pc` of the last pushed record.
    next_pc: u32,
}

impl ColumnsBuilder {
    /// An empty stream whose first record will be `first_seq`, with
    /// room for `capacity` records. A capacity equal to the final
    /// length makes [`ColumnsBuilder::finish`] copy nothing.
    pub fn new(first_seq: u64, capacity: usize) -> ColumnsBuilder {
        ColumnsBuilder {
            first_seq,
            pc: Vec::with_capacity(capacity),
            dst: Vec::with_capacity(capacity),
            new_value: Vec::with_capacity(capacity),
            old_value: Vec::with_capacity(capacity),
            eff_addr: Vec::with_capacity(capacity),
            flags: Vec::with_capacity(capacity),
            next_pc: 0,
        }
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Appends `r`, the next record of the stream.
    ///
    /// # Panics
    ///
    /// Panics, naming the record's index, if `r` breaks the stream:
    /// its seq is not the next one, or its PC is not the previous
    /// record's `next_pc`. Also panics if a PC exceeds `u32`.
    pub fn push(&mut self, r: &Committed) {
        let i = self.len();
        let seq = self.first_seq + i as u64;
        assert!(
            r.seq == seq,
            "broken stream at record {i}: seq {} is not consecutive ({seq})",
            r.seq
        );
        let pc = u32::try_from(r.pc).expect("pc fits u32");
        assert!(
            i == 0 || pc == self.next_pc,
            "broken stream at record {i}: pc {pc} does not follow the previous next_pc {}",
            self.next_pc
        );
        self.pc.push(pc);
        self.next_pc = u32::try_from(r.next_pc).expect("pc fits u32");
        self.dst.push(r.dst.map_or(NO_DST, |d| d.index() as u8));
        self.new_value.push(r.new_value);
        self.old_value.push(r.old_value);
        self.eff_addr.push(r.eff_addr.unwrap_or(0));
        let mut f = 0u8;
        if r.eff_addr.is_some() {
            f |= HAS_EFF_ADDR;
        }
        if let Some(t) = r.taken {
            f |= HAS_TAKEN;
            if t {
                f |= TAKEN;
            }
        }
        self.flags.push(f);
    }

    /// The pushed stream, in columns.
    pub fn finish(self) -> TraceColumns {
        TraceColumns {
            first_seq: self.first_seq,
            pc: self.pc.into(),
            dst: self.dst.into(),
            new_value: self.new_value.into(),
            old_value: self.old_value.into(),
            eff_addr: self.eff_addr.into(),
            flags: self.flags.into(),
            last_next_pc: self.next_pc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift so the property test needs no external
    /// randomness source.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn arbitrary_record(seq: u64, pc: usize, rng: &mut XorShift) -> Committed {
        let r = rng.next();
        Committed {
            seq,
            pc,
            next_pc: (rng.next() % 10_000) as usize,
            dst: if r & 1 != 0 {
                Some(Reg::from_index((rng.next() % rvp_isa::NUM_REGS as u64) as usize))
            } else {
                None
            },
            old_value: rng.next(),
            new_value: rng.next(),
            eff_addr: if r & 2 != 0 { Some(rng.next()) } else { None },
            taken: if r & 4 != 0 { Some(r & 8 != 0) } else { None },
        }
    }

    /// `n` arbitrary records from `first_seq` on, each `pc` the previous
    /// record's `next_pc`: a valid committed stream.
    fn arbitrary_stream(first_seq: u64, n: usize, rng: &mut XorShift) -> Vec<Committed> {
        let mut pc = (rng.next() % 10_000) as usize;
        (0..n as u64)
            .map(|i| {
                let r = arbitrary_record(first_seq + i, pc, rng);
                pc = r.next_pc;
                r
            })
            .collect()
    }

    #[test]
    fn round_trips_arbitrary_records_exactly() {
        let mut rng = XorShift(0x243F_6A88_85A3_08D3);
        for trial in 0..64 {
            let n = (rng.next() % 200) as usize;
            let first_seq = if trial % 2 == 0 { 0 } else { rng.next() % 1_000_000 };
            let records = arbitrary_stream(first_seq, n, &mut rng);
            let cols = TraceColumns::from_records(&records);
            assert_eq!(cols.len(), records.len(), "trial {trial}");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(cols.record(i).as_ref(), Some(r), "trial {trial}, record {i}");
                assert_eq!(cols.pc(i), Some(r.pc), "trial {trial}, record {i}");
            }
            assert_eq!(cols.record(n), None);
            assert_eq!(cols.pc(n), None);
            assert_eq!(cols.records().collect::<Vec<_>>(), records);
        }
    }

    #[test]
    #[should_panic(expected = "broken stream at record 1: seq 2 is not consecutive")]
    fn rejects_non_consecutive_seqs() {
        let mut rng = XorShift(1);
        let mut records = arbitrary_stream(0, 2, &mut rng);
        records[1].seq = 2;
        let _ = TraceColumns::from_records(&records);
    }

    #[test]
    #[should_panic(expected = "broken stream at record 3: pc")]
    fn rejects_a_broken_stream() {
        let mut rng = XorShift(2);
        let mut records = arbitrary_stream(40, 5, &mut rng);
        records[3].pc = records[2].next_pc + 1;
        let _ = TraceColumns::from_records(&records);
    }

    #[test]
    fn approx_bytes_is_what_the_columns_allocate() {
        let mut rng = XorShift(3);
        for n in [0, 1, 257] {
            let cols = TraceColumns::from_records(&arbitrary_stream(9, n, &mut rng));
            let allocated = std::mem::size_of_val(&*cols.pc)
                + std::mem::size_of_val(&*cols.dst)
                + std::mem::size_of_val(&*cols.new_value)
                + std::mem::size_of_val(&*cols.old_value)
                + std::mem::size_of_val(&*cols.eff_addr)
                + std::mem::size_of_val(&*cols.flags);
            assert_eq!(cols.approx_bytes(), allocated as u64, "{n} records");
        }
    }
}
