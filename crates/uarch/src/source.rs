//! The committed-instruction stream the timing core consumes.
//!
//! The timing model is trace-driven over the architectural
//! (committed-path) instruction stream: every cell of the paper's
//! scheme × recovery × workload grid replays the *same* committed
//! stream for a given workload, because value misprediction never
//! changes architectural state — only timing. [`CommittedSource`]
//! abstracts where that stream comes from so the grid can pay for
//! functional emulation once per workload instead of once per cell:
//!
//! * [`EmuSource`] — live functional emulation (the fallback; exactly
//!   the pre-refactor behaviour);
//! * [`SharedSource`] — a shared, fully decoded in-memory trace in
//!   columnar form ([`TraceColumns`]) captured once and handed to
//!   every cell.
//!
//! Both must produce bit-identical [`crate::SimStats`]; the
//! integration suite enforces this for every scheme × recovery pair.
//!
//! # The rewind contract
//!
//! Refetch-style misprediction recovery squashes the ROB tail and
//! *re-fetches* the squashed instructions. The core hands the squashed
//! records — sorted ascending by `seq`, a contiguous suffix of what the
//! source has produced so far — back via [`CommittedSource::rewind`];
//! the source must replay exactly those records (in order) before
//! producing new ones. `rewind` drains the vector it is given so the
//! core can reuse the allocation; [`SharedSource`] simply moves its
//! cursor back, making refetch recovery allocation-free.

use std::collections::VecDeque;
use std::sync::Arc;

use rvp_emu::{Committed, Emulator};
use rvp_isa::Program;

use crate::columns::{ColumnsBuilder, TraceColumns};
use crate::stats::SimError;

// `Committed` records are the unit of every source's storage and of the
// rewind path; keep them register-file-width cheap to move.
const _: () = assert!(std::mem::size_of::<Committed>() <= 64);

/// A stream of committed-path instruction records for the timing core.
///
/// The stream starts at `seq == 0` and is consecutive; after a
/// [`rewind`](CommittedSource::rewind) the already-produced suffix is
/// replayed before fresh records resume. [`peek`](CommittedSource::peek)
/// must not advance the stream: the fetch stage inspects the next
/// record's PC for the I-cache model before deciding to consume it.
pub trait CommittedSource {
    /// The next record, without consuming it. `Ok(None)` means the
    /// program ended (a `halt` or the end of a captured trace).
    fn peek(&mut self) -> Result<Option<&Committed>, SimError>;

    /// The next record's PC, without consuming it — all the fetch stage
    /// needs for its I-cache probe. Sources with a columnar backing
    /// store answer this from the hot PC column alone; the default
    /// reads it off the peeked record.
    fn peek_pc(&mut self) -> Result<Option<usize>, SimError> {
        Ok(self.peek()?.map(|r| r.pc))
    }

    /// Consumes and returns the next record.
    fn next_record(&mut self) -> Result<Option<Committed>, SimError>;

    /// Hands back squashed records (ascending by `seq`, a contiguous
    /// suffix of everything produced so far) for replay. Drains
    /// `squashed`.
    fn rewind(&mut self, squashed: &mut Vec<Committed>);
}

/// Initial capacity of the live source's pending queue. The queue
/// holds rewound records plus at most one peeked fresh record, so a
/// squash's depth (bounded by the ROB plus the fetched-but-undispatched
/// suffix) is the realistic high-water mark.
const PENDING_CAPACITY: usize = 256;

/// Most records [`SharedSource::capture`] reserves room for before
/// emulating (480 MiB of columns); a longer capture grows its columns
/// as it goes.
const CAPTURE_PRESIZE: u64 = 1 << 24;

/// Live functional emulation — the fallback source and the exact
/// pre-refactor behaviour of the timing core.
#[derive(Debug)]
pub struct EmuSource<'p> {
    emu: Emulator<'p>,
    /// Rewound records awaiting replay, oldest first; may also hold one
    /// peeked-but-unconsumed fresh record at the back.
    pending: VecDeque<Committed>,
    done: bool,
}

impl<'p> EmuSource<'p> {
    /// A live source over `program`, starting at the first instruction.
    pub fn new(program: &'p Program) -> EmuSource<'p> {
        EmuSource {
            emu: Emulator::new(program),
            pending: VecDeque::with_capacity(PENDING_CAPACITY),
            done: false,
        }
    }

    fn fill(&mut self) -> Result<(), SimError> {
        if self.pending.is_empty() && !self.done {
            match self.emu.step()? {
                Some(rec) => self.pending.push_back(rec),
                None => self.done = true,
            }
        }
        Ok(())
    }
}

impl CommittedSource for EmuSource<'_> {
    fn peek(&mut self) -> Result<Option<&Committed>, SimError> {
        self.fill()?;
        Ok(self.pending.front())
    }

    fn next_record(&mut self) -> Result<Option<Committed>, SimError> {
        self.fill()?;
        Ok(self.pending.pop_front())
    }

    fn rewind(&mut self, squashed: &mut Vec<Committed>) {
        // Any peeked fresh record in `pending` is younger than every
        // squashed record, so pushing the squashed suffix to the front
        // (youngest first) keeps the stream in `seq` order.
        for rec in squashed.drain(..).rev() {
            self.pending.push_front(rec);
        }
    }
}

/// Shared in-memory decoded trace in columnar ([`TraceColumns`]) form,
/// captured once per (workload, input, budget) and fanned out to every
/// grid cell.
///
/// The trace starts at `seq == 0` (a capture, or a re-based sampled
/// window), so the column index *is* the seq, and rewinding is a cursor
/// move — refetch recovery does no work at all on this source. The
/// fetch stage's [`peek_pc`](CommittedSource::peek_pc) probe touches
/// only the hot PC column; a full record is assembled once, on
/// consumption.
#[derive(Debug, Clone)]
pub struct SharedSource {
    trace: Arc<TraceColumns>,
    cursor: usize,
    /// Scratch for the record-returning peek path (tests, the live-mode
    /// trait contract); the hot path goes through `peek_pc`.
    peeked: Option<Committed>,
}

impl SharedSource {
    /// A source replaying `trace` from the beginning.
    pub fn new(trace: Arc<TraceColumns>) -> SharedSource {
        SharedSource { trace, cursor: 0, peeked: None }
    }

    /// Functionally emulates `program` for at most `max_insts`
    /// committed instructions and returns the decoded columnar trace.
    /// The columns are sized for `max_insts` records up front (at most
    /// 16M), so a capture that runs to its budget never reallocates
    /// them.
    pub fn capture(program: &Program, max_insts: u64) -> Result<Arc<TraceColumns>, SimError> {
        let mut emu = Emulator::new(program);
        let presize = max_insts.min(CAPTURE_PRESIZE) as usize;
        let mut trace = ColumnsBuilder::new(0, presize);
        while (trace.len() as u64) < max_insts {
            match emu.step()? {
                Some(rec) => trace.push(&rec),
                None => break,
            }
        }
        Ok(Arc::new(trace.finish()))
    }

    /// The underlying trace (for sharing with further cells).
    pub fn trace(&self) -> &Arc<TraceColumns> {
        &self.trace
    }
}

impl CommittedSource for SharedSource {
    fn peek(&mut self) -> Result<Option<&Committed>, SimError> {
        self.peeked = self.trace.record(self.cursor);
        Ok(self.peeked.as_ref())
    }

    #[inline]
    fn peek_pc(&mut self) -> Result<Option<usize>, SimError> {
        Ok(self.trace.pc(self.cursor))
    }

    #[inline]
    fn next_record(&mut self) -> Result<Option<Committed>, SimError> {
        let rec = self.trace.record(self.cursor);
        if rec.is_some() {
            self.cursor += 1;
        }
        Ok(rec)
    }

    fn rewind(&mut self, squashed: &mut Vec<Committed>) {
        if let Some(first) = squashed.first() {
            self.cursor = (first.seq - self.trace.first_seq()) as usize;
            debug_assert_eq!(self.trace.record(self.cursor).map(|r| r.seq), Some(first.seq));
        }
        squashed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvp_isa::{ProgramBuilder, Reg};

    fn tiny_program() -> Program {
        let r = Reg::int(1);
        let mut b = ProgramBuilder::new();
        b.li(r, 10);
        b.label("top");
        b.subi(r, r, 1);
        b.bnez(r, "top");
        b.halt();
        b.build().unwrap()
    }

    fn drain(src: &mut dyn CommittedSource) -> Vec<Committed> {
        let mut out = Vec::new();
        while let Some(rec) = src.next_record().unwrap() {
            out.push(rec);
        }
        out
    }

    #[test]
    fn emu_and_shared_sources_agree() {
        let p = tiny_program();
        let trace = SharedSource::capture(&p, 1 << 20).unwrap();
        let mut live = EmuSource::new(&p);
        let mut shared = SharedSource::new(Arc::clone(&trace));
        assert_eq!(drain(&mut live), drain(&mut shared));
    }

    #[test]
    fn peek_does_not_consume() {
        let p = tiny_program();
        let mut src = EmuSource::new(&p);
        let peeked = *src.peek().unwrap().unwrap();
        assert_eq!(src.next_record().unwrap().unwrap(), peeked);
        assert_ne!(src.peek().unwrap().unwrap().seq, peeked.seq);
    }

    #[test]
    fn rewind_replays_the_squashed_suffix() {
        let p = tiny_program();
        let trace = SharedSource::capture(&p, 1 << 20).unwrap();
        for (name, src) in [
            ("live", Box::new(EmuSource::new(&p)) as Box<dyn CommittedSource>),
            ("shared", Box::new(SharedSource::new(Arc::clone(&trace)))),
        ] {
            let mut src = src;
            let mut taken = Vec::new();
            for _ in 0..6 {
                taken.push(src.next_record().unwrap().unwrap());
            }
            // Squash the last three and expect them again.
            let mut squashed = taken[3..].to_vec();
            src.rewind(&mut squashed);
            assert!(squashed.is_empty(), "{name}: rewind must drain");
            for expect in &taken[3..] {
                assert_eq!(&src.next_record().unwrap().unwrap(), expect, "{name}");
            }
            assert_eq!(src.next_record().unwrap().unwrap().seq, 6, "{name}");
        }
    }
}
