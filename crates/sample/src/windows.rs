//! Window extraction: cut each representative interval (plus its
//! functional-warmup prefix) out of the committed stream into shareable
//! in-memory trace columns.
//!
//! The BBV pass that planned the run already emulated the whole stream,
//! so it keeps a few [`Checkpoints`] — emulator snapshots on interval
//! boundaries — and the cut resumes each window from the latest one at
//! or before the window's warmup start instead of re-emulating from seq
//! 0. A stream with only its seq-0 state (a plan loaded from disk, or a
//! register-reallocated program) is cut in one forward pass by the same
//! routine.
//!
//! Only the planned windows are materialized — a 100M-instruction run
//! with a handful of 250K-instruction representatives keeps a few MB in
//! memory instead of the ~3.4GB a full [`TraceColumns`] would need.
//! Detail records are re-based to seq 0 so each window is a
//! self-contained committed stream any [`rvp_uarch::SharedSource`] can
//! serve (the columns' `from_records` requires consecutive seqs from
//! zero, and the timing core asserts stream contiguity).

use std::sync::Arc;

use rvp_emu::{Committed, Emulator};
use rvp_isa::Program;
use rvp_obs::CancelToken;
use rvp_uarch::{SimError, TraceColumns};

use crate::plan::SamplePlan;

/// Cancel polls in the streaming emulation passes happen every
/// `CANCEL_CHECK_MASK + 1` committed records — the same amortization
/// idea as the cycle loop's, so a sampled cell squashes within
/// milliseconds of its token firing even while profiling or cutting.
pub const CANCEL_CHECK_MASK: u64 = 0x1FFF;

/// One representative interval, materialized.
#[derive(Debug, Clone)]
pub struct SampleWindow {
    /// Index of the interval in the profiled stream.
    pub index: usize,
    /// First committed seq of the detail interval in the full stream.
    pub start: u64,
    /// Whole-run instruction share this window's stats stand for.
    pub weight: f64,
    /// Cluster the representative was drawn from.
    pub cluster: usize,
    /// Functional-warmup records (original seqs), immediately preceding
    /// `start`; shorter than the plan's window at the stream head.
    pub warmup: Arc<Vec<Committed>>,
    /// The detail interval, re-based to seq 0.
    pub detail: Arc<TraceColumns>,
}

/// Emulator snapshots of one program's run that a window cut may resume
/// from, ascending by committed count; the first is the initial state.
///
/// A pass over `budget` instructions keeps at most [`Checkpoints::MAX`]
/// of them, each on an interval boundary. A snapshot owns a copy of
/// every memory page the program has touched, so the set costs at most
/// `MAX × (touched pages × 4 KiB + the register file)`.
#[derive(Debug)]
pub struct Checkpoints<'p> {
    snaps: Vec<Emulator<'p>>,
    /// Committed count at which [`Checkpoints::observe`] keeps the next
    /// snapshot.
    next: u64,
    /// Instructions between snapshots.
    stride: u64,
}

impl<'p> Checkpoints<'p> {
    /// Most snapshots one pass keeps, the initial state included.
    pub const MAX: usize = 32;

    /// Only the initial state of `program`: a cut from it is a single
    /// forward pass.
    pub fn initial(program: &'p Program) -> Checkpoints<'p> {
        Checkpoints { snaps: vec![Emulator::new(program)], next: u64::MAX, stride: u64::MAX }
    }

    /// The initial state of `program`, ready to keep snapshots during a
    /// pass of `budget` instructions split into `interval`-sized
    /// intervals: one every so many intervals, the fewest that fit the
    /// pass into [`Checkpoints::MAX`] snapshots.
    pub fn for_pass(program: &'p Program, budget: u64, interval: u64) -> Checkpoints<'p> {
        let stride = budget.div_ceil(interval).div_ceil(Self::MAX as u64) * interval;
        Checkpoints { next: stride, stride, ..Checkpoints::initial(program) }
    }

    /// Offers the pass's emulator before its next step; keeps a
    /// snapshot when its committed count is the next stride boundary.
    #[inline]
    pub fn observe(&mut self, emu: &Emulator<'p>) {
        if emu.committed() == self.next {
            self.snaps.push(emu.clone());
            self.next =
                if self.snaps.len() < Self::MAX { self.next + self.stride } else { u64::MAX };
        }
    }

    /// Cuts every window of `plan`, each resumed from the latest
    /// snapshot at or before its warmup start — or from where the
    /// previous window's cut ended, when that is later. The
    /// `sample.extract` span reports both the plan's `replayed`
    /// instructions and the ones actually `emulated`.
    ///
    /// # Errors
    ///
    /// [`SimError::Emu`] from the emulator, or [`SimError::Cancelled`]
    /// once `cancel` fires.
    ///
    /// # Panics
    ///
    /// Panics if the program halts inside a planned window (see
    /// [`extract_windows`]).
    pub fn cut(
        &self,
        plan: &SamplePlan,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<SampleWindow>, SimError> {
        let mut stream = Resume { snaps: &self.snaps, emu: self.snaps[0].clone(), cancel };
        cut(plan, &mut stream).map(|(windows, _)| windows)
    }
}

/// Extracts every planned window from `records`, the committed stream
/// in order from seq 0 (e.g. an emulator or trace-reader iterator).
/// The same cut as [`Checkpoints::cut`] with no snapshot to resume
/// from: one forward pass, which stops pulling as soon as the last
/// planned window is complete.
///
/// # Errors
///
/// Propagates the first stream error.
///
/// # Panics
///
/// Panics if the stream ends before a planned window does — the plan
/// was built from the same stream, so that means the caller replayed a
/// different (shorter) run than the one profiled.
pub fn extract_windows<E>(
    plan: &SamplePlan,
    records: impl Iterator<Item = Result<Committed, E>>,
) -> Result<Vec<SampleWindow>, E> {
    cut(plan, &mut Forward { records, pos: 0 }).map(|(windows, _)| windows)
}

/// A committed stream a cut reads, able to skip ahead.
trait Resumable {
    type Error;

    /// Seq of the record [`Resumable::next`] returns.
    fn position(&self) -> u64;

    /// Skips to the latest resume point at or before `seq` if that lies
    /// past [`Resumable::position`]; otherwise stays put.
    fn resume_toward(&mut self, seq: u64);

    /// The next record, `None` at the end of the stream.
    fn next(&mut self) -> Option<Result<Committed, Self::Error>>;
}

/// A plain record iterator: no resume point but the stream head.
struct Forward<I> {
    records: I,
    pos: u64,
}

impl<E, I: Iterator<Item = Result<Committed, E>>> Resumable for Forward<I> {
    type Error = E;

    fn position(&self) -> u64 {
        self.pos
    }

    fn resume_toward(&mut self, _seq: u64) {}

    fn next(&mut self) -> Option<Result<Committed, E>> {
        self.pos += 1;
        self.records.next()
    }
}

/// An emulator that may jump to any of a program's snapshots.
struct Resume<'c, 'p> {
    snaps: &'c [Emulator<'p>],
    emu: Emulator<'p>,
    cancel: Option<&'c CancelToken>,
}

impl Resumable for Resume<'_, '_> {
    type Error = SimError;

    fn position(&self) -> u64 {
        self.emu.committed()
    }

    fn resume_toward(&mut self, seq: u64) {
        let at = self.snaps.partition_point(|s| s.committed() <= seq);
        if let Some(snap) = at.checked_sub(1).map(|i| &self.snaps[i]) {
            if snap.committed() > self.emu.committed() {
                self.emu.clone_from(snap);
            }
        }
    }

    fn next(&mut self) -> Option<Result<Committed, SimError>> {
        let seq = self.emu.committed();
        if seq & CANCEL_CHECK_MASK == 0 {
            if let Some(reason) = self.cancel.and_then(CancelToken::poll) {
                return Some(Err(SimError::Cancelled { cycle: 0, committed: seq, reason }));
            }
        }
        self.emu.step().map_err(SimError::Emu).transpose()
    }
}

/// The one window cut: walks the stream once, skipping ahead to each
/// window's warmup start whenever no window is open, and offers every
/// record to the windows still being filled. Returns the windows and
/// the number of records read.
fn cut<S: Resumable>(
    plan: &SamplePlan,
    stream: &mut S,
) -> Result<(Vec<SampleWindow>, u64), S::Error> {
    let mut span = rvp_obs::span!("sample.extract", {
        windows: plan.intervals.len() as u64,
        replayed: plan.replayed_insts()
    });
    // (warmup range, detail range) per representative, in stream order.
    struct Pending {
        warmup_start: u64,
        detail_start: u64,
        detail_end: u64,
        warmup: Vec<Committed>,
        detail: Vec<Committed>,
    }
    let mut pending: Vec<Pending> = plan
        .intervals
        .iter()
        .map(|r| Pending {
            warmup_start: r.start.saturating_sub(plan.warmup_insts),
            detail_start: r.start,
            detail_end: r.start + r.len,
            warmup: Vec::new(),
            detail: Vec::with_capacity(r.len as usize),
        })
        .collect();

    // `open` is the first window whose detail is incomplete. A record
    // can belong to several windows (an adjacent representative's
    // detail range overlaps the next one's warmup range when warmup
    // spans a whole interval), so each record is offered to every
    // window from `open` on.
    let mut open = 0;
    let mut read = 0u64;
    while let Some(first) = pending.get(open) {
        stream.resume_toward(first.warmup_start);
        let seq = stream.position();
        let Some(rec) = stream.next() else { break };
        let rec = rec?;
        read += 1;
        debug_assert_eq!(rec.seq, seq, "committed stream must be consecutive");
        for p in &mut pending[open..] {
            if seq >= p.warmup_start && seq < p.detail_start {
                p.warmup.push(rec);
            } else if seq >= p.detail_start && seq < p.detail_end {
                let mut rebased = rec;
                rebased.seq -= p.detail_start;
                p.detail.push(rebased);
            }
        }
        while pending.get(open).is_some_and(|p| seq + 1 >= p.detail_end) {
            open += 1;
        }
    }
    span.add_field("emulated", read);

    let windows = plan
        .intervals
        .iter()
        .zip(pending)
        .map(|(r, p)| {
            assert_eq!(
                p.detail.len() as u64,
                r.len,
                "stream ended inside planned interval {} (stream/plan mismatch)",
                r.index
            );
            SampleWindow {
                index: r.index,
                start: r.start,
                weight: r.weight,
                cluster: r.cluster,
                warmup: Arc::new(p.warmup),
                detail: Arc::new(TraceColumns::from_records(&p.detail)),
            }
        })
        .collect();
    Ok((windows, read))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RepInterval;
    use rvp_isa::{ProgramBuilder, Reg};

    /// A loop whose loads read what the previous iteration stored, over
    /// a buffer that crosses a page boundary: a resumed emulator that
    /// lost a register or a page would commit different values.
    fn chained_loop(iterations: i64) -> Program {
        let (p, v, n) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new();
        b.li(p, 0x2000 - 8 * 64).li(n, iterations);
        b.label("loop");
        b.ld(v, p, 0);
        b.addi(v, v, 3);
        b.st(v, p, 8);
        b.addi(p, p, 8);
        b.subi(n, n, 1);
        b.bnez(n, "loop");
        b.halt();
        b.build().unwrap()
    }

    /// Runs the pass a plan is built from: every record, with snapshots
    /// kept as the BBV pass keeps them.
    fn pass(program: &Program, budget: u64, interval: u64) -> (Vec<Committed>, Checkpoints<'_>) {
        let mut checkpoints = Checkpoints::for_pass(program, budget, interval);
        let mut emu = Emulator::new(program);
        let mut records = Vec::new();
        while (records.len() as u64) < budget {
            checkpoints.observe(&emu);
            match emu.step().unwrap() {
                Some(rec) => records.push(rec),
                None => break,
            }
        }
        (records, checkpoints)
    }

    fn plan_with(starts: &[u64], len: u64, warmup: u64) -> SamplePlan {
        let intervals: Vec<RepInterval> = starts
            .iter()
            .enumerate()
            .map(|(cluster, &start)| RepInterval {
                index: (start / len) as usize,
                start,
                len,
                weight: 1.0 / starts.len() as f64,
                cluster,
                cluster_size: 1,
            })
            .collect();
        SamplePlan {
            interval_insts: len,
            warmup_insts: warmup,
            dims: 4,
            k: intervals.len(),
            seed: 0,
            total_insts: 1000,
            intervals,
        }
    }

    /// Cuts `plan` from the snapshots, and checks it against a forward
    /// pass and against the records themselves.
    fn cut_and_check(
        plan: &SamplePlan,
        records: &[Committed],
        checkpoints: &Checkpoints<'_>,
    ) -> (Vec<SampleWindow>, u64) {
        let mut stream =
            Resume { snaps: &checkpoints.snaps, emu: checkpoints.snaps[0].clone(), cancel: None };
        let (windows, emulated) = cut(plan, &mut stream).unwrap();
        let forward = extract_windows(plan, records.iter().map(|&r| Ok::<_, ()>(r))).unwrap();
        assert_eq!(windows.len(), plan.intervals.len());
        for (w, f) in windows.iter().zip(&forward) {
            assert_eq!(w.warmup, f.warmup, "window {}: warmup differs", w.index);
            let (got, want): (Vec<_>, Vec<_>) =
                (w.detail.records().collect(), f.detail.records().collect());
            assert_eq!(got, want, "window {}: detail differs", w.index);
            let warm_from = w.start.saturating_sub(plan.warmup_insts) as usize;
            assert_eq!(w.warmup[..], records[warm_from..w.start as usize], "original seqs kept");
            for (i, rec) in got.iter().enumerate() {
                let orig = records[w.start as usize + i];
                assert_eq!(*rec, Committed { seq: i as u64, ..orig }, "detail is rebased");
            }
        }
        (windows, emulated)
    }

    #[test]
    fn windows_are_rebased_and_warmup_clipped_at_stream_head() {
        let program = chained_loop(200);
        let (records, checkpoints) = pass(&program, 1200, 10);
        assert!(checkpoints.snaps.len() > 1, "the pass keeps snapshots");
        let plan = plan_with(&[0, 30, 700], 10, 15);
        let (windows, _) = cut_and_check(&plan, &records, &checkpoints);
        assert!(windows[0].warmup.is_empty(), "no warmup before seq 0");
        assert_eq!(
            windows[1].warmup.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (15..30).collect::<Vec<_>>()
        );
        assert_eq!(windows[2].warmup.len(), 15);
        // Only the initial state: the same cut, in one forward pass.
        let (_, forward) = cut_and_check(&plan, &records, &Checkpoints::initial(&program));
        assert_eq!(forward, 710, "a forward pass stops at the last window's end");
    }

    #[test]
    fn adjacent_windows_share_detail_and_warmup_records() {
        let program = chained_loop(200);
        let (records, checkpoints) = pass(&program, 1200, 10);
        // Warmup spans a whole interval, so each window's warmup is the
        // previous window's detail; a snapshot (every 40 instructions)
        // sits inside the shared range, and must not be resumed from.
        let plan = plan_with(&[500, 510, 520], 10, 10);
        let (windows, emulated) = cut_and_check(&plan, &records, &checkpoints);
        assert_eq!(
            windows[1].warmup.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (500..510).collect::<Vec<_>>()
        );
        assert!(emulated <= 40 + 10 + 30, "emulated {emulated} records for windows 490..530");
    }

    #[test]
    fn each_window_resumes_from_its_latest_snapshot() {
        let program = chained_loop(430);
        let (records, checkpoints) = pass(&program, 2560, 10);
        // 256 intervals of 10 fit 32 snapshots at a stride of 8.
        assert_eq!(checkpoints.snaps.len(), Checkpoints::MAX);
        let stride = 80;
        let plan = plan_with(&[130, 990, 2300], 10, 20);
        let (_, emulated) = cut_and_check(&plan, &records, &checkpoints);
        let bound = plan.intervals.len() as u64 * (stride + 20 + 10);
        assert!(emulated <= bound, "emulated {emulated} records, bound {bound}");
    }

    #[test]
    fn extraction_stops_at_the_last_window() {
        let program = chained_loop(200);
        let mut emu = Emulator::new(&program);
        let mut pulled = 0u64;
        let stream = std::iter::from_fn(|| {
            pulled += 1;
            emu.step().transpose()
        });
        let plan = plan_with(&[100, 300], 10, 4);
        let windows = extract_windows(&plan, stream).unwrap();
        assert_eq!(windows[1].detail.len(), 10);
        assert_eq!(pulled, 310, "pulled {pulled} records for a last window ending at 310");
    }

    #[test]
    fn a_fired_token_ends_the_cut_as_cancelled() {
        let program = chained_loop(200);
        let token = CancelToken::new();
        token.cancel("test");
        let result = Checkpoints::initial(&program).cut(&plan_with(&[100], 10, 4), Some(&token));
        assert!(matches!(result, Err(SimError::Cancelled { committed: 0, .. })), "{result:?}");
    }

    #[test]
    #[should_panic(expected = "stream ended inside planned interval")]
    fn short_stream_is_a_loud_mismatch() {
        let program = chained_loop(10);
        let plan = plan_with(&[55], 10, 0);
        let _ = Checkpoints::initial(&program).cut(&plan, None);
    }
}
