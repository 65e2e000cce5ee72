//! The per-run pipeline state and the cycle loop.
//!
//! [`Simulator`] holds the per-run predictor and hierarchy state;
//! [`Core`] is the transient pipeline (ROB, rename map, fetch state)
//! driven one cycle at a time over a [`CommittedSource`] stream. The
//! stage implementations live in sibling modules: `frontend` (fetch,
//! dispatch, value prediction), `backend` (issue, completion, commit)
//! and `recovery` (taint tracking, reissue/refetch recovery).
//!
//! Besides the architectural structures, `Core` maintains a set of
//! incrementally-updated summaries of the ROB (queue occupancy, rename
//! pressure, a pending-issue bitset, a store list and a completion
//! heap) so the per-cycle stages touch only the entries they act on
//! instead of scanning the whole window. Debug builds continuously
//! cross-check every summary against a full scan, so the fast paths
//! cannot silently diverge from the architectural state.

use rvp_bpred::BranchUnit;
use rvp_emu::Committed;
use rvp_isa::{Program, Reg, RegClass, NUM_REGS};
use rvp_mem::Hierarchy;
use rvp_obs::{CounterSnapshot, CpiBucket, ObsConfig, ObsReport, PcTable, Sampler};

use crate::config::UarchConfig;
use crate::meta::PcMeta;
use crate::recovery::RobSet;
use crate::ring::BoundedDeque;
use crate::scheme::{Recovery, Scheme};
use crate::source::{CommittedSource, EmuSource};
use crate::stats::{SimError, SimStats};
use crate::wheel::CompletionWheel;

/// Cycles without a commit before the deadlock watchdog trips.
const WATCHDOG_CYCLES: u64 = 500_000;

/// Cancel polls happen on cycles where `now & CANCEL_CHECK_MASK == 0` —
/// every 8192 cycles. Wide enough that the poll (one atomic load, plus
/// a clock read only when a deadline is armed) vanishes against the
/// per-cycle pipeline work; narrow enough that a fired token squashes a
/// run within well under a millisecond of wall time.
const CANCEL_CHECK_MASK: u64 = 0x1FFF;

/// Recovery-burst spans emitted per run before only counting; keeps a
/// pathological run from flooding the span ring with sub-µs spans.
const MAX_BURST_SPANS: u64 = 64;

/// Wall-clock span instrumentation for one sim run: a `sim.run` parent
/// with `sim.warmup` / `sim.steady` phase children, the first
/// [`MAX_BURST_SPANS`] recovery bursts as `sim.recovery.burst` spans
/// (every burst is still counted), and a `sim.finalize` child around
/// stats finalization. Constructed only when the span tracer is armed,
/// so the cycle loop's disarmed cost is one `Option` test on a local —
/// it never touches the tracer's atomics.
struct SimTracer {
    run: rvp_obs::SpanGuard,
    run_id: u64,
    clock: rvp_obs::Clock,
    run_start_us: u64,
    /// Committed-instruction boundary between warmup and steady state.
    warmup_insts: u64,
    warmup_end_us: Option<u64>,
    /// Open recovery burst: (start µs — 0 when past the span budget,
    /// start cycle).
    burst_open: Option<(u64, u64)>,
    bursts: u64,
    burst_cycles: u64,
}

impl SimTracer {
    /// The pipeline-warmup boundary: the first 10% of the budget,
    /// capped at 10K committed instructions.
    fn warmup_insts(max_insts: u64) -> u64 {
        (max_insts / 10).clamp(1, 10_000)
    }

    fn new(max_insts: u64) -> SimTracer {
        let run = rvp_obs::span!("sim.run", { budget: max_insts });
        let clock = rvp_obs::span::clock();
        let run_start_us = clock.now_us();
        SimTracer {
            run_id: run.id(),
            run,
            clock,
            run_start_us,
            warmup_insts: SimTracer::warmup_insts(max_insts),
            warmup_end_us: None,
            burst_open: None,
            bursts: 0,
            burst_cycles: 0,
        }
    }

    /// Per-cycle hook (armed runs only): tracks the warmup boundary and
    /// recovery-burst extents.
    fn on_cycle(&mut self, committed: u64, bucket: CpiBucket, cycle: u64) {
        if self.warmup_end_us.is_none() && committed >= self.warmup_insts {
            self.warmup_end_us = Some(self.clock.now_us());
        }
        let in_recovery = matches!(bucket, CpiBucket::Reissue | CpiBucket::ValueRefetch);
        match (self.burst_open, in_recovery) {
            (None, true) => {
                let start_us = if self.bursts < MAX_BURST_SPANS { self.clock.now_us() } else { 0 };
                self.burst_open = Some((start_us, cycle));
            }
            (Some((start_us, start_cycle)), false) => {
                self.bursts += 1;
                self.burst_cycles += cycle - start_cycle;
                if start_us > 0 {
                    rvp_obs::span::record(
                        "sim.recovery.burst",
                        self.run_id,
                        start_us,
                        self.clock.now_us(),
                        vec![("cycles".into(), (cycle - start_cycle).into())],
                    );
                }
                self.burst_open = None;
            }
            _ => {}
        }
    }

    /// Emits the phase spans; call when the cycle loop ends.
    fn finish(mut self, cycle: u64, committed: u64) {
        if let Some((start_us, start_cycle)) = self.burst_open.take() {
            self.bursts += 1;
            self.burst_cycles += cycle - start_cycle;
            if start_us > 0 {
                rvp_obs::span::record(
                    "sim.recovery.burst",
                    self.run_id,
                    start_us,
                    self.clock.now_us(),
                    vec![("cycles".into(), (cycle - start_cycle).into())],
                );
            }
        }
        let end_us = self.clock.now_us();
        let warmup_end = self.warmup_end_us.unwrap_or(end_us);
        rvp_obs::span::record(
            "sim.warmup",
            self.run_id,
            self.run_start_us,
            warmup_end,
            vec![("insts".into(), self.warmup_insts.min(committed).into())],
        );
        rvp_obs::span::record(
            "sim.steady",
            self.run_id,
            warmup_end,
            end_us,
            vec![
                ("recovery_bursts".into(), self.bursts.into()),
                ("recovery_cycles".into(), self.burst_cycles.into()),
            ],
        );
        let mut run = self.run;
        run.add_field("cycles", cycle);
        run.add_field("committed", committed);
        // `run` drops here and records the sim.run parent itself.
    }
}

/// How often debug builds cross-check the incremental ROB summaries
/// against a full scan.
#[cfg(debug_assertions)]
const VALIDATE_EVERY: u64 = 64;

/// One in-flight instruction (a reorder-buffer entry).
/// Sentinel seq for "no producer / not set" in the compact `Entry`
/// fields below (a real seq never reaches `u64::MAX`).
pub(crate) const NO_SEQ: u64 = u64::MAX;
/// Sentinel cycle for "no writeback scheduled".
pub(crate) const NO_CYCLE: u64 = u64::MAX;

#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) rec: Committed,
    pub(crate) queue: RegClass,
    pub(crate) is_store: bool,
    pub(crate) is_load: bool,
    /// Base execution latency (precomputed; cache penalties are added
    /// at issue).
    pub(crate) lat: u64,
    /// Producer seqs for the register sources ([`NO_SEQ`] = none).
    pub(crate) deps: [u64; 2],
    pub(crate) in_iq: bool,
    pub(crate) issued: bool,
    /// Writeback cycle ([`NO_CYCLE`] = not scheduled).
    pub(crate) complete_at: u64,
    pub(crate) done: bool,
    /// Earliest cycle this entry may (re)issue.
    pub(crate) earliest_issue: u64,
    /// Unverified predicted producers this entry's current result
    /// depends on.
    pub(crate) taint: RobSet,
    // --- value prediction ---
    pub(crate) predicted: bool,
    /// The value the scheme would predict (tracked for all in-scope
    /// instructions so confidence counters can train on it).
    pub(crate) pred_value: Option<u64>,
    pub(crate) pred_correct: bool,
    /// Producer whose completion makes the predicted value readable
    /// (the *old* register mapping); [`NO_SEQ`] = readable immediately.
    pub(crate) pred_dep: u64,
    pub(crate) verified: bool,
    /// Extra memory-hierarchy latency (cache/TLB misses) charged at
    /// issue; nonzero marks this entry memory-bound for cycle
    /// accounting.
    pub(crate) mem_extra: u64,
    /// This entry was invalidated by a value mispredict and is
    /// re-executing (reissue/selective recovery).
    pub(crate) reissued: bool,
    /// Seq of the first instruction that read this entry's predicted
    /// value ([`NO_SEQ`] = unread).
    pub(crate) first_use: u64,
    /// For the hardware-correlation scheme: a register observed (at
    /// rename) to hold the value this instruction produced.
    pub(crate) corr_observed: Option<Reg>,
    // --- branches ---
    /// This branch was mispredicted at fetch and stalled the front end.
    pub(crate) stalled_fetch: bool,
    // --- rollback bookkeeping for refetch squashes ---
    /// Meaningful only when `had_last_value`.
    pub(crate) prev_last_value: u64,
    pub(crate) had_last_value: bool,
}

/// A fetched record waiting to enter the ROB.
#[derive(Debug)]
pub(crate) struct Fetched {
    pub(crate) rec: Committed,
    /// Cycle the record clears the front end and may dispatch.
    pub(crate) arrival: u64,
    /// This branch was mispredicted at fetch and stalled the front end.
    pub(crate) stalled: bool,
}

/// The out-of-order timing simulator.
///
/// Create one per run; [`Simulator::run`] drives a program to completion
/// (or an instruction budget) and returns [`SimStats`].
#[derive(Debug)]
pub struct Simulator {
    pub(crate) config: UarchConfig,
    pub(crate) scheme: Scheme,
    pub(crate) recovery: Recovery,
    /// Cached `scheme.predictor.wants_value_training()` — the flag is a
    /// per-instance constant, and the writeback loop checks it once per
    /// completed instruction.
    pub(crate) value_training: bool,
    // predictor state (the value predictor lives inside `scheme`)
    pub(crate) bpred: BranchUnit,
    pub(crate) mem: Hierarchy,
    pub(crate) obs: ObsConfig,
    /// Cooperative cancellation handle; polled every
    /// [`CANCEL_CHECK_MASK`]` + 1` cycles when present. `None` costs one
    /// predictable branch per cycle.
    pub(crate) cancel: Option<rvp_obs::CancelToken>,
}

impl Simulator {
    /// Builds a simulator for the given machine, prediction scheme and
    /// recovery model.
    ///
    /// # Panics
    ///
    /// Panics if `config.rob_size` exceeds the 256 entries the taint
    /// bitset representation supports, or if `config.bpred_spec` names
    /// an unknown branch predictor (validate specs with
    /// [`rvp_bpred::new_branch_predictor`] before building a simulator).
    pub fn new(config: UarchConfig, scheme: Scheme, recovery: Recovery) -> Simulator {
        assert!(
            config.rob_size <= RobSet::CAPACITY,
            "rob_size {} exceeds the supported maximum of {}",
            config.rob_size,
            RobSet::CAPACITY,
        );
        let bpred = match &config.bpred_spec {
            Some(spec) => {
                let dir = rvp_bpred::new_branch_predictor(spec)
                    .unwrap_or_else(|e| panic!("invalid bpred_spec: {e}"));
                BranchUnit::with_direction(config.bpred, dir)
            }
            None => BranchUnit::new(config.bpred),
        };
        let value_training = scheme.predictor.as_ref().is_some_and(|p| p.wants_value_training());
        Simulator {
            bpred,
            mem: Hierarchy::new(config.mem),
            obs: ObsConfig::off(),
            config,
            scheme,
            recovery,
            value_training,
            cancel: None,
        }
    }

    /// Enables optional instrumentation (time-series sampling, per-PC
    /// telemetry) for subsequent runs. The cycle-accounting CPI stack
    /// is always on.
    pub fn with_obs(mut self, obs: ObsConfig) -> Simulator {
        self.obs = obs;
        self
    }

    /// Attaches a cooperative [`rvp_obs::CancelToken`]. The cycle loop
    /// polls it on an amortized schedule (every few thousand cycles), so
    /// runs fail fast with [`SimError::Cancelled`] once the token fires
    /// without slowing the steady-state loop.
    pub fn with_cancel(mut self, cancel: rvp_obs::CancelToken) -> Simulator {
        self.cancel = Some(cancel);
        self
    }

    /// Runs `program` for at most `max_insts` committed instructions,
    /// live-emulating the committed stream ([`EmuSource`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Emu`] for malformed programs and
    /// [`SimError::Deadlock`] if the pipeline stops making progress (a
    /// model invariant violation).
    pub fn run(&mut self, program: &Program, max_insts: u64) -> Result<SimStats, SimError> {
        let mut source = EmuSource::new(program);
        self.run_with_source(program, &mut source, max_insts)
    }

    /// Runs `program` for at most `max_insts` committed instructions,
    /// consuming the committed stream from `source` instead of a live
    /// emulator. All sources produce bit-identical [`SimStats`]; see
    /// [`crate::source`] for the stream contract.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`]; source-level failures (emulation errors,
    /// unrecoverable trace corruption) surface as [`SimError::Emu`].
    pub fn run_with_source<S: CommittedSource + ?Sized>(
        &mut self,
        program: &Program,
        source: &mut S,
        max_insts: u64,
    ) -> Result<SimStats, SimError> {
        Core::new(self, program, source, max_insts).run()
    }
}

/// Why the front end is (re)filling an empty machine — the stall cause
/// empty-machine cycles are charged to. Set when a stall begins,
/// cleared at the next commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Redirect {
    None,
    Branch,
    ICache,
    ValueRefetch,
}

/// The running counter totals the sampler windows are deltas of.
fn snapshot(stats: &SimStats) -> CounterSnapshot {
    CounterSnapshot {
        committed: stats.committed,
        predictions: stats.predictions,
        correct_predictions: stats.correct_predictions,
        iq_int_occupancy_sum: stats.iq_int_occupancy_sum,
        iq_fp_occupancy_sum: stats.iq_fp_occupancy_sum,
    }
}

/// Per-run pipeline state.
pub(crate) struct Core<'s, S: CommittedSource + ?Sized> {
    pub(crate) sim: &'s mut Simulator,
    /// Dense per-PC static metadata (see [`crate::meta`]); everything
    /// fetch/dispatch need without re-deriving it from [`rvp_isa::Inst`].
    pub(crate) meta: Vec<PcMeta>,
    pub(crate) source: &'s mut S,
    pub(crate) max_insts: u64,
    /// Distinct records consumed so far (== the seq after the youngest).
    pub(crate) pulled: u64,
    /// Rewound records the source still owes us (refetch recovery).
    pub(crate) replay_pending: u64,
    pub(crate) trace_done: bool,
    /// Fetched records waiting to enter the ROB, bounded by
    /// `config.fetch_buffer` (fetch backpressure).
    pub(crate) frontend: BoundedDeque<Fetched>,
    pub(crate) rob: BoundedDeque<Entry>,
    /// Seq of the youngest in-flight writer of each register.
    pub(crate) last_writer: [Option<u64>; NUM_REGS],
    /// Program-order register values at the dispatch point.
    pub(crate) shadow: [u64; NUM_REGS],
    /// Last committed-path value produced by each static instruction.
    pub(crate) last_value: Vec<Option<u64>>,
    /// Seq of the most recently dispatched instance of each static
    /// instruction (the old mapping of a last-value-exclusive register).
    pub(crate) last_instance: Vec<Option<u64>>,
    pub(crate) now: u64,
    pub(crate) fetch_resume_at: u64,
    /// Branch seq the fetcher is stalled on, if any.
    pub(crate) stalled_on: Option<u64>,
    /// Last I-cache line touched by fetch.
    pub(crate) last_line: u64,
    pub(crate) halted_fetch: bool,
    pub(crate) stats: SimStats,
    pub(crate) last_commit_cycle: u64,
    // --- incremental ROB summaries (cross-checked in debug builds) ---
    /// Occupied queue slots per class, indexed by `RegClass as usize`.
    pub(crate) iq_occupancy: [usize; 2],
    /// In-flight destination writers per class (rename pressure).
    pub(crate) writers: [usize; 2],
    /// Entries holding a queue slot after issuing (`in_iq && issued`).
    pub(crate) held_issued: usize,
    /// Seqs of the entries counted by `held_issued` (issued but still
    /// holding a queue slot), so the per-cycle release pass visits only
    /// holders instead of scanning the ROB.
    pub(crate) held_slots: RobSet,
    /// Seqs of the predicted entries not yet verified, so reissue
    /// recovery finds the oldest one without scanning the ROB.
    pub(crate) unverified: RobSet,
    /// Entries with a non-empty taint set.
    pub(crate) tainted: usize,
    /// Dispatched-but-not-issued entries, by ROB slot, split per
    /// instruction queue (indexed by `RegClass as usize`) so the issue
    /// stage walks each class against its own unit budget.
    pub(crate) to_issue: [RobSet; 2],
    /// Pending entries proven *stably* blocked (an unavailable source
    /// producer or an incomplete older same-block store). The issue walk
    /// skips them without a visit; they are woken — removed from this
    /// set — when their recorded blocker completes (see [`Core::waiters`]),
    /// and the bit is cleared whenever a seq (re)enters the pending set.
    /// Wake-ups are conservative: a stale waiter bit merely causes a
    /// re-check, never a wrong issue.
    pub(crate) issue_blocked: [RobSet; 2],
    /// `waiters[s % 256]`: pending entries whose recorded blocker is the
    /// instruction with seq `s` — the wakeup list consulted when `s`
    /// completes.
    pub(crate) waiters: Box<[RobSet]>,
    /// `taint_members[s % 256]`: entries whose taint set contains the
    /// predicted producer with seq `s` — the reverse of the per-entry
    /// taint sets, so verification touches only actual dependents
    /// instead of scanning the ROB. May carry stale bits (squashed or
    /// re-issued entries); consumers re-validate with `taint.remove`,
    /// so a stale bit costs a visit, never a wrong transition.
    pub(crate) taint_members: Box<[RobSet]>,
    /// The previous issue pass issued nothing and skipped nothing for a
    /// transient (unit/timing) reason, and no event since then can have
    /// made a pending entry ready — the walk would be a no-op, so it is
    /// skipped. Cleared by dispatch, completion processing, squash and
    /// invalidation (the only sources of readiness transitions).
    pub(crate) issue_idle: bool,
    /// Seqs of in-flight stores, oldest first (memory disambiguation);
    /// a subset of the ROB, so `rob_size` bounds it.
    pub(crate) stores: BoundedDeque<u64>,
    /// Scheduled writebacks on a timing wheel; lazily invalidated, so
    /// entries are re-validated against the ROB when drained.
    pub(crate) completions: CompletionWheel,
    /// Reusable buffer for the squash → rewind hand-off.
    pub(crate) squash_scratch: Vec<Committed>,
    // --- observability ---
    /// Most recent front-end redirect cause (cycle accounting).
    pub(crate) redirect: Redirect,
    /// Dispatch was blocked by a full ROB/IQ/rename file this cycle.
    pub(crate) dispatch_blocked: bool,
    /// Optional windowed time-series sampler.
    pub(crate) sampler: Option<Sampler>,
    /// Optional per-static-instruction outcome table.
    pub(crate) pc_table: Option<PcTable>,
}

impl<'s, S: CommittedSource + ?Sized> Core<'s, S> {
    pub(crate) fn new(
        sim: &'s mut Simulator,
        program: &Program,
        source: &'s mut S,
        max_insts: u64,
    ) -> Core<'s, S> {
        let mut shadow = [0u64; NUM_REGS];
        shadow[rvp_isa::analysis::abi::SP.index()] = rvp_emu::STACK_TOP;
        let sampler = (sim.obs.sample_interval > 0)
            .then(|| Sampler::new(sim.obs.sample_interval, sim.obs.ring_capacity));
        let pc_table = sim.obs.track_pc.then(|| PcTable::new(program.len()));
        let meta = crate::meta::build(program, &sim.scheme, &sim.config);
        Core {
            sampler,
            pc_table,
            meta,
            source,
            max_insts,
            pulled: 0,
            replay_pending: 0,
            trace_done: false,
            frontend: BoundedDeque::with_bound(sim.config.fetch_buffer),
            rob: BoundedDeque::with_bound(sim.config.rob_size),
            last_writer: [None; NUM_REGS],
            shadow,
            last_value: vec![None; program.len()],
            last_instance: vec![None; program.len()],
            now: 0,
            fetch_resume_at: 0,
            stalled_on: None,
            last_line: u64::MAX,
            halted_fetch: false,
            stats: SimStats::default(),
            last_commit_cycle: 0,
            iq_occupancy: [0; 2],
            writers: [0; 2],
            held_issued: 0,
            held_slots: RobSet::EMPTY,
            unverified: RobSet::EMPTY,
            tainted: 0,
            to_issue: [RobSet::EMPTY; 2],
            issue_blocked: [RobSet::EMPTY; 2],
            waiters: vec![RobSet::EMPTY; RobSet::CAPACITY].into_boxed_slice(),
            taint_members: vec![RobSet::EMPTY; RobSet::CAPACITY].into_boxed_slice(),
            issue_idle: false,
            stores: BoundedDeque::with_bound(sim.config.rob_size),
            completions: CompletionWheel::new(),
            squash_scratch: Vec::with_capacity(sim.config.rob_size),
            redirect: Redirect::None,
            dispatch_blocked: false,
            sim,
        }
    }

    pub(crate) fn run(mut self) -> Result<SimStats, SimError> {
        // Armed-ness is sampled once per run: the per-cycle tracing cost
        // is a branch on this local `Option`, and a disarmed run never
        // touches the tracer again.
        let mut tracer = rvp_obs::span::armed().then(|| SimTracer::new(self.max_insts));
        loop {
            let committed_before = self.stats.committed;
            self.dispatch_blocked = false;
            self.process_completions();
            self.commit();
            self.issue();
            self.dispatch();
            self.fetch()?;
            self.stats.iq_int_occupancy_sum += self.iq_occupancy[RegClass::Int as usize] as u64;
            self.stats.iq_fp_occupancy_sum += self.iq_occupancy[RegClass::Fp as usize] as u64;
            #[cfg(debug_assertions)]
            if self.now.is_multiple_of(VALIDATE_EVERY) {
                self.validate_summaries();
            }
            if self.finished() {
                break;
            }
            if self.now - self.last_commit_cycle > WATCHDOG_CYCLES {
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    committed: self.stats.committed,
                });
            }
            if let Some(token) = &self.sim.cancel {
                if self.now & CANCEL_CHECK_MASK == 0 {
                    if let Some(reason) = token.poll() {
                        let cycle = self.now;
                        let committed = self.stats.committed;
                        let _squash = rvp_obs::span::enter_with("cancel.squash", || {
                            vec![
                                (std::borrow::Cow::Borrowed("reason"), reason.as_str().into()),
                                (std::borrow::Cow::Borrowed("cycle"), cycle.into()),
                                (std::borrow::Cow::Borrowed("committed"), committed.into()),
                            ]
                        });
                        return Err(SimError::Cancelled { cycle, committed, reason });
                    }
                }
            }
            // Cycle accounting: charge this elapsed cycle to exactly one
            // bucket (the final, non-elapsing iteration is never
            // charged, so the stack sums to `cycles` by construction).
            let committed_now = self.stats.committed - committed_before;
            if committed_now > 0 {
                self.redirect = Redirect::None;
            }
            let bucket = self.classify_cycle(committed_now);
            self.stats.cpi.add(bucket, 1);
            if let Some(tracer) = &mut tracer {
                tracer.on_cycle(self.stats.committed, bucket, self.now);
            }
            if let Some(sampler) = &mut self.sampler {
                sampler.tick(self.now, snapshot(&self.stats));
            }
            self.now += 1;
        }
        self.stats.cycles = self.now.max(1);
        {
            let _finalize = rvp_obs::span::enter("sim.finalize");
            // The degenerate empty run elapses one nominal cycle.
            let accounted = self.stats.cpi.total();
            if accounted < self.stats.cycles {
                self.stats.cpi.add(CpiBucket::Base, self.stats.cycles - accounted);
            }
            self.stats.branch = *self.sim.bpred.stats();
            self.stats.mem = *self.sim.mem.stats();
            self.finish_obs();
        }
        if let Some(tracer) = tracer {
            tracer.finish(self.now, self.stats.committed);
        }
        Ok(self.stats)
    }

    /// Folds the optional instrumentation into the final stats.
    fn finish_obs(&mut self) {
        if self.sampler.is_none() && self.pc_table.is_none() {
            return;
        }
        let mut report = ObsReport::default();
        if let Some(mut sampler) = self.sampler.take() {
            report.sample_interval = sampler.interval();
            sampler.finish(self.now, snapshot(&self.stats));
            let (samples, dropped) = sampler.into_windows();
            report.samples = samples;
            report.dropped_windows = dropped;
        }
        if let Some(table) = self.pc_table.take() {
            report.top_costly = table.top_by_costly(self.sim.obs.top_k);
            report.top_correct = table.top_by_correct(self.sim.obs.top_k);
        }
        self.stats.obs = Some(report);
    }

    /// The cycle-attribution priority ladder (documented in DESIGN.md).
    fn classify_cycle(&self, committed_now: u64) -> CpiBucket {
        if committed_now > 0 {
            return CpiBucket::Base;
        }
        if let Some(head) = self.rob.front() {
            if head.reissued && !head.done {
                return CpiBucket::Reissue;
            }
            if !head.done && head.issued && head.mem_extra > 0 {
                return CpiBucket::DCache;
            }
            if self.dispatch_blocked {
                return CpiBucket::QueueFull;
            }
            return CpiBucket::Base;
        }
        // Empty machine: charge the front end by redirect cause.
        if self.stalled_on.is_some() {
            return CpiBucket::BranchMispredict;
        }
        match self.redirect {
            Redirect::ValueRefetch => CpiBucket::ValueRefetch,
            Redirect::Branch => CpiBucket::BranchMispredict,
            Redirect::ICache => CpiBucket::ICache,
            Redirect::None => CpiBucket::FetchStall,
        }
    }

    fn finished(&mut self) -> bool {
        self.rob.is_empty()
            && self.frontend.is_empty()
            && self.replay_pending == 0
            && (self.trace_done || self.pulled >= self.max_insts || self.halted_fetch)
    }

    /// Bookkeeping for one record leaving the source: fresh records
    /// raise the high-water mark, rewound ones repay the replay debt.
    pub(crate) fn note_consumed(&mut self, seq: u64) {
        if seq >= self.pulled {
            debug_assert_eq!(seq, self.pulled, "committed stream must be consecutive");
            self.pulled = seq + 1;
        } else {
            debug_assert!(self.replay_pending > 0, "unexpected replayed record");
            self.replay_pending -= 1;
        }
    }

    /// Whether fetch may pull another record without exceeding the
    /// instruction budget (rewound records are always replayable).
    pub(crate) fn may_pull(&self) -> bool {
        !self.trace_done && (self.pulled < self.max_insts || self.replay_pending > 0)
    }

    // ------------------------------------------------------------------
    // ROB helpers
    // ------------------------------------------------------------------

    pub(crate) fn rob_index(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.rec.seq;
        if seq < head {
            return None;
        }
        let i = (seq - head) as usize;
        (i < self.rob.len()).then_some(i)
    }

    /// Cross-checks every incremental ROB summary against a full scan.
    /// Debug builds only; this is the proof that the scan-free fast
    /// paths cannot drift from the architectural state.
    #[cfg(debug_assertions)]
    fn validate_summaries(&self) {
        for class in [RegClass::Int, RegClass::Fp] {
            let iq = self.rob.iter().filter(|e| e.in_iq && e.queue == class).count();
            assert_eq!(self.iq_occupancy[class as usize], iq, "iq occupancy drift ({class})");
            let writers =
                self.rob.iter().filter(|e| e.rec.dst.is_some_and(|d| d.class() == class)).count();
            assert_eq!(self.writers[class as usize], writers, "writer count drift ({class})");
        }
        let held = self.rob.iter().filter(|e| e.in_iq && e.issued).count();
        assert_eq!(self.held_issued, held, "held-slot count drift");
        for e in &self.rob {
            assert_eq!(
                self.held_slots.contains(e.rec.seq),
                e.in_iq && e.issued,
                "held-slot bitset drift at seq {}",
                e.rec.seq
            );
            assert_eq!(
                self.unverified.contains(e.rec.seq),
                e.predicted && !e.verified,
                "unverified-prediction bitset drift at seq {}",
                e.rec.seq
            );
        }
        let unverified = self.rob.iter().filter(|e| e.predicted && !e.verified).count();
        assert_eq!(self.unverified.len(), unverified, "unverified-prediction count drift");
        let tainted = self.rob.iter().filter(|e| !e.taint.is_empty()).count();
        assert_eq!(self.tainted, tainted, "tainted count drift");
        // Reverse taint index: every member of a live taint set must be
        // able to find the tainted entry back (stale extra bits are
        // allowed; missing bits would leak a taint forever).
        if let Some(head) = self.rob.front() {
            let (head_seq, len) = (head.rec.seq, self.rob.len());
            for e in &self.rob {
                let seq = e.rec.seq;
                e.taint.for_each_in_window(head_seq, len, &mut |s| {
                    assert!(
                        self.taint_members[(s % RobSet::CAPACITY as u64) as usize].contains(seq),
                        "taint member {s} of seq {seq} missing from the reverse index"
                    );
                    true
                });
            }
        }
        for class in [RegClass::Int, RegClass::Fp] {
            let unissued = self.rob.iter().filter(|e| !e.issued && e.queue == class).count();
            assert_eq!(
                self.to_issue[class as usize].len(),
                unissued,
                "pending-issue bitset drift ({class})"
            );
        }
        // The store list must equal the in-order store subsequence of
        // the ROB; compare incrementally instead of materializing both
        // sides (the validator itself must not allocate).
        let mut store_list = self.stores.iter();
        for (i, e) in self.rob.iter().enumerate() {
            assert_eq!(
                self.to_issue[e.queue as usize].contains(e.rec.seq),
                !e.issued,
                "pending-issue bit drift at seq {}",
                e.rec.seq
            );
            assert!(e.issued || e.in_iq, "unissued entries hold a queue slot");
            if e.is_store {
                assert_eq!(store_list.next(), Some(&e.rec.seq), "store list drift");
            }
            // A blocked-marked pending entry must really be blocked: a
            // bit that survived a wake-up it should have received would
            // stall this entry forever.
            if !e.issued && self.issue_blocked[e.queue as usize].contains(e.rec.seq) {
                assert!(
                    self.is_stably_blocked(i),
                    "blocked bit on a ready entry at seq {}",
                    e.rec.seq
                );
            }
        }
        assert_eq!(store_list.next(), None, "store list has stale entries");
    }

    /// Whether ROB entry `i` is dep- or store-blocked right now — the
    /// condition its `issue_blocked` bit claims. Debug builds only.
    #[cfg(debug_assertions)]
    fn is_stably_blocked(&self, i: usize) -> bool {
        let e = &self.rob[i];
        for dep in e.deps {
            if dep != NO_SEQ && self.dep_avail(dep).is_err() {
                return true;
            }
        }
        if e.is_load {
            let head_seq = self.rob.front().expect("non-empty").rec.seq;
            let addr_block = e.rec.eff_addr.map(|a| a & !7);
            for &sseq in &self.stores {
                if sseq >= e.rec.seq {
                    break;
                }
                let s = &self.rob[(sseq - head_seq) as usize];
                if s.rec.eff_addr.map(|a| a & !7) == addr_block && !s.done {
                    return true;
                }
            }
        }
        false
    }
}
