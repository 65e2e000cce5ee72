//! The front end: fetch from the committed-stream source, plus
//! dispatch (rename, queue insertion and the value-prediction decision
//! point).
//!
//! Fetch consumes [`crate::source::CommittedSource`] records — peeking
//! first so the I-cache model can reject a line without losing the
//! record — and dispatch moves them into the ROB, answering all
//! structural-hazard questions (queue occupancy, rename pressure) from
//! the core's incremental counters. Neither stage touches
//! [`rvp_isa::Inst`]: every static property (classes, sources, branch
//! kind, prediction mode) comes from the dense per-PC table built in
//! [`crate::meta`].

use rvp_emu::Committed;
use rvp_isa::{Reg, RegClass};
use rvp_vpred::{Decision, ReuseKind};

use crate::core::{Core, Entry, Fetched, Redirect, NO_CYCLE, NO_SEQ};
use crate::meta::{PredMode, NO_SRC};
use crate::recovery::RobSet;
use crate::source::CommittedSource;

impl<'s, S: CommittedSource + ?Sized> Core<'s, S> {
    // ------------------------------------------------------------------
    // Dispatch (rename + queue insertion + value prediction)
    // ------------------------------------------------------------------

    pub(crate) fn dispatch(&mut self) {
        let mut nonload_preds_this_cycle = 0usize;
        for _ in 0..self.sim.config.dispatch_width {
            let Some(f) = self.frontend.front() else { break };
            if f.arrival > self.now {
                break;
            }
            if self.rob.len() >= self.sim.config.rob_size {
                self.dispatch_blocked = true;
                break;
            }
            let m = self.meta[f.rec.pc];
            if self.iq_occupancy[m.queue as usize]
                >= if m.queue == RegClass::Int {
                    self.sim.config.iq_int
                } else {
                    self.sim.config.iq_fp
                }
            {
                self.dispatch_blocked = true;
                break;
            }
            if let Some(dst) = f.rec.dst {
                if self.writers[dst.class() as usize] >= self.sim.config.rename_regs {
                    self.dispatch_blocked = true;
                    break;
                }
            }
            let Fetched { rec, stalled, .. } = self.frontend.pop_front().expect("non-empty");

            // Source dependences on in-flight producers.
            let mut deps = [NO_SEQ, NO_SEQ];
            for (k, &src) in m.srcs.iter().enumerate() {
                if src != NO_SRC {
                    deps[k] = self.last_writer[src as usize].unwrap_or(NO_SEQ);
                }
            }

            // Value prediction decision. Predicted non-loads need an
            // extra register read port to fetch the old value for
            // verification; a configured port count caps them per cycle.
            let (mut predicted, pred_value, pred_dep) = self.predict(&rec, m.mode);
            if predicted && !m.is_load {
                match self.sim.config.pred_ports {
                    Some(ports) if nonload_preds_this_cycle >= ports => predicted = false,
                    _ => nonload_preds_this_cycle += 1,
                }
            }
            let pred_correct = pred_value == Some(rec.new_value);

            // Mark first use on speculative producers.
            if self.sim.scheme.is_predicting() {
                let my_seq = rec.seq;
                for dep in deps {
                    if dep == NO_SEQ {
                        continue;
                    }
                    if let Some(pi) = self.rob_index(dep) {
                        let p = &mut self.rob[pi];
                        if p.predicted && !p.verified && p.first_use == NO_SEQ {
                            p.first_use = my_seq;
                        }
                    }
                }
            }

            // Hardware correlation learning: which same-class register
            // holds the value this instruction is producing (preferring
            // the destination itself — plain same-register reuse).
            let corr_observed = match rec.dst {
                Some(dst) if m.corr_learn => {
                    if rec.old_value == rec.new_value {
                        Some(dst)
                    } else {
                        (0..rvp_isa::NUM_REGS_PER_CLASS)
                            .map(|n| Reg::new(dst.class(), n))
                            .find(|r| !r.is_zero() && self.shadow[r.index()] == rec.new_value)
                    }
                }
                _ => None,
            };

            // Shadow state (with rollback info for refetch squashes).
            let mut prev_last_value = 0u64;
            let mut had_last_value = false;
            if let Some(dst) = rec.dst {
                self.shadow[dst.index()] = rec.new_value;
                self.last_writer[dst.index()] = Some(rec.seq);
                if let Some(v) = self.last_value[rec.pc] {
                    prev_last_value = v;
                    had_last_value = true;
                }
                self.last_value[rec.pc] = Some(rec.new_value);
                self.last_instance[rec.pc] = Some(rec.seq);
                self.writers[dst.class() as usize] += 1;
            }
            self.iq_occupancy[m.queue as usize] += 1;
            self.to_issue[m.queue as usize].insert(rec.seq);
            // A fresh entry means the issue stage has work again; its
            // ROB slot may carry a stale blocked bit from a squashed
            // previous occupant.
            self.issue_blocked[0].remove(rec.seq);
            self.issue_blocked[1].remove(rec.seq);
            self.issue_idle = false;
            if m.is_store {
                self.stores.push_back(rec.seq);
            }
            let predicted = predicted && pred_value.is_some();
            if predicted {
                self.unverified.insert(rec.seq);
            }

            self.rob.push_back(Entry {
                rec,
                queue: m.queue,
                is_store: m.is_store,
                is_load: m.is_load,
                lat: m.lat,
                deps,
                in_iq: true,
                issued: false,
                complete_at: NO_CYCLE,
                done: false,
                earliest_issue: 0,
                mem_extra: 0,
                reissued: false,
                taint: RobSet::EMPTY,
                predicted,
                pred_value,
                pred_correct,
                pred_dep: pred_dep.unwrap_or(NO_SEQ),
                verified: false,
                first_use: NO_SEQ,
                corr_observed,
                stalled_fetch: stalled,
                prev_last_value,
                had_last_value,
            });
        }
    }

    /// The prediction decision at rename time: the per-PC [`PredMode`]
    /// (resolved ahead of time in [`crate::meta`]) gates whether the
    /// scheme's [`rvp_vpred::ValuePredictor`] is consulted at all, and
    /// its [`Decision`] is resolved against machine state here. Returns
    /// `(predict?, candidate value, producer gating the value's
    /// availability)`. The candidate is carried for *every* tracked
    /// instruction so confidence counters can train on unpredicted ones.
    fn predict(&mut self, rec: &Committed, mode: PredMode) -> (bool, Option<u64>, Option<u64>) {
        let PredMode::On(kind) = mode else {
            return (false, None, None);
        };
        let dst = rec.dst.expect("a predicting mode implies a written destination");
        let decision = self
            .sim
            .scheme
            .predictor
            .as_mut()
            .expect("a predicting mode implies a predictor")
            .decide(rec.pc, dst);

        match decision {
            Decision::Idle => (false, None, None),
            Decision::Track => {
                let (v, dep) = self.reuse_value(rec, dst, kind);
                (false, Some(v), dep)
            }
            Decision::Predict => {
                let (v, dep) = self.reuse_value(rec, dst, kind);
                (true, Some(v), dep)
            }
            // The buffer supplies the value directly: no register
            // dependence at all.
            Decision::Value(v) => (true, Some(v), None),
            Decision::TrackReg(r) | Decision::PredictReg(r) => {
                let value = if r == dst { rec.old_value } else { self.shadow[r.index()] };
                let predict = matches!(decision, Decision::PredictReg(_));
                (predict, Some(value), self.last_writer[r.index()])
            }
        }
    }

    /// The value a register-reuse relation predicts, and the in-flight
    /// producer whose completion makes it readable.
    fn reuse_value(&self, rec: &Committed, dst: Reg, kind: ReuseKind) -> (u64, Option<u64>) {
        match kind {
            ReuseKind::SameReg => (rec.old_value, self.last_writer[dst.index()]),
            ReuseKind::OtherReg(r) => (self.shadow[r.index()], self.last_writer[r.index()]),
            // The compiler gave the instruction an exclusive register, so
            // after the first execution the register holds the last
            // value; its old mapping is this instruction's *previous
            // dynamic instance*, which has almost always completed.
            ReuseKind::LastValue => {
                (self.last_value[rec.pc].unwrap_or(rec.old_value), self.last_instance[rec.pc])
            }
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    pub(crate) fn fetch(&mut self) -> Result<(), crate::stats::SimError> {
        if self.now < self.fetch_resume_at || self.stalled_on.is_some() {
            if !self.halted_fetch {
                self.stats.fetch_stall_cycles += 1;
            }
            return Ok(());
        }
        if self.halted_fetch {
            return Ok(());
        }
        let mut taken_blocks = 0usize;
        let arrival = self.now + self.sim.config.frontend_depth;

        for _ in 0..self.sim.config.fetch_width {
            if !self.may_pull() || self.frontend.is_full() {
                break;
            }
            let Some(pc) = self.source.peek_pc()? else {
                self.trace_done = true;
                break;
            };

            // Instruction-cache access per new line; a missing line
            // leaves the peeked record in the source for next time.
            let line = self.meta[pc].line;
            if line != self.last_line {
                let extra = self.sim.mem.access_inst(rvp_isa::Program::byte_addr(pc));
                self.last_line = line;
                if extra > 0 {
                    self.fetch_resume_at = self.now + extra;
                    self.redirect = Redirect::ICache;
                    break;
                }
            }

            let rec = self.source.next_record()?.expect("peeked record is consumable");
            self.note_consumed(rec.seq);
            let m = &self.meta[rec.pc];

            if m.is_halt {
                self.halted_fetch = true;
                self.frontend.push_back(Fetched { rec, arrival, stalled: false });
                break;
            }

            let Some(kind) = m.bkind else {
                self.frontend.push_back(Fetched { rec, arrival, stalled: false });
                continue;
            };

            // Predict and train in one step (perfect history repair):
            // branch-predictor behaviour is then identical across value-
            // prediction schemes, isolating the effect under study.
            let actual_taken = rec.taken.unwrap_or(true);
            let correct = self.sim.bpred.update(rec.pc, kind, actual_taken, rec.next_pc);

            if !correct {
                // Fetch goes down the wrong path: bubble until resolve.
                self.stalled_on = Some(rec.seq);
                self.redirect = Redirect::Branch;
                self.frontend.push_back(Fetched { rec, arrival, stalled: true });
                break;
            }
            self.frontend.push_back(Fetched { rec, arrival, stalled: false });
            if actual_taken {
                taken_blocks += 1;
                if taken_blocks >= self.sim.config.fetch_blocks {
                    break;
                }
            }
        }
        Ok(())
    }
}
