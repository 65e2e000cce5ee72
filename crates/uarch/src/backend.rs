//! The out-of-order back end: wakeup/issue, writeback (completion,
//! verification, recovery dispatch) and in-order commit.
//!
//! The stages here are scan-free on their hot paths: issue walks the
//! pending-issue bitset instead of the whole ROB, completions come off
//! a timing wheel, loads disambiguate against the store list, and
//! queue/rename pressure is answered from incremental counters. Debug
//! builds cross-check all of these against full scans every few cycles
//! (see `Core::validate_summaries`).

use rvp_isa::RegClass;
use rvp_vpred::Outcome;

use crate::core::{Core, NO_SEQ};
use crate::recovery::RobSet;
use crate::scheme::Recovery;
use crate::source::CommittedSource;

impl<'s, S: CommittedSource + ?Sized> Core<'s, S> {
    /// Availability of the value produced by `dep_seq` at the current
    /// cycle: `Ok(taints)` = ready, carrying the given speculative
    /// taints; `Err(blocker)` = not ready, and can only become ready
    /// once `blocker` completes (the wakeup seq the issue stage
    /// registers a waiter on).
    #[inline]
    pub(crate) fn dep_avail(&self, dep_seq: u64) -> Result<RobSet, u64> {
        let Some(i) = self.rob_index(dep_seq) else {
            // Younger than the ROB tail (squashed, awaiting refetch):
            // not available until the refetched instance — same seq —
            // completes. Older than the head: committed long ago.
            let awaiting_refetch = self.rob.back().is_some_and(|t| dep_seq > t.rec.seq);
            return if awaiting_refetch { Err(dep_seq) } else { Ok(RobSet::EMPTY) };
        };
        let p = &self.rob[i];
        if p.done {
            return Ok(p.taint);
        }
        if p.predicted && !p.verified {
            // Consumers may read the old mapping (the predicted value)
            // once *that* value is ready.
            let q = p.pred_dep;
            let mut taints = match (q != NO_SEQ).then(|| self.rob_index(q)).flatten() {
                None => RobSet::EMPTY,
                Some(qi) => {
                    let qe = &self.rob[qi];
                    if !qe.done {
                        return Err(q);
                    }
                    qe.taint
                }
            };
            taints.insert(dep_seq);
            return Ok(taints);
        }
        Err(dep_seq)
    }

    /// Marks pending entry `seq` (of the given queue class) stably
    /// blocked on the value of `dep`, whose unavailability is gated by
    /// `blocker`. Completion of either can make the value readable —
    /// when `blocker` is a predicted producer's own dependence, the
    /// producer finishing computes the real value without the blocker
    /// ever completing — so a waiter is registered on both.
    fn block_until(&mut self, class: RegClass, seq: u64, dep: u64, blocker: u64) {
        self.issue_blocked[class as usize].insert(seq);
        self.waiters[(blocker % RobSet::CAPACITY as u64) as usize].insert(seq);
        if dep != blocker {
            self.waiters[(dep % RobSet::CAPACITY as u64) as usize].insert(seq);
        }
    }

    // ------------------------------------------------------------------
    // Completion / verification / recovery
    // ------------------------------------------------------------------

    pub(crate) fn process_completions(&mut self) {
        // The wheel yields this cycle's completions ordered by seq; seq
        // order matters because older mispredicts must recover first.
        // Stale entries (invalidated or squashed since scheduling) are
        // recognized by re-validating against the ROB and skipped.
        let n = self.completions.collect_due(self.now);
        for k in 0..n {
            let seq = self.completions.due_seq(k);
            let Some(idx) = self.rob_index(seq) else { continue };
            {
                let e = &self.rob[idx];
                if e.done || e.complete_at != self.now {
                    continue;
                }
            }
            let e = &self.rob[idx];
            let stalled_fetch = e.stalled_fetch;
            let predicted = e.predicted;
            let pred_correct = e.pred_correct;
            let first_use = e.first_use;
            let (pc, is_load, dst, new_value) = (e.rec.pc, e.is_load, e.rec.dst, e.rec.new_value);

            self.rob[idx].done = true;
            // A completion can make pending consumers ready: wake the
            // entries that recorded this seq as their blocker. Stale
            // waiter bits (squashed or re-blocked entries) just trigger
            // a harmless re-check on the next walk.
            self.issue_idle = false;
            let slot = (seq % RobSet::CAPACITY as u64) as usize;
            let woken = self.waiters[slot];
            if !woken.is_empty() {
                self.issue_blocked[0].subtract(&woken);
                self.issue_blocked[1].subtract(&woken);
                self.waiters[slot] = RobSet::EMPTY;
            }

            // Value-storing predictors (LVP, stride, context, hybrid)
            // train at writeback, when the result exists — the standard
            // modelling point between the paper's two alternatives
            // ("insert speculative values ... and possibly pollute it, or
            // hold off inserting values until they become
            // non-speculative, forcing new instructions to possibly use
            // stale entries"): entries lag in-flight work by a few
            // cycles, and squashed-then-replayed instructions retrain.
            if self.sim.value_training && dst.is_some() {
                let scope = self.sim.scheme.scope;
                if scope.admits(is_load, true) {
                    if let Some(p) = self.sim.scheme.predictor.as_mut() {
                        p.train_value(pc, new_value);
                    }
                }
            }

            if stalled_fetch {
                self.fetch_resume_at = self.fetch_resume_at.max(self.now + 1);
                if self.stalled_on == Some(seq) {
                    self.stalled_on = None;
                }
            }

            if predicted {
                self.rob[idx].verified = true;
                self.unverified.remove(seq);
                if pred_correct {
                    self.clear_taint(seq);
                } else if first_use != NO_SEQ {
                    self.stats.costly_mispredictions += 1;
                    if let Some(table) = &mut self.pc_table {
                        table.record_costly(pc);
                    }
                    match self.sim.recovery {
                        Recovery::Refetch => {
                            // Younger completions due this cycle whose
                            // entries get squashed are skipped by the
                            // heap re-validation above.
                            self.squash_from(first_use);
                        }
                        Recovery::Reissue | Recovery::Selective => {
                            self.invalidate_dependents(seq);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    pub(crate) fn commit(&mut self) {
        for _ in 0..self.sim.config.commit_width {
            let Some(head) = self.rob.front() else { break };
            if !head.done || !head.taint.is_empty() || (head.predicted && !head.verified) {
                break;
            }
            let e = self.rob.pop_front().expect("non-empty");
            debug_assert!(
                !self.to_issue[e.queue as usize].contains(e.rec.seq),
                "committing unissued entry"
            );
            if e.in_iq {
                self.iq_occupancy[e.queue as usize] -= 1;
                if e.issued {
                    self.held_issued -= 1;
                    self.held_slots.remove(e.rec.seq);
                }
            }
            if e.is_store {
                debug_assert_eq!(self.stores.front(), Some(&e.rec.seq));
                self.stores.pop_front();
            }
            self.stats.committed += 1;
            self.last_commit_cycle = self.now;
            if e.is_load {
                self.stats.loads += 1;
            }
            if e.predicted {
                self.stats.predictions += 1;
                if e.pred_correct {
                    self.stats.correct_predictions += 1;
                }
                if let Some(table) = &mut self.pc_table {
                    table.record_commit(e.rec.pc, e.pred_correct);
                }
            }
            if let Some(dst) = e.rec.dst {
                self.writers[dst.class() as usize] -= 1;
                if self.last_writer[dst.index()] == Some(e.rec.seq) {
                    self.last_writer[dst.index()] = None;
                }
            }
            // Train the value predictor with the architectural outcome.
            // (The branch predictor trains at fetch with immediate
            // resolution — perfect history repair, the trace-driven
            // idealization — so branch behaviour is identical across
            // value-prediction schemes.) Each predictor applies its own
            // internal guard (e.g. dRVP only trains when dispatch
            // carried a candidate value); value-storing predictors
            // already trained at writeback.
            if let Some(dst) = e.rec.dst {
                let scope = self.sim.scheme.scope;
                if scope.admits(e.is_load, true) {
                    if let Some(p) = self.sim.scheme.predictor.as_mut() {
                        p.train_outcome(&Outcome {
                            pc: e.rec.pc,
                            dst,
                            predicted: e.pred_value,
                            actual: e.rec.new_value,
                            prior: e.rec.old_value,
                            observed: e.corr_observed,
                        });
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    pub(crate) fn issue(&mut self) {
        // Quiescence skip: if the previous walk proved every pending
        // entry stably blocked (nothing issued, nothing skipped for a
        // transient unit/timing reason) and no readiness-changing event
        // has happened since, the walk — and the slot-release pass,
        // whose transitions are driven by the same events — is a no-op.
        if self.issue_idle {
            return;
        }
        let cfg = &self.sim.config;
        let (mut int_used, mut fp_used, mut ldst_used) = (0usize, 0usize, 0usize);
        let (int_units, fp_units, ldst_ports) = (cfg.int_units, cfg.fp_units, cfg.ldst_ports);

        let Some(head_seq) = self.rob.front().map(|e| e.rec.seq) else {
            self.issue_idle = true;
            return;
        };
        let rob_len = self.rob.len();
        let mut issued_any = false;
        // An entry was skipped for a reason that can expire without one
        // of the flag-clearing events (unit exhausted, earliest-issue in
        // the future) — the walk must run again next cycle.
        let mut transient_skip = false;

        // Walk per-class snapshots of the pending-issue bitsets
        // oldest-first, minus the entries already proven stably blocked
        // (their wakeup is event-driven); the live bitsets are updated
        // as entries issue (no dispatches happen mid-issue, so a
        // snapshot cannot go stale the other way). The two walks are
        // independent: the classes contend for disjoint unit pools, and
        // only the integer queue holds memory instructions, so
        // splitting the walk leaves the data-cache access order
        // unchanged.
        let int_candidates = self.to_issue[RegClass::Int as usize]
            .and_not(&self.issue_blocked[RegClass::Int as usize]);
        if !int_candidates.is_empty() {
            int_candidates.for_each_in_window(head_seq, rob_len, &mut |seq| {
                if int_used >= int_units {
                    transient_skip = true;
                    return false;
                }
                let i = (seq - head_seq) as usize;
                let e = &self.rob[i];
                debug_assert!(e.in_iq && !e.issued);
                if e.earliest_issue > self.now {
                    transient_skip = true;
                    return true;
                }
                let is_mem = e.is_load || e.is_store;
                if is_mem && ldst_used >= ldst_ports {
                    transient_skip = true;
                    return true;
                }

                // Register-source readiness.
                let mut taints = RobSet::EMPTY;
                for dep in self.rob[i].deps {
                    if dep == NO_SEQ {
                        continue;
                    }
                    match self.dep_avail(dep) {
                        Ok(ts) => taints.union_with(&ts),
                        Err(blocker) => {
                            self.block_until(RegClass::Int, seq, dep, blocker);
                            return true;
                        }
                    }
                }

                // Memory ordering with oracle disambiguation (the
                // execution-driven simulator knows every effective address):
                // a load waits only for older stores to the same 8-byte
                // block, and forwards once that store completes. Independent
                // stores never block it. Only the store list is examined,
                // not the whole window.
                if self.rob[i].is_load {
                    let addr_block = self.rob[i].rec.eff_addr.map(|a| a & !7);
                    for &sseq in &self.stores {
                        if sseq >= seq {
                            break;
                        }
                        let s = &self.rob[(sseq - head_seq) as usize];
                        if s.rec.eff_addr.map(|a| a & !7) != addr_block {
                            continue;
                        }
                        if !s.done {
                            // Blocked on an incomplete older store.
                            self.block_until(RegClass::Int, seq, sseq, sseq);
                            return true;
                        }
                        taints.union_with(&s.taint);
                    }
                }

                int_used += 1;
                if is_mem {
                    ldst_used += 1;
                }
                let mut latency = self.rob[i].lat;
                let mut mem_extra = 0;
                if let Some(addr) = self.rob[i].rec.eff_addr {
                    if self.rob[i].is_load {
                        mem_extra = self.sim.mem.access_data(addr, false);
                        latency += mem_extra;
                    } else {
                        // Stores access the hierarchy for state/stats, but a
                        // write buffer hides their miss latency.
                        let _ = self.sim.mem.access_data(addr, true);
                    }
                }
                issued_any = true;
                self.finish_issue(i, seq, taints, latency, mem_extra);
                true
            });
        }

        let fp_candidates = self.to_issue[RegClass::Fp as usize]
            .and_not(&self.issue_blocked[RegClass::Fp as usize]);
        if !fp_candidates.is_empty() {
            fp_candidates.for_each_in_window(head_seq, rob_len, &mut |seq| {
                if fp_used >= fp_units {
                    transient_skip = true;
                    return false;
                }
                let i = (seq - head_seq) as usize;
                let e = &self.rob[i];
                debug_assert!(e.in_iq && !e.issued);
                if e.earliest_issue > self.now {
                    transient_skip = true;
                    return true;
                }
                let mut taints = RobSet::EMPTY;
                for dep in self.rob[i].deps {
                    if dep == NO_SEQ {
                        continue;
                    }
                    match self.dep_avail(dep) {
                        Ok(ts) => taints.union_with(&ts),
                        Err(blocker) => {
                            self.block_until(RegClass::Fp, seq, dep, blocker);
                            return true;
                        }
                    }
                }
                fp_used += 1;
                let latency = self.rob[i].lat;
                issued_any = true;
                self.finish_issue(i, seq, taints, latency, 0);
                true
            });
        }

        self.release_iq_slots();
        self.issue_idle = !issued_any && !transient_skip;
    }

    /// Issue-time state transition shared by the two class walks: stamp
    /// the entry, maintain the taint count and pending-issue bitset,
    /// schedule the writeback and apply the queue-slot release policy.
    fn finish_issue(&mut self, i: usize, seq: u64, taints: RobSet, latency: u64, mem_extra: u64) {
        let e = &mut self.rob[i];
        let was_tainted = !e.taint.is_empty();
        e.issued = true;
        e.complete_at = self.now + latency;
        e.mem_extra = mem_extra;
        e.taint = taints;
        let queue = e.queue;
        match (was_tainted, !taints.is_empty()) {
            (false, true) => self.tainted += 1,
            (true, false) => self.tainted -= 1,
            _ => {}
        }
        if !taints.is_empty() {
            // Register this entry with each taint's reverse index (all
            // taint members are in-flight seqs, hence in the window).
            let head_seq = self.rob.front().expect("issuing from a non-empty ROB").rec.seq;
            let len = self.rob.len();
            taints.for_each_in_window(head_seq, len, &mut |s| {
                self.taint_members[(s % RobSet::CAPACITY as u64) as usize].insert(seq);
                true
            });
        }
        self.to_issue[queue as usize].remove(seq);
        self.completions.schedule(self.now, self.now + latency, seq);
        // Queue-slot release policy per recovery scheme.
        let e = &mut self.rob[i];
        match self.sim.recovery {
            Recovery::Refetch => {
                e.in_iq = false;
                self.iq_occupancy[e.queue as usize] -= 1;
            }
            Recovery::Selective => {
                if e.taint.is_empty() && (!e.predicted || e.verified) {
                    e.in_iq = false;
                    self.iq_occupancy[e.queue as usize] -= 1;
                } else {
                    self.held_issued += 1;
                    self.held_slots.insert(seq);
                }
            }
            Recovery::Reissue => {
                // Released in release_iq_slots.
                self.held_issued += 1;
                self.held_slots.insert(seq);
            }
        }
    }

    /// Frees queue slots held by issued instructions once the recovery
    /// scheme allows. Skipped entirely while nothing holds a slot —
    /// the common case outside reissue recovery.
    fn release_iq_slots(&mut self) {
        if self.held_issued == 0 {
            return;
        }
        match self.sim.recovery {
            Recovery::Refetch => {}
            Recovery::Selective => {
                // Only current holders can transition; walk them alone.
                let holders = self.held_slots;
                let head_seq = self.rob.front().expect("holders imply a non-empty ROB").rec.seq;
                let len = self.rob.len();
                let mut released = 0usize;
                holders.for_each_in_window(head_seq, len, &mut |m| {
                    let e = &mut self.rob[(m - head_seq) as usize];
                    debug_assert!(e.in_iq && e.issued);
                    if e.taint.is_empty() && (!e.predicted || e.verified) {
                        e.in_iq = false;
                        self.iq_occupancy[e.queue as usize] -= 1;
                        self.held_slots.remove(m);
                        released += 1;
                    }
                    true
                });
                self.held_issued -= released;
            }
            Recovery::Reissue => {
                // Everything younger than the oldest unverified
                // prediction stays; walk the holders up to it.
                let head_seq = self.rob.front().expect("holders imply a non-empty ROB").rec.seq;
                let len = self.rob.len();
                let mut oldest_unverified = u64::MAX;
                self.unverified.for_each_in_window(head_seq, len, &mut |s| {
                    oldest_unverified = s;
                    false
                });
                let holders = self.held_slots;
                let mut released = 0usize;
                holders.for_each_in_window(head_seq, len, &mut |m| {
                    if m > oldest_unverified {
                        return false;
                    }
                    let e = &mut self.rob[(m - head_seq) as usize];
                    debug_assert!(e.in_iq && e.issued);
                    e.in_iq = false;
                    self.iq_occupancy[e.queue as usize] -= 1;
                    self.held_slots.remove(m);
                    released += 1;
                    true
                });
                self.held_issued -= released;
            }
        }
    }
}
