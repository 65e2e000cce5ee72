//! Functional warmup for sampled simulation.
//!
//! A representative interval plucked from the middle of a run would
//! start with cold caches, a cold branch predictor and an untrained
//! value predictor — the first few thousand cycles of the detailed
//! interval would then measure the sampling artifact, not the machine.
//! Functional warmup replays the committed records *preceding* the
//! interval through every long-lived predictor structure at zero timing
//! cost: the same training points the pipeline exercises (I-cache per
//! new fetch line, branch predict-and-train at fetch, the value
//! predictor's decide/train_value/train_outcome ladder, D-cache and TLB
//! per memory access), in commit order. The pipeline's own dispatch
//! order *is* commit order — the timing core is trace-driven over the
//! committed stream — so ordering fidelity is exact; only the few-cycle
//! lag between dispatch-time decisions and commit-time training is
//! approximated away.
//!
//! The architectural register state the prediction schemes resolve
//! against (the shadow file, per-PC last values) is returned as a
//! [`WarmState`] and injected into the detailed run's core, so a
//! same-register or exclusive-register reuse scheme sees the values the
//! full run would have had at the interval boundary.

use rvp_emu::Committed;
use rvp_isa::{Program, Reg, NUM_REGS, NUM_REGS_PER_CLASS};
use rvp_vpred::{Decision, Outcome, ReuseKind};

use crate::columns::TraceColumns;
use crate::core::{Core, Simulator};
use crate::meta::PredMode;
use crate::source::CommittedSource;
use crate::stats::{SimError, SimStats};

/// Architectural predictor-visible state at an interval boundary,
/// produced by [`Simulator::functional_warmup`] and consumed by
/// [`Simulator::run_warmed_with_source`].
#[derive(Debug, Clone)]
pub struct WarmState {
    /// Program-order register values ([`Core`]'s shadow file).
    pub shadow: [u64; NUM_REGS],
    /// Last committed value produced by each static instruction.
    pub last_value: Vec<Option<u64>>,
    /// Seq (in the *warmup* stream's numbering) of each static
    /// instruction's most recent dynamic instance. Stale seqs are safe:
    /// the detailed run's ROB never contains them, so the availability
    /// check treats them as long since completed — which they are.
    pub last_instance: Vec<Option<u64>>,
}

impl WarmState {
    /// The cold state a fresh [`Core`] starts from, for a program of
    /// `program_len` static instructions.
    pub fn fresh(program_len: usize) -> WarmState {
        let mut shadow = [0u64; NUM_REGS];
        shadow[rvp_isa::analysis::abi::SP.index()] = rvp_emu::STACK_TOP;
        WarmState {
            shadow,
            last_value: vec![None; program_len],
            last_instance: vec![None; program_len],
        }
    }
}

fn sub_branch(a: &rvp_bpred::BpredStats, b: &rvp_bpred::BpredStats) -> rvp_bpred::BpredStats {
    rvp_bpred::BpredStats {
        cond_branches: a.cond_branches - b.cond_branches,
        cond_mispredicts: a.cond_mispredicts - b.cond_mispredicts,
        target_mispredicts: a.target_mispredicts - b.target_mispredicts,
        returns: a.returns - b.returns,
        return_mispredicts: a.return_mispredicts - b.return_mispredicts,
    }
}

fn sub_cache(a: &rvp_mem::CacheStats, b: &rvp_mem::CacheStats) -> rvp_mem::CacheStats {
    rvp_mem::CacheStats { accesses: a.accesses - b.accesses, misses: a.misses - b.misses }
}

fn sub_mem(a: &rvp_mem::HierarchyStats, b: &rvp_mem::HierarchyStats) -> rvp_mem::HierarchyStats {
    rvp_mem::HierarchyStats {
        l1i: sub_cache(&a.l1i, &b.l1i),
        l1d: sub_cache(&a.l1d, &b.l1d),
        l2: sub_cache(&a.l2, &b.l2),
        itlb_misses: a.itlb_misses - b.itlb_misses,
        dtlb_misses: a.dtlb_misses - b.dtlb_misses,
    }
}

impl Simulator {
    /// Replays `records` (any contiguous slice of a run, at its
    /// original seqs) through the branch predictor, cache hierarchy and
    /// value predictor at zero timing cost, returning the architectural
    /// [`WarmState`] at the end of the slice. Mirrors the pipeline's
    /// training points exactly; see the module docs.
    pub fn functional_warmup(&mut self, program: &Program, records: &TraceColumns) -> WarmState {
        let _span = rvp_obs::span!("sample.warmup", { insts: records.len() as u64 });
        let meta = crate::meta::build(program, &self.scheme, &self.config);
        let mut warm = WarmState::fresh(program.len());
        let mut last_line = u64::MAX;
        let scope = self.scheme.scope;
        for rec in records.records() {
            let m = &meta[rec.pc];
            // I-cache/ITLB: one access per new fetch line, as in fetch.
            if m.line != last_line {
                self.mem.access_inst(Program::byte_addr(rec.pc));
                last_line = m.line;
            }
            // Branch predict-and-train (perfect history repair, the same
            // single step the fetch stage uses).
            if let Some(kind) = m.bkind {
                self.bpred.update(rec.pc, kind, rec.taken.unwrap_or(true), rec.next_pc);
            }
            // The dispatch-point prediction decision, resolved against
            // the warm architectural state. Run for its training side
            // effects; the candidate feeds commit-time outcome training.
            let pred_value = self.warm_decide(&rec, m.mode, &warm);
            let corr_observed = match rec.dst {
                Some(dst) if m.corr_learn => {
                    if rec.old_value == rec.new_value {
                        Some(dst)
                    } else {
                        (0..NUM_REGS_PER_CLASS)
                            .map(|n| Reg::new(dst.class(), n))
                            .find(|r| !r.is_zero() && warm.shadow[r.index()] == rec.new_value)
                    }
                }
                _ => None,
            };
            // D-cache/DTLB, at the issue stage's access points.
            if let Some(addr) = rec.eff_addr {
                if m.is_load {
                    self.mem.access_data(addr, false);
                } else if m.is_store {
                    self.mem.access_data(addr, true);
                }
            }
            // Writeback-time value training.
            if self.value_training && rec.dst.is_some() && scope.admits(m.is_load, true) {
                if let Some(p) = self.scheme.predictor.as_mut() {
                    p.train_value(rec.pc, rec.new_value);
                }
            }
            // Commit-time outcome training.
            if let Some(dst) = rec.dst {
                if scope.admits(m.is_load, true) {
                    if let Some(p) = self.scheme.predictor.as_mut() {
                        p.train_outcome(&Outcome {
                            pc: rec.pc,
                            dst,
                            predicted: pred_value,
                            actual: rec.new_value,
                            prior: rec.old_value,
                            observed: corr_observed,
                        });
                    }
                }
            }
            // Architectural update, last (everything above reads the
            // pre-instruction state, as dispatch does).
            if let Some(dst) = rec.dst {
                warm.shadow[dst.index()] = rec.new_value;
                warm.last_value[rec.pc] = Some(rec.new_value);
                warm.last_instance[rec.pc] = Some(rec.seq);
            }
        }
        warm
    }

    /// The warmup mirror of the dispatch-time `predict` resolution:
    /// the same [`Decision`] ladder, with register reads answered from
    /// the warm shadow state (there are no in-flight producers in a
    /// functional model, so availability gating does not apply).
    fn warm_decide(&mut self, rec: &Committed, mode: PredMode, warm: &WarmState) -> Option<u64> {
        let PredMode::On(kind) = mode else {
            return None;
        };
        let dst = rec.dst.expect("a predicting mode implies a written destination");
        let decision = self
            .scheme
            .predictor
            .as_mut()
            .expect("a predicting mode implies a predictor")
            .decide(rec.pc, dst);
        match decision {
            Decision::Idle => None,
            Decision::Track | Decision::Predict => Some(match kind {
                ReuseKind::SameReg => rec.old_value,
                ReuseKind::OtherReg(r) => warm.shadow[r.index()],
                ReuseKind::LastValue => warm.last_value[rec.pc].unwrap_or(rec.old_value),
            }),
            Decision::Value(v) => Some(v),
            Decision::TrackReg(r) | Decision::PredictReg(r) => {
                Some(if r == dst { rec.old_value } else { warm.shadow[r.index()] })
            }
        }
    }

    /// As [`Simulator::run_with_source`], but starting the core from a
    /// warmed architectural state, and reporting only the detailed
    /// interval's branch/memory statistics (activity the warmup itself
    /// put into the shared predictor structures is excluded).
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_with_source`].
    ///
    /// # Panics
    ///
    /// Panics if `warm` was built for a program of a different static
    /// length.
    pub fn run_warmed_with_source<S: CommittedSource + ?Sized>(
        &mut self,
        program: &Program,
        source: &mut S,
        max_insts: u64,
        warm: &WarmState,
    ) -> Result<SimStats, SimError> {
        assert_eq!(
            warm.last_value.len(),
            program.len(),
            "warm state belongs to a different program"
        );
        let branch_before = *self.bpred.stats();
        let mem_before = *self.mem.stats();
        let mut core = Core::new(self, program, source, max_insts);
        core.shadow = warm.shadow;
        core.last_value.clone_from(&warm.last_value);
        core.last_instance.clone_from(&warm.last_instance);
        let mut stats = core.run()?;
        stats.branch = sub_branch(&stats.branch, &branch_before);
        stats.mem = sub_mem(&stats.mem, &mem_before);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rvp_isa::{ProgramBuilder, Reg};

    use super::*;
    use crate::config::UarchConfig;
    use crate::scheme::{Recovery, Scheme};
    use crate::source::SharedSource;

    /// A two-register counting loop with a store, long enough to split.
    fn loop_program() -> Program {
        let (a, b) = (Reg::int(1), Reg::int(2));
        let mut pb = ProgramBuilder::new();
        pb.li(a, 2_000);
        pb.li(b, 0);
        pb.label("top");
        pb.addi(b, b, 3);
        pb.st(b, Reg::int(0), 64);
        pb.ld(Reg::int(3), Reg::int(0), 64);
        // A loop-invariant load (address 128 is never stored to): the
        // one value in this loop a last-value predictor can get right.
        pb.ld(Reg::int(4), Reg::int(0), 128);
        pb.subi(a, a, 1);
        pb.bnez(a, "top");
        pb.halt();
        pb.build().expect("valid program")
    }

    fn records_of(program: &Program, n: u64) -> Vec<Committed> {
        SharedSource::capture(program, n).expect("capture").records().collect()
    }

    fn rebase(records: &[Committed]) -> Arc<TraceColumns> {
        let rebased: Vec<Committed> =
            records.iter().enumerate().map(|(i, r)| Committed { seq: i as u64, ..*r }).collect();
        Arc::new(TraceColumns::from_records(&rebased))
    }

    #[test]
    fn warm_state_tracks_the_architectural_registers() {
        let program = loop_program();
        let records = records_of(&program, 500);
        let mut sim =
            Simulator::new(UarchConfig::table1(), Scheme::no_predict(), Recovery::Refetch);
        let warm = sim.functional_warmup(&program, &TraceColumns::from_records(&records));
        // The shadow file must equal the emulator's register state at
        // the slice boundary: reconstruct it from the records.
        let mut expect = WarmState::fresh(program.len());
        for r in &records {
            if let Some(dst) = r.dst {
                expect.shadow[dst.index()] = r.new_value;
            }
        }
        assert_eq!(warm.shadow, expect.shadow);
        let last = records.iter().rev().find(|r| r.dst.is_some()).expect("has writes");
        assert_eq!(warm.last_value[last.pc], Some(last.new_value));
        assert_eq!(warm.last_instance[last.pc], Some(last.seq));
    }

    #[test]
    fn warmed_run_reports_only_interval_branch_and_memory_stats() {
        let program = loop_program();
        let all = records_of(&program, 1_200);
        let (head, tail) = all.split_at(600);
        let mut sim =
            Simulator::new(UarchConfig::table1(), Scheme::no_predict(), Recovery::Refetch);
        let warm = sim.functional_warmup(&program, &TraceColumns::from_records(head));
        let mut source = SharedSource::new(rebase(tail));
        let stats = sim
            .run_warmed_with_source(&program, &mut source, tail.len() as u64, &warm)
            .expect("warmed run");
        assert_eq!(stats.committed, tail.len() as u64);
        // Branch counters must cover exactly the detail interval, not
        // the warmup records that also trained the shared predictor.
        let detail_branches = tail.iter().filter(|r| r.taken.is_some()).count() as u64;
        assert_eq!(stats.branch.cond_branches, detail_branches);
        assert!(stats.mem.l1d.accesses > 0);
        assert!(
            stats.mem.l1d.accesses <= tail.iter().filter(|r| r.eff_addr.is_some()).count() as u64
        );
    }

    #[test]
    fn warmup_improves_mid_stream_fidelity() {
        // Simulate the same mid-run interval cold and warmed; the warmed
        // run must not be slower — a warmed branch predictor and caches
        // can only help this regular loop.
        let program = loop_program();
        let all = records_of(&program, 4_000);
        let (head, tail) = all.split_at(2_000);
        let detail = rebase(tail);

        let mut cold =
            Simulator::new(UarchConfig::table1(), Scheme::no_predict(), Recovery::Refetch);
        let mut cold_src = SharedSource::new(Arc::clone(&detail));
        let cold_stats =
            cold.run_with_source(&program, &mut cold_src, tail.len() as u64).expect("cold run");

        let mut sim =
            Simulator::new(UarchConfig::table1(), Scheme::no_predict(), Recovery::Refetch);
        let warm = sim.functional_warmup(&program, &TraceColumns::from_records(head));
        let mut src = SharedSource::new(detail);
        let warm_stats = sim
            .run_warmed_with_source(&program, &mut src, tail.len() as u64, &warm)
            .expect("warmed run");

        assert!(
            warm_stats.cycles <= cold_stats.cycles,
            "warmup made the interval slower: {} vs {} cycles",
            warm_stats.cycles,
            cold_stats.cycles
        );
        assert!(
            warm_stats.branch.cond_mispredicts <= cold_stats.branch.cond_mispredicts,
            "warmed bpred mispredicted more"
        );
    }

    #[test]
    fn warmed_run_with_a_value_predictor_is_well_formed() {
        // Exercise the decide/train ladder and the stale-seq last_value
        // injection with a real predicting scheme.
        let program = loop_program();
        let all = records_of(&program, 2_000);
        let (head, tail) = all.split_at(1_000);
        let mut sim = Simulator::new(UarchConfig::table1(), Scheme::lvp_all(), Recovery::Selective);
        let warm = sim.functional_warmup(&program, &TraceColumns::from_records(head));
        let mut source = SharedSource::new(rebase(tail));
        let stats = sim
            .run_warmed_with_source(&program, &mut source, tail.len() as u64, &warm)
            .expect("warmed predicting run");
        assert_eq!(stats.committed, tail.len() as u64);
        assert!(stats.predictions > 0, "warmed LVP should predict in a steady loop");
        let total = stats.cpi.total();
        assert_eq!(total, stats.cycles, "CPI stack invariant broken by warm start");
    }
}
