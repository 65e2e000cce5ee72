use std::collections::hash_map::Entry;

use rvp_emu::{Committed, EmuError, Emulator, U64Map};
use rvp_isa::analysis::{Liveness, RegSet};
use rvp_isa::cfg::Cfg;
use rvp_isa::{Program, Reg, NUM_REGS};

/// Configuration for a profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Maximum dynamic instructions to profile.
    pub max_insts: u64,
    /// Minimum executions before a static instruction's rates are
    /// considered meaningful (filters cold code out of the candidate
    /// lists).
    pub min_execs: u64,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig { max_insts: 2_000_000, min_execs: 32 }
    }
}

/// Per-static-instruction profile counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstStats {
    /// Dynamic executions observed.
    pub execs: u64,
    /// Executions where the destination register already held the value
    /// (same-register reuse).
    pub same_hits: u64,
    /// Executions where the value equalled this instruction's previous
    /// result (last-value reuse).
    pub lv_hits: u64,
    /// Executions where the value continued the instruction's previous
    /// stride (`new == last + (last - before_last)`), the pattern the
    /// paper's "Et Cetera" section exposes with an inserted add.
    pub stride_hits: u64,
    /// Executions where the value sat in each register (indexed by dense
    /// register index) at execution time.
    pub reg_hits: Box<[u64; NUM_REGS]>,
    /// Boyer–Moore majority vote for the *primary producer* of each
    /// correlated register's value: `(producer pc, vote)`.
    producer_vote: Box<[(u32, i64); NUM_REGS]>,
    /// Approximate count of times this instruction's result was the
    /// latest-arriving input of a consumer (critical-path weight).
    pub crit: u64,
}

impl InstStats {
    fn new() -> InstStats {
        InstStats {
            execs: 0,
            same_hits: 0,
            lv_hits: 0,
            stride_hits: 0,
            reg_hits: Box::new([0; NUM_REGS]),
            producer_vote: Box::new([(u32::MAX, 0); NUM_REGS]),
            crit: 0,
        }
    }
}

/// One benchmark's Figure 1 data: the fraction of dynamic *loads* whose
/// value was already available, by (cumulative) category.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Fig1Row {
    /// Dynamic loads observed.
    pub loads: u64,
    /// ... whose value was already in the destination register.
    pub same: u64,
    /// ... in the same or any dead register (same class).
    pub dead: u64,
    /// ... in any register at all.
    pub any: u64,
    /// ... in any register, or equal to the load's last value.
    pub any_or_lvp: u64,
}

impl Fig1Row {
    /// The four fractions in Figure 1's order (same, dead, any,
    /// register-or-lvp), in `[0, 1]`.
    pub fn fractions(&self) -> [f64; 4] {
        let d = self.loads.max(1) as f64;
        [
            self.same as f64 / d,
            self.dead as f64 / d,
            self.any as f64 / d,
            self.any_or_lvp as f64 / d,
        ]
    }
}

/// The profiler's copy of the architectural register file, replayed
/// from the committed stream's writes.
trait ShadowRegs {
    /// The register file at program start: every register zero except
    /// the stack pointer, which holds [`rvp_emu::STACK_TOP`].
    fn initial() -> Self;

    /// Writes `value` into register `reg` (a dense index) and returns
    /// the mask of registers that held `value` just before the write.
    fn write(&mut self, reg: usize, value: u64) -> u64;
}

/// A [`ShadowRegs`] that indexes registers by value: a map from each
/// value held anywhere in the register file to the mask of registers
/// holding it, so asking who holds a value is one lookup rather than a
/// compare against all 64 registers. The map never has more than 64
/// entries.
struct ValueIndex {
    regs: [u64; NUM_REGS],
    holders: U64Map<u64>,
}

impl ShadowRegs for ValueIndex {
    fn initial() -> ValueIndex {
        let sp = rvp_isa::analysis::abi::SP.index();
        let mut regs = [0u64; NUM_REGS];
        regs[sp] = rvp_emu::STACK_TOP;
        let mut holders = U64Map::default();
        holders.insert(0, !(1u64 << sp));
        holders.insert(rvp_emu::STACK_TOP, 1u64 << sp);
        ValueIndex { regs, holders }
    }

    fn write(&mut self, reg: usize, value: u64) -> u64 {
        let bit = 1u64 << reg;
        let old = std::mem::replace(&mut self.regs[reg], value);
        if old != value {
            if let Entry::Occupied(mut e) = self.holders.entry(old) {
                *e.get_mut() &= !bit;
                if *e.get() == 0 {
                    e.remove();
                }
            }
        }
        let mask = self.holders.entry(value).or_insert(0);
        let before = *mask;
        *mask |= bit;
        before
    }
}

/// A completed register-reuse profile of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    config: ProfileConfig,
    stats: Vec<InstStats>,
    /// Registers statically dead after each instruction (same-class
    /// constraints are applied at list-building time).
    dead_after: Vec<RegSet>,
    fig1: Fig1Row,
    committed: u64,
}

impl Profile {
    /// Runs the program under the emulator for at most
    /// `config.max_insts` committed instructions and collects the
    /// profile.
    ///
    /// # Errors
    ///
    /// Propagates emulator errors (malformed programs).
    pub fn collect(program: &Program, config: &ProfileConfig) -> Result<Profile, EmuError> {
        let mut emu = Emulator::new(program);
        Profile::collect_stream(program, config, std::iter::from_fn(move || emu.step().transpose()))
    }

    /// Collects a profile from any committed-record stream — the live
    /// emulator ([`Profile::collect`]) or a replayed trace.
    ///
    /// The stream must be the committed stream of `program` from its
    /// initial state; at most `config.max_insts` records are consumed.
    ///
    /// # Errors
    ///
    /// Propagates the stream's error type (e.g. emulator or trace-decode
    /// errors).
    pub fn collect_stream<E>(
        program: &Program,
        config: &ProfileConfig,
        stream: impl IntoIterator<Item = Result<Committed, E>>,
    ) -> Result<Profile, E> {
        Profile::collect_with::<ValueIndex, E>(program, config, stream)
    }

    /// [`Profile::collect_stream`] over any shadow register file.
    fn collect_with<R: ShadowRegs, E>(
        program: &Program,
        config: &ProfileConfig,
        stream: impl IntoIterator<Item = Result<Committed, E>>,
    ) -> Result<Profile, E> {
        let n = program.len();
        let mut stats: Vec<InstStats> = (0..n).map(|_| InstStats::new()).collect();

        // Static deadness per instruction, from per-procedure liveness.
        let mut dead_after = vec![RegSet::new(); n];
        for proc in program.procedures() {
            let cfg = Cfg::build(program, &proc);
            let live = Liveness::compute(program, &cfg);
            for pc in proc.range.clone() {
                let live_set = live.live_after(pc);
                let mut dead = RegSet::new();
                for i in 0..NUM_REGS {
                    let r = Reg::from_index(i);
                    if !live_set.contains(r) && !r.is_zero() {
                        dead.insert(r);
                    }
                }
                dead_after[pc] = dead;
            }
        }

        let mut regs = R::initial();
        let mut last_value: Vec<Option<u64>> = vec![None; n];
        let mut last_stride: Vec<i64> = vec![0; n];
        let mut last_writer: [u32; NUM_REGS] = [u32::MAX; NUM_REGS];
        let mut depth: [u64; NUM_REGS] = [0; NUM_REGS];
        let mut fig1 = Fig1Row::default();

        let mut stream = stream.into_iter();
        let mut committed = 0u64;
        while committed < config.max_insts {
            let Some(item) = stream.next() else { break };
            let c = item?;
            committed += 1;
            let inst = &program.insts()[c.pc];
            let s = &mut stats[c.pc];
            s.execs += 1;

            // Critical-path vote: credit the producer of the
            // latest-arriving (deepest) source.
            let mut max_depth = 0u64;
            let mut crit_writer = u32::MAX;
            for src in inst.srcs().into_iter().flatten() {
                if depth[src.index()] >= max_depth && last_writer[src.index()] != u32::MAX {
                    max_depth = depth[src.index()];
                    crit_writer = last_writer[src.index()];
                }
            }
            if crit_writer != u32::MAX {
                stats[crit_writer as usize].crit += 1;
            }
            let s = &mut stats[c.pc];

            if let Some(dst) = c.dst {
                let new = c.new_value;
                let same = c.old_value == new;
                let lv_hit = last_value[c.pc] == Some(new);
                if same {
                    s.same_hits += 1;
                }
                if lv_hit {
                    s.lv_hits += 1;
                }
                if let Some(last) = last_value[c.pc] {
                    if last.wrapping_add(last_stride[c.pc] as u64) == new {
                        s.stride_hits += 1;
                    }
                    last_stride[c.pc] = new.wrapping_sub(last) as i64;
                }
                last_value[c.pc] = Some(new);

                // The registers that held the value just before this
                // write; the per-register work below runs only for them.
                let match_mask = regs.write(dst.index(), new);
                let any = match_mask != 0;
                let mut dead_hit = false;
                let mut m = match_mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    s.reg_hits[i] += 1;
                    let r = Reg::from_index(i);
                    if dead_after[c.pc].contains(r) && r.class() == dst.class() {
                        dead_hit = true;
                    }
                    // Majority vote for the value's producer.
                    let vote = &mut s.producer_vote[i];
                    let producer = last_writer[i];
                    if producer != u32::MAX {
                        if vote.1 == 0 {
                            *vote = (producer, 1);
                        } else if vote.0 == producer {
                            vote.1 += 1;
                        } else {
                            vote.1 -= 1;
                        }
                    }
                }

                if inst.is_load() {
                    fig1.loads += 1;
                    if same {
                        fig1.same += 1;
                    }
                    if same || dead_hit {
                        fig1.dead += 1;
                    }
                    if any {
                        fig1.any += 1;
                    }
                    if any || lv_hit {
                        fig1.any_or_lvp += 1;
                    }
                }

                last_writer[dst.index()] = c.pc as u32;
                depth[dst.index()] = max_depth + 1;
            }
        }

        Ok(Profile { config: *config, stats, dead_after, fig1, committed })
    }

    /// The configuration the profile was collected with.
    pub fn config(&self) -> &ProfileConfig {
        &self.config
    }

    /// Dynamic instructions profiled.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Per-instruction statistics, indexed by PC.
    pub fn stats(&self) -> &[InstStats] {
        &self.stats
    }

    /// Registers statically dead after `pc` (zero registers excluded).
    pub fn dead_after(&self, pc: usize) -> RegSet {
        self.dead_after[pc]
    }

    /// Figure 1 counters for this run.
    pub fn fig1(&self) -> Fig1Row {
        self.fig1
    }

    /// Same-register reuse rate of the instruction at `pc`, in `[0, 1]`.
    pub fn same_rate(&self, pc: usize) -> f64 {
        let s = &self.stats[pc];
        s.same_hits as f64 / s.execs.max(1) as f64
    }

    /// Last-value reuse rate of the instruction at `pc`.
    pub fn lv_rate(&self, pc: usize) -> f64 {
        let s = &self.stats[pc];
        s.lv_hits as f64 / s.execs.max(1) as f64
    }

    /// Stride-predictability rate of the instruction at `pc`.
    pub fn stride_rate(&self, pc: usize) -> f64 {
        let s = &self.stats[pc];
        s.stride_hits as f64 / s.execs.max(1) as f64
    }

    /// Correlation rate between the value produced at `pc` and register
    /// `r`'s content at execution time.
    pub fn reg_rate(&self, pc: usize, r: Reg) -> f64 {
        let s = &self.stats[pc];
        s.reg_hits[r.index()] as f64 / s.execs.max(1) as f64
    }

    /// Approximate critical-path weight of the instruction at `pc`.
    pub fn criticality(&self, pc: usize) -> u64 {
        self.stats[pc].crit
    }

    /// The majority-vote *primary producer* of the value correlation
    /// between `pc` and register `r`: the static instruction whose result,
    /// sitting in `r`, the instruction at `pc` keeps reproducing.
    pub fn primary_producer(&self, pc: usize, r: Reg) -> Option<usize> {
        let (producer, vote) = self.stats[pc].producer_vote[r.index()];
        (vote > 0 && producer != u32::MAX).then_some(producer as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rvp_isa::ProgramBuilder;

    /// The reference the value index is checked against: compare the
    /// value against every register.
    struct ScanRegs([u64; NUM_REGS]);

    impl ShadowRegs for ScanRegs {
        fn initial() -> ScanRegs {
            let mut regs = [0u64; NUM_REGS];
            regs[rvp_isa::analysis::abi::SP.index()] = rvp_emu::STACK_TOP;
            ScanRegs(regs)
        }

        fn write(&mut self, reg: usize, value: u64) -> u64 {
            let mut mask = 0u64;
            for (i, &held) in self.0.iter().enumerate() {
                mask |= u64::from(held == value) << i;
            }
            self.0[reg] = value;
            mask
        }
    }

    /// Values a register write may carry: the zero registers' value,
    /// the initial stack pointer, a few small integers that collide
    /// often, and arbitrary words.
    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(rvp_emu::STACK_TOP), 1u64..8, any::<u64>()]
    }

    /// A writable (non-zero) register, by dense index.
    fn writable_reg() -> impl Strategy<Value = usize> {
        (0usize..NUM_REGS)
            .prop_filter("zero registers are never written", |&i| !Reg::from_index(i).is_zero())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn value_index_answers_like_the_register_scan(
            writes in proptest::collection::vec((writable_reg(), value()), 1..400),
        ) {
            let (mut index, mut scan) = (ValueIndex::initial(), ScanRegs::initial());
            for &(reg, v) in &writes {
                prop_assert_eq!(index.write(reg, v), scan.write(reg, v));
            }
            // Every value still held is indexed exactly.
            for &v in scan.0.iter() {
                let mask = scan.0.iter().enumerate().fold(0u64, |m, (i, &h)| m | u64::from(h == v) << i);
                prop_assert_eq!(index.holders.get(&v).copied(), Some(mask));
            }
            prop_assert!(index.holders.len() <= NUM_REGS);
        }

        #[test]
        fn value_index_profiles_streams_like_the_register_scan(
            steps in proptest::collection::vec((0usize..6, writable_reg(), value()), 1..600),
        ) {
            let (p, v, n) = (Reg::int(1), Reg::int(2), Reg::int(3));
            let mut b = ProgramBuilder::new();
            b.li(p, 0x1000).li(n, 4);
            b.ld(v, p, 0);
            b.addi(p, p, 8);
            b.subi(n, n, 1);
            b.halt();
            let program = b.build().unwrap();
            let mut old = ScanRegs::initial();
            let records: Vec<Committed> = steps
                .iter()
                .enumerate()
                .map(|(seq, &(pc, reg, new_value))| {
                    let old_value = old.0[reg];
                    old.0[reg] = new_value;
                    Committed {
                        seq: seq as u64,
                        pc,
                        next_pc: pc + 1,
                        dst: Some(Reg::from_index(reg)),
                        old_value,
                        new_value,
                        eff_addr: None,
                        taken: None,
                    }
                })
                .collect();
            let cfg = ProfileConfig::default();
            let stream = || records.iter().map(|&c| Ok::<_, ()>(c));
            let index = Profile::collect_stream(&program, &cfg, stream()).unwrap();
            let scan = Profile::collect_with::<ScanRegs, ()>(&program, &cfg, stream()).unwrap();
            prop_assert!(index == scan, "value index and register scan profiles differ");
        }
    }

    #[test]
    fn value_index_profiles_every_train_program_like_the_register_scan() {
        let cfg = ProfileConfig { max_insts: 200_000, min_execs: 32 };
        for wl in rvp_workloads::all() {
            let program = wl.program(rvp_workloads::Input::Train);
            let index = Profile::collect(&program, &cfg).unwrap();
            let mut emu = Emulator::new(&program);
            let stream = std::iter::from_fn(move || emu.step().transpose());
            let scan = Profile::collect_with::<ScanRegs, _>(&program, &cfg, stream).unwrap();
            assert_eq!(index.committed(), scan.committed(), "{}", wl.name());
            assert!(index == scan, "{}: value index and register scan profiles differ", wl.name());
        }
    }

    #[test]
    fn same_register_reuse_is_measured() {
        let (p, v, n) = (Reg::int(1), Reg::int(2), Reg::int(3));
        let mut b = ProgramBuilder::new();
        b.data(0x1000, &[9; 64]);
        b.li(p, 0x1000).li(n, 64);
        b.label("loop");
        b.ld(v, p, 0); // pc 2: always 9 -> same-register reuse after 1st
        b.addi(p, p, 8); // pc 3: never reuses (pointer strides)
        b.subi(n, n, 1);
        b.bnez(n, "loop");
        b.halt();
        let prog = b.build().unwrap();
        let prof = Profile::collect(&prog, &ProfileConfig::default()).unwrap();
        assert!(prof.same_rate(2) > 0.95, "rate = {}", prof.same_rate(2));
        assert_eq!(prof.stats()[3].same_hits, 0);
        assert!(prof.lv_rate(2) > 0.95);
    }
}
