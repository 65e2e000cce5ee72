//! Branch-prediction substrate: pluggable direction predictors behind
//! the [`BranchPredictor`] trait (gshare, bimodal — extensible via the
//! string-keyed registry), plus a branch target buffer and
//! return-address stack composed by [`BranchUnit`].
//!
//! The default matches the paper's Table 1 front end: a 2K-entry,
//! 2-bit-counter PHT indexed gshare-style with global history, plus a
//! 256-entry BTB. A 16-entry return-address stack predicts `ret`
//! targets. [`new_branch_predictor`] builds alternatives from config
//! strings like `gshare:pht=8192,hist=13` or `bimodal:pht=2048`, using
//! the same `name:key=value,...` grammar as the value-predictor
//! registry.
//!
//! The simulator is execution-driven over the correct path, so the
//! predictor is consulted blind at fetch and trained with the actual
//! outcome immediately afterwards (equivalent to perfect history repair on
//! mispredicts, the standard trace-driven idealization).
//!
//! # Examples
//!
//! ```
//! use rvp_bpred::{BpredConfig, BranchKind, BranchUnit};
//!
//! let mut bp = BranchUnit::new(BpredConfig::table1());
//! let kind = BranchKind::CondDirect { target: 10 };
//! // Train a strongly-taken branch at pc 4 (long enough for the global
//! // history to saturate)...
//! for _ in 0..16 {
//!     let _ = bp.predict(4, kind);
//!     bp.update(4, kind, true, 10);
//! }
//! let p = bp.predict(4, kind);
//! assert!(p.taken);
//! assert_eq!(p.target, Some(10));
//! ```

use rvp_vpred::Params;

/// Configuration of the branch predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BpredConfig {
    /// Pattern-history-table entries (2-bit counters); power of two.
    pub pht_entries: usize,
    /// Global-history bits folded into the PHT index.
    pub history_bits: u32,
    /// Branch-target-buffer entries (direct mapped); power of two.
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl BpredConfig {
    /// The paper's Table 1 predictor: 2K x 2-bit gshare PHT, 256-entry
    /// BTB. (RAS depth is not specified; 16 is era-typical.)
    pub fn table1() -> BpredConfig {
        BpredConfig { pht_entries: 2048, history_bits: 11, btb_entries: 256, ras_entries: 16 }
    }
}

impl Default for BpredConfig {
    fn default() -> BpredConfig {
        BpredConfig::table1()
    }
}

/// The kind of control-transfer instruction being predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional direct branch with a known (decoded) target.
    CondDirect {
        /// Taken target.
        target: usize,
    },
    /// Unconditional direct branch.
    UncondDirect {
        /// Target.
        target: usize,
    },
    /// Subroutine call (pushes `pc + 1` on the RAS).
    Call {
        /// Callee entry.
        target: usize,
    },
    /// Subroutine return (predicted via the RAS).
    Return,
    /// Indirect jump (predicted via the BTB).
    Indirect,
}

/// A fetch-time prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional transfers).
    pub taken: bool,
    /// Predicted target, if the front end has one (a predicted-taken
    /// branch with no BTB/RAS target cannot redirect fetch and is treated
    /// as a target mispredict by the pipeline).
    pub target: Option<usize>,
}

/// Counters describing predictor behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BpredStats {
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Conditional direction mispredicts.
    pub cond_mispredicts: u64,
    /// Taken transfers whose predicted target was wrong or missing.
    pub target_mispredicts: u64,
    /// Returns predicted.
    pub returns: u64,
    /// Return-target mispredicts.
    pub return_mispredicts: u64,
}

impl BpredStats {
    /// Direction accuracy over conditional branches, in `[0, 1]`.
    pub fn direction_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            1.0
        } else {
            1.0 - self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }
}

impl rvp_json::ToJson for BpredStats {
    fn to_json(&self) -> rvp_json::Json {
        rvp_json::Json::obj([
            ("cond_branches", self.cond_branches.into()),
            ("cond_mispredicts", self.cond_mispredicts.into()),
            ("target_mispredicts", self.target_mispredicts.into()),
            ("returns", self.returns.into()),
            ("return_mispredicts", self.return_mispredicts.into()),
            ("direction_accuracy", self.direction_accuracy().into()),
        ])
    }
}

/// A conditional-branch *direction* predictor the fetch stage consults
/// through [`BranchUnit`]. Target prediction (BTB/RAS) stays in the
/// unit; implementations only answer taken/not-taken.
///
/// Built by name via [`new_branch_predictor`]; every implementation
/// must be deterministic, `reset` must restore the just-constructed
/// state, and [`BranchPredictor::spec`] must parse back identical.
pub trait BranchPredictor: Send {
    /// Registry name this predictor was built under.
    fn name(&self) -> &'static str;

    /// Canonical config string: parsing it back through the registry
    /// yields an identically-configured predictor.
    fn spec(&self) -> String;

    /// Predicted direction for the conditional branch at `pc`.
    fn predict(&self, pc: usize) -> bool;

    /// Trains with the resolved direction. Called once per conditional
    /// branch, after the matching [`BranchPredictor::predict`].
    fn train(&mut self, pc: usize, taken: bool);

    /// Returns the predictor to its just-constructed state.
    fn reset(&mut self);

    /// Clones the predictor, state included, behind the trait.
    fn clone_box(&self) -> Box<dyn BranchPredictor>;
}

impl Clone for Box<dyn BranchPredictor> {
    fn clone(&self) -> Box<dyn BranchPredictor> {
        self.clone_box()
    }
}

impl std::fmt::Debug for dyn BranchPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BranchPredictor({})", self.spec())
    }
}

/// The gshare direction predictor (PHT indexed by PC xor global
/// history). This is the paper's Table 1 predictor and the
/// [`BranchUnit`] default.
#[derive(Debug, Clone)]
pub struct Gshare {
    pht_entries: usize,
    history_bits: u32,
    /// 2-bit saturating counters, initialised weakly-not-taken.
    pht: Vec<u8>,
    history: u64,
}

impl Gshare {
    /// Creates a gshare predictor with weakly-not-taken counters.
    ///
    /// # Panics
    ///
    /// Panics if `pht_entries` is not a power of two.
    pub fn new(pht_entries: usize, history_bits: u32) -> Gshare {
        assert!(pht_entries.is_power_of_two(), "PHT size must be a power of two");
        Gshare { pht: vec![1; pht_entries], history: 0, pht_entries, history_bits }
    }

    fn pht_index(&self, pc: usize) -> usize {
        let hist_mask = (1u64 << self.history_bits) - 1;
        ((pc as u64) ^ (self.history & hist_mask)) as usize & (self.pht_entries - 1)
    }
}

impl BranchPredictor for Gshare {
    fn name(&self) -> &'static str {
        "gshare"
    }

    fn spec(&self) -> String {
        format!("gshare:pht={},hist={}", self.pht_entries, self.history_bits)
    }

    fn predict(&self, pc: usize) -> bool {
        self.pht[self.pht_index(pc)] >= 2
    }

    fn train(&mut self, pc: usize, taken: bool) {
        // Counter update indexes under the pre-shift history — the same
        // entry the matching predict() read.
        let idx = self.pht_index(pc);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = (self.history << 1) | u64::from(taken);
    }

    fn reset(&mut self) {
        self.pht.fill(1);
        self.history = 0;
    }

    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }
}

/// A history-less bimodal direction predictor: one 2-bit counter per
/// PHT slot, indexed by PC alone. The classic baseline gshare is
/// measured against.
#[derive(Debug, Clone)]
pub struct Bimodal {
    pht_entries: usize,
    pht: Vec<u8>,
}

impl Bimodal {
    /// Creates a bimodal predictor with weakly-not-taken counters.
    ///
    /// # Panics
    ///
    /// Panics if `pht_entries` is not a power of two.
    pub fn new(pht_entries: usize) -> Bimodal {
        assert!(pht_entries.is_power_of_two(), "PHT size must be a power of two");
        Bimodal { pht: vec![1; pht_entries], pht_entries }
    }
}

impl BranchPredictor for Bimodal {
    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn spec(&self) -> String {
        format!("bimodal:pht={}", self.pht_entries)
    }

    fn predict(&self, pc: usize) -> bool {
        self.pht[pc & (self.pht_entries - 1)] >= 2
    }

    fn train(&mut self, pc: usize, taken: bool) {
        let c = &mut self.pht[pc & (self.pht_entries - 1)];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn reset(&mut self) {
        self.pht.fill(1);
    }

    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }
}

/// A registered direction predictor, as listed by
/// [`list_branch_predictors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorInfo {
    /// Registry name (the part of the config string before `:`).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// The canonical spec of the default configuration.
    pub default_spec: &'static str,
}

struct RegistryEntry {
    info: BranchPredictorInfo,
    build: fn(&mut Params) -> Result<Box<dyn BranchPredictor>, String>,
}

fn pow2(n: usize, what: &str) -> Result<usize, String> {
    if n.is_power_of_two() {
        Ok(n)
    } else {
        Err(format!("{what} must be a power of two, got {n}"))
    }
}

fn build_gshare(p: &mut Params) -> Result<Box<dyn BranchPredictor>, String> {
    let d = BpredConfig::table1();
    let pht = pow2(p.usize_or(&["pht", "entries"], d.pht_entries)?, "pht")?;
    let hist = p.usize_or(&["hist", "history"], d.history_bits as usize)? as u32;
    if !(1..=63).contains(&hist) {
        return Err(format!("hist must be 1..=63 bits, got {hist}"));
    }
    Ok(Box::new(Gshare::new(pht, hist)))
}

fn build_bimodal(p: &mut Params) -> Result<Box<dyn BranchPredictor>, String> {
    let pht = pow2(p.usize_or(&["pht", "entries"], 2048)?, "pht")?;
    Ok(Box::new(Bimodal::new(pht)))
}

static REGISTRY: &[RegistryEntry] = &[
    RegistryEntry {
        info: BranchPredictorInfo {
            name: "gshare",
            summary: "global-history xor PC indexed 2-bit PHT (the paper's Table 1)",
            default_spec: "gshare:pht=2048,hist=11",
        },
        build: build_gshare,
    },
    RegistryEntry {
        info: BranchPredictorInfo {
            name: "bimodal",
            summary: "PC-indexed 2-bit PHT, no history",
            default_spec: "bimodal:pht=2048",
        },
        build: build_bimodal,
    },
];

/// Every registered direction predictor, in registration order.
pub fn list_branch_predictors() -> Vec<&'static BranchPredictorInfo> {
    REGISTRY.iter().map(|e| &e.info).collect()
}

/// The registered direction-predictor names, in registration order.
pub fn branch_predictor_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.info.name).collect()
}

/// Builds a direction predictor from a `name[:key=value,...]` config
/// string, e.g. `gshare:pht=8192,hist=13`.
pub fn new_branch_predictor(spec: &str) -> Result<Box<dyn BranchPredictor>, String> {
    let mut p = Params::parse(spec)?;
    let entry = REGISTRY.iter().find(|e| e.info.name == p.name()).ok_or_else(|| {
        format!(
            "unknown branch predictor '{}' (known: {})",
            p.name(),
            branch_predictor_names().join(", ")
        )
    })?;
    let built = (entry.build)(&mut p)?;
    p.finish()?;
    Ok(built)
}

/// The complete branch unit the fetch stage talks to: a pluggable
/// direction predictor plus the BTB and return-address stack.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    config: BpredConfig,
    dir: Direction,
    /// Direct-mapped BTB: (tag, target).
    btb: Vec<Option<(usize, usize)>>,
    ras: Vec<usize>,
    stats: BpredStats,
}

/// The direction predictor slot. The default gshare is held as a
/// concrete type so the per-branch predict/train calls in the fetch
/// stage inline (they sit on the simulator's hot loop); registry-built
/// predictors take the dynamic arm.
#[derive(Debug, Clone)]
enum Direction {
    Gshare(Gshare),
    Dyn(Box<dyn BranchPredictor>),
}

impl Direction {
    #[inline]
    fn predict(&self, pc: usize) -> bool {
        match self {
            Direction::Gshare(g) => g.predict(pc),
            Direction::Dyn(d) => d.predict(pc),
        }
    }

    #[inline]
    fn train(&mut self, pc: usize, taken: bool) {
        match self {
            Direction::Gshare(g) => g.train(pc, taken),
            Direction::Dyn(d) => d.train(pc, taken),
        }
    }
}

impl BranchUnit {
    /// Creates the unit with the default gshare direction predictor
    /// (weakly-not-taken counters) and empty BTB/RAS.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two.
    pub fn new(config: BpredConfig) -> BranchUnit {
        BranchUnit::build(
            config,
            Direction::Gshare(Gshare::new(config.pht_entries, config.history_bits)),
        )
    }

    /// Creates the unit around an explicit direction predictor (from
    /// [`new_branch_predictor`]). `config.pht_entries`/`history_bits`
    /// are ignored in favour of the predictor's own geometry.
    ///
    /// # Panics
    ///
    /// Panics if the BTB size is not a power of two.
    pub fn with_direction(config: BpredConfig, dir: Box<dyn BranchPredictor>) -> BranchUnit {
        BranchUnit::build(config, Direction::Dyn(dir))
    }

    fn build(config: BpredConfig, dir: Direction) -> BranchUnit {
        assert!(config.btb_entries.is_power_of_two(), "BTB size must be a power of two");
        BranchUnit {
            dir,
            btb: vec![None; config.btb_entries],
            ras: Vec::with_capacity(config.ras_entries),
            stats: BpredStats::default(),
            config,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BpredStats {
        &self.stats
    }

    /// The direction predictor in use.
    pub fn direction(&self) -> &dyn BranchPredictor {
        match &self.dir {
            Direction::Gshare(g) => g,
            Direction::Dyn(d) => d.as_ref(),
        }
    }

    fn btb_lookup(&self, pc: usize) -> Option<usize> {
        let idx = pc & (self.config.btb_entries - 1);
        match self.btb[idx] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Consults the predictor at fetch time. Calls also push the return
    /// address (`pc + 1`) onto the RAS; returns pop it.
    pub fn predict(&mut self, pc: usize, kind: BranchKind) -> Prediction {
        match kind {
            BranchKind::CondDirect { target } => {
                let taken = self.dir.predict(pc);
                // The decoder supplies direct targets, so a predicted-taken
                // conditional can always redirect.
                Prediction { taken, target: taken.then_some(target) }
            }
            BranchKind::UncondDirect { target } => Prediction { taken: true, target: Some(target) },
            BranchKind::Call { target } => {
                if self.ras.len() == self.config.ras_entries {
                    self.ras.remove(0);
                }
                self.ras.push(pc + 1);
                Prediction { taken: true, target: Some(target) }
            }
            BranchKind::Return => Prediction { taken: true, target: self.ras.pop() },
            BranchKind::Indirect => Prediction { taken: true, target: self.btb_lookup(pc) },
        }
    }

    /// Trains the predictor with the actual outcome and records
    /// mispredict statistics. `predicted` must be the value returned by
    /// the matching [`BranchUnit::predict`] call.
    ///
    /// Returns whether the prediction was fully correct (direction and
    /// target).
    pub fn resolve(
        &mut self,
        pc: usize,
        kind: BranchKind,
        predicted: Prediction,
        taken: bool,
        target: usize,
    ) -> bool {
        let mut correct = true;
        match kind {
            BranchKind::CondDirect { .. } => {
                self.stats.cond_branches += 1;
                self.dir.train(pc, taken);
                if predicted.taken != taken {
                    self.stats.cond_mispredicts += 1;
                    correct = false;
                } else if taken && predicted.target != Some(target) {
                    self.stats.target_mispredicts += 1;
                    correct = false;
                }
            }
            BranchKind::UncondDirect { .. } | BranchKind::Call { .. } => {
                if predicted.target != Some(target) {
                    self.stats.target_mispredicts += 1;
                    correct = false;
                }
            }
            BranchKind::Return => {
                self.stats.returns += 1;
                if predicted.target != Some(target) {
                    self.stats.return_mispredicts += 1;
                    correct = false;
                }
            }
            BranchKind::Indirect => {
                let idx = pc & (self.config.btb_entries - 1);
                self.btb[idx] = Some((pc, target));
                if predicted.target != Some(target) {
                    self.stats.target_mispredicts += 1;
                    correct = false;
                }
            }
        }
        correct
    }

    /// Convenience wrapper over predict-then-resolve for tests and the
    /// profiler: returns whether the branch would have been predicted
    /// correctly.
    pub fn update(&mut self, pc: usize, kind: BranchKind, taken: bool, target: usize) -> bool {
        let p = self.predict(pc, kind);
        self.resolve(pc, kind, p, taken, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_a_steady_branch() {
        let mut bp = BranchUnit::new(BpredConfig::table1());
        let k = BranchKind::CondDirect { target: 42 };
        // The first ~history_bits iterations keep shifting new history in,
        // touching fresh counters; after that the pattern locks in.
        let mut last = false;
        for _ in 0..32 {
            last = bp.update(100, k, true, 42);
        }
        assert!(last);
        assert!(bp.stats().cond_mispredicts >= 1); // cold start
        assert!(bp.stats().direction_accuracy() > 0.5);
    }

    #[test]
    fn gshare_learns_an_alternating_pattern() {
        let mut bp = BranchUnit::new(BpredConfig::table1());
        let k = BranchKind::CondDirect { target: 7 };
        let mut correct = 0;
        for i in 0..200u32 {
            let taken = i % 2 == 0;
            if bp.update(64, k, taken, 7) {
                correct += 1;
            }
        }
        // History-based prediction locks onto the alternation.
        assert!(correct > 150, "only {correct}/200 correct");
    }

    #[test]
    fn ras_predicts_nested_returns() {
        let mut bp = BranchUnit::new(BpredConfig::table1());
        // call at 10 -> f, call at 20 (inside f) -> g, return from g, then f.
        bp.predict(10, BranchKind::Call { target: 100 });
        bp.predict(20, BranchKind::Call { target: 200 });
        let p = bp.predict(205, BranchKind::Return);
        assert_eq!(p.target, Some(21));
        let p = bp.predict(105, BranchKind::Return);
        assert_eq!(p.target, Some(11));
        let p = bp.predict(50, BranchKind::Return);
        assert_eq!(p.target, None); // empty RAS
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut bp = BranchUnit::new(BpredConfig { ras_entries: 2, ..BpredConfig::table1() });
        bp.predict(1, BranchKind::Call { target: 100 });
        bp.predict(2, BranchKind::Call { target: 200 });
        bp.predict(3, BranchKind::Call { target: 300 });
        assert_eq!(bp.predict(0, BranchKind::Return).target, Some(4));
        assert_eq!(bp.predict(0, BranchKind::Return).target, Some(3));
        assert_eq!(bp.predict(0, BranchKind::Return).target, None);
    }

    #[test]
    fn btb_learns_indirect_targets() {
        let mut bp = BranchUnit::new(BpredConfig::table1());
        let k = BranchKind::Indirect;
        assert!(!bp.update(30, k, true, 77)); // cold: no target
        assert!(bp.update(30, k, true, 77)); // learned
        assert!(!bp.update(30, k, true, 88)); // target changed
    }

    #[test]
    fn btb_aliasing_is_tag_checked() {
        let cfg = BpredConfig { btb_entries: 16, ..BpredConfig::table1() };
        let mut bp = BranchUnit::new(cfg);
        bp.update(5, BranchKind::Indirect, true, 50);
        // pc 21 maps to the same slot (21 & 15 == 5) but has a different tag.
        let p = bp.predict(21, BranchKind::Indirect);
        assert_eq!(p.target, None);
    }

    #[test]
    fn unconditional_direct_is_always_right() {
        let mut bp = BranchUnit::new(BpredConfig::table1());
        assert!(bp.update(9, BranchKind::UncondDirect { target: 99 }, true, 99));
        assert_eq!(bp.stats().target_mispredicts, 0);
    }
}
