use std::hash::Hasher;

use rvp_isa::Program;
use rvp_vpred::{
    BufferConfig, BufferVp, CorrelationConfig, CorrelationVp, DrvpConfig, DrvpVp, GabbayVp,
    LvpConfig, PredictionPlan, ReuseKind, Scope, SrvpVp, ValuePredictor,
};

use crate::config::UarchConfig;
use crate::meta::PredMode;

/// Value-misprediction recovery mechanism (paper Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// A value mispredict is treated like a branch mispredict:
    /// instructions beginning with the first use of the predicted value
    /// are squashed and refetched. Highest mispredict cost, but no
    /// instruction-queue pressure on correct predictions.
    Refetch,
    /// All instructions after the first use are kept in the instruction
    /// queue until they are no longer speculative, and may reissue from
    /// there one cycle after a mispredict.
    Reissue,
    /// Only instructions (transitively) dependent on the predicted value
    /// are kept in the queue until the prediction resolves. Best overall
    /// in the paper.
    Selective,
}

/// How the profile-derived [`PredictionPlan`] scopes prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// The plan is exhaustive: only listed PCs are predicted, each
    /// through its listed reuse relation, and the [`Scope`] filter is
    /// bypassed (static RVP — the compiler's marks *are* the scope).
    Exhaustive,
    /// The plan overlays scope-based defaults: every in-scope writer
    /// participates, listed PCs through their listed relation and
    /// unlisted ones through natural same-register reuse (dynamic RVP
    /// with optional compiler assistance). An empty plan degenerates to
    /// pure same-register reuse.
    Overlay,
}

/// The value-prediction scheme the machine runs: a scope filter, a
/// profile plan, and a boxed [`ValuePredictor`] from the open registry.
///
/// This replaced a closed enum the pipeline matched on. The timing core
/// now dispatches through the trait only; everything scheme-specific the
/// hardware would know statically (scope, the compiler's plan) lives
/// here, and everything it learns dynamically lives inside the
/// predictor.
#[derive(Debug, Clone)]
pub struct Scheme {
    /// Display label (the registry name of the scheme that built this,
    /// or a caller-chosen tag for hand-assembled schemes).
    pub label: String,
    /// Which instructions may be predicted (and trained on).
    pub scope: Scope,
    /// Profile-derived per-PC reuse relations (may be empty).
    pub plan: PredictionPlan,
    /// How the plan scopes prediction.
    pub plan_mode: PlanMode,
    /// The predictor, or `None` for the no-prediction baseline.
    pub predictor: Option<Box<dyn ValuePredictor>>,
}

impl Scheme {
    /// The no-value-prediction baseline.
    pub fn no_predict() -> Scheme {
        Scheme {
            label: "no_predict".into(),
            scope: Scope::LoadsOnly,
            plan: PredictionPlan::new(),
            plan_mode: PlanMode::Overlay,
            predictor: None,
        }
    }

    /// A scheme around an arbitrary predictor with an empty plan.
    pub fn new(
        label: impl Into<String>,
        scope: Scope,
        predictor: Box<dyn ValuePredictor>,
    ) -> Scheme {
        Scheme {
            label: label.into(),
            scope,
            plan: PredictionPlan::new(),
            plan_mode: PlanMode::Overlay,
            predictor: Some(predictor),
        }
    }

    /// Attaches a profile plan (builder style).
    pub fn with_plan(mut self, plan: PredictionPlan, mode: PlanMode) -> Scheme {
        self.plan = plan;
        self.plan_mode = mode;
        self
    }

    /// Convenience constructor: the paper's `lvp` (loads only).
    pub fn lvp_loads() -> Scheme {
        Scheme::new(
            "lvp",
            Scope::LoadsOnly,
            Box::new(BufferVp::new(BufferConfig::LastValue(LvpConfig::paper()))),
        )
    }

    /// Convenience constructor: the paper's `lvp_all`.
    pub fn lvp_all() -> Scheme {
        Scheme::new(
            "lvp_all",
            Scope::AllInsts,
            Box::new(BufferVp::new(BufferConfig::LastValue(LvpConfig::paper()))),
        )
    }

    /// Convenience constructor: any buffer-based predictor (stride,
    /// context, hybrid) — the related-work baselines.
    pub fn buffer(scope: Scope, config: BufferConfig) -> Scheme {
        let p = BufferVp::new(config);
        Scheme::new(p.name(), scope, Box::new(p))
    }

    /// Convenience constructor: static RVP over an exhaustive marking
    /// plan (marked loads are always predicted — no confidence
    /// hardware).
    pub fn srvp(plan: PredictionPlan) -> Scheme {
        Scheme::new("srvp", Scope::LoadsOnly, Box::new(SrvpVp))
            .with_plan(plan, PlanMode::Exhaustive)
    }

    /// Convenience constructor: `drvp` with a given assistance plan.
    pub fn drvp(scope: Scope, plan: PredictionPlan) -> Scheme {
        Scheme::new("drvp", scope, Box::new(DrvpVp::new(DrvpConfig::paper())))
            .with_plan(plan, PlanMode::Overlay)
    }

    /// Convenience constructor: the Gabbay & Mendelson register
    /// predictor (paper configuration).
    pub fn gabbay(scope: Scope) -> Scheme {
        Scheme::new(
            "gabbay",
            scope,
            Box::new(GabbayVp::new(3, 7, rvp_vpred::CounterPolicy::Resetting)),
        )
    }

    /// Convenience constructor: hardware-learned register correlation.
    pub fn hw_correlation(scope: Scope, config: CorrelationConfig) -> Scheme {
        Scheme::new("hwcorr", scope, Box::new(CorrelationVp::new(config)))
    }

    /// Whether the scheme predicts anything at all.
    pub fn is_predicting(&self) -> bool {
        self.predictor.is_some()
    }

    /// Feeds `state` everything the timing core reads from this scheme
    /// when it runs `program`: the per-PC prediction table `Core::new`
    /// builds (each PC's mode, reuse relation and correlation-learning
    /// flag), then the scope and the predictor's canonical
    /// [`ValuePredictor::spec`]. The label and the plan are not fed:
    /// the core reads them only through the table.
    ///
    /// A scheme under which no PC is predicted or learns correlations
    /// is *inert*: the core never asks its predictor for a decision,
    /// and training touches only predictor state no statistic reads.
    /// An inert scheme feeds the table alone, so it hashes exactly like
    /// [`Scheme::no_predict`] over the same program.
    pub fn hash_prediction(
        &self,
        program: &Program,
        config: &UarchConfig,
        state: &mut impl Hasher,
    ) {
        let mut inert = true;
        for m in crate::meta::build(program, self, config) {
            let (mode, reg) = match m.mode {
                PredMode::Off => (0, 0),
                PredMode::On(ReuseKind::SameReg) => (1, 0),
                PredMode::On(ReuseKind::OtherReg(r)) => (2, r.index() as u8),
                PredMode::On(ReuseKind::LastValue) => (3, 0),
            };
            state.write(&[mode, reg, u8::from(m.corr_learn)]);
            inert &= mode == 0 && !m.corr_learn;
        }
        state.write_u8(u8::from(!inert));
        if inert {
            return;
        }
        state.write_u8(match self.scope {
            Scope::LoadsOnly => 0,
            Scope::AllInsts => 1,
        });
        // Non-inert implies a predictor: a table entry is on only when
        // the scheme predicts.
        if let Some(p) = &self.predictor {
            let spec = p.spec();
            state.write_usize(spec.len());
            state.write(spec.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Scheme::lvp_loads().scope, Scope::LoadsOnly);
        assert_eq!(Scheme::lvp_all().scope, Scope::AllInsts);
        assert!(!Scheme::no_predict().is_predicting());
        assert!(Scheme::drvp(Scope::AllInsts, PredictionPlan::new()).is_predicting());
        assert_eq!(Scheme::srvp(PredictionPlan::new()).plan_mode, PlanMode::Exhaustive);
    }

    #[test]
    fn inert_schemes_hash_like_no_predict() {
        use std::collections::hash_map::DefaultHasher;

        let r = rvp_isa::Reg::int(1);
        let mut b = rvp_isa::ProgramBuilder::new();
        b.li(r, 10);
        b.label("top");
        b.subi(r, r, 1);
        b.bnez(r, "top");
        b.halt();
        let program = b.build().unwrap();
        let key = |s: &Scheme| {
            let mut h = DefaultHasher::new();
            s.hash_prediction(&program, &UarchConfig::table1(), &mut h);
            h.finish()
        };
        let none = key(&Scheme::no_predict());
        // An exhaustive plan listing nothing, and a loads-only predictor
        // over a program without loads, predict nothing.
        assert_eq!(key(&Scheme::srvp(PredictionPlan::new())), none);
        assert_eq!(key(&Scheme::lvp_loads()), none);
        // Predicting schemes key by predictor.
        let lvp_all = key(&Scheme::lvp_all());
        assert_ne!(lvp_all, none);
        assert_ne!(key(&Scheme::drvp(Scope::AllInsts, PredictionPlan::new())), lvp_all);
    }

    #[test]
    fn schemes_clone_with_predictor_state() {
        let s = Scheme::lvp_loads();
        let t = s.clone();
        assert_eq!(t.label, "lvp");
        assert!(t.is_predicting());
    }
}
