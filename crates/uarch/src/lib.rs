//! Out-of-order superscalar timing model with register value prediction.
//!
//! This crate implements the processor of the paper's Table 1: a 9-stage,
//! 8-wide out-of-order machine with register renaming, split 32-entry
//! integer/FP instruction queues, 6 integer units (4 load/store capable),
//! 3 FP units, gshare branch prediction and a two-level cache hierarchy —
//! plus the paper's value-prediction machinery:
//!
//! * **prediction schemes** ([`Scheme`]): a scope filter, a profile
//!   plan, and any [`rvp_vpred::ValuePredictor`] from the string-keyed
//!   registry — the paper's static/dynamic RVP, buffer-based last-value
//!   prediction and the Gabbay–Mendelson register predictor, plus the
//!   zoo's stride, FCM, tournament-hybrid and TAGE-confidence members;
//! * **misprediction recovery** ([`Recovery`]): refetch (squash from the
//!   first use, like a branch mispredict), reissue (everything after the
//!   first use stays in the instruction queue until non-speculative), and
//!   selective reissue (only the dependence chain stays) — Section 4.3;
//! * the register-map-based prediction mechanism: a predicted
//!   instruction's consumers read the *old* physical mapping of the
//!   destination register and issue as soon as that value is ready.
//!
//! The model is trace-driven over the architectural committed stream,
//! consumed through the [`CommittedSource`] abstraction: live emulation
//! via [`rvp_emu::Emulator`] (the default), or a shared in-memory trace
//! fanned out to many simulations of the same workload — both
//! bit-identical in their resulting [`SimStats`]. Wrong-path instructions after a branch
//! mispredict are modelled as a fetch bubble whose length equals the
//! pipeline-refill penalty (7 cycles); wrong value speculation *is*
//! simulated structurally, including instruction-queue pressure and
//! re-execution, because those effects are what Figures 3–8 measure.
//!
//! # Examples
//!
//! ```
//! use rvp_isa::{ProgramBuilder, Reg};
//! use rvp_uarch::{Recovery, Scheme, Simulator, UarchConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r = Reg::int(1);
//! let mut b = ProgramBuilder::new();
//! b.li(r, 1000);
//! b.label("top");
//! b.subi(r, r, 1);
//! b.bnez(r, "top");
//! b.halt();
//! let program = b.build()?;
//!
//! let stats = Simulator::new(UarchConfig::table1(), Scheme::no_predict(), Recovery::Selective)
//!     .run(&program, 10_000)?;
//! assert!(stats.ipc() > 0.5);
//! # Ok(())
//! # }
//! ```

mod backend;
pub mod columns;
mod config;
mod core;
mod frontend;
mod meta;
mod recovery;
mod ring;
mod scheme;
pub mod source;
mod stats;
mod warmup;
mod wheel;

pub use crate::core::Simulator;
pub use columns::{ColumnsBuilder, TraceColumns};
pub use config::{Latencies, UarchConfig};
pub use scheme::{PlanMode, Recovery, Scheme};
pub use source::{CommittedSource, EmuSource, SharedSource};
pub use stats::{SimError, SimStats};
pub use warmup::WarmState;

// Re-export the predictor vocabulary `Scheme` is built from, so users
// of this crate need not depend on `rvp-vpred` directly.
pub use rvp_vpred::{
    list_value_predictors, new_value_predictor, value_predictor_names, BufferConfig,
    CorrelationConfig, DrvpConfig, LvpConfig, PredictionPlan, ReuseKind, Scope, ValuePredictor,
};

// Re-export the observability vocabulary `SimStats` is built from, so
// users of this crate need not depend on `rvp-obs` directly.
pub use rvp_obs::{CpiBucket, CpiStack, ObsConfig, ObsReport, PcEntry, WindowSample};
