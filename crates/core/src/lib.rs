//! Experiment facade for the ISCA 1999 *Storageless Value Prediction
//! Using Prior Register Values* reproduction.
//!
//! This crate wires the substrates together the way the paper's
//! methodology does (Sections 5–6):
//!
//! 1. build a workload's **train** program and profile its register-value
//!    reuse ([`rvp_profile`]);
//! 2. derive the compiler product the scheme under test assumes — static
//!    `rvp_` marking, an idealized reallocation plan, or a *real*
//!    register reallocation ([`rvp_realloc`]);
//! 3. simulate the **ref** program on the out-of-order machine
//!    ([`rvp_uarch`]) under the chosen prediction scheme and recovery
//!    model.
//!
//! The paper's figure legends are entries in the string-keyed scheme
//! registry ([`list_schemes`]); a [`SchemeSpec`] names one — optionally
//! with predictor parameters (`"drvp_all:entries=4096"`) — and
//! [`Runner`] executes a (workload, scheme) cell of any figure.
//!
//! # Examples
//!
//! ```no_run
//! use rvp_core::{Runner, SchemeSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let runner = Runner::default();
//! let wl = rvp_workloads::by_name("li").expect("exists");
//! let base = runner.run(&wl, &SchemeSpec::parse("no_predict")?)?;
//! let drvp = runner.run(&wl, &SchemeSpec::parse("drvp_all_dead_lv")?)?;
//! println!("speedup: {:.3}", drvp.stats.speedup_over(&base.stats));
//! # Ok(())
//! # }
//! ```

mod fatal;
mod journal;
mod memo;
mod runner;
mod sampling;
mod schemes;

pub use fatal::{
    fatal, fatal_sim, sim_error_kind, sim_exit_code, EXIT_CANCELLED, EXIT_CONFIG, EXIT_DEADLOCK,
    EXIT_EMU, EXIT_IO, EXIT_POISONED, EXIT_STRUCTURE, EXIT_USAGE,
};
pub use journal::{checksummed, journal_line, verified, Log};
pub use memo::Memo;
pub use runner::{
    ProfileCache, ProgramHashCache, RunMemo, RunResult, Runner, SharedTraceCache, SourceCounters,
    SourceMode, SourceTally,
};
pub use sampling::SamplingCaches;
pub use schemes::{
    list_schemes, paper_schemes, parse_recovery, recovery_name, scheme_names, PlanSource,
    SchemeInfo, SchemeSpec,
};

pub use rvp_bpred::{
    branch_predictor_names, list_branch_predictors, new_branch_predictor, BpredConfig,
    BranchPredictor, BranchUnit,
};
pub use rvp_emu::{Committed, EmuError, Emulator};
pub use rvp_isa::{parse_asm, AsmError, Program, ProgramBuilder, Reg};
pub use rvp_json::{Json, ToJson};
pub use rvp_mem::{Hierarchy, MemConfig};
pub use rvp_obs::{
    log, span, CancelReason, CancelToken, Clock, CpiBucket, CpiStack, Metric, MetricsRegistry,
    ObsConfig, ObsReport, PcEntry, WindowSample,
};
pub use rvp_profile::{Assist, Fig1Row, PlanScope, Profile, ProfileConfig, ReuseLists, SrvpLevel};
pub use rvp_realloc::{reallocate, ReallocOptions, ReallocOutcome};
pub use rvp_sample::{
    combine_weighted, BbvConfig, BbvProfile, BbvProfiler, RepInterval, SamplePlan, SampleSpec,
    SampleWindow,
};
pub use rvp_trace::{
    capture, fnv1a, program_hash, write_atomic, BudgetDir, TraceError, TraceInput, TraceMeta,
    TraceReader, TraceStore, TraceWriter,
};
pub use rvp_uarch::{
    CommittedSource, EmuSource, Latencies, PlanMode, Recovery, Scheme, SharedSource, SimError,
    SimStats, Simulator, UarchConfig,
};
pub use rvp_vpred::{
    list_value_predictors, new_value_predictor, value_predictor_names, BufferConfig,
    BufferPredictor, ConfidenceCounter, ConfidenceTable, ContextConfig, ContextPredictor,
    CorrelationConfig, CorrelationPredictor, CounterPolicy, DrvpConfig, DrvpPredictor,
    GabbayPredictor, LastValuePredictor, LvpConfig, PredictionPlan, ReuseKind, Scope, StrideConfig,
    StridePredictor, TableConfig, ValuePredictor,
};
pub use rvp_workloads::{
    all as all_workloads, by_name, by_name_or_err, unknown_workload_error, Input, Lang, Workload,
};
