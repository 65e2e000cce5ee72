//! The paper's experiment table and its `rvp-experiment` printer, the
//! `rvp-grid` sweep, and the executor and cell store both `rvp-grid`
//! and `rvp-serve` run and keep cells with.
//!
//! Every entry of [`experiments::EXPERIMENTS`] prints the same rows or
//! series as the corresponding figure or table in the paper. Absolute
//! numbers differ (the substrate is a synthetic-workload simulator, not
//! the authors' Alpha testbed); the *shapes* — which scheme wins, by
//! roughly what factor, and where — are the reproduction target,
//! recorded in `EXPERIMENTS.md` and checked by one `#[test]` per entry.
//!
//! Instruction budgets can be overridden with the environment variables
//! `RVP_MEASURE_INSTS` and `RVP_PROFILE_INSTS`; `RVP_SCALE` multiplies
//! every workload's outer pass counts toward paper-scale instruction
//! counts, and `RVP_SAMPLE` (`auto` or `interval=N,warmup=N,...`)
//! switches measurement to sampled simulation.

pub mod cache;
pub mod executor;
pub mod experiments;
pub mod grid;

use rvp_core::{Runner, SampleSpec};

/// Budgets read from the environment with sensible defaults.
/// `RVP_SCALE` sets [`Runner::workload_scale`] and `RVP_SAMPLE` (a
/// [`SampleSpec::parse`] string) enables sampled measurement — a
/// malformed spec is reported on stderr and ignored rather than
/// silently simulating something other than what was asked.
pub fn runner_from_env() -> Runner {
    let mut r = Runner::default();
    if let Some(v) = env_u64("RVP_MEASURE_INSTS") {
        r.measure_insts = v;
    }
    if let Some(v) = env_u64("RVP_PROFILE_INSTS") {
        r.profile_insts = v;
    }
    if let Some(v) = env_u64("RVP_SCALE") {
        r.workload_scale = v.max(1);
    }
    if let Ok(text) = std::env::var("RVP_SAMPLE") {
        match SampleSpec::parse(&text) {
            Ok(spec) => r.sampling = Some(spec),
            Err(e) => eprintln!("warning: ignoring RVP_SAMPLE: {e}"),
        }
    }
    r
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}
