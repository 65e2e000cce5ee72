//! Shared driver code for the figure/table regeneration binaries and the
//! `rvp-grid` sweep, and the executor both `rvp-grid` and `rvp-serve`
//! run cells on.
//!
//! Every binary prints the same rows/series as the corresponding figure
//! or table in the paper. Absolute numbers differ (the substrate is a
//! synthetic-workload simulator, not the authors' Alpha testbed); the
//! *shapes* — which scheme wins, by roughly what factor, and where — are
//! the reproduction target recorded in `EXPERIMENTS.md`.
//!
//! Instruction budgets can be overridden with the environment variables
//! `RVP_MEASURE_INSTS` and `RVP_PROFILE_INSTS`; `RVP_SCALE` multiplies
//! every workload's outer pass counts toward paper-scale instruction
//! counts, and `RVP_SAMPLE` (`auto` or `interval=N,warmup=N,...`)
//! switches measurement to sampled simulation.

pub mod executor;
pub mod grid;

use std::path::PathBuf;

use rvp_core::{RunResult, Runner, SampleSpec, SchemeSpec, SimError, UarchConfig, Workload};

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

/// The 16-wide variant with the same environment overrides.
pub fn wide_runner_from_env() -> Runner {
    Runner { config: UarchConfig::wide16(), ..runner_from_env() }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Directory for machine-readable JSON results (`RVP_JSON_DIR`), created
/// on first use; `None` when the variable is unset or empty.
pub fn json_dir() -> Option<PathBuf> {
    let dir = std::env::var("RVP_JSON_DIR").ok()?;
    if dir.is_empty() {
        return None;
    }
    let dir = PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create RVP_JSON_DIR {}: {e}", dir.display());
        return None;
    }
    Some(dir)
}

/// Writes one simulation result as `<workload>-<scheme>.json` under
/// `dir`, atomically. Used by `rvp-grid` and (via [`ipc_row`]) the fig
/// binaries.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn emit_cell(dir: &std::path::Path, result: &RunResult) -> std::io::Result<()> {
    grid::emit_cell_atomic(dir, result).map(|_| ())
}

/// Prints the standard experiment header (machine + budgets).
pub fn print_header(title: &str, runner: &Runner) {
    println!("== {title} ==");
    println!(
        "machine: {}-wide fetch, {} int / {} fp IQ, {} int ({} ld/st) + {} fp units, \
         {}-cycle mispredict penalty",
        runner.config.fetch_width,
        runner.config.iq_int,
        runner.config.iq_fp,
        runner.config.int_units,
        runner.config.ldst_ports,
        runner.config.fp_units,
        runner.config.frontend_depth + 1,
    );
    println!(
        "budgets: {} measured insts, {} profiled insts, threshold {:.2}, recovery {:?}",
        runner.measure_insts, runner.profile_insts, runner.threshold, runner.recovery
    );
    println!();
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs one scheme across all workloads, returning per-workload IPC.
///
/// # Errors
///
/// Propagates the first simulator error.
pub fn ipc_row(
    runner: &Runner,
    workloads: &[Workload],
    scheme: &SchemeSpec,
) -> Result<Vec<f64>, SimError> {
    let json = json_dir();
    workloads
        .iter()
        .map(|wl| {
            let result = runner.run(wl, scheme)?;
            if let Some(dir) = &json {
                if let Err(e) = emit_cell(dir, &result) {
                    eprintln!("warning: cannot write JSON cell: {e}");
                }
            }
            Ok(result.stats.ipc())
        })
        .collect()
}

/// Formats a row of a figure table: label + one value per workload +
/// average.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:>22}");
    for v in values {
        print!(" {v:7.3}");
    }
    println!(" {:7.3}", mean(values));
}

/// Prints the workload-name header row for figure tables.
pub fn print_workload_header(workloads: &[Workload]) {
    print!("{:>22}", "");
    for wl in workloads {
        print!(" {:>7}", wl.name());
    }
    println!(" {:>7}", "average");
}
