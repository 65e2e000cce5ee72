//! Crash-safe grid execution.
//!
//! Everything `rvp-grid` needs to survive a hostile afternoon lives
//! here, out of the binary, so the chaos and resume integration tests
//! can exercise it directly:
//!
//! * **durable cells** — every finished cell is published to the cell
//!   store ([`ResultCache`]) under its [`Runner::cell_key`] and exported
//!   as `<workload>-<scheme>.json`, both atomically (temp file + fsync +
//!   rename), so a crash (or SIGKILL) leaves either the complete old
//!   file or the complete new one. `--resume` looks every planned cell
//!   up in the store, exports the verified hits and re-runs the rest;
//! * **per-cell failure containment** — each cell attempt runs inline
//!   under `catch_unwind` (optionally with a deadline-armed child of the
//!   caller's cancel token) and transient I/O faults are retried with
//!   bounded backoff. Any other failure — a simulation error, a panic, a
//!   timeout — would come back on a rerun of the same deterministic
//!   cell, so it records the cell as *poisoned* at once. A poisoned
//!   cell is reported in the grid summary; it never aborts the sweep.
//!
//! Chaos sites: `grid.cell.run` fires inside the contained attempt
//! (panics, delays and injected-transient I/O land exactly where a real
//! fault would), `grid.cell.write` fires before each publish and export
//! of a cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use rvp_core::span::SpanGuard;
use rvp_core::{log, CancelToken, Json, RunResult, Runner, SchemeSpec, SimError, ToJson, Workload};

use crate::cache::ResultCache;

pub use rvp_core::write_atomic;

/// One (workload, scheme) cell of the grid.
pub struct GridCell {
    /// The workload to simulate.
    pub workload: Workload,
    /// The registry scheme to simulate it under.
    pub scheme: SchemeSpec,
}

impl GridCell {
    /// The cell's stable identity in summaries and logs.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.name(), self.scheme.label())
    }
}

/// Containment knobs for one cell attempt.
#[derive(Debug, Clone, Copy)]
pub struct CellOptions {
    /// Extra attempts for *transient* failures (injected or real I/O
    /// trouble), with exponential backoff.
    pub retries: u32,
    /// Wall-clock deadline per attempt, enforced through a child cancel
    /// token; `0` means none.
    pub timeout_secs: u64,
}

impl Default for CellOptions {
    fn default() -> CellOptions {
        CellOptions { retries: 2, timeout_secs: 0 }
    }
}

/// A cell that completed and whose JSON is durably in the cell store
/// and exported to the output directory.
pub struct CellSuccess {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// The simulation result (`None` for a cell restored from the store
    /// by `--resume`).
    pub result: Option<RunResult>,
    /// Wall seconds this cell took; a restored cell carries its time
    /// from the previous summary, if that recorded one.
    pub seconds: Option<f64>,
    /// Attempts beyond the first this cell needed.
    pub retries: u64,
}

/// A cell that failed past its transient retries — or was cancelled
/// cooperatively before it could finish.
pub struct PoisonedCell {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// The last error observed.
    pub error: String,
    /// Total attempts spent before giving up.
    pub attempts: u64,
    /// The cell was squashed by a fired [`CancelToken`] (job abort,
    /// deadline, drain), not by a model or I/O failure; it is safe to
    /// re-run later.
    pub cancelled: bool,
}

impl PoisonedCell {
    /// The summary JSON entry for this cell.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cell", self.label.as_str().into()),
            ("attempts", self.attempts.into()),
            ("error", self.error.as_str().into()),
            ("cancelled", self.cancelled.into()),
        ])
    }
}

/// How one attempt of one cell ended.
enum AttemptError {
    /// Worth retrying (bounded, with backoff).
    Transient(String),
    /// The simulation failed, panicked or passed its watchdog deadline;
    /// a rerun of the deterministic cell would fail the same way.
    Failed(String),
    /// The cell's own [`CancelToken`] fired; the caller wants it gone.
    Cancelled(String),
}

impl AttemptError {
    fn transient(&self) -> bool {
        matches!(self, AttemptError::Transient(_))
    }

    fn describe(&self) -> String {
        match self {
            AttemptError::Transient(e) | AttemptError::Failed(e) => e.clone(),
            AttemptError::Cancelled(e) => format!("cancelled: {e}"),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One contained attempt: `catch_unwind` around the simulation, the
/// `grid.cell.run` chaos site inside the contained region, and an
/// optional *cooperative* deadline — the attempt then runs under a
/// child of the caller's [`CancelToken`] armed with it, which the cycle
/// loop polls. The squash is a per-attempt timeout unless the caller's
/// own token fired.
fn attempt(runner: &Runner, cell: &GridCell, timeout_secs: u64) -> Result<RunResult, AttemptError> {
    let parent: CancelToken = runner.cancel.clone().unwrap_or_default();
    let mut r = runner.clone();
    if timeout_secs > 0 {
        let token = parent.child();
        token.set_deadline(Duration::from_secs(timeout_secs));
        r.cancel = Some(token);
    }
    let run = || -> Result<RunResult, AttemptError> {
        if let Some(fault) = rvp_fail::check("grid.cell.run") {
            if matches!(
                fault,
                rvp_fail::Fault::Io | rvp_fail::Fault::ShortRead | rvp_fail::Fault::BitFlip
            ) {
                return Err(AttemptError::Transient(
                    "injected fault at failpoint grid.cell.run".to_owned(),
                ));
            }
        }
        r.run(&cell.workload, &cell.scheme).map_err(|e: SimError| match e {
            SimError::Cancelled { .. } if !parent.is_cancelled() => {
                AttemptError::Failed("cell watchdog timeout".to_owned())
            }
            SimError::Cancelled { .. } => AttemptError::Cancelled(e.to_string()),
            other => AttemptError::Failed(other.to_string()),
        })
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|p| Err(AttemptError::Failed(format!("panic: {}", panic_message(p)))))
}

fn backoff(attempt_idx: u32) {
    let ms = (10u64 << attempt_idx.min(5)).min(200);
    std::thread::sleep(Duration::from_millis(ms));
}

/// A cell whose simulation succeeded; nothing is written yet.
pub struct CellRun {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// The simulation result.
    pub result: RunResult,
    /// Attempts spent so far, the first included.
    pub attempts: u64,
    /// When the cell's first attempt started.
    pub started: Instant,
    /// The cell's `grid.cell.run` span, still open so that work done
    /// with the result (the grid's cell write) nests under it. Dropping
    /// the run closes it.
    pub span: SpanGuard,
}

/// Runs one cell's simulation under the full containment stack:
/// bounded retry-with-backoff for transient faults, containment of
/// panics and hangs. Returns the poisoned record (never panics, never
/// aborts the sweep) once a failure is not transient or the retries run
/// out. Persisting the result is the caller's business: `rvp-grid`
/// publishes and exports it with [`write_cell`], the daemon puts it in
/// its result cache.
pub fn run_one_cell(
    runner: &Runner,
    cell: &GridCell,
    opts: CellOptions,
) -> Result<CellRun, PoisonedCell> {
    let label = cell.label();
    let span = rvp_core::span!("grid.cell.run", { cell: label.as_str() });
    let started = Instant::now();
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        let outcome = {
            let _span = rvp_core::span!("grid.cell.attempt", {
                cell: label.as_str(),
                attempt: attempts,
            });
            attempt(runner, cell, opts.timeout_secs)
        };
        let e = match outcome {
            Ok(result) => return Ok(CellRun { label, result, attempts, started, span }),
            Err(e) => e,
        };
        log::warn(
            "rvp-grid",
            "cell attempt failed",
            &[
                ("cell", label.as_str().into()),
                ("attempt", attempts.into()),
                ("error", e.describe().into()),
            ],
        );
        if !e.transient() || attempts > u64::from(opts.retries) {
            return Err(poisoned(&label, &e, attempts));
        }
        backoff(attempts as u32 - 1);
    }
}

/// Makes a simulated cell durable — published to `store` under `key`
/// and exported to `out_dir` — nested in the cell's `grid.cell.run`
/// span, with its own transient retries counted in the cell's attempts.
/// A write that fails every retry poisons the cell — re-simulating will
/// not fix the disk.
pub fn write_cell(
    store: &ResultCache,
    key: u64,
    out_dir: &Path,
    mut run: CellRun,
    opts: CellOptions,
) -> Result<CellSuccess, PoisonedCell> {
    let written = {
        let _span = rvp_core::span!("grid.cell.write", { cell: run.label.as_str() });
        let result = &run.result;
        let file = cell_file_name(result.workload, &result.scheme, result.sampling.is_some());
        let text = format!("{}\n", result.to_json());
        let publish = || publish_cell(store, key, out_dir, &file, &text);
        write_with_retry(&run.label, publish, opts, &mut run.attempts)
    };
    match written {
        Ok(()) => {
            run.span.add_field("retries", run.attempts - 1);
            Ok(CellSuccess {
                label: run.label,
                result: Some(run.result),
                seconds: Some(run.started.elapsed().as_secs_f64()),
                retries: run.attempts - 1,
            })
        }
        Err(e) => Err(poisoned(&run.label, &e, run.attempts)),
    }
}

fn poisoned(label: &str, e: &AttemptError, attempts: u64) -> PoisonedCell {
    let cell = PoisonedCell {
        label: label.to_owned(),
        error: e.describe(),
        attempts,
        cancelled: matches!(e, AttemptError::Cancelled(_)),
    };
    log::error(
        "rvp-grid",
        "cell poisoned",
        &[
            ("cell", cell.label.as_str().into()),
            ("attempts", attempts.into()),
            ("error", cell.error.as_str().into()),
        ],
    );
    cell
}

/// A cell write with its own bounded transient-retry loop; bumps the
/// shared attempt counter so the retries show up in telemetry.
fn write_with_retry(
    label: &str,
    mut write: impl FnMut() -> std::io::Result<()>,
    opts: CellOptions,
    attempts: &mut u64,
) -> Result<(), AttemptError> {
    let mut attempt_idx = 0u32;
    loop {
        match write() {
            Ok(()) => return Ok(()),
            Err(e) => {
                if attempt_idx >= opts.retries {
                    return Err(AttemptError::Transient(format!("cannot write cell JSON: {e}")));
                }
                log::warn(
                    "rvp-grid",
                    "cell JSON write failed; retrying",
                    &[
                        ("cell", label.into()),
                        ("attempt", (attempt_idx + 1).into()),
                        ("error", e.to_string().into()),
                    ],
                );
                backoff(attempt_idx);
                attempt_idx += 1;
                *attempts += 1;
            }
        }
    }
}

/// The name a cell is exported under: `<workload>-<scheme>.json`, or
/// `<workload>-<scheme>.sampled.json` for a sampled cell, so a sampled
/// sweep never overwrites (or masquerades as) a detailed one in the
/// same output directory.
pub fn cell_file_name(workload: &str, scheme: &str, sampled: bool) -> String {
    let suffix = if sampled { ".sampled.json" } else { ".json" };
    format!("{workload}-{scheme}{suffix}")
}

/// Publishes one cell's JSON `text` to the cell store under `key`, then
/// exports it atomically as `out_dir/<file>`. Fails with the underlying
/// I/O error, including injected ones at the `grid.cell.write` chaos
/// site and the store's disk-full drill.
fn publish_cell(
    store: &ResultCache,
    key: u64,
    out_dir: &Path,
    file: &str,
    text: &str,
) -> std::io::Result<()> {
    rvp_fail::io_at("grid.cell.write")?;
    store.put(key, text)?;
    write_atomic(&out_dir.join(file), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_cleans_up_temp_on_failure() {
        let dir = std::env::temp_dir().join(format!("rvp-atomic-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Writing into a missing subdirectory fails at create time and
        // must leave no temp file behind.
        let missing = dir.join("nope").join("cell.json");
        assert!(write_atomic(&missing, b"data").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
