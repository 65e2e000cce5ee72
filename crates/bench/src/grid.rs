//! Crash-safe grid execution.
//!
//! Everything `rvp-grid` needs to survive a hostile afternoon lives
//! here, out of the binary, so the chaos and resume integration tests
//! can exercise it directly:
//!
//! * **atomic cell writes** — every result JSON is written to a temp
//!   file, fsynced and renamed into place, so a crash (or SIGKILL)
//!   leaves either the complete old file or the complete new one;
//! * **a checksummed run manifest** (`grid_manifest.jsonl`) journaling
//!   each completed cell as it lands — `--resume` replays the journal,
//!   re-verifies every recorded cell file by checksum, and re-runs only
//!   what is missing, torn, or was never attempted;
//! * **per-cell failure containment** — each cell attempt runs inline
//!   under `catch_unwind` (optionally with a deadline-armed child of the
//!   caller's cancel token),
//!   transient I/O faults are retried with bounded backoff, and a
//!   failing cell walks the degradation ladder (shared → live
//!   committed-stream source) before it is recorded as *poisoned*. A
//!   poisoned cell is reported in the grid summary; it never aborts the
//!   sweep.
//!
//! Chaos sites: `grid.cell.run` fires inside the contained attempt
//! (panics, delays and injected-transient I/O land exactly where a real
//! fault would), `grid.cell.write` fires in the atomic cell write.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use rvp_core::span::SpanGuard;
use rvp_core::{
    fnv1a, log, CancelToken, Json, Log, RunResult, Runner, SchemeSpec, SimError, SourceMode,
    ToJson, Workload,
};

pub use rvp_core::{grid_config_fnv, write_atomic};

/// One (workload, scheme) cell of the grid.
pub struct GridCell {
    /// The workload to simulate.
    pub workload: Workload,
    /// The registry scheme to simulate it under.
    pub scheme: SchemeSpec,
}

impl GridCell {
    /// The cell's stable identity in summaries, logs and the manifest.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.name(), self.scheme.label())
    }
}

/// Containment knobs for one cell attempt.
#[derive(Debug, Clone, Copy)]
pub struct CellOptions {
    /// Extra attempts per ladder stage for *transient* failures
    /// (injected or real I/O trouble), with exponential backoff.
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

/// A cell that completed and whose JSON is durably on disk.
pub struct CellSuccess {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// The simulation result (`None` for cells skipped via `--resume`).
    pub result: Option<RunResult>,
    /// Committed instructions (kept separately so resumed cells count).
    pub committed: u64,
    /// Cell JSON file name within the output directory.
    pub file: String,
    /// FNV-1a of the cell JSON bytes, as journaled in the manifest.
    pub file_fnv: u64,
    /// Wall seconds this cell took (journaled value for resumed cells).
    pub seconds: f64,
    /// Attempts beyond the first this cell needed.
    pub retries: u64,
    /// The committed-stream source that finally served the cell.
    pub source: &'static str,
    /// Whether the cell was restored from the manifest, not re-run.
    pub resumed: bool,
}

/// A cell that failed every rung of the degradation ladder — or was
/// cancelled cooperatively before it could finish.
pub struct PoisonedCell {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// The last error observed.
    pub error: String,
    /// The ladder stage that failed last.
    pub stage: &'static str,
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
            ("stage", self.stage.into()),
            ("attempts", self.attempts.into()),
            ("error", self.error.as_str().into()),
            ("cancelled", self.cancelled.into()),
        ])
    }
}

/// The committed-stream sources a cell walks, in order, before it is
/// declared poisoned. The ladder only descends: each rung re-derives
/// the identical committed stream with less shared machinery, so a
/// cell that succeeds on a lower rung is bit-identical to one that
/// succeeded on the first.
pub fn ladder(mode: SourceMode) -> Vec<SourceMode> {
    match mode {
        SourceMode::Live => vec![SourceMode::Live],
        SourceMode::Shared => vec![SourceMode::Shared, SourceMode::Live],
    }
}

/// How one attempt of one cell ended.
enum AttemptError {
    /// Worth retrying on the same ladder rung (bounded, with backoff).
    Transient(String),
    /// The simulation itself failed; move down the ladder.
    Sim(String),
    /// The attempt panicked; move down the ladder.
    Panic(String),
    /// The watchdog deadline passed; move down the ladder.
    Timeout,
    /// The cell's own [`CancelToken`] fired; abandon the whole cell
    /// (no retries, no ladder descent — the caller wants it gone).
    Cancelled(String),
}

impl AttemptError {
    fn transient(&self) -> bool {
        matches!(self, AttemptError::Transient(_))
    }

    fn describe(&self) -> String {
        match self {
            AttemptError::Transient(e) | AttemptError::Sim(e) => e.clone(),
            AttemptError::Panic(e) => format!("panic: {e}"),
            AttemptError::Timeout => "cell watchdog timeout".to_owned(),
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
            SimError::Cancelled { .. } if !parent.is_cancelled() => AttemptError::Timeout,
            SimError::Cancelled { .. } => AttemptError::Cancelled(e.to_string()),
            other => AttemptError::Sim(other.to_string()),
        })
    };
    catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|p| Err(AttemptError::Panic(panic_message(p))))
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
    /// The committed-stream source that finally served the cell.
    pub source: &'static str,
    /// When the cell's first attempt started.
    pub started: Instant,
    /// The cell's `grid.cell.run` span, still open so that work done
    /// with the result (the grid's cell write) nests under it. Dropping
    /// the run closes it.
    pub span: SpanGuard,
}

/// Runs one cell's simulation under the full containment stack:
/// degradation ladder across committed-stream sources, bounded
/// retry-with-backoff for transient faults, containment of panics and
/// hangs. Returns the poisoned record (never panics, never aborts the
/// sweep) if every rung fails. Persisting the result is the caller's
/// business: `rvp-grid` writes it with [`write_cell`], the daemon puts
/// it in its result cache.
pub fn run_one_cell(
    runner: &Runner,
    cell: &GridCell,
    opts: CellOptions,
) -> Result<CellRun, PoisonedCell> {
    let label = cell.label();
    let mut span = rvp_core::span!("grid.cell.run", { cell: label.as_str() });
    let started = Instant::now();
    let mut attempts = 0u64;
    let mut last: Option<AttemptError> = None;
    let mut last_stage = runner.source_mode.name();

    for mode in ladder(runner.source_mode) {
        let mut r = runner.clone();
        r.source_mode = mode;
        last_stage = mode.name();
        let mut attempt_idx = 0u32;
        loop {
            attempts += 1;
            let outcome = {
                let _span = rvp_core::span!("grid.cell.attempt", {
                    cell: label.as_str(),
                    stage: mode.name(),
                    attempt: attempts,
                });
                attempt(&r, cell, opts.timeout_secs)
            };
            match outcome {
                Ok(result) => {
                    span.add_field("source", mode.name());
                    return Ok(CellRun {
                        label,
                        result,
                        attempts,
                        source: mode.name(),
                        started,
                        span,
                    });
                }
                Err(e) => {
                    log::warn(
                        "rvp-grid",
                        "cell attempt failed",
                        &[
                            ("cell", label.as_str().into()),
                            ("stage", mode.name().into()),
                            ("attempt", attempts.into()),
                            ("error", e.describe().into()),
                        ],
                    );
                    // A fired cancel token abandons the cell outright:
                    // no retry and no ladder descent — re-running the
                    // work the caller just squashed wastes the squash.
                    if matches!(e, AttemptError::Cancelled(_)) {
                        return Err(poisoned(&label, &e, mode.name(), attempts));
                    }
                    let retry = e.transient() && attempt_idx < opts.retries;
                    last = Some(e);
                    if !retry {
                        break; // next ladder rung
                    }
                    backoff(attempt_idx);
                    attempt_idx += 1;
                }
            }
        }
    }
    let error = last.map_or_else(|| "unknown failure".to_owned(), |e| e.describe());
    Err(poisoned(&label, &AttemptError::Sim(error), last_stage, attempts))
}

/// Makes a simulated cell durable: an atomic, checksummed cell JSON
/// write under `out_dir`, nested in the cell's `grid.cell.run` span,
/// with its own transient retries counted in the cell's attempts. A
/// write that fails every retry poisons the cell — re-simulating will
/// not fix the disk.
pub fn write_cell(
    out_dir: &Path,
    mut run: CellRun,
    opts: CellOptions,
) -> Result<CellSuccess, PoisonedCell> {
    let emitted = {
        let _span = rvp_core::span!("grid.cell.write", { cell: run.label.as_str() });
        emit_with_retry(out_dir, &run.result, opts, &mut run.attempts)
    };
    match emitted {
        Ok((file, file_fnv)) => {
            run.span.add_field("retries", run.attempts - 1);
            Ok(CellSuccess {
                label: run.label,
                committed: run.result.stats.committed,
                result: Some(run.result),
                file,
                file_fnv,
                seconds: run.started.elapsed().as_secs_f64(),
                retries: run.attempts - 1,
                source: run.source,
                resumed: false,
            })
        }
        Err(e) => Err(poisoned(&run.label, &e, run.source, run.attempts)),
    }
}

fn poisoned(label: &str, e: &AttemptError, stage: &'static str, attempts: u64) -> PoisonedCell {
    let cell = PoisonedCell {
        label: label.to_owned(),
        error: e.describe(),
        stage,
        attempts,
        cancelled: matches!(e, AttemptError::Cancelled(_)),
    };
    log::error(
        "rvp-grid",
        "cell poisoned",
        &[
            ("cell", cell.label.as_str().into()),
            ("stage", stage.into()),
            ("attempts", attempts.into()),
            ("error", cell.error.as_str().into()),
        ],
    );
    cell
}

/// Atomic cell write with its own bounded transient-retry loop; bumps
/// the shared attempt counter so the retries show up in telemetry.
fn emit_with_retry(
    out_dir: &Path,
    result: &RunResult,
    opts: CellOptions,
    attempts: &mut u64,
) -> Result<(String, u64), AttemptError> {
    let mut attempt_idx = 0u32;
    loop {
        match emit_cell_atomic(out_dir, result) {
            Ok(done) => return Ok(done),
            Err(e) => {
                if attempt_idx >= opts.retries {
                    return Err(AttemptError::Transient(format!("cannot write cell JSON: {e}")));
                }
                log::warn(
                    "rvp-grid",
                    "cell JSON write failed; retrying",
                    &[
                        ("cell", format!("{}/{}", result.workload, result.scheme).into()),
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

/// Writes one cell result as `<workload>-<scheme>.json` under `dir` —
/// `<workload>-<scheme>.sampled.json` for a sampled cell, so a sampled
/// sweep never overwrites (or masquerades as) a detailed one in the
/// same output directory — atomically (temp file + fsync + rename).
/// Returns the file name and the FNV-1a checksum of its bytes for the
/// manifest journal.
///
/// # Errors
///
/// Returns the underlying I/O error (including injected ones at the
/// `grid.cell.write` chaos site).
pub fn emit_cell_atomic(dir: &Path, result: &RunResult) -> std::io::Result<(String, u64)> {
    let suffix = if result.sampling.is_some() { ".sampled.json" } else { ".json" };
    let name = format!("{}-{}{suffix}", result.workload, result.scheme);
    let text = format!("{}\n", result.to_json());
    rvp_fail::io_at("grid.cell.write")?;
    write_atomic(&dir.join(&name), text.as_bytes())?;
    Ok((name, fnv1a(text.as_bytes())))
}

// ---------------------------------------------------------------------
// The run manifest.

/// File name of the run manifest journal within the output directory.
pub const MANIFEST_FILE: &str = "grid_manifest.jsonl";

/// One journaled completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestCell {
    /// Cell identity (`workload/scheme`).
    pub label: String,
    /// Cell JSON file name within the output directory.
    pub file: String,
    /// FNV-1a of the cell JSON bytes at journal time.
    pub file_fnv: u64,
    /// Committed instructions the cell simulated.
    pub committed: u64,
    /// Wall seconds the cell took.
    pub seconds: f64,
    /// Attempts beyond the first the cell needed.
    pub retries: u64,
    /// Committed-stream source that served the cell.
    pub source: String,
}

impl ManifestCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", "cell".into()),
            ("cell", self.label.as_str().into()),
            ("file", self.file.as_str().into()),
            ("file_fnv", self.file_fnv.into()),
            ("committed", self.committed.into()),
            ("seconds", self.seconds.into()),
            ("retries", self.retries.into()),
            ("source", self.source.as_str().into()),
        ])
    }

    fn from_json(json: &Json) -> Option<ManifestCell> {
        if json.get("kind")?.as_str()? != "cell" {
            return None;
        }
        Some(ManifestCell {
            label: json.get("cell")?.as_str()?.to_owned(),
            file: json.get("file")?.as_str()?.to_owned(),
            file_fnv: json.get("file_fnv")?.as_u64()?,
            committed: json.get("committed")?.as_u64()?,
            seconds: json.get("seconds")?.as_f64()?,
            retries: json.get("retries")?.as_u64()?,
            source: json.get("source")?.as_str()?.to_owned(),
        })
    }
}

/// The manifest's header line: it gates a resume on the grid
/// configuration fingerprint.
fn manifest_header(config_fnv: u64) -> Json {
    Json::obj([
        ("kind", "header".into()),
        ("version", 1u64.into()),
        ("config_fnv", config_fnv.into()),
    ])
}

/// Loads the journaled cells of a previous run from `dir`, dropping
/// anything unverifiable: a missing/corrupt header, a config
/// fingerprint mismatch, a torn or checksum-failing line. Returns an
/// empty list when there is nothing trustworthy to resume from.
pub fn load_manifest(dir: &Path, config_fnv: u64) -> Vec<ManifestCell> {
    let records = Log::replay(&dir.join(MANIFEST_FILE), &manifest_header(config_fnv));
    records.unwrap_or_default().iter().filter_map(ManifestCell::from_json).collect()
}

/// Re-verifies a journaled cell against the bytes actually on disk.
pub fn verify_manifest_cell(dir: &Path, cell: &ManifestCell) -> bool {
    match std::fs::read(dir.join(&cell.file)) {
        Ok(bytes) => fnv1a(&bytes) == cell.file_fnv,
        Err(_) => false,
    }
}

/// The append-only manifest journal for a running sweep: a [`Log`]
/// whose every append is fsynced before it returns, so a cell is
/// either fully journaled or not journaled at all.
pub struct Manifest {
    log: Log,
}

impl Manifest {
    /// Starts a fresh journal at `dir` (atomically replacing any old
    /// one) holding the header plus the already-verified `kept` cells,
    /// then reopens it for appending.
    pub fn start(dir: &Path, config_fnv: u64, kept: &[ManifestCell]) -> std::io::Result<Manifest> {
        let kept: Vec<Json> = kept.iter().map(ManifestCell::to_json).collect();
        let log = Log::create(&dir.join(MANIFEST_FILE), &manifest_header(config_fnv), &kept)?;
        Ok(Manifest { log })
    }

    /// Journals one completed cell, durably.
    pub fn append(&self, cell: &ManifestCell) -> std::io::Result<()> {
        self.log.append(&cell.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_and_respects_store() {
        assert_eq!(ladder(SourceMode::Live), vec![SourceMode::Live]);
        assert_eq!(ladder(SourceMode::Shared), vec![SourceMode::Shared, SourceMode::Live]);
    }

    #[test]
    fn manifest_round_trips_and_rejects_torn_lines() {
        let dir = std::env::temp_dir().join(format!("rvp-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cell = ManifestCell {
            label: "li/lvp".into(),
            file: "li-lvp.json".into(),
            file_fnv: 0xabcd,
            committed: 1234,
            seconds: 0.5,
            retries: 1,
            source: "shared".into(),
        };
        let m = Manifest::start(&dir, 42, &[]).unwrap();
        m.append(&cell).unwrap();
        assert_eq!(load_manifest(&dir, 42), vec![cell.clone()]);
        // Wrong config fingerprint: nothing to resume from.
        assert!(load_manifest(&dir, 43).is_empty());

        // A torn final line (crash mid-append) is dropped, the rest
        // survives.
        let path = dir.join(MANIFEST_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("0123456789abcdef {\"kind\":\"cell\",\"cell\":\"go/lv");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(load_manifest(&dir, 42), vec![cell.clone()]);

        // Verification: matching bytes pass, tampered bytes fail.
        assert!(!verify_manifest_cell(&dir, &cell));
        std::fs::write(dir.join("li-lvp.json"), b"x").unwrap();
        let honest = ManifestCell { file_fnv: fnv1a(b"x"), ..cell.clone() };
        assert!(verify_manifest_cell(&dir, &honest));

        let _ = std::fs::remove_dir_all(&dir);
    }

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
