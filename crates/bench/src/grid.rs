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
//! * **per-cell failure containment** — each cell attempt runs under
//!   `catch_unwind` (optionally on a watchdog thread with a deadline),
//!   transient I/O faults are retried with bounded backoff, and a
//!   failing cell walks the degradation ladder (shared → replay → live
//!   committed-stream source) before it is recorded as *poisoned*. A
//!   poisoned cell is reported in the grid summary; it never aborts the
//!   sweep.
//!
//! Chaos sites: `grid.cell.run` fires inside the contained attempt
//! (panics, delays and injected-transient I/O land exactly where a real
//! fault would), `grid.cell.write` fires in the atomic cell write.

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rvp_core::span::SpanGuard;
use rvp_core::{
    fnv1a, journal_line, log, parse_journal_line, CancelToken, Json, RunResult, Runner, SchemeSpec,
    SimError, SourceMode, ToJson, Workload,
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
    /// Wall-clock deadline per attempt; `0` disables the watchdog and
    /// runs the cell inline on the worker thread.
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
pub fn ladder(mode: SourceMode, has_store: bool) -> Vec<SourceMode> {
    match mode {
        SourceMode::Live => vec![SourceMode::Live],
        SourceMode::Replay => vec![SourceMode::Replay, SourceMode::Live],
        SourceMode::Shared if has_store => {
            vec![SourceMode::Shared, SourceMode::Replay, SourceMode::Live]
        }
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
/// optional *cooperative* watchdog deadline — the attempt then runs on
/// its own thread with a deadline-armed [`CancelToken`]; on expiry the
/// cycle loop observes the token, squashes, and the thread is joined
/// (no abandoned threads, no leaked allocations).
fn attempt(runner: &Runner, cell: &GridCell, timeout_secs: u64) -> Result<RunResult, AttemptError> {
    let body =
        |r: &Runner, wl: &Workload, scheme: &SchemeSpec| -> Result<RunResult, AttemptError> {
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
            r.run(wl, scheme).map_err(|e: SimError| match e {
                SimError::Cancelled { .. } => AttemptError::Cancelled(e.to_string()),
                other => AttemptError::Sim(other.to_string()),
            })
        };
    if timeout_secs == 0 {
        return catch_unwind(AssertUnwindSafe(|| body(runner, &cell.workload, &cell.scheme)))
            .unwrap_or_else(|p| Err(AttemptError::Panic(panic_message(p))));
    }

    // The watchdogged thread gets its own token with the attempt
    // deadline; the caller's token (if any) is *forwarded* into it from
    // the wait loop below, so a job abort or drain squash still lands
    // while the watchdog is standing guard.
    let parent = runner.cancel.clone();
    let watchdog = CancelToken::with_deadline(Duration::from_secs(timeout_secs));
    let mut r = runner.clone();
    r.cancel = Some(watchdog.clone());
    let (tx, rx) = mpsc::channel();
    let wl = cell.workload.clone();
    let scheme = cell.scheme.clone();
    let spawned =
        std::thread::Builder::new().name(format!("cell-{}", cell.label())).spawn(move || {
            let out = catch_unwind(AssertUnwindSafe(|| body(&r, &wl, &scheme)))
                .unwrap_or_else(|p| Err(AttemptError::Panic(panic_message(p))));
            let _ = tx.send(out);
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => return Err(AttemptError::Transient(format!("cannot spawn cell thread: {e}"))),
    };

    // After the token fires the simulation squashes within one poll
    // window (milliseconds); this grace bound only matters if an
    // attempt is stuck somewhere that genuinely cannot poll.
    const WAIT_SLICE: Duration = Duration::from_millis(25);
    const SQUASH_GRACE: Duration = Duration::from_secs(10);
    let parent_fired = || parent.as_ref().is_some_and(CancelToken::is_cancelled);
    let mut fired_at: Option<Instant> = None;
    loop {
        match rx.recv_timeout(WAIT_SLICE) {
            Ok(out) => {
                let _ = handle.join();
                return match out {
                    // The squash the thread reports is the watchdog's
                    // unless the caller's own token fired: a deadline is
                    // an ordinary per-attempt timeout (ladder descent),
                    // a forwarded cancel abandons the cell.
                    Err(AttemptError::Cancelled(detail)) => {
                        if parent_fired() {
                            Err(AttemptError::Cancelled(detail))
                        } else {
                            Err(AttemptError::Timeout)
                        }
                    }
                    other => other,
                };
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let _ = handle.join();
                return Err(AttemptError::Panic("cell thread exited without a result".to_owned()));
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(p) = &parent {
                    if p.poll().is_some() {
                        watchdog.cancel(&p.detail().unwrap_or_else(|| "caller cancelled".into()));
                    }
                }
                let _ = watchdog.poll(); // promote an expired deadline to fired
                if watchdog.is_cancelled() {
                    let since = *fired_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > SQUASH_GRACE {
                        // Should be unreachable — every long stage polls.
                        // Abandon the thread as a last resort and say so.
                        log::error(
                            "rvp-grid",
                            "cell ignored its cancel token past the grace window; abandoning it",
                            &[("cell", cell.label().into())],
                        );
                        return Err(if parent_fired() {
                            AttemptError::Cancelled("cell unresponsive to cancel".to_owned())
                        } else {
                            AttemptError::Timeout
                        });
                    }
                }
            }
        }
    }
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

    for mode in ladder(runner.source_mode, runner.traces.is_some()) {
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

/// Loads the journaled cells of a previous run from `dir`, dropping
/// anything unverifiable: a missing/corrupt header, a config
/// fingerprint mismatch, a torn or checksum-failing line. Returns an
/// empty list when there is nothing trustworthy to resume from.
pub fn load_manifest(dir: &Path, config_fnv: u64) -> Vec<ManifestCell> {
    let Ok(text) = std::fs::read_to_string(dir.join(MANIFEST_FILE)) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    let Some(header) = lines.next().and_then(parse_journal_line) else {
        log::warn("rvp-grid", "manifest header unreadable; not resuming from it", &[]);
        return Vec::new();
    };
    let header_ok = header.get("kind").and_then(Json::as_str) == Some("header")
        && header.get("config_fnv").and_then(Json::as_u64) == Some(config_fnv);
    if !header_ok {
        log::warn(
            "rvp-grid",
            "manifest was journaled under a different grid configuration; ignoring it",
            &[("path", dir.join(MANIFEST_FILE).display().to_string().into())],
        );
        return Vec::new();
    }
    let mut cells = Vec::new();
    for line in lines {
        match parse_journal_line(line).as_ref().and_then(ManifestCell::from_json) {
            Some(cell) => cells.push(cell),
            None => log::warn(
                "rvp-grid",
                "dropping unverifiable manifest line",
                &[("line", line.chars().take(80).collect::<String>().into())],
            ),
        }
    }
    cells
}

/// Re-verifies a journaled cell against the bytes actually on disk.
pub fn verify_manifest_cell(dir: &Path, cell: &ManifestCell) -> bool {
    match std::fs::read(dir.join(&cell.file)) {
        Ok(bytes) => fnv1a(&bytes) == cell.file_fnv,
        Err(_) => false,
    }
}

/// The append-only manifest journal for a running sweep. Thread-safe;
/// every append is flushed and fsynced before it returns, so a cell is
/// either fully journaled or not journaled at all.
pub struct Manifest {
    file: Mutex<std::fs::File>,
}

impl Manifest {
    /// Starts a fresh journal at `dir` (atomically replacing any old
    /// one) holding the header plus the already-verified `kept` cells,
    /// then reopens it for appending.
    pub fn start(dir: &Path, config_fnv: u64, kept: &[ManifestCell]) -> std::io::Result<Manifest> {
        let header = Json::obj([
            ("kind", "header".into()),
            ("version", 1u64.into()),
            ("config_fnv", config_fnv.into()),
        ]);
        let mut text = journal_line(&header);
        for cell in kept {
            text.push_str(&journal_line(&cell.to_json()));
        }
        let path = dir.join(MANIFEST_FILE);
        write_atomic(&path, text.as_bytes())?;
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Manifest { file: Mutex::new(file) })
    }

    /// Journals one completed cell, durably.
    pub fn append(&self, cell: &ManifestCell) -> std::io::Result<()> {
        let line = journal_line(&cell.to_json());
        let mut file = self.file.lock().expect("manifest poisoned");
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_descends_and_respects_store() {
        assert_eq!(ladder(SourceMode::Live, true), vec![SourceMode::Live]);
        assert_eq!(ladder(SourceMode::Replay, false), vec![SourceMode::Replay, SourceMode::Live]);
        assert_eq!(
            ladder(SourceMode::Shared, true),
            vec![SourceMode::Shared, SourceMode::Replay, SourceMode::Live]
        );
        assert_eq!(ladder(SourceMode::Shared, false), vec![SourceMode::Shared, SourceMode::Live]);
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
