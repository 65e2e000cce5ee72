//! On-disk trace cache with graceful fallback and corruption quarantine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rvp_isa::Program;
use rvp_obs::log;

use crate::durable::BudgetDir;
use crate::format::{TraceError, TraceMeta};
use crate::reader::TraceReader;
use crate::writer::capture;

/// Counters describing how a [`TraceStore`] has been used; shared by
/// clones of the store, so a parallel grid reports one total.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hits: AtomicU64,
    captures: AtomicU64,
    fallbacks: AtomicU64,
    quarantined: AtomicU64,
    /// The store directory's eviction counter.
    evicted: Arc<AtomicU64>,
}

impl StoreCounters {
    /// Stored traces read through without a fault.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The counters as unified-registry samples (`rvp_trace_*`).
    pub fn metrics(&self) -> Vec<rvp_obs::Metric> {
        vec![
            rvp_obs::Metric::counter("rvp_trace_cache_hits_total", self.hits()),
            rvp_obs::Metric::counter("rvp_trace_captures_total", self.captures()),
            rvp_obs::Metric::counter("rvp_trace_fallbacks_total", self.fallbacks()),
            rvp_obs::Metric::counter("rvp_trace_quarantined_total", self.quarantined()),
            rvp_obs::Metric::counter("rvp_trace_evicted_total", self.evicted()),
        ]
    }

    /// Traces captured because none (valid) existed.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Cached traces that were rejected (corrupt, truncated, version or
    /// metadata skew) at open or mid-read and silently re-captured.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Rejected cache files moved into the quarantine directory so they
    /// can never be re-read (and remain available for postmortems).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the store's byte budget.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// A directory of captured traces, keyed by [`TraceMeta`].
///
/// The store never lets a bad cache entry surface to an experiment:
/// anything wrong with a cached file — stale format version, checksum
/// mismatch, truncation, a different program hash — whether found at
/// open or mid-read, counts as a miss and triggers a fresh capture over
/// the live emulator ([`TraceStore::read_or_capture`]). The offending
/// file is *moved* into `dir/quarantine/` first, so a corrupt entry is
/// preserved for diagnosis but can never be opened again.
#[derive(Debug, Clone)]
pub struct TraceStore {
    /// Governs `*.rvpt` entries and persisted sampling plans.
    dir: BudgetDir,
    counters: Arc<StoreCounters>,
}

/// A reader over a stored trace file.
pub type StoreReader = TraceReader<std::io::BufReader<std::fs::File>>;

/// Subdirectory rejected cache entries are moved into.
pub const QUARANTINE_SUBDIR: &str = "quarantine";

impl TraceStore {
    /// Creates a store rooted at `dir` (created if absent). Stale
    /// temporary files from a previous crashed capture are swept out.
    pub fn new(dir: impl Into<PathBuf>) -> Result<TraceStore, TraceError> {
        TraceStore::with_budget(dir, 0)
    }

    /// Creates a store with a disk budget in bytes (`0` = unlimited).
    /// Beyond it, the least-recently-used traces and sampling plans are
    /// evicted after each capture; eviction only costs a re-capture.
    pub fn with_budget(
        dir: impl Into<PathBuf>,
        budget_bytes: u64,
    ) -> Result<TraceStore, TraceError> {
        let dir = BudgetDir::open(
            dir.into(),
            budget_bytes,
            &[("", "rvpt"), ("plans", "json")],
            "trace.store",
        )?;
        let counters =
            StoreCounters { evicted: Arc::clone(dir.evictions()), ..StoreCounters::default() };
        Ok(TraceStore { dir, counters: Arc::new(counters) })
    }

    /// Builds a store from the `RVP_TRACE_DIR` environment variable, or
    /// `None` when the variable is unset or empty.
    pub fn from_env() -> Option<TraceStore> {
        let dir = std::env::var("RVP_TRACE_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        match TraceStore::new(&dir) {
            Ok(store) => Some(store),
            Err(e) => {
                log::warn(
                    "rvp_trace::store",
                    "RVP_TRACE_DIR unusable; tracing disabled",
                    &[("dir", dir.as_str().into()), ("error", e.to_string().into())],
                );
                None
            }
        }
    }

    /// Usage counters shared across clones of this store.
    pub fn counters(&self) -> &Arc<StoreCounters> {
        &self.counters
    }

    /// Root directory of the cache.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// Directory quarantined (rejected) cache files are moved into.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir().join(QUARANTINE_SUBDIR)
    }

    /// On-disk path for a given key. The program hash is part of the
    /// name, so the programs of one workload at different scales never
    /// contend for (and keep quarantining) one file.
    pub fn path_for(&self, meta: &TraceMeta) -> PathBuf {
        self.dir().join(format!(
            "{}-{}-{}-{:016x}.rvpt",
            meta.workload,
            meta.input.tag(),
            meta.budget,
            meta.program_hash
        ))
    }

    /// Opens the cached trace for `meta` if one exists and is valid in
    /// every respect (format, checksums deferred to iteration, and the
    /// full metadata key including the program hash).
    pub fn open(&self, meta: &TraceMeta) -> Result<StoreReader, TraceError> {
        let _span = rvp_obs::span!("trace.read", {
            workload: meta.workload.as_str(),
            budget: meta.budget,
        });
        rvp_fail::io_at("trace.store.open")?;
        let path = self.path_for(meta);
        let reader = TraceReader::open(&path)?;
        if let Some(field) = meta_diff(reader.meta(), meta) {
            return Err(TraceError::MetaMismatch { field });
        }
        self.dir.touch(&path);
        Ok(reader)
    }

    /// Reads the trace for `meta` with `read`, capturing it first if it
    /// is absent or rejected at open. This is the graceful-fallback
    /// entry point: a stored trace that `read` finds damaged mid-stream
    /// (a frame checksum, a truncated tail) is quarantined like one
    /// rejected at open, re-captured and read once more, so the bad
    /// bytes are never served again. A hit is counted only once a
    /// stored trace has been read to the caller's satisfaction.
    pub fn read_or_capture<T>(
        &self,
        program: &Program,
        meta: &TraceMeta,
        mut read: impl FnMut(StoreReader) -> Result<T, TraceError>,
    ) -> Result<T, TraceError> {
        let (reader, hit) = match self.open(meta) {
            Ok(reader) => (reader, true),
            Err(e) => {
                if !matches!(&e, TraceError::Io(io) if io.kind() == std::io::ErrorKind::NotFound) {
                    self.reject(meta, &e);
                }
                (self.recapture(program, meta)?, false)
            }
        };
        match read(reader) {
            Ok(value) => {
                if hit {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                }
                Ok(value)
            }
            Err(e) => {
                self.reject(meta, &e);
                read(self.recapture(program, meta)?)
            }
        }
    }

    /// Counts a fallback and quarantines the stored file for `meta`.
    fn reject(&self, meta: &TraceMeta, error: &TraceError) {
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.quarantine(&self.path_for(meta), error);
    }

    /// Captures the trace for `meta` afresh and opens it.
    fn recapture(&self, program: &Program, meta: &TraceMeta) -> Result<StoreReader, TraceError> {
        self.capture(program, meta)?;
        self.counters.captures.fetch_add(1, Ordering::Relaxed);
        self.open(meta)
    }

    /// Moves a rejected cache file into the quarantine directory under a
    /// unique name. Best-effort: when even the move fails the file is
    /// deleted instead, because leaving it in place would let the next
    /// open read the same bad bytes again.
    fn quarantine(&self, path: &Path, error: &TraceError) {
        if !path.exists() {
            return;
        }
        let _span = rvp_obs::span!("trace.quarantine", {
            path: path.display().to_string(),
        });
        let qdir = self.quarantine_dir();
        let _ = std::fs::create_dir_all(&qdir);
        let n = self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        let name = path.file_name().map_or_else(|| "trace".into(), |s| s.to_string_lossy());
        let dest = qdir.join(format!("{name}.{}.q{n}", std::process::id()));
        let moved = std::fs::rename(path, &dest);
        if moved.is_err() {
            let _ = std::fs::remove_file(path);
        }
        log::warn(
            "rvp_trace::store",
            "quarantined rejected trace cache entry",
            &[
                ("path", path.display().to_string().into()),
                ("error", error.to_string().into()),
                (
                    "quarantined_to",
                    if moved.is_ok() {
                        dest.display().to_string().into()
                    } else {
                        "(deleted; quarantine move failed)".into()
                    },
                ),
            ],
        );
    }

    /// Captures `program` under `meta`, atomically replacing any
    /// existing entry ([`BudgetDir::publish`]): a reader in another
    /// process never observes a half-written trace, and a failed
    /// capture never leaves a partial temp file behind.
    pub fn capture(&self, program: &Program, meta: &TraceMeta) -> Result<u64, TraceError> {
        let _span = rvp_obs::span!("trace.write", {
            workload: meta.workload.as_str(),
            budget: meta.budget,
        });
        let write = |tmp: &Path| {
            let n = capture(program, meta, tmp)?;
            rvp_fail::io_at("trace.store.rename")?;
            Ok(n)
        };
        self.dir.publish(&self.path_for(meta), write, |_| {})
    }

    /// Total bytes of governed files (traces and persisted sampling
    /// plans; quarantined files are diagnostic state, not cache).
    pub fn disk_bytes(&self) -> u64 {
        self.dir.disk_bytes()
    }
}

/// First field on which two keys differ, if any.
fn meta_diff(found: &TraceMeta, want: &TraceMeta) -> Option<&'static str> {
    if found.workload != want.workload {
        Some("workload")
    } else if found.input != want.input {
        Some("input")
    } else if found.budget != want.budget {
        Some("budget")
    } else if found.program_len != want.program_len {
        Some("program_len")
    } else if found.program_hash != want.program_hash {
        Some("program_hash")
    } else {
        None
    }
}
