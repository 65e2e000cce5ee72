//! On-disk store of captured traces and persisted sampling plans.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use rvp_isa::Program;
use rvp_obs::log;

use crate::durable::BudgetDir;
use crate::format::{TraceError, TraceMeta};
use crate::reader::TraceReader;
use crate::writer::capture;

/// A directory of captured traces, keyed by [`TraceMeta`], and of
/// persisted sampling plans, keyed by content.
///
/// [`TraceStore::capture`] publishes a trace atomically and
/// [`TraceStore::open`] validates one before handing out a reader:
/// anything wrong with a stored file — stale format version, a header
/// that does not decode, a different program hash — is an error, and
/// checksums and truncation are caught frame by frame while reading.
/// What to do about a rejected file is the caller's choice; capturing
/// again replaces it.
#[derive(Debug, Clone)]
pub struct TraceStore {
    /// Governs `*.rvpt` entries and persisted sampling plans.
    dir: BudgetDir,
}

/// A reader over a stored trace file.
pub type StoreReader = TraceReader<std::io::BufReader<std::fs::File>>;

/// Subdirectory persisted sampling plans live in.
const PLANS_SUBDIR: &str = "plans";

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
            &[("", "rvpt"), (PLANS_SUBDIR, "json")],
            "trace.store",
        )?;
        Ok(TraceStore { dir })
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
                    "RVP_TRACE_DIR unusable; no store",
                    &[("dir", dir.as_str().into()), ("error", e.to_string().into())],
                );
                None
            }
        }
    }

    /// Entries evicted so far to stay under the byte budget; shared by
    /// clones of the store, so a metrics collector can read it without
    /// holding the store.
    pub fn evictions(&self) -> Arc<AtomicU64> {
        Arc::clone(self.dir.evictions())
    }

    /// Root directory of the cache.
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// On-disk path for a given key. The program hash is part of the
    /// name, so the programs of one workload at different scales never
    /// contend for one file.
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

    /// Content-addressed path of the persisted sampling plan `key`.
    pub fn plan_path(&self, key: u64) -> PathBuf {
        self.dir().join(PLANS_SUBDIR).join(format!("plan-{key:016x}.json"))
    }

    /// The text of the persisted sampling plan `key`; a hit counts as a
    /// use for LRU eviction.
    ///
    /// # Errors
    ///
    /// The read error (`NotFound` when no plan is stored).
    pub fn read_plan(&self, key: u64) -> std::io::Result<String> {
        let path = self.plan_path(key);
        let text = std::fs::read_to_string(&path)?;
        self.dir.touch(&path);
        Ok(text)
    }

    /// Persists a sampling plan's `text` under `key`, governed like a
    /// trace ([`BudgetDir::publish`]): atomic, behind the disk-full
    /// drill, and followed by eviction down to the budget.
    ///
    /// # Errors
    ///
    /// The injected disk-full fault, or the write's I/O error.
    pub fn store_plan(&self, key: u64, text: &str) -> std::io::Result<()> {
        let path = self.plan_path(key);
        std::fs::create_dir_all(self.dir().join(PLANS_SUBDIR))?;
        self.dir.publish(&path, |tmp| std::fs::write(tmp, text), |_| {})
    }

    /// Total bytes of governed files (traces and persisted sampling
    /// plans).
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
