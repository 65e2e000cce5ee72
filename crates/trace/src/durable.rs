//! The durable-store layer every persisted artifact goes through: the
//! grid's exported cell files and summary, the cell store both front
//! ends keep cells in, the serve daemon's journal, and the trace
//! store's traces and sampling plans.
//!
//! Three policies, each implemented once:
//!
//! * [`write_atomic`] (and `write_atomic_with`, its streaming form) —
//!   write-temp/fsync/rename, so a crash at any point leaves either the
//!   previous contents or the complete new ones, never a torn file;
//! * [`BudgetDir`] — a directory of cache entries under a byte budget:
//!   published atomically, touched on hit, evicted least-recently-used
//!   by mtime after every write;
//! * [`evict_lru`] — the eviction policy itself, shared with the
//!   in-memory shared-trace cache.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// Failpoint consulted before every [`BudgetDir::publish`] — the
/// disk-full drill. An injected fault behaves exactly like a full disk:
/// the write fails and (when a budget is set) an eviction sweep frees
/// space for the next one. One site for every store, so one armed plan
/// exercises them all.
pub const DISK_FULL_SITE: &str = "store.disk.full";

/// Marker every temp file name carries: `<stem>.tmp.<pid>.<seq>`.
const TMP_MARKER: &str = ".tmp.";

/// A temp path next to `path`, unique per process *and* per call, so
/// concurrent writers targeting the same path never share a temp file.
fn temp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{seq}", std::process::id()))
}

/// Write-temp/fsync/rename: after a crash at any point, `path` holds
/// either its previous contents or the complete new ones. Concurrent
/// writers to one path each publish their own complete bytes; the last
/// rename wins.
///
/// # Errors
///
/// Returns the underlying I/O error; the temp file is removed on
/// failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |tmp| std::fs::File::create(tmp)?.write_all(bytes))
}

/// [`write_atomic`] for a streaming writer: `write` fills the unique
/// temp path it is handed, which is then fsynced and renamed onto
/// `path`. On any error the temp file is removed.
///
/// # Errors
///
/// Whatever `write` returns, or the fsync/rename I/O error.
pub(crate) fn write_atomic_with<T, E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<T, E>,
) -> Result<T, E> {
    let tmp = temp_path(path);
    let result = write(&tmp).and_then(|out| {
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(out)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Evicts least-recently-used entries of `cache` until the rest fit
/// `budget`, and returns how many went. `entries` are `(last use, key,
/// bytes)`; `remove` evicts one key and reports whether it could;
/// `keep` (the entry just written) is never chosen. A sweep that evicts
/// anything is recorded as a `cache.evict` span.
pub fn evict_lru<S: Ord, K: PartialEq>(
    cache: &'static str,
    mut entries: Vec<(S, K, u64)>,
    budget: u64,
    keep: &K,
    mut remove: impl FnMut(&K) -> bool,
) -> u64 {
    let mut total: u64 = entries.iter().map(|(_, _, bytes)| bytes).sum();
    let (start_us, over_bytes) = (rvp_obs::span::now_us(), total.saturating_sub(budget));
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut evicted = 0u64;
    for (_, key, bytes) in entries {
        if total <= budget {
            break;
        }
        if key != *keep && remove(&key) {
            total -= bytes;
            evicted += 1;
        }
    }
    if evicted > 0 && rvp_obs::span::armed() {
        rvp_obs::span::record(
            "cache.evict",
            rvp_obs::span::current(),
            start_us,
            rvp_obs::span::now_us(),
            vec![
                ("cache".into(), cache.into()),
                ("evicted".into(), evicted.into()),
                ("over_bytes".into(), over_bytes.into()),
            ],
        );
    }
    evicted
}

/// A directory of cache entries under a byte budget.
///
/// Entries are *governed* files: those with one of the configured
/// extensions, in the root or in one named subdirectory. Every entry is
/// published with `write_atomic_with` behind the [`DISK_FULL_SITE`]
/// failpoint; with a budget set, hits [`touch`](BudgetDir::touch) the
/// entry's mtime and every publish evicts least-recently-used entries
/// until the directory fits, never the entry just written. Eviction is
/// loss of a cache, never of data: an evicted entry is recomputed on
/// its next request.
#[derive(Debug, Clone)]
pub struct BudgetDir {
    dir: PathBuf,
    /// Byte budget over governed files; 0 = ungoverned (never evict).
    budget_bytes: u64,
    /// `(subdirectory, extension)` pairs naming governed files; `""`
    /// is the root.
    governed: &'static [(&'static str, &'static str)],
    /// The `cache` field of this directory's `cache.evict` spans.
    name: &'static str,
    evicted: Arc<AtomicU64>,
}

impl BudgetDir {
    /// Opens (creating if needed) `dir` and sweeps out temp files that
    /// crashed writers left behind.
    ///
    /// # Errors
    ///
    /// Returns the error creating the directory.
    pub fn open(
        dir: PathBuf,
        budget_bytes: u64,
        governed: &'static [(&'static str, &'static str)],
        name: &'static str,
    ) -> io::Result<BudgetDir> {
        std::fs::create_dir_all(&dir)?;
        let store = BudgetDir { dir, budget_bytes, governed, name, evicted: Arc::default() };
        store.sweep_stale_tmp();
        Ok(store)
    }

    /// The directory's root.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Entries evicted so far; shared, so a metrics collector can read
    /// it without holding the directory.
    pub fn evictions(&self) -> &Arc<AtomicU64> {
        &self.evicted
    }

    /// Removes, from every governed directory, the temp files of
    /// writers in *other* processes (one of this process may be a write
    /// in flight). Best-effort: another store sweeping, or the owner
    /// renaming, a candidate first is the expected race.
    fn sweep_stale_tmp(&self) {
        let own = std::process::id().to_string();
        let dirs =
            self.governed.iter().filter_map(|(sub, _)| std::fs::read_dir(self.dir.join(sub)).ok());
        for entry in dirs.flatten().filter_map(Result::ok) {
            let name = entry.file_name();
            let stale = name
                .to_string_lossy()
                .split_once(TMP_MARKER)
                .is_some_and(|(_, suffix)| suffix.split('.').next() != Some(own.as_str()));
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Atomically publishes `path`, an entry of this directory, through
    /// `write`. Then, with a budget, evicts down to it — even after a
    /// failed write, since a full disk is exactly when freeing space
    /// helps the next one — reporting each evicted path to `on_evict`.
    ///
    /// # Errors
    ///
    /// The injected disk-full fault, or whatever the write returns.
    pub fn publish<T, E: From<io::Error>>(
        &self,
        path: &Path,
        write: impl FnOnce(&Path) -> Result<T, E>,
        mut on_evict: impl FnMut(&Path),
    ) -> Result<T, E> {
        let result = rvp_fail::io_at(DISK_FULL_SITE)
            .map_err(E::from)
            .and_then(|()| write_atomic_with(path, write));
        if self.budget_bytes > 0 {
            let remove = |victim: &PathBuf| {
                let removed = std::fs::remove_file(victim).is_ok();
                if removed {
                    on_evict(victim);
                }
                removed
            };
            let files = self.governed_files();
            let keep = path.to_path_buf();
            let evicted = evict_lru(self.name, files, self.budget_bytes, &keep, remove);
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        result
    }

    /// Marks a hit on `path`, so eviction order is LRU rather than
    /// FIFO. A no-op without a budget.
    pub fn touch(&self, path: &Path) {
        if self.budget_bytes > 0 {
            let _ = std::fs::File::open(path).and_then(|f| f.set_modified(SystemTime::now()));
        }
    }

    /// Total bytes of governed files.
    pub fn disk_bytes(&self) -> u64 {
        self.governed_files().into_iter().map(|(_, _, len)| len).sum()
    }

    /// `(mtime, path, bytes)` of every governed file.
    fn governed_files(&self) -> Vec<(SystemTime, PathBuf, u64)> {
        let mut files = Vec::new();
        for &(sub, ext) in self.governed {
            let entries = std::fs::read_dir(self.dir.join(sub)).into_iter().flatten();
            files.extend(entries.filter_map(|entry| {
                let path = entry.ok()?.path();
                if path.extension()? != ext {
                    return None;
                }
                let meta = std::fs::metadata(&path).ok()?;
                Some((meta.modified().ok()?, path, meta.len()))
            }));
        }
        files
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rvp-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn failed_streaming_write_leaves_the_old_entry_and_no_temp() {
        let dir = tmp("stream");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        let failed: io::Result<()> = write_atomic_with(&path, |tmp| {
            std::fs::write(tmp, b"partial")?;
            Err(io::Error::other("writer failed"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_lru_goes_oldest_first_and_spares_the_keeper() {
        let entries = vec![(3, 'c', 10), (1, 'a', 10), (2, 'b', 10), (4, 'd', 10)];
        let evict = |budget, keep, stuck: char| {
            let mut gone = Vec::new();
            let n = evict_lru("test", entries.clone(), budget, &keep, |&k| {
                gone.push(k);
                k != stuck
            });
            (n, gone)
        };
        assert_eq!(evict(40, 'd', ' '), (0, vec![]));
        assert_eq!(evict(20, 'd', ' '), (2, vec!['a', 'b']));
        assert_eq!(evict(20, 'a', ' '), (2, vec!['b', 'c']));
        // An entry that cannot be removed is passed over for the next.
        assert_eq!(evict(20, 'd', 'a'), (2, vec!['a', 'b', 'c']));
        // Nothing but the keeper fits: everything else goes.
        assert_eq!(evict(0, 'c', ' '), (3, vec!['a', 'b', 'd']));
    }

    #[test]
    fn stale_temps_of_other_processes_are_swept_and_own_ones_kept() {
        let dir = tmp("sweep");
        let own = std::process::id();
        for name in ["a.tmp.4000001", "b.tmp.4000002.7", &format!("c.tmp.{own}.3")] {
            std::fs::write(dir.join(name), b"junk").unwrap();
        }
        BudgetDir::open(dir.clone(), 0, &[("", "json")], "test").unwrap();
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, vec![format!("c.tmp.{own}.3")]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
