//! The cell store: content-addressed, checksummed cell results, the one
//! place `rvp-grid` (under `OUT_DIR/cache/`) and `rvp-serve` (under
//! `STATE_DIR/cache/`) keep cells.
//!
//! One entry per simulated cell, keyed by [`rvp_core::Runner::cell_key`]
//! and stored as `cache/<key:016x>.json`: the FNV-1a of the cell bytes,
//! a space, then the exact bytes `rvp-grid` exports for that cell
//! ([`checksummed`]). The entries live in an `rvp_trace::BudgetDir`, so
//! they are published atomically — a killed writer leaves either a
//! complete entry or none — and under a byte budget the least recently
//! used are evicted after every write. A lookup returns only bytes that
//! match their checksum: an entry damaged or edited on disk is deleted
//! and reported as a miss, so the cell re-simulates instead of serving
//! a wrong result.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use rvp_core::{checksummed, log, verified, BudgetDir};

/// Subdirectory of a sweep's output or the daemon's state dir holding
/// cache entries.
pub const CACHE_SUBDIR: &str = "cache";

/// Failpoint consulted on every disk read of a cache entry.
pub const CACHE_READ_SITE: &str = "serve.cache.read";

/// Disk-backed result cache with a write-through in-memory map.
#[derive(Debug)]
pub struct ResultCache {
    /// Governs the `<key:016x>.json` entries.
    dir: BudgetDir,
    mem: Mutex<HashMap<u64, Arc<str>>>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache under `root` (in its
    /// [`CACHE_SUBDIR`]).
    pub fn open(root: &Path) -> io::Result<ResultCache> {
        ResultCache::open_with_budget(root, 0)
    }

    /// Opens the cache with a disk budget in bytes (`0` = unlimited).
    pub fn open_with_budget(root: &Path, budget_bytes: u64) -> io::Result<ResultCache> {
        let governed = &[("", "json")];
        let dir = BudgetDir::open(root.join(CACHE_SUBDIR), budget_bytes, governed, "cell.store")?;
        Ok(ResultCache { dir, mem: Mutex::new(HashMap::new()) })
    }

    /// Cache directory (entries are `<key:016x>.json`).
    pub fn dir(&self) -> &Path {
        self.dir.path()
    }

    /// On-disk path of an entry.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir().join(format!("{key:016x}.json"))
    }

    /// Entries evicted so far; shared so a metrics collector can read
    /// it without holding the cache.
    pub fn evictions(&self) -> Arc<AtomicU64> {
        Arc::clone(self.dir.evictions())
    }

    /// Looks a key up: memory first, then disk (the `serve.cache.read`
    /// failpoint guards the disk path). A disk entry whose bytes fail
    /// their checksum is deleted and reported as a miss — the cell
    /// simply gets re-simulated — so one damaged or edited file can
    /// never serve a wrong result. An I/O error (injected or real)
    /// propagates; the daemon turns it into a structured 5xx.
    pub fn get(&self, key: u64) -> io::Result<Option<Arc<str>>> {
        if let Some(hit) = self.mem.lock().expect("result cache lock poisoned").get(&key) {
            return Ok(Some(Arc::clone(hit)));
        }
        rvp_fail::io_at(CACHE_READ_SITE)?;
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let Some(text) = std::str::from_utf8(&bytes).ok().and_then(verified) else {
            log::warn(
                "rvp_bench::cache",
                "cache entry fails its checksum; deleting it and re-simulating",
                &[("path", path.display().to_string().into())],
            );
            let _ = std::fs::remove_file(&path);
            return Ok(None);
        };
        self.dir.touch(&path);
        let text: Arc<str> = text.into();
        self.mem.lock().expect("result cache lock poisoned").insert(key, Arc::clone(&text));
        Ok(Some(text))
    }

    /// Write-through insert. The disk write is atomic; on failure the
    /// entry still serves from memory for this process's lifetime and
    /// the error is returned (a later process re-simulates instead of
    /// reading a torn file). Evicted entries leave the in-memory map
    /// too, so memory stays proportional to the governed disk set.
    pub fn put(&self, key: u64, text: &str) -> io::Result<()> {
        self.mem.lock().expect("result cache lock poisoned").insert(key, text.into());
        let entry = checksummed(text);
        let write = |tmp: &Path| std::fs::write(tmp, &entry);
        self.dir.publish(&self.path_for(key), write, |evicted| {
            let key = evicted
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            if let Some(key) = key {
                self.mem.lock().expect("result cache lock poisoned").remove(&key);
            }
        })
    }

    /// Entries currently resident in memory.
    pub fn resident(&self) -> usize {
        self.mem.lock().expect("result cache lock poisoned").len()
    }

    /// Total bytes of cache entries on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.dir.disk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rvp-result-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cache_roundtrips_and_survives_reopen() {
        let dir = tmp("roundtrip");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.get(7).unwrap().is_none());
        cache.put(7, "{\"x\":1}\n").unwrap();
        assert_eq!(cache.get(7).unwrap().as_deref(), Some("{\"x\":1}\n"));
        // A fresh instance (daemon restart) reads the same bytes back
        // from disk.
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.resident(), 0);
        assert_eq!(reopened.get(7).unwrap().as_deref(), Some("{\"x\":1}\n"));
        assert_eq!(reopened.resident(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_deleted_and_reported_as_miss() {
        let dir = tmp("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        std::fs::write(cache.path_for(9), b"{\"torn\":").unwrap();
        assert!(cache.get(9).unwrap().is_none());
        assert!(!cache.path_for(9).exists(), "corrupt entry must be removed");

        // An entry edited to a value that still parses fails its
        // checksum just the same; so does one that is not UTF-8.
        ResultCache::open(&dir).unwrap().put(9, "{\"cycles\":13180}\n").unwrap();
        let entry = std::fs::read_to_string(cache.path_for(9)).unwrap();
        std::fs::write(cache.path_for(9), entry.replace("13180", "99999")).unwrap();
        assert!(cache.get(9).unwrap().is_none(), "an edited entry is never served");
        assert!(!cache.path_for(9).exists());
        std::fs::write(cache.path_for(9), [0xff, 0xfe]).unwrap();
        assert!(cache.get(9).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_lru_and_never_the_fresh_entry() {
        let dir = tmp("budget");
        let entry = "{\"n\":0}\n";
        // Three entries fit on disk, each with its checksum prefix.
        let budget = 3 * checksummed(entry).len() as u64;
        let cache = ResultCache::open_with_budget(&dir, budget).unwrap();
        for key in 1..=3u64 {
            cache.put(key, entry).unwrap();
            // mtime granularity can be coarse; space the writes out so
            // LRU order is unambiguous.
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(cache.disk_bytes() <= budget);
        // Touch entry 1 (the oldest) via a disk hit from a cold map,
        // then overflow: entry 2 is now the least recently used.
        let warm = ResultCache::open_with_budget(&dir, budget).unwrap();
        assert!(warm.get(1).unwrap().is_some());
        std::thread::sleep(std::time::Duration::from_millis(25));
        warm.put(4, entry).unwrap();
        assert!(warm.disk_bytes() <= budget, "budget enforced after put");
        assert!(warm.path_for(4).exists(), "the fresh entry survives its own sweep");
        assert!(warm.path_for(1).exists(), "the touched entry was most recently used");
        assert!(!warm.path_for(2).exists(), "the LRU entry is the one evicted");
        assert_eq!(warm.evictions().load(Ordering::Relaxed), 1);
        // The evicted key is gone from memory too: a get re-reports miss.
        assert!(warm.get(2).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_fault_still_serves_from_memory() {
        let dir = tmp("diskfull");
        let cache = ResultCache::open(&dir).unwrap();
        rvp_fail::configure("seed=3;store.disk.full=io@1,thread=disk_full_fault_still_serves")
            .expect("valid spec");
        let first = cache.put(5, "{\"x\":5}\n");
        let second = cache.put(6, "{\"x\":6}\n");
        rvp_fail::disable();
        first.expect_err("first write hits the injected disk-full fault");
        second.expect("the fault only arms the first write");
        // The failed write still serves from memory and left no torn
        // file on disk.
        assert_eq!(cache.get(5).unwrap().as_deref(), Some("{\"x\":5}\n"));
        assert!(!cache.path_for(5).exists());
        assert!(cache.path_for(6).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
