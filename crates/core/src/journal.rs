//! Checksummed records: the line form of the fsynced record log behind
//! the serve daemon's `serve_journal.jsonl`, of every cell-store entry
//! (`rvp_bench::cache::ResultCache`) and of every stored sampling plan.
//!
//! A record is `<fnv1a:016x> <text>` ([`checksummed`]); a reader trusts
//! its text only after the checksum matches ([`verified`]). So a log
//! tolerates a torn final line from a crash mid-append — the
//! unverifiable line is detected and dropped rather than trusted — and
//! a cell entry or plan edited on disk is a miss, never a result. The
//! atomic publish a log compacts with, [`write_atomic`], lives with the
//! rest of the durable-store layer in `rvp-trace`.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use rvp_json::Json;
use rvp_obs::log;
use rvp_trace::{fnv1a, write_atomic};

/// `text` prefixed with the FNV-1a of its bytes: `<fnv1a:016x> <text>`.
pub fn checksummed(text: &str) -> String {
    format!("{:016x} {text}", fnv1a(text.as_bytes()))
}

/// The text of a [`checksummed`] record, or `None` when the checksum is
/// missing or does not match it (a torn or tampered record).
pub fn verified(record: &str) -> Option<&str> {
    let (sum, text) = record.split_once(' ')?;
    (u64::from_str_radix(sum, 16).ok()? == fnv1a(text.as_bytes())).then_some(text)
}

/// Renders one journal record as `<fnv1a-of-json:016x> <json>\n`.
pub fn journal_line(json: &Json) -> String {
    let mut line = checksummed(&json.to_string());
    line.push('\n');
    line
}

/// Parses one journal line back, returning `None` for anything
/// unverifiable: a missing checksum, a checksum mismatch (torn or
/// tampered line), or malformed JSON.
fn parse_journal_line(line: &str) -> Option<Json> {
    Json::parse(verified(line)?).ok()
}

/// An append-only log of [`journal_line`] records whose first line is a
/// header the reader must match exactly — a log written under another
/// configuration or format version is ignored wholesale. Thread-safe;
/// every append is written and `sync_data`ed before it returns, so a
/// record is either fully logged or not logged at all.
#[derive(Debug)]
pub struct Log {
    file: Mutex<File>,
}

impl Log {
    /// The records of the log at `path`, in order, if its first line
    /// verifies and equals `header`; torn or unverifiable lines are
    /// skipped. `None` when the file is missing or its header is
    /// unreadable or different.
    pub fn replay(path: &Path, header: &Json) -> Option<Vec<Json>> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        if lines.next().and_then(parse_journal_line).as_ref() != Some(header) {
            log::warn(
                "rvp_core::journal",
                "log header unreadable or written under a different configuration; ignoring it",
                &[("path", path.display().to_string().into())],
            );
            return None;
        }
        let records = lines.filter_map(|line| {
            let record = parse_journal_line(line);
            if record.is_none() {
                log::warn(
                    "rvp_core::journal",
                    "dropping unverifiable log line",
                    &[("line", line.chars().take(80).collect::<String>().into())],
                );
            }
            record
        });
        Some(records.collect())
    }

    /// Compacts the log at `path` to `header` plus `records` with one
    /// atomic rewrite — a crash leaves the old log or the new one — and
    /// opens it for appending.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the rewrite or the reopen.
    pub fn create(path: &Path, header: &Json, records: &[Json]) -> io::Result<Log> {
        let mut text = journal_line(header);
        for record in records {
            text.push_str(&journal_line(record));
        }
        write_atomic(path, text.as_bytes())?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Log { file: Mutex::new(file) })
    }

    /// Appends one record, durably.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the write or the sync.
    pub fn append(&self, record: &Json) -> io::Result<()> {
        let line = journal_line(record);
        let mut file = self.file.lock().expect("log poisoned");
        file.write_all(line.as_bytes())?;
        file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_lines_round_trip_and_reject_tampering() {
        let j = Json::obj([("kind", "job".into()), ("id", 7u64.into())]);
        let line = journal_line(&j);
        assert!(line.ends_with('\n'));
        assert_eq!(parse_journal_line(line.trim_end()), Some(j));

        // A flipped byte in the payload fails the checksum.
        let tampered = line.trim_end().replace("\"id\":7", "\"id\":8");
        assert_eq!(parse_journal_line(&tampered), None);
        // A torn line (truncated mid-record) is dropped.
        assert_eq!(parse_journal_line(&line[..line.len() / 2]), None);
        assert_eq!(parse_journal_line("nonsense"), None);
    }

    #[test]
    fn write_atomic_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("rvp-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // A failed write (missing parent) leaves no temp file behind.
        assert!(write_atomic(&dir.join("nope").join("x"), b"data").is_err());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_path_never_collide() {
        let dir = std::env::temp_dir().join(format!("rvp-journal-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cell.json");
        // Same-process threads used to share one temp name, so one
        // writer's rename could steal (or truncate) another's temp
        // file mid-write — surfacing as spurious ENOENT under two
        // serve workers emitting the same cell label.
        std::thread::scope(|scope| {
            for t in 0u8..8 {
                let path = &path;
                scope.spawn(move || {
                    let payload = vec![b'a' + t; 4096];
                    for _ in 0..50 {
                        write_atomic(path, &payload).expect("concurrent write_atomic");
                    }
                });
            }
        });
        // The survivor is one writer's complete payload, never a mix.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 4096);
        assert!(bytes.windows(2).all(|w| w[0] == w[1]), "torn interleaved write");
        // No temp droppings left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_gates_on_its_header_and_skips_torn_lines() {
        let dir = std::env::temp_dir().join(format!("rvp-log-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        let header = Json::obj([("kind", "header".into()), ("version", 1u64.into())]);
        let rec = |n: u64| Json::obj([("n", n.into())]);
        assert_eq!(Log::replay(&path, &header), None, "missing log");

        let log = Log::create(&path, &header, &[rec(1)]).unwrap();
        log.append(&rec(2)).unwrap();
        drop(log);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("0123456789abcdef {\"n\":3");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(Log::replay(&path, &header), Some(vec![rec(1), rec(2)]));

        let other = Json::obj([("kind", "header".into()), ("version", 2u64.into())]);
        assert_eq!(Log::replay(&path, &other), None, "different header");

        // Compaction rewrites the log wholesale.
        drop(Log::create(&path, &header, &[rec(2)]).unwrap());
        assert_eq!(Log::replay(&path, &header), Some(vec![rec(2)]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
