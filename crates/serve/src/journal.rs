//! Durable job log.
//!
//! Every admitted sweep is appended (checksummed, fsynced) to
//! `serve_journal.jsonl` before the client hears "accepted"; a `done`
//! record is appended when its last cell lands. On startup the journal
//! is replayed — jobs with no `done` record are re-submitted, where
//! their already-simulated cells hit the result cache and only the
//! interrupted remainder re-runs. The replay then compacts the file to
//! just the still-pending jobs, so the journal stays proportional to
//! in-flight work, not daemon lifetime.
//!
//! The file is an `rvp_core::Log`, a checksummed, fsynced record log: a
//! torn tail from a crash mid-append is detected by checksum and
//! ignored.

use std::io;
use std::path::{Path, PathBuf};

use rvp_core::Log;
use rvp_json::Json;
use rvp_obs::log;

/// Journal file name within the daemon state dir.
pub const JOURNAL_FILE: &str = "serve_journal.jsonl";

/// Failpoint consulted before every journal append.
pub const JOURNAL_APPEND_SITE: &str = "serve.journal.append";

const VERSION: u64 = 1;

/// Append-only job log with startup replay/compaction.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    log: Log,
}

impl JobJournal {
    /// Opens the journal under `state_dir`, replaying any previous
    /// incarnation first. Returns the journal and the pending (not
    /// `done`) jobs of the previous run as `(id, spec_json)`, in id
    /// order; the caller re-submits them.
    pub fn open(state_dir: &Path) -> io::Result<(JobJournal, Vec<(u64, Json)>)> {
        let path = state_dir.join(JOURNAL_FILE);
        let header = Json::obj([("kind", "header".into()), ("version", VERSION.into())]);
        let pending = pending_jobs(Log::replay(&path, &header).unwrap_or_default());
        // Compact to the still-pending jobs.
        let records: Vec<Json> = pending.iter().map(|(id, spec)| job_record(*id, spec)).collect();
        let log = Log::create(&path, &header, &records)?;
        Ok((JobJournal { path, log }, pending))
    }

    /// Durably records an admitted job. Called *before* the job is
    /// scheduled; an error here fails the submission (503) — a job the
    /// daemon could forget on restart is never accepted.
    pub fn append_job(&self, id: u64, spec: &Json) -> io::Result<()> {
        self.append(&job_record(id, spec))
    }

    /// Records a finished job. Best-effort by contract: if this append
    /// is lost, restart re-submits a fully-cached job, which completes
    /// instantly without re-simulation.
    pub fn append_done(&self, id: u64) {
        let record = Json::obj([("kind", "done".into()), ("id", id.into())]);
        if let Err(e) = self.append(&record) {
            log::warn(
                "rvp-serve",
                "could not journal job completion; job will be re-checked on restart",
                &[("id", id.into()), ("error", e.to_string().into())],
            );
        }
    }

    fn append(&self, record: &Json) -> io::Result<()> {
        rvp_fail::io_at(JOURNAL_APPEND_SITE)?;
        self.log.append(record)
    }

    /// Journal path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn job_record(id: u64, spec: &Json) -> Json {
    Json::obj([("kind", "job".into()), ("id", id.into()), ("spec", spec.clone())])
}

/// The jobs of a replayed journal without a `done` record, in id order;
/// unknown records are ignored.
fn pending_jobs(records: Vec<Json>) -> Vec<(u64, Json)> {
    let mut jobs: Vec<(u64, Json)> = Vec::new();
    for record in records {
        let id = record.get("id").and_then(Json::as_u64);
        match (record.get("kind").and_then(Json::as_str), id) {
            (Some("job"), Some(id)) => {
                if let Some(spec) = record.get("spec") {
                    jobs.retain(|(existing, _)| *existing != id);
                    jobs.push((id, spec.clone()));
                }
            }
            (Some("done"), Some(id)) => jobs.retain(|(existing, _)| *existing != id),
            _ => {}
        }
    }
    jobs.sort_by_key(|(id, _)| *id);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvp_core::journal_line;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rvp-serve-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(n: u64) -> Json {
        Json::obj([("workloads", Json::arr([Json::from("li")])), ("n", n.into())])
    }

    #[test]
    fn journal_replays_pending_jobs_and_compacts_done_ones() {
        let dir = tmp("replay");
        {
            let (journal, pending) = JobJournal::open(&dir).unwrap();
            assert!(pending.is_empty());
            journal.append_job(1, &spec(1)).unwrap();
            journal.append_job(2, &spec(2)).unwrap();
            journal.append_done(1);
        }
        // Simulate a torn tail from a crash mid-append.
        {
            let mut f = OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)).unwrap();
            f.write_all(b"0123456789abcdef {\"kind\":\"done\",\"id\":2}\n").unwrap();
        }
        let (_journal, pending) = JobJournal::open(&dir).unwrap();
        assert_eq!(pending.len(), 1, "job 1 is done, job 2 pending, torn line ignored");
        assert_eq!(pending[0].0, 2);
        assert_eq!(pending[0].1.get("n").and_then(Json::as_u64), Some(2));
        // Compaction dropped the done job: a third open sees the same
        // single pending job even though the file was rewritten.
        let (_journal, pending) = JobJournal::open(&dir).unwrap();
        assert_eq!(pending.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_without_header_is_ignored() {
        let dir = tmp("noheader");
        std::fs::write(
            dir.join(JOURNAL_FILE),
            journal_line(&Json::obj([
                ("kind", "job".into()),
                ("id", 5u64.into()),
                ("spec", spec(5)),
            ])),
        )
        .unwrap();
        let (_journal, pending) = JobJournal::open(&dir).unwrap();
        assert!(pending.is_empty(), "records before a valid header are untrusted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
