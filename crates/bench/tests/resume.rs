//! Resume tests: SIGKILL `rvp-grid` mid-sweep, re-run with `--resume`,
//! and require the merged output — every cell file and the
//! load-bearing summary fields — to be identical to an uninterrupted
//! run; and require `--resume` to reuse exactly the cells of the store
//! whose key the new sweep shares.

mod common;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use common::{cell_files, failures_u64, grid_command, run_grid, summary, summary_u64, CELLS};
use rvp_core::Json;

/// The cell-store entries under `dir/cache`.
fn store_entries(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir.join("cache")) else { return Vec::new() };
    let paths = entries.filter_map(Result::ok).map(|e| e.path());
    paths.filter(|p| p.extension().is_some_and(|x| x == "json")).collect()
}

/// The committed instructions of the cell a store entry
/// (`<checksum> <cell JSON>`) holds.
fn stored_committed(entry: &Path) -> u64 {
    let text = std::fs::read_to_string(entry).expect("read entry");
    let (_, cell) = text.split_once(' ').expect("checksummed entry");
    let cell = Json::parse(cell).expect("cell JSON");
    cell.get("stats").and_then(|s| s.get("committed")).and_then(Json::as_u64).expect("committed")
}

/// The store entry holding the cell of `workload` and `scheme`.
fn store_entry(dir: &Path, workload: &str, scheme: &str) -> PathBuf {
    let needle = format!("{{\"workload\":\"{workload}\",\"scheme\":\"{scheme}\",");
    let mut found = store_entries(dir)
        .into_iter()
        .filter(|p| std::fs::read_to_string(p).is_ok_and(|text| text.contains(&needle)));
    found.next().unwrap_or_else(|| panic!("no store entry for {workload}/{scheme}"))
}

#[test]
fn killed_sweep_resumes_to_identical_results() {
    let baseline = common::TempDir::new("resume-baseline");
    let out = run_grid(baseline.path(), &[], &[]);
    assert!(out.status.success(), "baseline failed: {}", String::from_utf8_lossy(&out.stderr));
    let want = cell_files(baseline.path());
    let want_summary = summary(baseline.path());

    // Start the same sweep with an injected 400ms delay per cell (the
    // delay changes timing only, never results), wait until at least
    // two cells are durably in the store, then SIGKILL the process.
    let victim = common::TempDir::new("resume-victim");
    let mut child =
        grid_command(victim.path(), &[], &[("RVP_FAIL", "seed=9;grid.cell.run=delay400")])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn rvp-grid");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if store_entries(victim.path()).len() >= 2 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("grid finished before it could be killed (status {status}); delay too short");
        }
        assert!(Instant::now() < deadline, "no cells stored within the deadline");
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill");
    let _ = child.wait();

    // The interrupted run left some stored and exported cells, but no
    // summary.
    let partial = cell_files(victim.path());
    assert!(!partial.is_empty() && (partial.len() as u64) < CELLS, "kill landed mid-sweep");
    assert!(!victim.path().join("grid_summary.json").exists());
    let stored = store_entries(victim.path());
    let stored_insts: u64 = stored.iter().map(|entry| stored_committed(entry)).sum();

    // Resume: stored cells are exported, the rest re-run, and the
    // merged output is identical to the uninterrupted sweep.
    let out = run_grid(victim.path(), &["--resume"], &[]);
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));

    assert_eq!(cell_files(victim.path()), want, "merged cells must match the clean run");
    let s = summary(victim.path());
    assert_eq!(summary_u64(&s, "cells"), summary_u64(&want_summary, "cells"));
    assert_eq!(
        summary_u64(&s, "simulated_insts") + stored_insts,
        summary_u64(&want_summary, "simulated_insts"),
        "only the cells simulated in this run count as simulated work"
    );
    assert_eq!(
        s.get("source_mode").and_then(Json::as_str),
        want_summary.get("source_mode").and_then(Json::as_str)
    );
    assert_eq!(failures_u64(&s, "count"), 0);
    assert_eq!(summary_u64(&s, "resumed_cells"), stored.len() as u64, "stored cells are restored");

    // A tampered exported file comes back byte-identical from the
    // store: no cell re-runs.
    std::fs::write(victim.path().join("li-no_predict.json"), b"{}\n").expect("tamper");
    let out = run_grid(victim.path(), &["--resume"], &[]);
    assert!(out.status.success(), "re-resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(cell_files(victim.path()), want, "the exported cell must be restored");
    let s = summary(victim.path());
    assert_eq!(summary_u64(&s, "resumed_cells"), CELLS);
    assert_eq!(
        summary_u64(&s, "simulated_insts"),
        0,
        "a sweep restoring every cell simulates none"
    );

    // A store entry edited to a still-parseable value fails its
    // checksum: exactly that cell re-runs, and its entry is rewritten.
    let entry = store_entry(victim.path(), "li", "no_predict");
    let text = std::fs::read_to_string(&entry).expect("read entry");
    let edited = text.replacen("\"cycles\":", "\"cycles\":9", 1);
    assert_ne!(edited, text);
    std::fs::write(&entry, edited).expect("tamper");
    let out = run_grid(victim.path(), &["--resume"], &[]);
    assert!(out.status.success(), "re-resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(cell_files(victim.path()), want, "the tampered cell must be recomputed");
    assert_eq!(summary_u64(&summary(victim.path()), "resumed_cells"), CELLS - 1);
    assert_eq!(std::fs::read_to_string(&entry).expect("rewritten entry"), text);
}

/// `--resume` reuses every stored cell whose key the new sweep shares:
/// a sweep over fewer schemes, or on another committed-stream source,
/// restores all of its cells, while one with `--metrics-out` (which
/// changes the cells' JSON) re-simulates every cell.
#[test]
fn resume_reuses_exactly_the_cells_whose_key_matches() {
    let dir = common::TempDir::new("resume-keys");
    let out = run_grid(dir.path(), &[], &[]);
    assert!(out.status.success(), "sweep failed: {}", String::from_utf8_lossy(&out.stderr));
    let want = cell_files(dir.path());
    let resumed = |args: &[&str]| {
        let out = run_grid(dir.path(), args, &[]);
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        summary_u64(&summary(dir.path()), "resumed_cells")
    };

    let fewer = ["--resume", "--schemes", "no_predict,lvp"];
    assert_eq!(resumed(&fewer), 4, "dropping a scheme keeps the other cells");
    let timed = summary(dir.path()).get("cell_seconds").and_then(Json::as_obj).map(<[_]>::len);
    assert_eq!(timed, Some(CELLS as usize), "a subset sweep keeps the other cells' timings");
    assert_eq!(resumed(&["--resume", "--source", "live"]), CELLS, "the source is not in the key");
    assert_eq!(cell_files(dir.path()), want);

    let metrics = dir.path().join("metrics.json");
    let metrics = metrics.to_str().expect("utf8 path");
    assert_eq!(resumed(&["--resume", "--metrics-out", metrics]), 0, "obs changes every cell");
    let with_obs = cell_files(dir.path());
    for (name, bytes) in &want {
        assert!(with_obs[name].len() > bytes.len(), "{name} lacks the obs artifacts");
    }
}
