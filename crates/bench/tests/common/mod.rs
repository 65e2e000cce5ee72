//! Shared scaffolding for the `rvp-grid` resilience integration tests:
//! a scratch directory, a grid invocation wrapper with hermetic
//! environment, and cell/summary readers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rvp_core::Json;

/// A scratch directory unique to one test, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rvp-grid-test-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The small grid every test here runs: 2 workloads x 3 schemes.
pub const WORKLOADS: &str = "li,go";
pub const SCHEMES: &str = "no_predict,lvp,drvp_all";
pub const CELLS: u64 = 6;

/// A `rvp-grid` command on the test grid with tiny budgets, one worker
/// (deterministic failpoint hit order) and a hermetic environment.
pub fn grid_command(out_dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rvp-grid"));
    cmd.arg(out_dir)
        .args(["--workloads", WORKLOADS, "--schemes", SCHEMES])
        .args(extra_args)
        .env_remove("RVP_FAIL")
        .env_remove("RVP_TRACE_DIR")
        .env_remove("RVP_JSON_DIR")
        .env_remove("RVP_LOG")
        .env_remove("RVP_LOG_FILE")
        .env("RVP_MEASURE_INSTS", "20000")
        .env("RVP_PROFILE_INSTS", "40000")
        .env("RVP_THREADS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd
}

/// Runs the grid to completion, returning the captured output.
pub fn run_grid(out_dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> Output {
    grid_command(out_dir, extra_args, envs).output().expect("spawn rvp-grid")
}

/// All exported cell JSON files in `dir` (name -> bytes), excluding
/// the summary and the cell store's `cache/` subdirectory.
pub fn cell_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("read out dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && p.file_name().is_some_and(|n| n != "grid_summary.json")
        })
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read cell file"))
        })
        .collect()
}

/// The parsed grid summary of `dir`.
pub fn summary(dir: &Path) -> Json {
    let text = std::fs::read_to_string(dir.join("grid_summary.json")).expect("summary exists");
    Json::parse(&text).expect("summary parses")
}

pub fn summary_u64(summary: &Json, key: &str) -> u64 {
    summary.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("summary key {key}"))
}

pub fn failures_u64(summary: &Json, key: &str) -> u64 {
    summary
        .get("failures")
        .and_then(|f| f.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("failures key {key}"))
}
