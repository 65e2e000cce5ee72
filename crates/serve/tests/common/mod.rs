//! Shared scaffolding for the serve daemon integration tests: a
//! scratch directory, a daemon process wrapper with hermetic
//! environment, and small HTTP/JSON helpers.
//!
//! Each test binary compiles its own copy, so not every helper is
//! used from every binary.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rvp_core::Json;
use rvp_serve::http::{self, ClientResponse};

/// A scratch directory unique to one test, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("rvp-serve-test-{}-{test}", std::process::id()));
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

/// A spawned `rvp-serve` process bound to an ephemeral port.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on `127.0.0.1:0` with a hermetic environment,
    /// parsing the bound port off its first stdout line.
    pub fn spawn(state_dir: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rvp-serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .args(extra_args)
            .env_remove("RVP_FAIL")
            .env_remove("RVP_TRACE_DIR")
            .env_remove("RVP_JSON_DIR")
            .env_remove("RVP_LOG")
            .env_remove("RVP_LOG_FILE")
            .env_remove("RVP_MEASURE_INSTS")
            .env_remove("RVP_PROFILE_INSTS")
            .env_remove("RVP_THREADS")
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn rvp-serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("read listen line");
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable listen line: {line:?}"));
        Daemon { child, addr }
    }

    /// SIGKILL — the crash the journal must survive.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// SIGTERM — the graceful-drain signal. The daemon keeps running;
    /// follow with [`Daemon::wait_exit`] to observe the drain finish.
    pub fn sigterm(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
    }

    /// Waits for the daemon to exit on its own, panicking after
    /// `timeout`. Returns the exit status.
    pub fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon did not exit within {timeout:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

pub const TIMEOUT: Duration = Duration::from_secs(60);

/// One HTTP request against the daemon, panicking on transport errors.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> ClientResponse {
    http::request(addr, method, path, body, TIMEOUT).expect("http request")
}

/// The standard 2-cell test sweep (small but real budgets).
pub fn sweep_body(wait: bool) -> Json {
    Json::obj([
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("no_predict"), Json::from("lvp")])),
        ("measure_insts", 30_000u64.into()),
        ("profile_insts", 60_000u64.into()),
        ("wait", wait.into()),
    ])
}

/// A deliberately long sampled cell: a heavily scaled workload with a
/// large measurement budget keeps the worker in the (cancel-polled)
/// sampling planner for seconds of debug-build wall time.
pub fn long_sampled_cell(extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("no_predict")])),
        ("measure_insts", 20_000_000u64.into()),
        ("profile_insts", 4_000u64.into()),
        ("sample", "interval=30000".into()),
        ("scale", 512u64.into()),
    ];
    for (k, v) in extra {
        fields.push((k, v.clone()));
    }
    Json::obj(fields)
}

/// Posts a `wait=false` sweep, requires a 202, and returns the job id.
pub fn post_job(addr: SocketAddr, body: &Json) -> u64 {
    let accepted = request(addr, "POST", "/sweep", Some(body));
    assert_eq!(accepted.status, 202, "{:?}", String::from_utf8_lossy(&accepted.body));
    accepted.json().and_then(|j| j.get("job").and_then(Json::as_u64)).expect("job id")
}

/// Occupies the worker of a one-worker daemon with a
/// [`long_sampled_cell`] job, so the jobs posted next queue behind it;
/// returns that job's id (DELETE it to free the worker).
pub fn hold_the_worker(addr: SocketAddr) -> u64 {
    let id = post_job(addr, &long_sampled_cell(&[]));
    // The queue-delay EWMA is observed when a worker dequeues a cell.
    wait_for("the long cell to start", Duration::from_secs(30), || {
        let metrics = request(addr, "GET", "/metrics", None).json().expect("metrics json");
        metrics.get("queue_delay_ewma_us").and_then(Json::as_u64).unwrap_or(0) > 0
    });
    id
}

/// Polls job `id` until it is done and returns its JSON.
pub fn wait_job_done(addr: SocketAddr, id: u64) -> Json {
    let path = format!("/jobs/{id}");
    let done = |job: &Json| job.get("status").and_then(Json::as_str) == Some("done");
    wait_for(&format!("job {id} to finish"), Duration::from_secs(120), || {
        request(addr, "GET", &path, None).json().is_some_and(|job| done(&job))
    });
    request(addr, "GET", &path, None).json().expect("job json")
}

/// Polls `probe` until it returns true or `timeout` elapses.
pub fn wait_for(what: &str, timeout: Duration, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// All result-cache entries under a daemon state dir (name -> bytes).
pub fn cache_files(state_dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let dir = state_dir.join("cache");
    let Ok(entries) = std::fs::read_dir(&dir) else { return BTreeMap::new() };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read cache file"))
        })
        .collect()
}
