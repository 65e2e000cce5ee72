//! `rvp-serve`: the simulator as a daemon.
//!
//! ```text
//! rvp-serve [--addr HOST:PORT] [--state-dir DIR] [--workers N]
//!           [--max-queue N] [--max-connections N] [--retries N]
//!           [--deadline-secs N] [--drain-secs N] [--shed-delay-ms N]
//!           [--cache-budget-mb N] [--trace-budget-mb N]
//!           [--read-timeout-secs N]
//! ```
//!
//! Boots the HTTP/1.1 + JSON service of `rvp_serve::server` and runs
//! until stopped. On startup the job journal in the state directory is
//! replayed, so a killed daemon picks its in-flight sweeps back up.
//! SIGTERM (and `POST /shutdown`) triggers a graceful drain: new sweeps
//! get 503, in-flight jobs finish within `--drain-secs`, stragglers are
//! cooperatively squashed with their journal records kept pending for
//! the next start, and the process exits 0.
//!
//! Endpoints:
//!
//! * `POST /sweep` — submit a sweep; `{"wait":true}` blocks for the
//!   results, otherwise a 202 with a job id to poll. `{"deadline_ms":N}`
//!   tightens the server's default job deadline.
//! * `GET /jobs/<id>` — job status and per-cell results.
//! * `DELETE /jobs/<id>` — abort a job; its in-flight cells are
//!   cooperatively squashed (unless another job shares them).
//! * `POST /shutdown` — graceful drain, then exit.
//! * `GET /metrics` — every registry sample (daemon, runner, result
//!   cache and failpoint counters, latency quantiles) as a JSON object
//!   keyed `name{labels}`; `?format=prom` renders the same gather as
//!   Prometheus text.
//! * `GET /healthz` — liveness.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use rvp_core::{fatal, Json, EXIT_IO, EXIT_USAGE};
use rvp_serve::{start, ServeConfig};

const USAGE: &str = "usage: rvp-serve [--addr HOST:PORT] [--state-dir DIR] [--workers N] \
                     [--max-queue N] [--max-connections N] [--retries N] [--deadline-secs N] \
                     [--drain-secs N] [--shed-delay-ms N] [--cache-budget-mb N] \
                     [--trace-budget-mb N] [--read-timeout-secs N]";

fn die(msg: &str, code: u8, fields: &[(&str, Json)]) -> ! {
    let _ = fatal("rvp-serve", msg, code, fields);
    std::process::exit(i32::from(code));
}

/// Set by the SIGTERM handler; the main loop polls it and drains.
static TERMINATED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Only an atomic store: everything else happens on the main thread.
    TERMINATED.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler via the libc `signal(2)` the process
/// already links (std does), keeping the workspace dependency-free.
fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::new("127.0.0.1:7341", "rvp-serve-state");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| die(USAGE, EXIT_USAGE, &[("missing_value_for", flag.into())]))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--state-dir" => cfg.state_dir = value("--state-dir").into(),
            "--workers" => cfg.workers = parse_count(&value("--workers"), "--workers"),
            "--max-queue" => cfg.max_queue = parse_count(&value("--max-queue"), "--max-queue"),
            "--max-connections" => {
                cfg.max_connections = parse_count(&value("--max-connections"), "--max-connections");
            }
            "--retries" => cfg.retries = parse_count(&value("--retries"), "--retries") as u32,
            "--deadline-secs" => {
                cfg.deadline_secs = parse_u64(&value("--deadline-secs"), "--deadline-secs");
            }
            "--drain-secs" => cfg.drain_secs = parse_u64(&value("--drain-secs"), "--drain-secs"),
            "--shed-delay-ms" => {
                cfg.shed_delay_ms = parse_u64(&value("--shed-delay-ms"), "--shed-delay-ms");
            }
            "--cache-budget-mb" => {
                cfg.cache_budget_bytes =
                    parse_u64(&value("--cache-budget-mb"), "--cache-budget-mb") * 1024 * 1024;
            }
            "--trace-budget-mb" => {
                cfg.trace_budget_bytes =
                    parse_u64(&value("--trace-budget-mb"), "--trace-budget-mb") * 1024 * 1024;
            }
            "--read-timeout-secs" => {
                cfg.read_timeout_secs =
                    parse_count(&value("--read-timeout-secs"), "--read-timeout-secs") as u64;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                return fatal("rvp-serve", USAGE, EXIT_USAGE, &[("unknown_flag", other.into())])
            }
        }
    }

    let state_dir = cfg.state_dir.clone();
    let handle = match start(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            return fatal(
                "rvp-serve",
                "cannot start server",
                EXIT_IO,
                &[
                    ("state_dir", state_dir.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    };
    install_sigterm_handler();
    // The tests and any supervising script parse this exact line to
    // learn the bound port; keep it first and flushed.
    println!(
        "rvp-serve: listening on http://{} (state: {})",
        handle.local_addr(),
        state_dir.display()
    );
    let _ = std::io::stdout().flush();

    // Run until SIGTERM (drain here) or a drain initiated over HTTP
    // (`POST /shutdown`; the handle reports stopping once it lands).
    while !TERMINATED.load(Ordering::SeqCst) && !handle.stopping() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if TERMINATED.load(Ordering::SeqCst) {
        handle.drain();
    } else {
        handle.join();
    }
    ExitCode::SUCCESS
}

fn parse_count(text: &str, flag: &str) -> usize {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => die(
            "flag takes a positive integer",
            EXIT_USAGE,
            &[("flag", flag.into()), ("got", text.into())],
        ),
    }
}

/// Like [`parse_count`] but 0 is meaningful ("disabled"/"unlimited").
fn parse_u64(text: &str, flag: &str) -> u64 {
    match text.parse::<u64>() {
        Ok(n) => n,
        Err(_) => die(
            "flag takes a non-negative integer",
            EXIT_USAGE,
            &[("flag", flag.into()), ("got", text.into())],
        ),
    }
}
