//! Runtime-governance end-to-end tests: slowloris defence, cooperative
//! job cancellation (DELETE), request deadlines, graceful drain under
//! load (SIGTERM → exit 0 with zero lost jobs), adaptive overload
//! shedding, and byte-budgeted cache eviction — all over real loopback
//! HTTP against the spawned daemon (or, for the budget test, an
//! in-process server).

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use common::{
    cache_files, hold_the_worker, long_sampled_cell, metric, post_job, request, wait_for,
    wait_job_done, Daemon, TempDir,
};
use rvp_core::Json;

/// A one-cell sweep (li × no_predict) whose content address is made
/// unique by `threshold` — 500 distinct thresholds are 500 distinct
/// cells in the result cache.
fn one_cell(threshold: f64, wait: bool) -> Json {
    sized_cell(threshold, 4_000, wait)
}

/// [`one_cell`] with its measurement budget, and so its cost, chosen.
fn sized_cell(threshold: f64, measure_insts: u64, wait: bool) -> Json {
    Json::obj([
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("no_predict")])),
        ("measure_insts", measure_insts.into()),
        ("profile_insts", 4_000u64.into()),
        ("threshold", threshold.into()),
        ("wait", wait.into()),
    ])
}

#[test]
fn slowloris_gets_408_and_idle_keepalive_is_reaped_silently() {
    let dir = TempDir::new("slowloris");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1", "--read-timeout-secs", "1"], &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    // A client that stalls mid-request-line holds a handler hostage
    // only until the read timeout, then gets a structured 408.
    let mut stalled = TcpStream::connect(daemon.addr).expect("connect");
    stalled.write_all(b"POST /sweep HTTP/1.1\r\nContent-Len").expect("partial write");
    stalled.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut reply = Vec::new();
    stalled.read_to_end(&mut reply).expect("read 408 then close");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 408"), "stalled client reply: {reply:?}");
    assert!(reply.contains("error"), "408 carries a structured body: {reply:?}");

    // An idle keep-alive connection *between* requests is reaped
    // silently: the first request is answered, then the socket closes
    // with no 408 on the wire.
    let mut idle = TcpStream::connect(daemon.addr).expect("connect");
    idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("write");
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut wire = Vec::new();
    idle.read_to_end(&mut wire).expect("read until idle reap closes the socket");
    let wire = String::from_utf8_lossy(&wire);
    assert!(wire.starts_with("HTTP/1.1 200"), "healthz answered first: {wire:?}");
    assert!(!wire.contains("408"), "idle reap must be silent, got: {wire:?}");

    assert!(metric(daemon.addr, "rvp_serve_request_timeouts_total") >= 1, "slowloris counted");
}

#[test]
fn delete_aborts_a_long_cell_and_frees_its_worker_within_250ms() {
    let dir = TempDir::new("cancel");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    let accepted = request(daemon.addr, "POST", "/sweep", Some(&long_sampled_cell(&[])));
    assert_eq!(accepted.status, 202, "{:?}", String::from_utf8_lossy(&accepted.body));
    let id = accepted.json().expect("json").get("job").and_then(Json::as_u64).expect("job id");

    // Let the sole worker sink into the sampling planner (it polls the
    // cancel token every few thousand committed instructions). The
    // queue-delay EWMA is observed at *dequeue* — `queue_depth` only
    // drops at completion, which is exactly what we must not wait for.
    wait_for("cell dequeued", Duration::from_secs(30), || {
        metric(daemon.addr, "rvp_serve_queue_delay_ewma_us") > 0
    });
    std::thread::sleep(Duration::from_secs(1));

    let gone = request(daemon.addr, "DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(gone.status, 200, "{:?}", String::from_utf8_lossy(&gone.body));
    let gone = gone.json().expect("delete json");
    assert_eq!(gone.get("cancelled").and_then(Json::as_bool), Some(true));

    // The acceptance bar: the worker observes the squash within 250ms.
    let t0 = Instant::now();
    while metric(daemon.addr, "rvp_serve_cells_cancelled_total") < 1 {
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "worker still busy {:?} after DELETE",
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The job is terminally failed (not lost, not still running) and
    // the freed worker immediately serves new work.
    let job = request(daemon.addr, "GET", &format!("/jobs/{id}"), None).json().expect("job json");
    assert_eq!(job.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(job.get("failed").and_then(Json::as_u64), Some(1));
    let quick = request(daemon.addr, "POST", "/sweep", Some(&one_cell(0.9, true)));
    assert_eq!(quick.status, 200);
    assert!(metric(daemon.addr, "rvp_serve_jobs_cancelled_total") >= 1);
}

#[test]
fn resubmitting_a_deleted_jobs_cell_simulates_it_afresh() {
    let dir = TempDir::new("resubmit");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    // Job X holds the only worker; job A queues a cell behind it and is
    // deleted, which squashes that queued cell.
    let x = hold_the_worker(daemon.addr);
    let a = post_job(daemon.addr, &one_cell(0.7, false));
    assert_eq!(request(daemon.addr, "DELETE", &format!("/jobs/{a}"), None).status, 200);

    // Job B, which nobody cancels, posts the same cell: it must get a
    // simulation of its own, not ride the squashed one.
    let b = post_job(daemon.addr, &one_cell(0.7, false));
    assert_eq!(request(daemon.addr, "DELETE", &format!("/jobs/{x}"), None).status, 200);
    let job = wait_job_done(daemon.addr, b);
    assert_eq!(job.get("failed").and_then(Json::as_u64), Some(0), "{job}");
    assert_eq!(job.get("computed").and_then(Json::as_u64), Some(1), "{job}");
}

#[test]
fn deadline_ms_squashes_an_overrunning_job_into_a_structured_failure() {
    let dir = TempDir::new("deadline");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    let body = long_sampled_cell(&[("deadline_ms", 300u64.into()), ("wait", true.into())]);
    let done = request(daemon.addr, "POST", "/sweep", Some(&body));
    assert_eq!(done.status, 200, "{:?}", String::from_utf8_lossy(&done.body));
    let done = done.json().expect("json");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(1));
    let cell = &done.get("cells").and_then(Json::as_arr).expect("cells")[0];
    let error = cell.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("deadline"), "cell error names the deadline: {error:?}");
    assert!(metric(daemon.addr, "rvp_serve_cells_cancelled_total") >= 1);
}

#[test]
fn overload_shedding_rejects_with_429_before_the_queue_cap() {
    let dir = TempDir::new("shed");
    let daemon = Daemon::spawn(
        dir.path(),
        &["--workers", "1", "--max-queue", "1000", "--shed-delay-ms", "1"],
        &[],
    );
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    // Seed the queue-delay EWMA: one 10-cell sweep of distinct cells,
    // then a pause so the single worker dequeues a few cells that
    // waited measurably. One request into an empty queue is admitted
    // by construction (the governor sheds only once the queue is deeper
    // than the worker count); ten 1-cell sweeps would race the worker,
    // and one of them could be shed before the flood began.
    let seed = Json::obj([
        ("workloads", Json::arr(["li", "go", "m88ksim", "ijpeg", "perl"].map(Json::from))),
        ("schemes", Json::arr(["no_predict", "lvp"].map(Json::from))),
        ("measure_insts", 4_000u64.into()),
        ("profile_insts", 4_000u64.into()),
        ("wait", false.into()),
    ]);
    let r = request(daemon.addr, "POST", "/sweep", Some(&seed));
    assert!(r.status == 202, "seed sweep admitted, got {}", r.status);
    std::thread::sleep(Duration::from_millis(500));

    // Keep flooding: well before the 1000-cell cap, the governor sheds.
    let mut shed = None;
    for i in 10..200 {
        let r =
            request(daemon.addr, "POST", "/sweep", Some(&one_cell(0.5 + i as f64 * 1e-4, false)));
        if r.status == 429 {
            shed = Some(r);
            break;
        }
        assert_eq!(r.status, 202);
    }
    let shed = shed.expect("governor shed a request well before the queue cap");
    assert!(shed.header("retry-after").is_some());
    let body = shed.json().expect("shed body json");
    let error = body.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("overloaded"), "shed, not queue-full: {error:?}");
    assert!(body.get("queue_delay_ms").is_some());
    assert!(metric(daemon.addr, "rvp_serve_shed_total") >= 1);
}

#[test]
fn sigterm_drain_exits_zero_and_loses_none_of_500_admitted_jobs() {
    let dir = TempDir::new("drain");
    let args = ["--workers", "2", "--max-queue", "4000", "--drain-secs", "1", "--retries", "1"];
    let mut daemon = Daemon::spawn(dir.path(), &args, &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });

    // Admit 500 unique one-cell jobs (unique threshold ⇒ unique content
    // address); the two workers chew concurrently while we submit. Each
    // admission and each completion costs one journal fsync, so on a
    // disk with slow fsync cheap cells finish as fast as they are
    // admitted; the cells must cost clearly more than a journal append
    // for SIGTERM to find work in flight.
    const JOBS: usize = 500;
    const MEASURE_INSTS: u64 = 20_000;
    let cell = |t: f64, wait: bool| sized_cell(t, MEASURE_INSTS, wait);
    let thresholds: Vec<f64> = (0..JOBS).map(|i| 0.5 + i as f64 * 1e-4).collect();
    for &t in &thresholds {
        let r = request(daemon.addr, "POST", "/sweep", Some(&cell(t, false)));
        assert_eq!(r.status, 202, "admission failed: {:?}", String::from_utf8_lossy(&r.body));
        r.json().expect("json").get("job").and_then(Json::as_u64).expect("job id");
    }

    // SIGTERM mid-load. While the drain window is open the daemon must
    // refuse new work with 503 + Retry-After (replays are exempt).
    let t0 = Instant::now();
    daemon.sigterm();
    let mut saw_503 = false;
    for _ in 0..100 {
        let Ok(r) = rvp_serve::http::request(
            daemon.addr,
            "POST",
            "/sweep",
            Some(&cell(thresholds[0], false)),
            Duration::from_secs(5),
        ) else {
            break; // daemon already exited
        };
        if r.status == 503 {
            assert!(r.header("retry-after").is_some(), "503 carries Retry-After");
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_503, "draining daemon refused new sweeps with 503");

    // Bounded, clean exit: drain window (1s) + squash + grace, well
    // under 30s, with status 0.
    let status = daemon.wait_exit(Duration::from_secs(30));
    assert!(status.success(), "drain exit status: {status:?}");
    assert!(t0.elapsed() < Duration::from_secs(30));

    // Whatever completed before the squash is already content-addressed
    // on disk; the rest must be journaled, not lost.
    let at_exit = cache_files(dir.path());
    assert!(at_exit.len() < JOBS, "all {JOBS} jobs finished before SIGTERM; grow the load");

    // Restart on the same state dir: the journal replays every pending
    // job. Eventually all 500 unique cells are cached.
    let revived = Daemon::spawn(dir.path(), &args, &[]);
    wait_for("replayed jobs to finish", Duration::from_secs(300), || {
        cache_files(dir.path()).len() >= JOBS
    });
    let finished = cache_files(dir.path());
    assert_eq!(finished.len(), JOBS, "exactly one cache entry per admitted job");

    // Bit-identical across the drain: entries finished before SIGTERM
    // are byte-for-byte unchanged after the resume completes.
    for (name, bytes) in &at_exit {
        assert_eq!(
            finished.get(name),
            Some(bytes),
            "cache entry {name} changed across drain/restart"
        );
    }

    // Re-sweeping the whole load is now pure cache hits — nothing lost,
    // nothing recomputed.
    for &t in thresholds.iter().take(5) {
        let warm = request(revived.addr, "POST", "/sweep", Some(&cell(t, true)));
        let warm = warm.json().expect("warm json");
        assert_eq!(warm.get("cached").and_then(Json::as_u64), Some(1), "threshold {t}");
    }
    assert!(metric(revived.addr, "rvp_serve_jobs_resumed_total") >= 1);
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
}

#[test]
fn cache_budgets_hold_under_a_sustained_sweep() {
    use rvp_core::{by_name, Input, SharedSource};
    use rvp_serve::{start, ServeConfig};

    // Each sweep uses a distinct measurement budget, so each captures a
    // distinct (growing) in-memory ref trace — real accumulation for
    // the trace budget to push back on. A detailed sweep writes no
    // trace bytes to disk; the budget bounds the captured copies.
    const BUDGETS: [u64; 4] = [20_000, 28_000, 36_000, 44_000];

    // Phase 1 — probe: unbudgeted in-process server, four sweeps to
    // learn real entry sizes.
    let probe_dir = TempDir::new("budget-probe");
    let cfg = ServeConfig::new("127.0.0.1:0", probe_dir.path().to_str().expect("utf8 dir"));
    let handle = start(cfg).expect("start probe server");
    let addr = handle.local_addr();
    let sweep = |addr, measure_insts: u64| {
        let body = Json::obj([
            ("workloads", Json::arr([Json::from("li")])),
            ("schemes", Json::arr([Json::from("no_predict")])),
            ("measure_insts", measure_insts.into()),
            ("profile_insts", 4_000u64.into()),
            ("wait", true.into()),
        ]);
        let r = request(addr, "POST", "/sweep", Some(&body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    };
    for insts in BUDGETS {
        sweep(addr, insts);
    }
    let cache_total = dir_bytes(&probe_dir.path().join("cache"));
    let entry_bytes = cache_total / 4;
    assert!(entry_bytes > 0, "probe produced cache entries");
    handle.drain();
    // The sweeps' ref traces, sized as the budget accounts them.
    let li = by_name("li").expect("li").program(Input::Ref);
    let trace_sizes: Vec<u64> = BUDGETS
        .iter()
        .map(|&insts| SharedSource::capture(&li, insts).expect("capture").approx_bytes())
        .collect();

    // Phase 2 — enforce: budgets sized to hold ~2 entries / the two
    // largest traces, so a four-sweep sustained load must evict.
    let dir = TempDir::new("budget-enforce");
    let mut cfg = ServeConfig::new("127.0.0.1:0", dir.path().to_str().expect("utf8 dir"));
    cfg.cache_budget_bytes = entry_bytes * 5 / 2;
    cfg.trace_budget_bytes = trace_sizes[3] + trace_sizes[2] + trace_sizes[2] / 2;
    let handle = start(cfg).expect("start budgeted server");
    let addr = handle.local_addr();
    for insts in BUDGETS {
        sweep(addr, insts);
        assert!(
            dir_bytes(&dir.path().join("cache")) <= entry_bytes * 5 / 2,
            "result cache over budget after measure_insts {insts}"
        );
    }

    // Both evictors ran and are observable: the serve counter in the
    // JSON metrics, the shared-trace counter in the Prometheus
    // exposition.
    assert!(metric(addr, "rvp_serve_cache_evictions_total") >= 1);
    let prom = request(addr, "GET", "/metrics?format=prom", None);
    let prom = String::from_utf8(prom.body).expect("prom utf8");
    let evicted = prom
        .lines()
        .find_map(|l| l.strip_prefix("rvp_shared_trace_evicted_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    assert!(evicted >= 1, "shared traces evicted under budget pressure:\n{prom}");
    assert!(
        prom.lines().any(|l| l.starts_with("rvp_trace_evicted_total ")),
        "trace store evictions are exported:\n{prom}"
    );
    assert!(prom.contains("rvp_serve_cache_evictions_total"), "{prom}");
    handle.drain();
}
