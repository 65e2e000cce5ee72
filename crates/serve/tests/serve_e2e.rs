//! End-to-end tests for the serve daemon over real loopback HTTP: the
//! API surface, the content-addressed cache, admission control, and
//! the kill-SIGKILL-restart-resume contract.

mod common;

use std::collections::HashMap;
use std::time::Duration;

use common::{
    cache_files, hold_the_worker, metric, post_job, request, sweep_body, wait_for, wait_job_done,
    Daemon, TempDir,
};
use rvp_core::Json;

#[test]
fn sweep_computes_then_repeat_is_all_cache_hits() {
    let dir = TempDir::new("api");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "2"], &[]);

    // Readiness: a fresh daemon has an empty journal to replay, so
    // `/readyz` flips to 200 almost immediately — but it is a distinct
    // endpoint from `/healthz` and reports `ready: true`.
    wait_for("daemon readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });
    let ready = request(daemon.addr, "GET", "/readyz", None).json().expect("readyz json");
    assert_eq!(ready.get("ready").and_then(Json::as_bool), Some(true));

    // Cold: both cells simulate.
    let cold = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(cold.status, 200, "{:?}", String::from_utf8_lossy(&cold.body));
    let cold = cold.json().expect("cold json");
    assert_eq!(cold.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(cold.get("computed").and_then(Json::as_u64), Some(2));
    assert_eq!(cold.get("cached").and_then(Json::as_u64), Some(0));
    assert_eq!(cold.get("failed").and_then(Json::as_u64), Some(0));
    let cells = cold.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells.len(), 2);
    for cell in cells {
        let result = cell.get("result").expect("cell result");
        assert!(result.get("stats").is_some(), "cell carries full RunResult JSON");
    }
    // The content-addressed cache is the only copy of a computed cell.
    assert!(!dir.path().join("cells").exists(), "the daemon writes no label-keyed cell files");

    // Warm: the identical sweep is answered entirely from the cache.
    let warm = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    let warm = warm.json().expect("warm json");
    assert_eq!(warm.get("cached").and_then(Json::as_u64), Some(2));
    assert_eq!(warm.get("computed").and_then(Json::as_u64), Some(0));

    // A different knob is a different content address: it simulates.
    let mut other = sweep_body(true);
    if let Json::Obj(pairs) = &mut other {
        for (k, v) in pairs.iter_mut() {
            if k == "measure_insts" {
                *v = 31_000u64.into();
            }
        }
    }
    let other = request(daemon.addr, "POST", "/sweep", Some(&other)).json().expect("json");
    assert_eq!(other.get("computed").and_then(Json::as_u64), Some(2));

    // Metrics reflect all of the above, as registry samples keyed
    // `name{labels}`.
    wait_for("the queue to drain", Duration::from_secs(30), || {
        metric(daemon.addr, "rvp_serve_queue_depth") == 0
    });
    let metrics = request(daemon.addr, "GET", "/metrics", None).json().expect("metrics json");
    let sample = |key: &str| metrics.get(key).and_then(Json::as_u64).unwrap_or(0);
    assert!(sample("rvp_serve_cache_hits_total") >= 2, "{metrics}");
    assert!(sample("rvp_serve_cells_computed_total") >= 4, "{metrics}");
    assert!(sample("rvp_serve_request_latency_count") >= 3, "{metrics}");
    assert!(sample("rvp_source_captures_total{workload=\"li\"}") >= 1, "{metrics}");

    // The same gather as Prometheus text: every JSON sample is a series
    // there with the same value. Only the request family may move
    // between the two reads, because the reads are requests themselves.
    let prom = request(daemon.addr, "GET", "/metrics?format=prom", None);
    assert_eq!(prom.status, 200);
    assert!(prom.header("content-type").unwrap_or("").starts_with("text/plain"));
    let prom = String::from_utf8(prom.body).expect("prometheus text is UTF-8");
    assert!(prom.contains("# TYPE rvp_serve_requests_total counter"), "{prom}");
    let series: HashMap<&str, f64> = prom
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            Some((key, value.parse().ok()?))
        })
        .collect();
    let samples = metrics.as_obj().expect("/metrics is a JSON object");
    assert_eq!(samples.len(), series.len(), "{metrics}\n{prom}");
    for (key, value) in samples {
        let line = series.get(key.as_str()).unwrap_or_else(|| panic!("{key} not in {prom}"));
        if !key.starts_with("rvp_serve_request") {
            assert_eq!(value.as_f64(), Some(*line), "{key}");
        }
    }

    // The span tracer saw the whole request lifecycle: the exported
    // Chrome trace parses, and the serve → grid → sim span chain links
    // up through parent ids, across the handler/worker thread handoff.
    let trace = request(daemon.addr, "GET", "/trace", None).json().expect("trace json");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(!events.is_empty(), "daemon trace has spans");
    let span_ids = |name: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|e| e.get("args").and_then(|a| a.get("span_id")).and_then(Json::as_u64))
            .collect()
    };
    let parent_ids = |name: &str| -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .filter_map(|e| e.get("args").and_then(|a| a.get("parent_id")).and_then(Json::as_u64))
            .collect()
    };
    for name in ["serve.request", "serve.admission", "serve.cell.exec", "grid.cell.run", "sim.run"]
    {
        assert!(!span_ids(name).is_empty(), "trace has {name} spans");
    }
    let requests = span_ids("serve.request");
    assert!(
        parent_ids("serve.cell.exec").iter().any(|p| requests.contains(p)),
        "worker-side exec spans parent onto a request span"
    );
    let execs = span_ids("serve.cell.exec");
    assert!(
        parent_ids("grid.cell.run").iter().any(|p| execs.contains(p)),
        "grid cell spans nest under the exec span"
    );
    assert!(
        parent_ids("serve.queue.wait").iter().any(|p| requests.contains(p)),
        "queue-wait spans attribute back to the admitting request"
    );
    let folded = request(daemon.addr, "GET", "/trace?format=folded", None);
    assert_eq!(folded.status, 200);
    let folded = String::from_utf8(folded.body).expect("folded text is UTF-8");
    assert!(folded.lines().any(|l| l.contains("serve.request")), "{folded}");

    // API edges: health, unknown job, bad bodies, wrong methods.
    let health = request(daemon.addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(request(daemon.addr, "GET", "/jobs/999999", None).status, 404);
    assert_eq!(request(daemon.addr, "GET", "/nope", None).status, 404);
    assert_eq!(request(daemon.addr, "GET", "/sweep", None).status, 405);
    let bad =
        request(daemon.addr, "POST", "/sweep", Some(&Json::obj([("workloads", 7u64.into())])));
    assert_eq!(bad.status, 400);
    assert!(bad.json().expect("error json").get("error").is_some());
    let unknown = request(
        daemon.addr,
        "POST",
        "/sweep",
        Some(&Json::obj([
            ("workloads", Json::arr([Json::from("nope")])),
            ("schemes", Json::arr([Json::from("lvp")])),
        ])),
    );
    assert_eq!(unknown.status, 400);
}

#[test]
fn sigkill_mid_sweep_then_restart_resumes_bit_identical() {
    // Reference: the same sweep run to completion without interruption.
    let dir_ref = TempDir::new("resume-ref");
    let mut reference = Daemon::spawn(dir_ref.path(), &["--workers", "1"], &[]);
    let done = request(reference.addr, "POST", "/sweep", Some(&big_sweep(true)));
    assert_eq!(done.status, 200);
    let done = done.json().expect("reference json");
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
    let want = cache_files(dir_ref.path());
    assert_eq!(want.len(), 6, "reference run caches every cell");
    reference.kill();

    // Victim: submit asynchronously, SIGKILL once at least one cell has
    // landed, restart on the same state dir.
    let dir = TempDir::new("resume-victim");
    let mut victim = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    let accepted = request(victim.addr, "POST", "/sweep", Some(&big_sweep(false)));
    assert_eq!(accepted.status, 202, "{:?}", String::from_utf8_lossy(&accepted.body));
    let job_id = accepted.json().expect("json").get("job").and_then(Json::as_u64).expect("job id");
    wait_for("first cell result on disk", Duration::from_secs(120), || {
        !cache_files(dir.path()).is_empty()
    });
    victim.kill();
    let partial = cache_files(dir.path());
    assert!(partial.len() < 6, "kill landed after the whole sweep finished; budgets too small");

    // Restart: the journal re-submits the job under its original id;
    // finished cells come from the cache, the rest re-simulate.
    let revived = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    // Job ids are known once the journal replay lands; `/readyz` says so.
    wait_for("journal replay", Duration::from_secs(30), || {
        request(revived.addr, "GET", "/readyz", None).status == 200
    });
    wait_for("resumed job to finish", Duration::from_secs(240), || {
        let response = request(revived.addr, "GET", &format!("/jobs/{job_id}"), None);
        assert_ne!(response.status, 404, "resumed daemon must remember job {job_id}");
        response.json().and_then(|j| j.get("status").map(|s| s.as_str() == Some("done")))
            == Some(true)
    });
    let job = request(revived.addr, "GET", &format!("/jobs/{job_id}"), None).json().expect("json");
    assert_eq!(job.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(job.get("total").and_then(Json::as_u64), Some(6));

    // The merged results are bit-identical with the uninterrupted run.
    let got = cache_files(dir.path());
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "same content addresses"
    );
    for (name, bytes) in &want {
        assert_eq!(&got[name], bytes, "cache entry {name} differs from uninterrupted run");
    }

    // Resubmitting the whole sweep is now a 100% cache hit.
    let repeat = request(revived.addr, "POST", "/sweep", Some(&big_sweep(true)));
    let repeat = repeat.json().expect("repeat json");
    assert_eq!(repeat.get("cached").and_then(Json::as_u64), Some(6));
    assert_eq!(repeat.get("computed").and_then(Json::as_u64), Some(0));
    assert!(metric(revived.addr, "rvp_serve_jobs_resumed_total") >= 1);
}

/// 2 workloads x 3 schemes with budgets big enough that a single
/// debug-build worker takes a while — room to SIGKILL mid-sweep.
fn big_sweep(wait: bool) -> Json {
    Json::obj([
        ("workloads", Json::arr([Json::from("li"), Json::from("go")])),
        (
            "schemes",
            Json::arr([Json::from("no_predict"), Json::from("lvp"), Json::from("drvp_all")]),
        ),
        ("measure_insts", 250_000u64.into()),
        ("profile_insts", 400_000u64.into()),
        ("wait", wait.into()),
    ])
}

#[test]
fn full_admission_queue_rejects_with_retry_after() {
    let dir = TempDir::new("backpressure");
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1", "--max-queue", "1"], &[]);

    // Two misses against a one-slot queue: rejected up front, with a
    // Retry-After hint and a structured body.
    let rejected = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(false)));
    assert_eq!(rejected.status, 429, "{:?}", String::from_utf8_lossy(&rejected.body));
    assert_eq!(rejected.header("retry-after"), Some("1"));
    let body = rejected.json().expect("429 body json");
    assert!(body.get("error").is_some());
    assert_eq!(body.get("needed").and_then(Json::as_u64), Some(2));

    // A sweep that fits is admitted and completes.
    let small = Json::obj([
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("no_predict")])),
        ("measure_insts", 20_000u64.into()),
        ("profile_insts", 40_000u64.into()),
        ("wait", true.into()),
    ]);
    let ok = request(daemon.addr, "POST", "/sweep", Some(&small));
    assert_eq!(ok.status, 200);
    assert!(metric(daemon.addr, "rvp_serve_rejected_total") >= 1);
}

/// The one cell two jobs share in the single-flight tests.
fn shared_cell() -> Json {
    Json::obj([
        ("workloads", Json::arr([Json::from("li")])),
        ("schemes", Json::arr([Json::from("lvp")])),
        ("measure_insts", 4_000u64.into()),
        ("profile_insts", 4_000u64.into()),
        ("wait", false.into()),
    ])
}

/// A one-worker daemon whose worker a long cell holds, so the jobs
/// posted next queue together; returns it with the long job's id.
fn held_daemon(dir: &TempDir) -> (Daemon, u64) {
    let daemon = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    wait_for("readiness", Duration::from_secs(30), || {
        request(daemon.addr, "GET", "/readyz", None).status == 200
    });
    let held = hold_the_worker(daemon.addr);
    (daemon, held)
}

fn cells_computed(daemon: &Daemon) -> u64 {
    metric(daemon.addr, "rvp_serve_cells_computed_total")
}

/// The one cell of a finished job, as the API reports it.
fn only_cell(job: &Json) -> Json {
    job.get("cells").and_then(Json::as_arr).expect("cells")[0].clone()
}

#[test]
fn concurrent_jobs_for_one_cell_share_one_simulation() {
    let dir = TempDir::new("single-flight");
    let (daemon, held) = held_daemon(&dir);
    let before = cells_computed(&daemon);
    let first = post_job(daemon.addr, &shared_cell());
    let second = post_job(daemon.addr, &shared_cell());
    assert_eq!(request(daemon.addr, "DELETE", &format!("/jobs/{held}"), None).status, 200);

    let (first, second) = (wait_job_done(daemon.addr, first), wait_job_done(daemon.addr, second));
    assert_eq!(cells_computed(&daemon), before + 1, "one simulation for both jobs");
    for job in [&first, &second] {
        assert_eq!(job.get("computed").and_then(Json::as_u64), Some(1), "{job}");
        assert_eq!(job.get("failed").and_then(Json::as_u64), Some(0), "{job}");
    }
    let result = |job: &Json| only_cell(job).get("result").expect("cell result").to_string();
    assert_eq!(result(&first), result(&second), "both jobs get the same bytes");
}

#[test]
fn deleting_one_sharer_leaves_the_others_cell_computed() {
    let dir = TempDir::new("sharer-delete");
    let (daemon, held) = held_daemon(&dir);
    let leaving = post_job(daemon.addr, &shared_cell());
    let staying = post_job(daemon.addr, &shared_cell());
    assert_eq!(request(daemon.addr, "DELETE", &format!("/jobs/{leaving}"), None).status, 200);
    assert_eq!(request(daemon.addr, "DELETE", &format!("/jobs/{held}"), None).status, 200);

    let job = wait_job_done(daemon.addr, staying);
    assert_eq!(job.get("computed").and_then(Json::as_u64), Some(1), "{job}");
    assert_eq!(job.get("failed").and_then(Json::as_u64), Some(0), "{job}");
    assert!(only_cell(&job).get("error").is_none(), "{job}");
    let left = wait_job_done(daemon.addr, leaving);
    assert_eq!(left.get("cancelled").and_then(Json::as_bool), Some(true), "{left}");
}
