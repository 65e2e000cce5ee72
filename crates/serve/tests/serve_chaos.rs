//! Chaos tests for the serve daemon: seeded faults at the
//! `serve.journal.append` and `serve.cache.read` failpoints must
//! surface as structured 5xx JSON on the affected request while the
//! daemon — and every surviving request — carries on unharmed; and a
//! cache entry damaged on disk is re-simulated, never served.

mod common;

use common::{cache_files, metric, request, sweep_body, Daemon, TempDir};
use rvp_core::Json;

#[test]
fn journal_append_fault_is_a_structured_503_and_daemon_survives() {
    let dir = TempDir::new("chaos-journal");
    // First append fails; everything after succeeds.
    let daemon = Daemon::spawn(
        dir.path(),
        &["--workers", "1"],
        &[("RVP_FAIL", "seed=7;serve.journal.append=io@1")],
    );

    let hit = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(hit.status, 503, "{:?}", String::from_utf8_lossy(&hit.body));
    let body = hit.json().expect("503 body is JSON");
    let error = body.get("error").and_then(Json::as_str).expect("structured error field");
    assert!(error.contains("journal"), "error names the failing subsystem: {error}");

    // The daemon is alive and the next identical request goes through
    // end to end (the failpoint armed only the first hit).
    assert_eq!(request(daemon.addr, "GET", "/healthz", None).status, 200);
    let retry = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(retry.status, 200);
    let retry = retry.json().expect("retry json");
    assert_eq!(retry.get("computed").and_then(Json::as_u64), Some(2));
    assert_eq!(retry.get("failed").and_then(Json::as_u64), Some(0));

    assert!(metric(daemon.addr, "rvp_serve_server_errors_total") >= 1);
}

#[test]
fn cache_read_fault_is_a_structured_500_and_disk_stays_good() {
    let dir = TempDir::new("chaos-cache");
    // Prime the cache with a clean daemon, then SIGKILL it.
    let mut primer = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    let primed = request(primer.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(primed.status, 200);
    primer.kill();

    // Restart with the first disk read of a cache entry armed to fail.
    let daemon = Daemon::spawn(
        dir.path(),
        &["--workers", "1"],
        &[("RVP_FAIL", "seed=7;serve.cache.read=io@1")],
    );
    let hit = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(hit.status, 500, "{:?}", String::from_utf8_lossy(&hit.body));
    let body = hit.json().expect("500 body is JSON");
    let error = body.get("error").and_then(Json::as_str).expect("structured error field");
    assert!(error.contains("cache"), "error names the failing subsystem: {error}");

    // Surviving requests are unaffected: the entries on disk are
    // intact, so the retry is a 100% cache hit with zero re-simulation.
    let retry = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(retry.status, 200);
    let retry = retry.json().expect("retry json");
    assert_eq!(retry.get("cached").and_then(Json::as_u64), Some(2));
    assert_eq!(retry.get("computed").and_then(Json::as_u64), Some(0));

    assert!(metric(daemon.addr, "rvp_serve_server_errors_total") >= 1);
    assert_eq!(metric(daemon.addr, "rvp_serve_cells_computed_total"), 0);
}

/// The `result` object of every cell of a sweep response, in order.
fn results(response: &Json) -> Vec<String> {
    let cells = response.get("cells").and_then(Json::as_arr).expect("cells");
    cells.iter().map(|c| c.get("result").expect("result").to_string()).collect()
}

#[test]
fn edited_cache_entry_is_resimulated_never_served() {
    let dir = TempDir::new("chaos-edited");
    let mut primer = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    let primed = request(primer.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(primed.status, 200);
    let want = results(&primed.json().expect("primed json"));
    primer.kill();

    // Edit a `cycles` digit of every entry: the JSON still parses, but
    // no longer matches its checksum.
    let entries = cache_files(dir.path());
    assert_eq!(entries.len(), 2);
    for (name, bytes) in &entries {
        let text = String::from_utf8(bytes.clone()).expect("utf8 entry");
        let edited = text.replacen("\"cycles\":", "\"cycles\":9", 1);
        assert_ne!(edited, text, "{name} has a cycles field");
        std::fs::write(dir.path().join("cache").join(name), edited).expect("tamper");
    }

    let daemon = Daemon::spawn(dir.path(), &["--workers", "1"], &[]);
    let again = request(daemon.addr, "POST", "/sweep", Some(&sweep_body(true)));
    assert_eq!(again.status, 200);
    let again = again.json().expect("json");
    assert_eq!(again.get("cached").and_then(Json::as_u64), Some(0), "edited entries are misses");
    assert_eq!(again.get("computed").and_then(Json::as_u64), Some(2));
    assert_eq!(results(&again), want, "the re-simulated cells match the originals");
    assert_eq!(cache_files(dir.path()), entries, "the entries are rewritten as they were");
}
