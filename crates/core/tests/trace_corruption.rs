//! Mid-read corruption: a stored trace that opens cleanly but fails
//! while being decoded must be quarantined and re-captured once, must
//! not be counted as a hit, must leave every stat bit-identical to live
//! emulation, and must announce itself as a structured log event. The
//! re-captured file then serves the next runner as a plain hit.
//!
//! Every step runs a fresh `Runner` over a fresh `TraceStore` on the
//! same directory, as consecutive sweeps would, so each step's store
//! counters are its own. This test lives in its own binary because it
//! claims the process-wide log sink (`RVP_LOG_FILE`) before the first
//! event is emitted.

use std::fs;
use std::path::Path;

use rvp_core::{
    by_name, Input, Json, Runner, SchemeSpec, SourceMode, TraceInput, TraceMeta, TraceStore,
};

const MEASURE_INSTS: u64 = 20_000;

#[test]
fn truncated_trace_is_quarantined_once_and_stats_stay_live() {
    let base = std::env::temp_dir().join(format!("rvp-corruption-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).unwrap();
    let log_path = base.join("events.jsonl");
    std::env::set_var("RVP_LOG_FILE", &log_path);
    std::env::set_var("RVP_LOG", "warn");

    let trace_dir = base.join("traces");
    let wl = by_name("li").unwrap();
    // `no_predict` needs no train profile, so the ref trace is the only
    // one any step touches.
    let no_predict = SchemeSpec::parse("no_predict").unwrap();
    let runner = |mode, traces| Runner {
        source_mode: mode,
        traces,
        profile_insts: 40_000,
        measure_insts: MEASURE_INSTS,
        ..Runner::default()
    };
    let shared_run = || {
        let store = TraceStore::new(&trace_dir).unwrap();
        let stats = runner(SourceMode::Shared, Some(store.clone())).run(&wl, &no_predict).unwrap();
        (stats.stats, store)
    };

    let want = runner(SourceMode::Live, None).run(&wl, &no_predict).unwrap().stats;

    // Step 1 captures the ref trace.
    let (stats, store) = shared_run();
    assert_eq!(stats, want);
    assert_eq!(store.counters().captures(), 1);

    // Chop the tail off the stored trace: the header and early frames
    // stay valid, so it opens and fails mid-decode.
    let program = wl.program(Input::Ref);
    let meta = TraceMeta::for_program(wl.name(), TraceInput::Ref, MEASURE_INSTS, &program);
    let path = store.path_for(&meta);
    let bytes = fs::read(&path).unwrap();
    let damaged = &bytes[..bytes.len() * 2 / 3];
    fs::write(&path, damaged).unwrap();

    // Step 2 reads the damaged file, quarantines it and re-captures.
    let (stats, store) = shared_run();
    assert_eq!(stats, want, "a re-captured trace must stay bit-identical to live emulation");
    let c = store.counters();
    assert_eq!((c.hits(), c.fallbacks(), c.quarantined()), (0, 1, 1), "hits/fallbacks/quarantined");
    assert_eq!(c.captures(), 1);
    assert_eq!(quarantined_files(&store.quarantine_dir()), vec![damaged.to_vec()]);
    assert_eq!(fs::read(&path).unwrap(), bytes, "the re-capture restores the original trace");

    let events = fs::read_to_string(&log_path).unwrap();
    let event = events
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|j| j.get("module").and_then(Json::as_str) == Some("rvp_trace::store"))
        .expect("structured quarantine event in the log file");
    assert_eq!(event.get("level").and_then(Json::as_str), Some("warn"));
    assert!(event.get("error").and_then(Json::as_str).is_some(), "event names the error");

    // Step 3 decodes the re-captured file as a plain hit.
    let (stats, store) = shared_run();
    assert_eq!(stats, want);
    let c = store.counters();
    assert_eq!((c.hits(), c.captures(), c.fallbacks(), c.quarantined()), (1, 0, 0, 0));
    assert_eq!(quarantined_files(&store.quarantine_dir()).len(), 1, "no new quarantine");

    let _ = fs::remove_dir_all(&base);
}

/// The contents of every file in the quarantine directory.
fn quarantined_files(dir: &Path) -> Vec<Vec<u8>> {
    let entries = fs::read_dir(dir).expect("quarantine directory exists");
    entries.map(|e| fs::read(e.unwrap().path()).unwrap()).collect()
}
