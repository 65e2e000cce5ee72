//! Chaos tests: `rvp-grid` under a seeded deterministic failpoint
//! schedule (`RVP_FAIL`).
//!
//! The invariants under fault injection:
//!
//! * transient faults are retried and the sweep still succeeds, with
//!   every surviving cell **bit-identical** to the fault-free run;
//! * trace-layer corruption is quarantined and the trace re-captured,
//!   again bit-identically;
//! * a cell that fails every rung of the degradation ladder is reported
//!   as poisoned in the summary's `failures` section and turns the exit
//!   code into 20 — it never aborts the rest of the sweep.

mod common;

use common::{cell_files, failures_u64, run_grid, summary, summary_u64, CELLS};
use rvp_core::Json;

/// Threads alive in this process right now (`/proc/self/task`); 0 when
/// the proc filesystem is unavailable (non-Linux).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// `--cell-timeout` used to abandon the watchdogged thread: every fired
/// timeout leaked a thread still grinding its simulation. The watchdog
/// is now a cooperative cancel token the cell polls, so a timed-out
/// attempt squashes and joins. Run a cell that cannot finish inside its
/// timeout and assert the process thread count returns to baseline.
#[test]
fn fired_cell_timeout_leaves_no_thread_behind() {
    use rvp_bench::grid::{run_one_cell, CellOptions, GridCell};
    use rvp_core::{by_name_or_err, Runner, SampleSpec};

    let baseline = live_threads();
    if baseline == 0 {
        return; // no /proc: nothing to measure on this platform
    }

    let mut runner = Runner { traces: None, ..Runner::default() };
    // Minutes of debug-build work against a 1-second timeout; the
    // sampling planner polls the token every few thousand records.
    runner.measure_insts = 50_000_000;
    runner.profile_insts = 4_000;
    runner.workload_scale = 512;
    runner.sampling = Some(SampleSpec::parse("interval=30000").expect("sample spec"));
    let cell = GridCell {
        workload: by_name_or_err("li").expect("workload"),
        scheme: rvp_core::SchemeSpec::parse("no_predict").expect("scheme"),
    };

    let started = std::time::Instant::now();
    let opts = CellOptions { retries: 1, timeout_secs: 1 };
    let poisoned = match run_one_cell(&runner, &cell, opts) {
        Ok(_) => panic!("a 1s timeout must poison this cell"),
        Err(poisoned) => poisoned,
    };
    assert!(
        poisoned.error.contains("timeout") || poisoned.error.contains("cancel"),
        "poison reason names the timeout: {}",
        poisoned.error
    );
    // Cooperative squash, not the 10s abandon-grace path: every ladder
    // rung (2 at most here) times out at ~1s and joins within a poll.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(15),
        "squash took {:?}; cell ignored its token",
        started.elapsed()
    );

    // The leak assertion: every spawned cell/watchdog thread is joined.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if live_threads() <= baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "thread leak: {} threads at baseline, {} after timed-out cell",
            baseline,
            live_threads()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[test]
fn transient_injected_faults_are_retried_bit_identically() {
    let baseline = common::TempDir::new("chaos-baseline");
    let out = run_grid(baseline.path(), &[], &[]);
    assert!(out.status.success(), "baseline failed: {}", String::from_utf8_lossy(&out.stderr));
    let want = cell_files(baseline.path());
    assert_eq!(want.len() as u64, CELLS);

    // The second cell attempt of the sweep hits an injected transient
    // I/O fault; the containment layer retries it on the same ladder
    // rung and the sweep completes cleanly.
    let chaotic = common::TempDir::new("chaos-transient");
    let out = run_grid(chaotic.path(), &[], &[("RVP_FAIL", "seed=42;grid.cell.run=io@2")]);
    assert!(out.status.success(), "chaotic run failed: {}", String::from_utf8_lossy(&out.stderr));

    let got = cell_files(chaotic.path());
    assert_eq!(got, want, "surviving cells must be bit-identical to the fault-free run");

    let s = summary(chaotic.path());
    assert_eq!(summary_u64(&s, "cells"), CELLS);
    assert_eq!(failures_u64(&s, "count"), 0);
    assert!(failures_u64(&s, "retries") >= 1, "the injected fault must show up as a retry");
    let injected = s.get("failures").and_then(|f| f.get("injected")).expect("injected section");
    assert!(
        injected.get("grid.cell.run").and_then(Json::as_u64) == Some(1),
        "summary must attribute the injected fault to its site: {injected}"
    );
}

#[test]
fn trace_corruption_degrades_bit_identically() {
    let baseline = common::TempDir::new("degrade-baseline");
    let out = run_grid(baseline.path(), &[], &[]);
    assert!(out.status.success(), "baseline failed: {}", String::from_utf8_lossy(&out.stderr));
    let want = cell_files(baseline.path());

    // With the on-disk trace cache enabled, flip a bit in the first
    // frame read back from it: the checksum rejects the frame and the
    // store quarantines the trace and re-captures it — same committed
    // stream, same stats, byte for byte.
    let chaotic = common::TempDir::new("degrade-chaos");
    let traces = chaotic.path().join("traces");
    std::fs::create_dir_all(&traces).expect("trace dir");
    let out = run_grid(
        chaotic.path(),
        &[],
        &[
            ("RVP_FAIL", "seed=5;trace.reader.frame=flip@1"),
            ("RVP_TRACE_DIR", traces.to_str().expect("utf8 path")),
        ],
    );
    assert!(out.status.success(), "degraded run failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        cell_files(chaotic.path()),
        want,
        "cells served through the degradation path must be bit-identical"
    );
    let s = summary(chaotic.path());
    assert_eq!(failures_u64(&s, "count"), 0);
}

#[test]
fn unrecoverable_cell_is_poisoned_and_reported() {
    let dir = common::TempDir::new("chaos-poison");
    // Every attempt of the single cell panics, at every ladder rung.
    let out = run_grid(
        dir.path(),
        &["--workloads", "li", "--schemes", "no_predict"],
        &[("RVP_FAIL", "seed=1;grid.cell.run=panic@1+")],
    );
    assert_eq!(out.status.code(), Some(20), "poisoned sweep must exit 20");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("\"fatal\":true") && stderr.contains("\"exit_code\":20"),
        "fatal diagnostic must be a structured one-liner: {stderr}"
    );

    let s = summary(dir.path());
    assert_eq!(summary_u64(&s, "cells"), 0);
    assert_eq!(failures_u64(&s, "count"), 1);
    let poisoned = s
        .get("failures")
        .and_then(|f| f.get("poisoned"))
        .and_then(Json::as_arr)
        .expect("poisoned list");
    assert_eq!(poisoned.len(), 1);
    let p = &poisoned[0];
    assert_eq!(p.get("cell").and_then(Json::as_str), Some("li/no_predict"));
    assert!(
        p.get("error").and_then(Json::as_str).is_some_and(|e| e.contains("panic")),
        "poisoned record must carry the error: {p}"
    );
    // Both ladder rungs (shared, then live — no trace store) were tried.
    assert!(p.get("attempts").and_then(Json::as_u64) >= Some(2));
}
