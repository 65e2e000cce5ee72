//! A sampled sweep reads no full trace: on the default shared source it
//! prewarms sampling plans and windows, not decoded traces, and its
//! cells are byte-identical to the same sweep on the live source.
//! `live` and `shared` are the only sources `--source` accepts.

#[allow(dead_code)] // this test needs only part of the shared scaffolding
mod common;

use common::{cell_files, run_grid, summary};
use rvp_core::{Json, EXIT_USAGE};

/// One workload, an unmarked, a marked and a reallocated scheme: the
/// three ways a cell's program relates to the base program's plan.
const ARGS: [&str; 6] = [
    "--workloads",
    "li",
    "--schemes",
    "no_predict,srvp_live,drvp_all_realloc",
    "--sample",
    "interval=20000",
];

#[test]
fn sampled_sweep_on_the_shared_source_captures_no_trace() {
    let envs = [("RVP_MEASURE_INSTS", "120000")];
    let shared = common::TempDir::new("sampled-shared");
    let out = run_grid(shared.path(), &ARGS, &envs);
    assert!(out.status.success(), "shared: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sampling plans prewarmed: 1 workloads"), "{stdout}");

    let live = common::TempDir::new("sampled-live");
    let mut args = ARGS.to_vec();
    args.extend(["--source", "live"]);
    let out = run_grid(live.path(), &args, &envs);
    assert!(out.status.success(), "live: {}", String::from_utf8_lossy(&out.stderr));

    let cells = cell_files(shared.path());
    assert_eq!(cells.len(), 3, "{:?}", cells.keys());
    assert_eq!(cells, cell_files(live.path()), "sampled cells must not depend on the source");

    let sampled = summary(shared.path());
    let metrics = sampled.get("metrics").expect("summary metrics");
    assert!(metrics.get("rvp_shared_trace_evicted_total").is_some(), "{metrics}");
    assert_eq!(li_captures(metrics), 0, "a sampled sweep must not capture full traces");

    // The same sweep detailed captures li's trace once, for all cells.
    let detailed = common::TempDir::new("sampled-detailed");
    let out = run_grid(detailed.path(), &ARGS[..4], &envs);
    assert!(out.status.success(), "detailed: {}", String::from_utf8_lossy(&out.stderr));
    let detailed = summary(detailed.path());
    assert_eq!(li_captures(detailed.get("metrics").expect("summary metrics")), 1, "{detailed}");
}

/// li's `rvp_source_captures_total` sample in a summary's `metrics`
/// (0 when the sweep recorded no source tally for li).
fn li_captures(metrics: &Json) -> u64 {
    metrics.get("rvp_source_captures_total{workload=\"li\"}").and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn replay_source_is_a_usage_error() {
    let dir = common::TempDir::new("source-replay");
    let out = run_grid(dir.path(), &["--source", "replay"], &[]);
    assert_eq!(out.status.code(), Some(i32::from(EXIT_USAGE)), "--source replay must be refused");
}
