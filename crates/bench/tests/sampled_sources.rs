//! A sampled sweep reads no full trace: on the default shared source it
//! prewarms sampling plans and windows, not decoded traces, and its
//! cells are byte-identical to the same sweep on the live source.

#[allow(dead_code)] // this test needs only part of the shared scaffolding
mod common;

use common::{cell_files, run_grid, summary};
use rvp_core::Json;

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

    let summary = summary(shared.path());
    let sources = summary.get("trace_sources").and_then(Json::as_obj).expect("trace_sources");
    let captures: u64 = sources
        .iter()
        .map(|(_, tally)| tally.get("captures").and_then(Json::as_u64).expect("captures"))
        .sum();
    assert_eq!(captures, 0, "a sampled sweep must not capture full traces");
}
