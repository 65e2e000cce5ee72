//! Cost-model scheduling end to end: the per-cell wall times a grid
//! records in its summary seed the next run's cost model, and on one
//! worker the cells then run strictly longest-first.

#[allow(dead_code)] // this test needs only part of the shared scaffolding
mod common;

use common::{run_grid, summary, CELLS};
use rvp_core::Json;

/// The cell labels of the per-cell result lines in a grid's stdout, in
/// the order the cells finished.
fn finish_order(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|line| line.starts_with("  ") && line.contains(" ipc "))
        .filter_map(|line| line.split_whitespace().next().map(str::to_owned))
        .collect()
}

#[test]
fn seeded_cell_timings_run_the_next_sweep_longest_first() {
    let dir = common::TempDir::new("schedule");
    let out = run_grid(dir.path(), &[], &[]);
    assert!(out.status.success(), "first run failed: {}", String::from_utf8_lossy(&out.stderr));
    let labels: Vec<String> = summary(dir.path())
        .get("cell_seconds")
        .and_then(Json::as_obj)
        .expect("summary records cell timings")
        .iter()
        .map(|(label, _)| label.clone())
        .collect();
    assert_eq!(labels.len() as u64, CELLS);

    // Overwrite the recorded timings with a permutation that is neither
    // the grid order nor its reverse.
    let seconds = [3.0, 6.0, 1.0, 5.0, 2.0, 4.0];
    let seeded: Vec<(String, Json)> =
        labels.iter().zip(seconds).map(|(label, secs)| (label.clone(), secs.into())).collect();
    let text = Json::obj([("cell_seconds", Json::Obj(seeded))]).to_string();
    std::fs::write(dir.path().join("grid_summary.json"), text).expect("seed the summary");

    let out = run_grid(dir.path(), &[], &[]);
    assert!(out.status.success(), "second run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("schedule: longest-job-first, 6/6 cells from prior timings"),
        "{stdout}"
    );
    let mut want: Vec<(f64, &String)> = seconds.into_iter().zip(&labels).collect();
    want.sort_by(|a, b| b.0.total_cmp(&a.0));
    let want: Vec<&String> = want.into_iter().map(|(_, label)| label).collect();
    let got = finish_order(&out.stdout);
    assert_eq!(got.iter().collect::<Vec<_>>(), want, "cells ran in descending seeded order");
}
