//! Golden-cell bit-identity: the registry refactor's contract with the
//! past. Every paper scheme's cell JSON — stats, CPI stack, the lot —
//! must match the fixtures captured from the pre-registry enum
//! implementation byte for byte, on a register-heavy workload (`li`)
//! and a memory-heavy one (`go`).
//!
//! Fixtures live in `tests/fixtures/golden_cells/<workload>-<label>.json`
//! and were produced with `RVP_MEASURE_INSTS=60000`,
//! `RVP_PROFILE_INSTS=120000` and `Runner` defaults otherwise. To
//! regenerate after an *intentional* modelling change, delete the
//! fixture files and rerun this test with `RVP_BLESS_GOLDEN=1`.
//!
//! `tests/fixtures/golden_reissue/` holds the same grid under
//! [`Recovery::Reissue`] (the default runs selective recovery), so the
//! reissue queue-slot release path is pinned too. It is a directory of
//! its own: the benchmark re-checks `golden_cells/` as exactly the 30
//! selective cells.

use std::path::PathBuf;

use rvp_core::{by_name, paper_schemes, Recovery, Runner, ToJson};

fn fixture_dir() -> PathBuf {
    fixtures("golden_cells")
}

fn fixtures(set: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures").join(set)
}

#[test]
fn paper_scheme_cells_are_bit_identical_to_the_fixtures() {
    check_fixtures("golden_cells", Recovery::Selective);
}

#[test]
fn reissue_cells_are_bit_identical_to_the_fixtures() {
    check_fixtures("golden_reissue", Recovery::Reissue);
}

/// Runs li and go × the 15 paper schemes under `recovery` at the
/// fixture budgets and compares each cell's JSON with `set`'s file.
fn check_fixtures(set: &str, recovery: Recovery) {
    let runner =
        Runner { measure_insts: 60_000, profile_insts: 120_000, recovery, ..Runner::default() };
    let bless = std::env::var_os("RVP_BLESS_GOLDEN").is_some();
    let mut mismatches = Vec::new();

    for workload in ["li", "go"] {
        let wl = by_name(workload).expect("workload exists");
        for scheme in &paper_schemes() {
            let result = runner.run(&wl, scheme).expect("cell runs");
            let got = format!("{}\n", result.to_json());
            let path = fixtures(set).join(format!("{workload}-{}.json", scheme.label()));
            if bless && !path.exists() {
                std::fs::write(&path, &got).expect("write fixture");
                continue;
            }
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
            if got != want {
                mismatches.push(format!("{workload}/{}", scheme.label()));
            }
        }
    }

    assert!(
        mismatches.is_empty(),
        "cell JSON drifted from the {set} fixtures: {}",
        mismatches.join(", ")
    );
}

#[test]
fn fixture_set_covers_exactly_the_paper_grid() {
    let schemes = paper_schemes();
    assert_eq!(schemes.len(), 15, "the paper evaluates 15 schemes");
    let mut expected: Vec<String> = Vec::new();
    for workload in ["li", "go"] {
        for scheme in &schemes {
            expected.push(format!("{workload}-{}.json", scheme.label()));
        }
    }
    expected.sort();
    for dir in [fixture_dir(), fixtures("golden_reissue")] {
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("fixture dir exists")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        on_disk.sort();
        assert_eq!(on_disk, expected, "{}: files must match the paper grid", dir.display());
    }
}
