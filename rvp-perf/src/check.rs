//! Correctness checks: the golden cells, the blessed per-cell digests
//! of both grids, and the detailed reference IPCs the sampled grid is
//! judged against.
//!
//! `expected.json` is compiled in. `rvp-perf bless` regenerates it from
//! the current simulator, so run it only after an intentional model
//! change: a speed change must leave every simulated statistic
//! bit-identical.

use std::collections::BTreeMap;
use std::path::Path;

use rvp_core::{by_name, fnv1a, paper_schemes, Json, Runner, ToJson};

/// The blessed expectations, as compiled in.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `bless` writes the expectations.
pub const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

/// FNV-1a of a cell's `stats` object as serialized by `rvp-json`: equal
/// digests mean bit-identical simulated statistics.
pub fn stats_digest(cell: &Json) -> Option<u64> {
    cell.get("stats").map(|stats| fnv1a(stats.to_string().as_bytes()))
}

/// The blessed expectations of one grid workload.
#[derive(Debug, Default)]
pub struct GridExpectation {
    /// The grid configuration they were blessed under.
    pub config: Option<Json>,
    /// Cell file stem (`<workload>-<scheme>`) to stats digest.
    pub digests: BTreeMap<String, u64>,
    /// Cell file stem to detailed IPC (sampled grid only).
    pub reference_ipc: BTreeMap<String, f64>,
}

impl GridExpectation {
    /// The compiled-in expectation for `workload` (empty when absent).
    pub fn load(workload: &str) -> GridExpectation {
        let Ok(json) = Json::parse(EXPECTED) else { return GridExpectation::default() };
        let Some(entry) = json.get(workload) else { return GridExpectation::default() };
        let pairs = |key: &str| entry.get(key).and_then(Json::as_obj).unwrap_or(&[]).to_vec();
        GridExpectation {
            config: entry.get("config").cloned(),
            digests: pairs("digests")
                .into_iter()
                .filter_map(|(k, v)| Some((k, u64::from_str_radix(v.as_str()?, 16).ok()?)))
                .collect(),
            reference_ipc: pairs("reference_ipc")
                .into_iter()
                .filter_map(|(k, v)| Some((k, v.as_f64()?)))
                .collect(),
        }
    }

    /// The JSON `bless` writes, one cell per line so a re-bless diffs
    /// cell by cell.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        if let Some(config) = &self.config {
            out.push_str(&format!("    \"config\": {config},\n"));
        }
        let block =
            |entries: Vec<String>| format!("{{\n      {}\n    }}", entries.join(",\n      "));
        out.push_str(&format!(
            "    \"digests\": {}",
            block(self.digests.iter().map(|(k, v)| format!("\"{k}\": \"{v:016x}\"")).collect())
        ));
        if !self.reference_ipc.is_empty() {
            out.push_str(&format!(
                ",\n    \"reference_ipc\": {}",
                block(
                    self.reference_ipc
                        .iter()
                        .map(|(k, v)| format!("\"{k}\": {}", Json::from(*v)))
                        .collect()
                )
            ));
        }
        out.push_str("\n  }");
        out
    }
}

/// Writes `expected.json` from the given grid expectations.
///
/// # Errors
///
/// Returns the write error.
pub fn write_expected(grids: &[(&str, GridExpectation)]) -> std::io::Result<()> {
    let body: Vec<String> =
        grids.iter().map(|(name, e)| format!("  \"{name}\": {}", e.render())).collect();
    std::fs::write(EXPECTED_PATH, format!("{{\n{}\n}}\n", body.join(",\n")))
}

/// Re-runs the 30 golden cells (two workloads × the 15 paper schemes,
/// at the budgets the fixtures were captured with) and compares each
/// cell's JSON with its fixture byte for byte. Returns the labels that
/// differ or could not be run.
pub fn golden_mismatches(root: &Path) -> Vec<String> {
    let dir = root.join("tests/fixtures/golden_cells");
    let runner =
        Runner { measure_insts: 60_000, profile_insts: 120_000, traces: None, ..Runner::default() };
    let mut bad = Vec::new();
    for workload in ["li", "go"] {
        let wl = by_name(workload).expect("golden workloads exist");
        for scheme in &paper_schemes() {
            let label = format!("{workload}-{}", scheme.label());
            let want = std::fs::read_to_string(dir.join(format!("{label}.json")));
            let got = runner.run(&wl, scheme).map(|r| format!("{}\n", r.to_json()));
            match (want, got) {
                (Ok(want), Ok(got)) if want == got => {}
                _ => bad.push(label),
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_only_the_stats_object() {
        let a = Json::parse(r#"{"workload":"li","stats":{"cycles":10,"ipc":1.5}}"#).unwrap();
        let b = Json::parse(r#"{"workload":"go","stats":{"cycles":10,"ipc":1.5}}"#).unwrap();
        let c = Json::parse(r#"{"workload":"li","stats":{"cycles":11,"ipc":1.5}}"#).unwrap();
        assert_eq!(stats_digest(&a), stats_digest(&b));
        assert_ne!(stats_digest(&a), stats_digest(&c));
        assert_eq!(stats_digest(&Json::parse("{}").unwrap()), None);
    }

    #[test]
    fn rendered_expectations_load_back() {
        let mut e = GridExpectation {
            config: Some(Json::obj([("scale", 8u64.into())])),
            ..GridExpectation::default()
        };
        e.digests.insert("li-lvp".into(), 0xdead_beef);
        e.reference_ipc.insert("li-no_predict".into(), 1.234_567_890_123);
        let text = format!("{{\n  \"grid-x\": {}\n}}\n", e.render());
        let json = Json::parse(&text).expect("rendered expectations parse");
        let entry = json.get("grid-x").unwrap();
        assert_eq!(
            entry.get("digests").unwrap().get("li-lvp").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        assert_eq!(
            entry.get("reference_ipc").unwrap().get("li-no_predict").unwrap().as_f64(),
            Some(1.234_567_890_123)
        );
    }

    #[test]
    fn compiled_in_expectations_cover_both_grids() {
        let detailed = GridExpectation::load("grid-detailed");
        assert_eq!(detailed.digests.len(), 135);
        let sampled = GridExpectation::load("grid-sampled");
        assert_eq!(sampled.digests.len(), 135);
        assert_eq!(sampled.reference_ipc.len(), 18);
        assert!(detailed.config.is_some() && sampled.config.is_some());
    }
}
