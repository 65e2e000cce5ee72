//! The metrics the benchmark emits, and the one result line it prints.
//!
//! The tables here are the single source of truth for metric names,
//! units and direction; `BENCHMARK.json` must declare exactly these (a
//! unit test holds the two together), and every run must measure every
//! metric of its kind.

use std::collections::BTreeMap;

use rvp_core::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the grid or the daemon sees, measured untraced. Every
/// workload reports all of them; an "operation" is what that user
/// issues — one `rvp-grid` sweep, or one `POST /sweep` request.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("minsts_per_s", "Minst/s", Higher),
    m("peak_rss_mb", "MB", Lower),
];

/// One number per layer from the traced run: the bench-side probe's
/// spans around each layer's public calls on this workload's inputs,
/// the simulated-statistics counts that host-speed work must leave
/// unchanged, and two numbers read off the program's own trace.
pub const PER_LAYER: &[MetricSpec] = &[
    m("emu.minsts_per_s", "Minst/s", Higher),
    m("emu.self_s", "s", Lower),
    m("trace.encode_minsts_per_s", "Minst/s", Higher),
    m("trace.decode_minsts_per_s", "Minst/s", Higher),
    m("trace.bytes_per_inst", "B/inst", Lower),
    m("trace.self_s", "s", Lower),
    m("profile.minsts_per_s", "Minst/s", Higher),
    m("profile.self_s", "s", Lower),
    m("realloc.ms", "ms", Lower),
    m("realloc.self_s", "s", Lower),
    m("uarch.minsts_per_s", "Minst/s", Higher),
    m("uarch.host_ns_per_cycle", "ns", Lower),
    m("uarch.capture_minsts_per_s", "Minst/s", Higher),
    m("uarch.cell_ms_p50", "ms", Lower),
    m("uarch.self_s", "s", Lower),
    m("uarch.ipc_mean", "inst/cycle", Higher),
    m("uarch.cycles", "count", Lower),
    m("uarch.reissued_insts", "count", Lower),
    m("vpred.coverage", "frac", Higher),
    m("vpred.accuracy", "frac", Higher),
    m("bpred.mispredict_rate", "frac", Lower),
    m("mem.dl1_miss_rate", "frac", Lower),
    m("sample.bbv_minsts_per_s", "Minst/s", Higher),
    m("sample.plan_ms", "ms", Lower),
    m("sample.warmup_minsts_per_s", "Minst/s", Higher),
    m("sample.detail_share", "frac", Lower),
    m("sample.plans_built", "count", Lower),
    m("sample.ipc_err_max", "frac", Lower),
    m("sample.self_s", "s", Lower),
    m("core.cell_ms_p50", "ms", Lower),
    m("core.profiles_collected", "count", Lower),
    m("core.trace_captures", "count", Lower),
    m("core.live_fallbacks", "count", Lower),
    m("core.self_s", "s", Lower),
    m("serve.parse_us", "us", Lower),
    m("serve.cache_put_ms", "ms", Lower),
    m("serve.cache_get_us", "us", Lower),
    m("serve.journal_append_ms", "ms", Lower),
    m("serve.wire_ms_p50", "ms", Lower),
    m("serve.wire_ms_mean", "ms", Lower),
    m("serve.self_s", "s", Lower),
    m("probe.wall_s", "s", Lower),
    m("probe.layer_cover_frac", "frac", Higher),
    m("sut.cell_ms_p50", "ms", Lower),
    m("sut.parallel_eff", "frac", Higher),
];

/// The spec of a declared metric.
///
/// # Panics
///
/// Panics on an undeclared name: emitting one is a bug here.
pub fn spec(name: &str) -> MetricSpec {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|s| s.name == name)
        .copied()
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// A measured value and how many samples it summarizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The number, unrounded.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed (non-200s, failed cells, mismatches).
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Workload-specific findings printed for the reader, not the JSON.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one metric (declared names only).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        spec(name);
        self.metrics.insert(name, Value { value, samples });
    }

    /// Counts `n` attempts of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The declared metrics of `kind` this outcome lacks or holds as a
    /// non-finite number.
    pub fn missing(&self, kind: &[MetricSpec]) -> Vec<&'static str> {
        kind.iter()
            .filter(|s| !self.metrics.get(s.name).is_some_and(|v| v.value.is_finite()))
            .map(|s| s.name)
            .collect()
    }

    /// Human-readable lines: every metric of `kind` with its unit and
    /// sample count, then the notes.
    pub fn render(&self, workload: &str, kind: &[MetricSpec]) -> String {
        let mut out = format!("== {workload}\n");
        for s in kind {
            if let Some(v) = self.metrics.get(s.name) {
                out.push_str(&format!(
                    "  {:<28} {:>14.4} {:<10} n={}\n",
                    s.name, v.value, s.unit, v.samples
                ));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        out.push_str(&format!("  attempted {} failed {}\n", self.attempted, self.failed));
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// the metrics of `kind` with their units.
    pub fn result_json(&self, kind: &[MetricSpec]) -> Json {
        let metrics = kind
            .iter()
            .filter_map(|s| {
                let v = self.metrics.get(s.name)?;
                Some((
                    s.name.to_owned(),
                    Json::obj([("value", v.value.into()), ("unit", s.unit.into())]),
                ))
            })
            .collect();
        Json::obj([
            ("correct", (self.failed == 0 && self.missing(kind).is_empty()).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (
                    field("name"),
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let json = manifest();
        let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
            "BENCHMARK.json has exactly the contract's keys"
        );

        let workloads = json.get("workloads").and_then(Json::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()), "2-8 workloads");
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, crate::BENCH_WORKLOADS, "declared workloads are the ones the code runs");
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            assert_eq!(w.as_obj().unwrap().len(), 2, "a workload has exactly name and why");
        }

        let e2e = declared(&json, "end_to_end");
        let layer = declared(&json, "per_layer");
        assert!(e2e.len() <= 16 && layer.len() <= 128);
        let mut seen = HashSet::new();
        for (name, unit, better, _) in e2e.iter().chain(&layer) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name.clone()), "metric {name:?} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
            assert!(better == "lower" || better == "higher");
        }
        for w in &names {
            assert!(valid_name(w) && seen.insert((*w).to_owned()), "workload name {w:?}");
        }

        let better = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
        let as_tuple = |s: &MetricSpec| (s.name.to_owned(), s.unit.to_owned(), better(s.better));
        let got: Vec<_> =
            e2e.iter().map(|(n, u, b, _)| (n.clone(), u.clone(), b.as_str())).collect();
        let want: Vec<_> = END_TO_END.iter().map(as_tuple).collect();
        assert_eq!(got, want, "end_to_end must match what the code emits");
        let got: Vec<_> =
            layer.iter().map(|(n, u, b, _)| (n.clone(), u.clone(), b.as_str())).collect();
        let want: Vec<_> = PER_LAYER.iter().map(as_tuple).collect();
        assert_eq!(got, want, "per_layer must match what the code emits");

        let bounds: Vec<(String, f64)> = e2e
            .iter()
            .map(|(n, _, _, b)| (n.clone(), b.unwrap_or_else(|| panic!("{n} has no bound"))))
            .collect();
        for (name, bound) in &bounds {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound} outside (0, 0.25]");
        }
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").expect("setup_s declared").1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup), "setup_s carries the largest bound");
        for per in json.get("per_layer").and_then(Json::as_arr).unwrap() {
            assert!(per.get("bound").is_none(), "per-layer metrics carry no bound");
        }

        let paths = json.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("rvp-perf"));
        let command: Vec<&str> = json
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_str().unwrap())
            .collect();
        assert_eq!(command, ["bash", "rvp-perf/bench.sh"]);
        let seconds = json.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        out.tally(3, 0);
        for s in END_TO_END {
            out.set(s.name, 1.5, 3);
        }
        let line = out.result_json(END_TO_END);
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(out.missing(PER_LAYER).len() == PER_LAYER.len());

        out.tally(1, 1);
        assert_eq!(out.result_json(END_TO_END).get("correct").and_then(Json::as_bool), Some(false));
    }
}
