//! The one metrics path: every counter in the process leaves it as a
//! registry sample ([`Metric`]: name, labels, value).
//!
//! Subsystems register a collector closure — the daemon's
//! [`ServeMetrics`], the runner's source tallies and evictions, the
//! result cache's evictions, `rvp-fail`'s fired-site counters — and one
//! gather renders them all, as Prometheus text
//! ([`MetricsRegistry::to_prometheus`], `/metrics?format=prom`) or as a
//! JSON object keyed `name{labels}` ([`MetricsRegistry::to_json`],
//! `/metrics` and the grid summary's `metrics`). Collectors read relaxed
//! atomics, so gathering is cheap and a slightly torn reading is
//! acceptable (monitoring, not accounting).
//!
//! [`ServeMetrics`]: crate::ServeMetrics

use std::fmt::Write as _;
use std::sync::Mutex;

use rvp_json::Json;

/// What kind of time series a metric is, for the Prometheus `# TYPE`
/// comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing (resets only on restart).
    Counter,
    /// Goes up and down (queue depth, hit rate).
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One gathered sample.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Prometheus-style snake_case name, e.g. `rvp_serve_requests_total`.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs rendered as `{k="v"}`; empty for plain metrics.
    pub labels: Vec<(&'static str, String)>,
    /// The sample. Counters should hold integral values.
    pub value: f64,
}

impl Metric {
    /// An unlabelled counter sample.
    pub fn counter(name: &'static str, value: u64) -> Metric {
        Metric { name, kind: MetricKind::Counter, labels: Vec::new(), value: value as f64 }
    }

    /// An unlabelled gauge sample.
    pub fn gauge(name: &'static str, value: f64) -> Metric {
        Metric { name, kind: MetricKind::Gauge, labels: Vec::new(), value }
    }

    /// Adds one label pair.
    pub fn with_label(mut self, key: &'static str, value: impl Into<String>) -> Metric {
        self.labels.push((key, value.into()));
        self
    }

    /// The sample's series key, `name{k="v",...}` (just `name` when
    /// unlabelled), label values escaped per the exposition format: the
    /// Prometheus line's left-hand side and the JSON object's key.
    pub fn key(&self) -> String {
        let mut key = self.name.to_owned();
        if !self.labels.is_empty() {
            key.push('{');
            for (i, (name, value)) in self.labels.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                let _ = write!(key, "{name}=\"{}\"", escape_label(value));
            }
            key.push('}');
        }
        key
    }
}

type Collector = Box<dyn Fn() -> Vec<Metric> + Send + Sync>;

/// A pull-model registry: collectors registered once at wiring time,
/// gathered on every exposition.
#[derive(Default)]
pub struct MetricsRegistry {
    collectors: Mutex<Vec<Collector>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.collectors.lock().map(|c| c.len()).unwrap_or(0);
        f.debug_struct("MetricsRegistry").field("collectors", &n).finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers one collector; its metrics appear in every subsequent
    /// gather, in registration order.
    pub fn register(&self, collect: impl Fn() -> Vec<Metric> + Send + Sync + 'static) {
        self.collectors.lock().unwrap().push(Box::new(collect));
    }

    /// Runs every collector and concatenates the samples.
    pub fn gather(&self) -> Vec<Metric> {
        self.collectors.lock().unwrap().iter().flat_map(|c| c()).collect()
    }

    /// Prometheus text exposition (format version 0.0.4): a `# TYPE`
    /// comment per metric name followed by its samples.
    pub fn to_prometheus(&self) -> String {
        let metrics = self.gather();
        let mut out = String::new();
        let mut typed: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for metric in &metrics {
            if typed.insert(metric.name) {
                let _ = writeln!(out, "# TYPE {} {}", metric.name, metric.kind.as_str());
            }
            out.push_str(&metric.key());
            if metric.value.fract() == 0.0 && metric.value.abs() < 1e15 {
                let _ = writeln!(out, " {}", metric.value as i64);
            } else {
                let _ = writeln!(out, " {}", metric.value);
            }
        }
        out
    }

    /// The same gather as a JSON object, [`Metric::key`]s as keys.
    pub fn to_json(&self) -> Json {
        let pairs = self
            .gather()
            .into_iter()
            .map(|metric| {
                let value = if metric.value.fract() == 0.0 && metric.value >= 0.0 {
                    Json::from(metric.value as u64)
                } else {
                    Json::from(metric.value)
                };
                (metric.key(), value)
            })
            .collect();
        Json::Obj(pairs)
    }
}

/// Escapes a label value per the exposition format: backslash, quote
/// and newline.
fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_exposition_types_labels_and_values() {
        let registry = MetricsRegistry::new();
        registry.register(|| {
            vec![
                Metric::counter("rvp_test_total", 3),
                Metric::counter("rvp_sites_total", 1).with_label("site", "grid.cell.run"),
                Metric::counter("rvp_sites_total", 2).with_label("site", "trace.store.open"),
                Metric::gauge("rvp_rate", 0.75),
            ]
        });
        let text = registry.to_prometheus();
        assert!(text.contains("# TYPE rvp_test_total counter\n"), "{text}");
        assert!(text.contains("rvp_test_total 3\n"), "{text}");
        // One TYPE line even with two labelled samples.
        assert_eq!(text.matches("# TYPE rvp_sites_total").count(), 1, "{text}");
        assert!(text.contains("rvp_sites_total{site=\"grid.cell.run\"} 1\n"), "{text}");
        assert!(text.contains("rvp_rate 0.75\n"), "{text}");
        let json = registry.to_json();
        assert_eq!(json.get("rvp_test_total").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn json_and_prometheus_render_one_gather_alike() {
        let registry = MetricsRegistry::new();
        registry.register(|| {
            vec![
                Metric::counter("rvp_test_total", 7),
                Metric::gauge("rvp_rate", 0.375),
                Metric::gauge("rvp_lag", -2.0),
                Metric::gauge("rvp_odd", 1.0).with_label("path", "a\"b\\c"),
                Metric::counter("rvp_sites_total", 2)
                    .with_label("site", "x")
                    .with_label("kind", "io"),
            ]
        });
        let prom = registry.to_prometheus();
        let lines: Vec<(&str, f64)> = prom
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let (key, value) = l.rsplit_once(' ').unwrap();
                (key, value.parse().unwrap())
            })
            .collect();
        let json = registry.to_json();
        let pairs = json.as_obj().unwrap();
        assert_eq!(pairs.len(), lines.len(), "{prom}");
        for ((key, value), (line_key, line_value)) in pairs.iter().zip(&lines) {
            assert_eq!(key, line_key, "{prom}");
            assert_eq!(value.as_f64(), Some(*line_value), "{key}");
        }
        assert!(prom.contains("rvp_sites_total{site=\"x\",kind=\"io\"} 2\n"), "{prom}");
    }

    #[test]
    fn collectors_gather_in_registration_order() {
        let registry = MetricsRegistry::new();
        registry.register(|| vec![Metric::counter("first_total", 1)]);
        registry.register(|| vec![Metric::counter("second_total", 2)]);
        let names: Vec<&str> = registry.gather().iter().map(|m| m.name).collect();
        assert_eq!(names, ["first_total", "second_total"]);
    }
}
