//! Server-side metrics for the `rvp-serve` daemon: request/queue/cache
//! counters and a lock-free latency histogram. They leave the process
//! only as registry samples ([`ServeMetrics::metrics`]), gathered at
//! `/metrics` with every other collector and rendered by `rvp-report`.
//!
//! Everything here is a relaxed atomic — handler threads bump counters
//! concurrently with zero coordination, and a snapshot read is allowed
//! to be slightly torn (it is monitoring data, not accounting).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::Metric;

/// Power-of-two-bucketed latency histogram in microseconds.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` microseconds (bucket 0
/// covers `[0, 2)`), which spans 1 µs to ~9 minutes in 40 buckets —
/// coarse (quantiles are read off bucket upper edges, so at most 2x
/// off) but constant-size, allocation-free and mergeable, which is
/// what a per-request hot path wants.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Number of power-of-two buckets.
    pub const BUCKETS: usize = 40;

    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = (63 - u64::leading_zeros(us.max(1)) as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds, read off the
    /// upper edge of the bucket holding the rank-`ceil(q*count)`
    /// sample — an upper bound, never an underestimate. Returns 0 for
    /// an empty histogram; the top bucket reports the true maximum.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let upper = if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return upper.min(self.max_us());
            }
        }
        self.max_us()
    }
}

/// The serve daemon's operational counters, shared (behind an `Arc`)
/// by every handler thread, the sim worker pool and the `/metrics`
/// endpoint.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// HTTP requests handled (any method, any outcome).
    pub requests: AtomicU64,
    /// Requests rejected with 4xx (bad method/path/body).
    pub client_errors: AtomicU64,
    /// Requests that failed with 5xx (injected or real server faults).
    pub server_errors: AtomicU64,
    /// Sweeps rejected with 429 because the admission queue was full.
    pub rejected: AtomicU64,
    /// Sweep jobs admitted (journaled and scheduled).
    pub jobs_submitted: AtomicU64,
    /// Sweep jobs fully completed.
    pub jobs_completed: AtomicU64,
    /// Jobs re-enqueued from the journal after a daemon restart.
    pub jobs_resumed: AtomicU64,
    /// Cells answered from the content-addressed result cache.
    pub cache_hits: AtomicU64,
    /// Cells that had to be simulated.
    pub cache_misses: AtomicU64,
    /// Cells simulated to completion.
    pub cells_computed: AtomicU64,
    /// Cells that failed (contained; reported per-request, never fatal).
    pub cells_failed: AtomicU64,
    /// Jobs cancelled by the client (`DELETE /jobs/<id>`).
    pub jobs_cancelled: AtomicU64,
    /// In-flight cells squashed cooperatively (deadline, cancel, drain).
    pub cells_cancelled: AtomicU64,
    /// Sweeps shed with 429 by the overload governor (queue-delay EWMA
    /// over target while the queue was backed up).
    pub shed: AtomicU64,
    /// Drains initiated (SIGTERM or `POST /shutdown`); idempotent
    /// repeats are not counted.
    pub drains: AtomicU64,
    /// Connections answered 408 after stalling mid-request (slowloris).
    pub request_timeouts: AtomicU64,
    /// Waiting clients that disconnected before their job finished.
    pub client_disconnects: AtomicU64,
    /// EWMA of queue wait (enqueue to worker pickup), microseconds —
    /// the signal the overload governor sheds on.
    pub queue_delay_ewma_us: AtomicU64,
    /// Cells currently queued or running.
    pub queue_depth: AtomicU64,
    /// High-water mark of [`ServeMetrics::queue_depth`].
    pub queue_peak: AtomicU64,
    /// End-to-end request latency (request read to response written).
    pub request_latency: LatencyHistogram,
}

impl ServeMetrics {
    /// A zeroed metrics block.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Bumps the queue depth, maintaining the high-water mark.
    pub fn queue_enter(&self, cells: u64) {
        let depth = self.queue_depth.fetch_add(cells, Ordering::Relaxed) + cells;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Drops the queue depth as cells finish.
    pub fn queue_exit(&self, cells: u64) {
        self.queue_depth.fetch_sub(cells, Ordering::Relaxed);
    }

    /// Folds one measured queue wait into the shedding EWMA
    /// (`new = 0.7*old + 0.3*sample`; the first sample seeds it). A
    /// torn read/write race only smears monitoring data, so plain
    /// relaxed load/store is fine.
    pub fn observe_queue_delay(&self, us: u64) {
        let old = self.queue_delay_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old * 7 + us * 3) / 10 };
        self.queue_delay_ewma_us.store(new, Ordering::Relaxed);
    }

    /// The counters as registry samples, for the unified
    /// [`MetricsRegistry`](crate::MetricsRegistry) / Prometheus
    /// exposition. Names follow Prometheus conventions
    /// (`rvp_serve_*_total` counters, `rvp_serve_*` gauges).
    pub fn metrics(&self) -> Vec<Metric> {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let latency = &self.request_latency;
        vec![
            Metric::counter("rvp_serve_requests_total", get(&self.requests)),
            Metric::counter("rvp_serve_client_errors_total", get(&self.client_errors)),
            Metric::counter("rvp_serve_server_errors_total", get(&self.server_errors)),
            Metric::counter("rvp_serve_rejected_total", get(&self.rejected)),
            Metric::counter("rvp_serve_jobs_submitted_total", get(&self.jobs_submitted)),
            Metric::counter("rvp_serve_jobs_completed_total", get(&self.jobs_completed)),
            Metric::counter("rvp_serve_jobs_resumed_total", get(&self.jobs_resumed)),
            Metric::counter("rvp_serve_cache_hits_total", get(&self.cache_hits)),
            Metric::counter("rvp_serve_cache_misses_total", get(&self.cache_misses)),
            Metric::gauge("rvp_serve_cache_hit_rate", self.cache_hit_rate()),
            Metric::counter("rvp_serve_cells_computed_total", get(&self.cells_computed)),
            Metric::counter("rvp_serve_cells_failed_total", get(&self.cells_failed)),
            Metric::counter("rvp_serve_jobs_cancelled_total", get(&self.jobs_cancelled)),
            Metric::counter("rvp_serve_cells_cancelled_total", get(&self.cells_cancelled)),
            Metric::counter("rvp_serve_shed_total", get(&self.shed)),
            Metric::counter("rvp_serve_drains_total", get(&self.drains)),
            Metric::counter("rvp_serve_request_timeouts_total", get(&self.request_timeouts)),
            Metric::counter("rvp_serve_client_disconnects_total", get(&self.client_disconnects)),
            Metric::gauge("rvp_serve_queue_delay_ewma_us", get(&self.queue_delay_ewma_us) as f64),
            Metric::gauge("rvp_serve_queue_depth", get(&self.queue_depth) as f64),
            Metric::gauge("rvp_serve_queue_peak", get(&self.queue_peak) as f64),
            Metric::counter("rvp_serve_request_latency_count", latency.count()),
            Metric::gauge("rvp_serve_request_latency_us", latency.quantile_us(0.50) as f64)
                .with_label("quantile", "0.5"),
            Metric::gauge("rvp_serve_request_latency_us", latency.quantile_us(0.90) as f64)
                .with_label("quantile", "0.9"),
            Metric::gauge("rvp_serve_request_latency_us", latency.quantile_us(0.99) as f64)
                .with_label("quantile", "0.99"),
            Metric::gauge("rvp_serve_request_latency_max_us", latency.max_us() as f64),
        ]
    }

    /// Fraction of cell lookups served from the cache (0 when idle).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let total = hits + self.cache_misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.99), 0, "empty histogram");
        // 90 fast samples at 100us, 10 slow at 100_000us.
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..10 {
            h.record_us(100_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_us(), 100_000);
        // p50 lands in the [64,128) bucket; the upper-edge estimate may
        // overstate but never by more than 2x, and never understates.
        let p50 = h.quantile_us(0.50);
        assert!((100..=127).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((100_000..=131_071).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn metrics_queue_and_hit_rate() {
        let m = ServeMetrics::new();
        m.queue_enter(6);
        m.queue_enter(4);
        m.queue_exit(8);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 2);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 10);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        assert!((m.cache_hit_rate() - 0.75).abs() < 1e-12);
        let samples = m.metrics();
        let peak = samples.iter().find(|s| s.name == "rvp_serve_queue_peak").unwrap();
        assert_eq!(peak.value, 10.0);
        assert!(samples.iter().any(|s| s.name == "rvp_serve_request_latency_count"));
    }
}
