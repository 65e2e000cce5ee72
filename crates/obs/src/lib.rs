//! Observability layer for the RVP reproduction.
//!
//! Seven pieces, designed so that the simulator's hot loop pays nothing
//! when they are off:
//!
//! 1. **Cycle accounting** ([`CpiStack`], [`CpiBucket`]) — the timing
//!    simulator charges every cycle to exactly one bucket, so the stack
//!    sums to total cycles by construction. Always on (O(1) per cycle).
//! 2. **Windowed time-series sampling** ([`Sampler`],
//!    [`WindowSample`]) — per-N-cycle counter deltas in a bounded
//!    ring; shows warm-up vs. steady state. Gated by [`ObsConfig`].
//! 3. **Per-PC predictor telemetry** ([`PcTable`], [`PcEntry`]) —
//!    which static instructions a scheme wins and loses on, as top-K
//!    tables in the final [`ObsReport`]. Gated by [`ObsConfig`].
//! 4. **A structured log facade** ([`log`]) — leveled JSON-lines
//!    events filtered by `RVP_LOG`, written to stderr or
//!    `RVP_LOG_FILE`.
//! 5. **Server-side metrics** ([`ServeMetrics`], [`LatencyHistogram`])
//!    — lock-free request/queue/cache counters and a power-of-two
//!    latency histogram for the `rvp-serve` daemon, exported as one
//!    [`MetricsRegistry`] collector.
//! 6. **Span tracing** ([`span`], the [`span!`] macro) — hierarchical
//!    wall-clock spans across serve → grid → cell → simulator, with
//!    Chrome trace-event (Perfetto) and folded-stack exporters.
//!    Disarmed cost is one relaxed atomic load.
//! 7. **A unified metrics registry** ([`MetricsRegistry`]) — one pull
//!    model over every counter in the process, the only form in which
//!    any leaves it (Prometheus text or `name{labels}`-keyed JSON); and
//!    the mockable monotonic [`Clock`] everything above stamps time
//!    with.

pub mod cancel;
pub mod clock;
mod config;
mod cpi;
pub mod log;
mod pcstats;
mod registry;
mod report;
mod sample;
mod serve_metrics;
pub mod span;

pub use cancel::{CancelReason, CancelToken};
pub use clock::Clock;
pub use config::ObsConfig;
pub use cpi::{CpiBucket, CpiStack};
pub use pcstats::{PcEntry, PcTable};
pub use registry::{Metric, MetricKind, MetricsRegistry};
pub use report::ObsReport;
pub use sample::{CounterSnapshot, Sampler, WindowSample};
pub use serve_metrics::{LatencyHistogram, ServeMetrics};
pub use span::{SpanGuard, SpanRecord, TraceData};
