//! `rvp-serve`: the RVP simulator as a long-running service.
//!
//! A dependency-free HTTP/1.1 + JSON daemon that accepts sweep
//! requests (workload × scheme × recovery × budget overrides),
//! validates them, and schedules their cells on a worker pool using
//! the grid runner's cost-model (longest-cell-first) scheduling and
//! containment stack. Three properties define the design:
//!
//! * **Durability** — a sweep is journaled (checksummed, fsynced)
//!   before it is acknowledged; a killed daemon resumes in-flight
//!   sweeps on restart ([`journal`]).
//! * **Content addressing** — every cell result is kept in the cell
//!   store `rvp-grid` keeps its cells in ([`ResultCache`], keyed by
//!   `Runner::cell_key` and checksummed), so repeat queries are answered
//!   without simulating, a resumed sweep re-runs only what the kill
//!   interrupted, and an entry damaged on disk is re-simulated, never
//!   served.
//! * **Containment** — cells run behind `catch_unwind` and transient
//!   retries; failures surface as structured JSON in the affected
//!   response, never as a dead daemon ([`server`]).
//!
//! Every counter — the daemon's, the runner's, the result cache's and
//! the failpoints' — is a collector of one `MetricsRegistry`, and
//! `GET /metrics` renders its gather as `name{labels}`-keyed JSON
//! (`?format=prom` as Prometheus text).
//!
//! `rvp-perf` (its own package at the repository root) measures the
//! daemon under load from outside.

pub mod http;
pub mod journal;
pub mod server;
pub mod spec;

pub use journal::JobJournal;
pub use rvp_bench::cache::ResultCache;
pub use server::{start, CellOutcome, Job, ServeConfig, ServerHandle};
pub use spec::SweepSpec;
