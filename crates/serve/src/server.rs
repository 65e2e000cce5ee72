//! The daemon: listener, handler threads, durable job queue and the
//! HTTP API, running its cells on the shared executor.
//!
//! # Request lifecycle
//!
//! ```text
//! POST /sweep
//!   parse + validate          -> 400 on anything malformed
//!   per-cell cache lookup     -> hits answered without simulating
//!   admission check           -> 429 + Retry-After when the queue is full
//!   journal append (fsync)    -> 503 if the job cannot be made durable
//!   submit misses             -> executor: longest-estimated-cell-first, single-flight
//!   wait=true  -> block until done, 200 with per-cell results
//!   wait=false -> 202 {"job": id}, poll GET /jobs/<id>
//! ```
//!
//! A killed daemon restarts by replaying the journal: pending jobs are
//! re-submitted, their finished cells hit the content-addressed cache
//! (bit-identical bytes), and only the interrupted remainder
//! re-simulates.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use rvp_bench::executor::{CostModel, Executor};
use rvp_bench::grid::{run_one_cell, CellOptions, CellRun, GridCell, PoisonedCell};
use rvp_core::Runner;
use rvp_json::{Json, ToJson};
use rvp_obs::{log, span, CancelToken, Clock, Metric, MetricsRegistry, ServeMetrics};
use rvp_trace::TraceStore;

use crate::cache::ResultCache;
use crate::http::{read_request, write_json_response, write_text_response, HttpError, Request};
use crate::journal::JobJournal;
use crate::spec::SweepSpec;

/// Daemon configuration (CLI flags map 1:1 onto these).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7341` (`:0` picks a free port).
    pub addr: String,
    /// State directory: journal, result cache, cell files, trace store.
    pub state_dir: PathBuf,
    /// Simulation worker threads.
    pub workers: usize,
    /// Admission bound: maximum queued-or-running cells. A sweep whose
    /// misses would push past this is rejected with 429.
    pub max_queue: usize,
    /// Maximum concurrent connections; beyond it, accepts are answered
    /// 503 immediately instead of piling up handler threads.
    pub max_connections: usize,
    /// Per-cell transient-failure retries (see [`CellOptions`]).
    pub retries: u32,
    /// Default per-job deadline in seconds (`0` = none). A request can
    /// only tighten it (`deadline_ms` in the sweep body); a job over
    /// deadline has its in-flight cells cooperatively squashed.
    pub deadline_secs: u64,
    /// Graceful-drain window in seconds: how long SIGTERM or
    /// `POST /shutdown` lets in-flight jobs finish before squashing
    /// the survivors (their journal records stay pending for resume).
    pub drain_secs: u64,
    /// Overload shedding threshold: when the queue-wait EWMA exceeds
    /// this many milliseconds *and* the queue is deeper than the worker
    /// pool, new sweeps are shed with 429 (`0` = disabled).
    pub shed_delay_ms: u64,
    /// Result-cache disk budget in bytes (`0` = unlimited); beyond it,
    /// least-recently-used entries are evicted after each write.
    pub cache_budget_bytes: u64,
    /// Trace-store disk budget in bytes (`0` = unlimited).
    pub trace_budget_bytes: u64,
    /// Socket read timeout in seconds: a client that stalls mid-request
    /// this long gets a 408; an idle keep-alive connection is reaped
    /// silently (the slowloris guard).
    pub read_timeout_secs: u64,
}

impl ServeConfig {
    /// Defaults for everything but the address and state directory.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            state_dir: state_dir.into(),
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_queue: 1024,
            max_connections: 2048,
            retries: 2,
            deadline_secs: 0,
            drain_secs: 30,
            shed_delay_ms: 0,
            cache_budget_bytes: 0,
            trace_budget_bytes: 0,
            read_timeout_secs: 10,
        }
    }
}

/// How one cell of a job ended.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// Result JSON (one line, trailing newline), and whether it came
    /// from the cache rather than a fresh simulation.
    Done {
        /// The cell JSON bytes, shared with the cache.
        text: Arc<str>,
        /// Served from the result cache.
        cached: bool,
    },
    /// The cell failed every containment rung; the error is reported
    /// in-band and the rest of the sweep is unaffected.
    Failed {
        /// Human-readable failure description.
        error: String,
    },
}

#[derive(Debug)]
struct CellSlot {
    label: String,
    fingerprint: u64,
    outcome: Option<CellOutcome>,
}

#[derive(Debug)]
struct JobState {
    cells: Vec<CellSlot>,
    remaining: usize,
}

/// One admitted sweep.
#[derive(Debug)]
pub struct Job {
    /// Stable id, also across daemon restarts (journaled).
    pub id: u64,
    /// Fired when the job is aborted (`DELETE /jobs/<id>`, client
    /// disconnect) or, as a child of the daemon's root token, drained;
    /// sticky, first reason wins.
    pub cancel: CancelToken,
    state: Mutex<JobState>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, slots: Vec<CellSlot>, cancel: CancelToken) -> Job {
        let remaining = slots.iter().filter(|s| s.outcome.is_none()).count();
        Job {
            id,
            cancel,
            state: Mutex::new(JobState { cells: slots, remaining }),
            cv: Condvar::new(),
        }
    }

    /// Fills one cell; returns true when this completed the job.
    /// Deliberately does NOT wake waiters — the worker journals the
    /// completion first, so a client's 200 can never outrun the done
    /// record's fsync. Call [`Job::notify_done`] afterwards.
    fn fill(&self, idx: usize, outcome: CellOutcome) -> bool {
        let mut state = self.state.lock().unwrap();
        let slot = &mut state.cells[idx];
        if slot.outcome.is_some() {
            return false;
        }
        slot.outcome = Some(outcome);
        state.remaining -= 1;
        state.remaining == 0
    }

    /// Wakes everyone blocked in [`Job::wait`].
    fn notify_done(&self) {
        self.cv.notify_all();
    }

    /// Whether every cell has an outcome.
    pub fn is_done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }

    /// Blocks until the job completes.
    pub fn wait(&self) {
        let mut state = self.state.lock().unwrap();
        while state.remaining > 0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    /// Blocks for at most `timeout`; returns whether the job is done.
    /// Handlers use short slices of this so they can interleave
    /// client-disconnect and drain checks with the wait.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let state = self.state.lock().unwrap();
        if state.remaining == 0 {
            return true;
        }
        let (state, _timed_out) = self.cv.wait_timeout(state, timeout).unwrap();
        state.remaining == 0
    }

    /// The job as the API reports it.
    pub fn to_json(&self) -> Json {
        let state = self.state.lock().unwrap();
        let mut cached = 0u64;
        let mut computed = 0u64;
        let mut failed = 0u64;
        let cells: Vec<Json> = state
            .cells
            .iter()
            .map(|slot| {
                let base = [
                    ("label", Json::from(slot.label.as_str())),
                    ("fingerprint", format!("{:016x}", slot.fingerprint).into()),
                ];
                match &slot.outcome {
                    None => Json::obj(base.into_iter().chain([("status", "pending".into())])),
                    Some(CellOutcome::Done { text, cached: was_cached }) => {
                        if *was_cached {
                            cached += 1;
                        } else {
                            computed += 1;
                        }
                        let result =
                            Json::parse(text).unwrap_or_else(|_| Json::from("unparseable"));
                        Json::obj(
                            base.into_iter()
                                .chain([("cached", (*was_cached).into()), ("result", result)]),
                        )
                    }
                    Some(CellOutcome::Failed { error }) => {
                        failed += 1;
                        Json::obj(base.into_iter().chain([("error", Json::from(error.as_str()))]))
                    }
                }
            })
            .collect();
        Json::obj([
            ("job", self.id.into()),
            ("status", if state.remaining == 0 { "done" } else { "running" }.into()),
            ("cancelled", self.cancel.is_cancelled().into()),
            ("total", (state.cells.len() as u64).into()),
            ("remaining", (state.remaining as u64).into()),
            ("cached", cached.into()),
            ("computed", computed.into()),
            ("failed", failed.into()),
            ("cells", Json::arr(cells)),
        ])
    }
}

/// A job's interest in one cell: the job and the cell's slot in it.
type Subscriber = (Arc<Job>, usize);

/// What a worker hands [`complete`]: one cell's run, still inside the
/// `serve.cell.exec` span.
struct Executed {
    fingerprint: u64,
    /// The cell's committed-instruction budget, for the cost model.
    budget: u64,
    run: Result<CellRun, PoisonedCell>,
    exec_span: span::SpanGuard,
}

struct Inner {
    cfg: ServeConfig,
    base: Runner,
    cache: ResultCache,
    journal: JobJournal,
    /// Runs the cache misses. Its root token is the parent of every job
    /// and cell token: drain fires that one token.
    exec: Executor<Executed, Subscriber>,
    metrics: Arc<ServeMetrics>,
    /// Every counter family in the process, unified for `/metrics`.
    registry: MetricsRegistry,
    /// Monotonic clock for request latency (mockable in tests).
    clock: Clock,
    /// False until the journal replay finishes; `/readyz` gates on it.
    ready: Arc<AtomicBool>,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    stop: AtomicBool,
    /// Set by SIGTERM / `POST /shutdown`: new sweeps get 503, workers
    /// finish or squash, then the daemon stops.
    draining: AtomicBool,
    /// The bound address; the drain sequence pokes it to unblock the
    /// accept loop.
    addr: SocketAddr,
    active_conns: AtomicUsize,
}

/// Why a sweep submission was refused.
enum SubmitError {
    /// Admission queue full; retry later.
    Busy {
        /// Cells the sweep needed to enqueue.
        misses: usize,
    },
    /// The result cache failed on the read path.
    Cache(io::Error),
    /// The job could not be made durable.
    Journal(io::Error),
    /// The daemon is draining; nothing new is admitted.
    Draining,
    /// The overload governor shed the sweep: measured queue delay over
    /// the configured target with the queue backed up.
    Shed {
        /// The queue-wait EWMA that triggered the shed, milliseconds.
        delay_ms: u64,
    },
}

/// A running daemon; dropping the handle does *not* stop it — call
/// [`ServerHandle::drain`], or keep it alive forever via
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side metrics, shared with the daemon.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Blocks serving requests until a drain stops the daemon (the
    /// binary's main thread), then joins the accept thread and the
    /// executor's workers.
    pub fn join(self) {
        let _ = self.accept.join();
        self.inner.exec.shutdown();
    }

    /// Whether a stop (a finished drain) has been requested; the
    /// binary's main loop polls this.
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Graceful drain (the SIGTERM path): refuse new sweeps with 503,
    /// let in-flight jobs finish within the configured window, squash
    /// the survivors cooperatively (their journal records stay pending
    /// for resume on the next start), then stop and join every thread.
    /// Idempotent with a concurrent `POST /shutdown`.
    pub fn drain(self) {
        drain(&self.inner);
        self.join();
    }
}

/// Boots the daemon: opens state, replays the journal, binds the
/// listener, and spawns the accept thread and the executor's workers.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let cache = ResultCache::open_with_budget(&cfg.state_dir, cfg.cache_budget_bytes)?;
    let (journal, pending) = JobJournal::open(&cfg.state_dir)?;

    let mut base = Runner::default();
    if base.traces.is_none() {
        base.traces = Some(
            TraceStore::with_budget(cfg.state_dir.join("traces"), cfg.trace_budget_bytes)
                .map_err(|e| io::Error::other(format!("cannot open trace store: {e}")))?,
        );
    }
    if cfg.trace_budget_bytes > 0 {
        // One budget governs both trace tiers: the on-disk store above
        // and the decoded in-memory copies the workers share.
        base.shared_traces.set_budget_bytes(cfg.trace_budget_bytes);
    }

    let next_id = pending.iter().map(|(id, _)| *id).max().unwrap_or(0) + 1;
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // The daemon always traces: the ring is bounded (drop-newest), the
    // overhead is part of every `rvp-perf` serve measurement, and
    // `GET /trace` is only useful when there is something in it.
    span::arm(span::DEFAULT_RING_CAPACITY);

    let workers = cfg.workers;
    let inner = Arc::new_cyclic(|weak: &Weak<Inner>| Inner {
        exec: {
            let inner = weak.clone();
            Executor::new("serve-worker", workers, CostModel::default(), move |executed, subs| {
                if let Some(inner) = inner.upgrade() {
                    complete(&inner, executed, subs);
                }
            })
        },
        cfg,
        base,
        cache,
        journal,
        metrics: Arc::new(ServeMetrics::new()),
        registry: MetricsRegistry::new(),
        clock: Clock::monotonic(),
        ready: Arc::new(AtomicBool::new(false)),
        jobs: Mutex::new(HashMap::new()),
        next_id: AtomicU64::new(next_id),
        stop: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        addr,
        active_conns: AtomicUsize::new(0),
    });
    register_collectors(&inner);

    // Re-submit interrupted jobs on a background thread: finished cells
    // hit the cache, the rest re-simulate. The listener accepts right
    // away — `/healthz` answers (liveness) while `/readyz` returns 503
    // until the replay lands every pending job back in the queue.
    {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("serve-replay".to_owned())
            .spawn(move || {
                let _span = span!("serve.journal.replay", { pending: pending.len() });
                for (id, spec_json) in pending {
                    match SweepSpec::from_json(&spec_json, &inner.base) {
                        Ok(spec) => match submit(&inner, spec, Some(id), None) {
                            Ok(job) => {
                                inner.metrics.jobs_resumed.fetch_add(1, Ordering::Relaxed);
                                log::info(
                                    "rvp-serve",
                                    "resumed journaled job",
                                    &[("id", id.into()), ("done", job.is_done().into())],
                                );
                            }
                            Err(_) => log::warn(
                                "rvp-serve",
                                "could not resume journaled job",
                                &[("id", id.into())],
                            ),
                        },
                        Err(e) => log::warn(
                            "rvp-serve",
                            "journaled job spec no longer parses; dropping it",
                            &[("id", id.into()), ("error", e.into())],
                        ),
                    }
                }
                inner.ready.store(true, Ordering::SeqCst);
            })
            .expect("spawn journal replay");
    }

    let accept = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&inner, listener))
            .expect("spawn accept loop")
    };

    Ok(ServerHandle { addr, inner, accept })
}

/// Wires every counter family in the process into the unified registry:
/// the daemon's own [`ServeMetrics`], the runner's per-workload source
/// tallies and shared-trace evictions, the trace store's
/// cache/quarantine counters, and `rvp-fail`'s fired-site counters.
fn register_collectors(inner: &Arc<Inner>) {
    let metrics = Arc::clone(&inner.metrics);
    inner.registry.register(move || metrics.metrics());
    let sources = inner.base.source_counters.clone();
    inner.registry.register(move || sources.metrics());
    let shared = inner.base.shared_traces.clone();
    inner.registry.register(move || {
        vec![Metric::counter("rvp_shared_trace_evicted_total", shared.evicted())]
    });
    if let Some(store) = &inner.base.traces {
        let counters = Arc::clone(store.counters());
        inner.registry.register(move || counters.metrics());
    }
    inner.registry.register(|| {
        rvp_fail::snapshot()
            .into_iter()
            .map(|(site, n)| Metric::counter("rvp_fail_fired_total", n).with_label("site", site))
            .collect()
    });
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let active = inner.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
        if active > inner.cfg.max_connections {
            inner.active_conns.fetch_sub(1, Ordering::SeqCst);
            inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = write_json_response(
                &mut stream,
                503,
                &[("Retry-After", "1".to_owned())],
                &Json::obj([("error", "connection limit reached".into())]),
            );
            continue;
        }
        let inner = Arc::clone(inner);
        let _ = std::thread::Builder::new().name("serve-conn".to_owned()).spawn(move || {
            handle_connection(&inner, stream);
            inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    // The read timeout doubles as the slowloris guard: a client that
    // stalls mid-request gets a 408 below, one idling between
    // keep-alive requests is reaped silently.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(inner.cfg.read_timeout_secs.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(120)));
    // Each response leaves in one write; without this, Nagle could hold
    // it back until the client acknowledges the previous one.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) | Err(HttpError::Io(_)) => return,
            Err(HttpError::Malformed(why)) => {
                inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
                respond(inner, &mut write_half, 400, &[], error_body(why));
                return;
            }
            Err(HttpError::TooLarge(why)) => {
                inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
                respond(inner, &mut write_half, 413, &[], error_body(why));
                return;
            }
            Err(HttpError::Timeout(why)) => {
                inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
                inner.metrics.request_timeouts.fetch_add(1, Ordering::Relaxed);
                respond(inner, &mut write_half, 408, &[], error_body(why));
                return;
            }
        };
        inner.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let started_us = inner.clock.now_us();
        let mut req_span = span!("serve.request", {
            method: request.method.as_str(),
            path: request.path.as_str(),
        });
        let (status, headers, body) = route(inner, &request, &write_half);
        req_span.add_field("status", u64::from(status));
        drop(req_span);
        inner.metrics.request_latency.record_us(inner.clock.now_us().saturating_sub(started_us));
        respond(inner, &mut write_half, status, &headers, body);
        if !request.keep_alive {
            return;
        }
    }
}

/// A routed response body: JSON for the API proper, plain text for the
/// Prometheus exposition and folded stacks.
enum Body {
    Json(Json),
    Text { content_type: &'static str, text: String },
}

fn respond(
    inner: &Inner,
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, String)],
    body: Body,
) {
    match status {
        429 => {
            inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        }
        400..=499 => {
            inner.metrics.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        500..=599 => {
            inner.metrics.server_errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    let written = match &body {
        Body::Json(json) => write_json_response(stream, status, headers, json),
        Body::Text { content_type, text } => {
            write_text_response(stream, status, content_type, headers, text)
        }
    };
    if let Err(e) = written {
        log::debug(
            "rvp-serve",
            "client went away before the response landed",
            &[("error", e.to_string().into())],
        );
    }
}

fn error_body(message: impl std::fmt::Display) -> Body {
    Body::Json(Json::obj([("error", message.to_string().into())]))
}

type Routed = (u16, Vec<(&'static str, String)>, Body);

fn route(inner: &Arc<Inner>, request: &Request, stream: &TcpStream) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/sweep") => sweep_endpoint(inner, request, stream),
        ("POST", "/shutdown") => {
            let window = inner.cfg.drain_secs;
            let drainer = Arc::clone(inner);
            let _ = std::thread::Builder::new()
                .name("serve-drain".to_owned())
                .spawn(move || drain(&drainer));
            let body = Json::obj([("draining", true.into()), ("window_secs", window.into())]);
            (202, Vec::new(), Body::Json(body))
        }
        ("GET", "/metrics") => {
            // The eviction counter lives on the cache; mirror it into
            // the snapshot the endpoint renders.
            inner
                .metrics
                .cache_evictions
                .store(inner.cache.evictions().load(Ordering::Relaxed), Ordering::Relaxed);
            if request.query_param("format") == Some("prom") {
                let text = inner.registry.to_prometheus();
                (200, Vec::new(), Body::Text { content_type: "text/plain; version=0.0.4", text })
            } else {
                (200, Vec::new(), Body::Json(inner.metrics.to_json()))
            }
        }
        ("GET", "/healthz") => {
            // Liveness only: the process is up and routing requests.
            // Readiness (journal replayed, safe to submit) is `/readyz`.
            let body = Json::obj([
                ("ok", true.into()),
                ("jobs", (inner.jobs.lock().unwrap().len() as u64).into()),
                ("cache_resident", (inner.cache.resident() as u64).into()),
            ]);
            (200, Vec::new(), Body::Json(body))
        }
        ("GET", "/readyz") => {
            if inner.ready.load(Ordering::SeqCst) {
                (200, Vec::new(), Body::Json(Json::obj([("ready", true.into())])))
            } else {
                let body = Json::obj([
                    ("ready", false.into()),
                    ("reason", "journal replay in progress".into()),
                ]);
                (503, vec![("Retry-After", "1".to_owned())], Body::Json(body))
            }
        }
        ("GET", "/trace") => {
            let data = span::snapshot();
            if request.query_param("format") == Some("folded") {
                let text = span::folded_stacks(&data);
                (200, Vec::new(), Body::Text { content_type: "text/plain", text })
            } else {
                (200, Vec::new(), Body::Json(span::chrome_trace_json(&data)))
            }
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>() {
                Err(_) => (400, Vec::new(), error_body("job id must be an integer")),
                Ok(id) => match inner.jobs.lock().unwrap().get(&id) {
                    None => (404, Vec::new(), error_body(format!("no such job: {id}"))),
                    Some(job) => (200, Vec::new(), Body::Json(job.to_json())),
                },
            }
        }
        ("DELETE", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>() {
                Err(_) => (400, Vec::new(), error_body("job id must be an integer")),
                Ok(id) => match cancel_job(inner, id, "client abort (DELETE)") {
                    None => (404, Vec::new(), error_body(format!("no such job: {id}"))),
                    Some(cancelled) => {
                        let body = Json::obj([
                            ("job", id.into()),
                            ("cancelled", cancelled.into()),
                            ("status", if cancelled { "cancelled" } else { "done" }.into()),
                        ]);
                        (200, Vec::new(), Body::Json(body))
                    }
                },
            }
        }
        (_, "/sweep" | "/shutdown" | "/metrics" | "/healthz" | "/readyz" | "/trace") => {
            (405, Vec::new(), error_body("method not allowed"))
        }
        _ => (404, Vec::new(), error_body(format!("no such endpoint: {}", request.path))),
    }
}

fn sweep_endpoint(inner: &Arc<Inner>, request: &Request, stream: &TcpStream) -> Routed {
    let body = &request.body;
    let parse_span = span!("serve.parse", { bytes: body.len() });
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return (400, Vec::new(), error_body("body is not UTF-8")),
    };
    let parsed = match Json::parse(text) {
        Ok(parsed) => parsed,
        Err(e) => return (400, Vec::new(), error_body(format!("bad JSON: {e}"))),
    };
    let spec = match SweepSpec::from_json(&parsed, &inner.base) {
        Ok(spec) => spec,
        Err(e) => return (400, Vec::new(), error_body(e)),
    };
    drop(parse_span);
    let wait = parsed.get("wait").and_then(Json::as_bool).unwrap_or(false);
    // The effective deadline is the server default tightened by the
    // request (`deadline_ms`). It governs cancellation, not identity:
    // it never enters the cell fingerprint, so a deadlined request
    // still hits the cache entries of an undeadlined one.
    let requested_ms = parsed.get("deadline_ms").and_then(Json::as_u64).filter(|ms| *ms > 0);
    let default_ms = Some(inner.cfg.deadline_secs * 1000).filter(|ms| *ms > 0);
    let deadline = match (requested_ms, default_ms) {
        (Some(a), Some(b)) => Some(Duration::from_millis(a.min(b))),
        (Some(ms), None) | (None, Some(ms)) => Some(Duration::from_millis(ms)),
        (None, None) => None,
    };

    let job = match submit(inner, spec, None, deadline) {
        Ok(job) => job,
        Err(SubmitError::Busy { misses }) => {
            let body = Json::obj([
                ("error", "admission queue full".into()),
                ("needed", (misses as u64).into()),
                ("max_queue", (inner.cfg.max_queue as u64).into()),
            ]);
            return (429, vec![("Retry-After", "1".to_owned())], Body::Json(body));
        }
        Err(SubmitError::Shed { delay_ms }) => {
            let retry = (delay_ms / 1000).clamp(1, 30);
            let body = Json::obj([
                ("error", "overloaded; shedding load".into()),
                ("queue_delay_ms", delay_ms.into()),
            ]);
            return (429, vec![("Retry-After", retry.to_string())], Body::Json(body));
        }
        Err(SubmitError::Draining) => {
            let body =
                Json::obj([("error", "draining; retry against the restarted daemon".into())]);
            return (503, vec![("Retry-After", "5".to_owned())], Body::Json(body));
        }
        Err(SubmitError::Cache(e)) => {
            return (500, Vec::new(), error_body(format!("result cache read failed: {e}")));
        }
        Err(SubmitError::Journal(e)) => {
            return (503, Vec::new(), error_body(format!("job journal append failed: {e}")));
        }
    };
    if wait {
        // Short wait slices so a vanished client or a drain is noticed
        // within ~250ms instead of holding a handler thread forever.
        loop {
            if job.wait_timeout(Duration::from_millis(250)) {
                break;
            }
            if inner.draining.load(Ordering::SeqCst) {
                let body = job.to_json();
                return (503, vec![("Retry-After", "5".to_owned())], Body::Json(body));
            }
            if client_gone(stream) {
                inner.metrics.client_disconnects.fetch_add(1, Ordering::Relaxed);
                cancel_job(inner, job.id, "client disconnected");
                break;
            }
        }
    }
    if job.is_done() {
        (200, Vec::new(), Body::Json(job.to_json()))
    } else {
        let body = Json::obj([
            ("job", job.id.into()),
            ("status", "queued".into()),
            ("poll", format!("/jobs/{}", job.id).into()),
        ]);
        (202, Vec::new(), Body::Json(body))
    }
}

/// Whether the peer of a waiting `wait=true` connection has gone away:
/// a non-blocking peek that returns EOF (or a hard error) means the
/// client hung up and nobody will read the response.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// Admits one sweep: cache lookups, admission control, durable journal
/// append, submission of the misses to the executor. `resume_id` marks
/// a journal replay — the job keeps its id, skips re-journaling (the
/// compacted journal already has it) and treats cache-read trouble as a
/// miss instead of refusing the job it must not lose.
fn submit(
    inner: &Arc<Inner>,
    spec: SweepSpec,
    resume_id: Option<u64>,
    deadline: Option<Duration>,
) -> Result<Arc<Job>, SubmitError> {
    let resumed = resume_id.is_some();
    // A draining daemon admits nothing new; journal replays are the
    // exception — those jobs were admitted before and must not be lost.
    if !resumed && inner.draining.load(Ordering::SeqCst) {
        return Err(SubmitError::Draining);
    }
    // The enclosing request span (or replay span); queue-wait and
    // worker-side exec spans parent onto it across threads.
    let request_span = span::current();
    let admission_span = span!("serve.admission", { cells: spec.cells().len() });
    let cells = spec.cells();
    let mut slots = Vec::with_capacity(cells.len());
    let mut misses: Vec<(usize, u64, GridCell)> = Vec::new();
    for (idx, cell) in cells.into_iter().enumerate() {
        let fingerprint = spec.cell_fingerprint(&inner.base, &cell);
        let outcome = match inner.cache.get(fingerprint) {
            Ok(Some(text)) => {
                inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(CellOutcome::Done { text, cached: true })
            }
            Ok(None) => None,
            Err(e) if resumed => {
                log::warn(
                    "rvp-serve",
                    "cache read failed during resume; re-simulating the cell",
                    &[("error", e.to_string().into())],
                );
                None
            }
            Err(e) => return Err(SubmitError::Cache(e)),
        };
        let miss = outcome.is_none();
        slots.push(CellSlot { label: cell.label(), fingerprint, outcome });
        if miss {
            inner.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            misses.push((idx, fingerprint, cell));
        }
    }

    if !misses.is_empty() {
        let depth = inner.metrics.queue_depth.load(Ordering::Relaxed) as usize;
        if depth + misses.len() > inner.cfg.max_queue {
            return Err(SubmitError::Busy { misses: misses.len() });
        }
        // Adaptive shedding: the hard queue bound above caps memory,
        // but a queue of slow cells can be "not full" and still hours
        // deep. When the measured queue wait says new work would sit
        // past the target, shed at admission instead of timing out
        // after the client already waited. Resumed jobs are exempt.
        if !resumed && inner.cfg.shed_delay_ms > 0 && depth > inner.cfg.workers {
            let delay_ms = inner.metrics.queue_delay_ewma_us.load(Ordering::Relaxed) / 1000;
            if delay_ms > inner.cfg.shed_delay_ms {
                inner.metrics.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Shed { delay_ms });
            }
        }
    }
    drop(admission_span);

    let id = resume_id.unwrap_or_else(|| inner.next_id.fetch_add(1, Ordering::SeqCst));
    if !misses.is_empty() && !resumed {
        // Durable before acknowledged: a job the daemon accepted must
        // survive a kill from this point on.
        let _span = span!("serve.journal.append", { job: id });
        let record = Json::obj([("spec", spec.to_json())]);
        inner.journal.append_job(id, record.get("spec").unwrap()).map_err(SubmitError::Journal)?;
    }

    let job = Arc::new(Job::new(id, slots, inner.exec.root().child()));
    inner.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    inner.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    if misses.is_empty() {
        inner.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if resumed {
            // The journal still lists this job; close it out.
            inner.journal.append_done(id);
        }
        return Ok(job);
    }

    let runner = spec.runner_for(&inner.base);
    let tasks: Vec<_> = misses
        .into_iter()
        .map(|(idx, fingerprint, cell)| {
            let cost = inner.exec.costs().estimate(&cell.label(), runner.measure_insts);
            let work = cell_work(inner, cell, runner.clone(), fingerprint, request_span, id);
            (fingerprint, cost, (Arc::clone(&job), idx), work)
        })
        .collect();
    let mut enqueued = 0u64;
    for (token, fresh) in inner.exec.submit(tasks) {
        // A shared cell keeps one token; deadlines only tighten, so it
        // squashes at its earliest sharer's deadline.
        if let Some(d) = deadline {
            token.set_deadline(d);
        }
        enqueued += u64::from(fresh);
    }
    if enqueued > 0 {
        inner.metrics.queue_enter(enqueued);
    }
    Ok(job)
}

/// The work one cache miss runs on an executor worker: the cell under
/// the grid's full containment stack (panic catching, transient
/// retries, source-degradation ladder), polling the flight's token, with
/// its queue wait and execution traced back to the admitting request.
/// Failures come back as data, never as a dead worker.
fn cell_work(
    inner: &Inner,
    cell: GridCell,
    mut runner: Runner,
    fingerprint: u64,
    parent_span: u64,
    job_id: u64,
) -> impl FnOnce(&CancelToken) -> Executed + Send + 'static {
    let metrics = Arc::clone(&inner.metrics);
    let opts = CellOptions { retries: inner.cfg.retries, timeout_secs: 0 };
    let enqueued_us = span::now_us();
    move |token| {
        let dequeued_us = span::now_us();
        metrics.observe_queue_delay(dequeued_us.saturating_sub(enqueued_us));
        let fields = || vec![("cell".into(), cell.label().into()), ("job".into(), job_id.into())];
        if span::armed() {
            // The time this cell sat in the queue, attributed back to
            // the request (or replay) that admitted it.
            span::record("serve.queue.wait", parent_span, enqueued_us, dequeued_us, fields());
        }
        let exec_start_us = span::now_us();
        let exec_span = span::child_of(parent_span, "serve.cell.exec", fields);
        runner.cancel = Some(token.clone());
        let run = run_one_cell(&runner, &cell, opts);
        if matches!(&run, Err(poisoned) if poisoned.cancelled) {
            metrics.cells_cancelled.fetch_add(1, Ordering::Relaxed);
            if span::armed() {
                let reason = token.detail().unwrap_or_else(|| "cancelled".to_owned());
                let mut fields = fields();
                fields.push(("reason".into(), reason.into()));
                span::record("cancel.squash", parent_span, exec_start_us, span::now_us(), fields);
            }
        }
        Executed { fingerprint, budget: runner.measure_insts, run, exec_span }
    }
}

/// A finished cell, on the worker that ran it: caches a computed
/// result, fills the slots of the jobs still subscribed to it and
/// journals each job that completes.
fn complete(inner: &Inner, executed: Executed, subscribers: Vec<Subscriber>) {
    let Executed { fingerprint, budget, run, exec_span } = executed;
    let squashed = matches!(&run, Err(poisoned) if poisoned.cancelled);
    let outcome = match run {
        Ok(run) => {
            let seconds = run.started.elapsed().as_secs_f64();
            inner.exec.costs().observe(&run.label, budget, seconds);
            inner.metrics.cells_computed.fetch_add(1, Ordering::Relaxed);
            let text = format!("{}\n", run.result.to_json());
            if let Err(e) = inner.cache.put(fingerprint, &text) {
                log::warn(
                    "rvp-serve",
                    "cell computed but cache write failed; serving from memory only",
                    &[
                        ("fingerprint", format!("{fingerprint:016x}").into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
            CellOutcome::Done { text: text.into(), cached: false }
        }
        Err(poisoned) => {
            if !squashed {
                inner.metrics.cells_failed.fetch_add(1, Ordering::Relaxed);
            }
            CellOutcome::Failed {
                error: format!(
                    "cell {} poisoned at stage {} after {} attempts: {}",
                    poisoned.label, poisoned.stage, poisoned.attempts, poisoned.error
                ),
            }
        }
    };
    drop(exec_span);
    // Drain squash: the cell's jobs stay *pending* — no fill, no done
    // record — so the journal resumes them, and their finished cells
    // re-serve from the cache, on the next start. Nothing admitted is
    // ever lost.
    if !(squashed && inner.draining.load(Ordering::SeqCst)) {
        for (job, idx) in subscribers {
            if job.fill(idx, outcome.clone()) {
                // Durable before observable: the done record lands
                // before any `wait=true` handler can send its 200.
                inner.journal.append_done(job.id);
                inner.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
                job.notify_done();
            }
        }
    }
    inner.metrics.queue_exit(1);
}

/// Aborts a job: fires its token, fails its pending cells so waiters
/// wake, detaches it from their flights (squashing a cell only when no
/// other job still waits on it), and closes its journal record.
/// Returns `None` for an unknown id, `Some(false)` for a job that had
/// already finished, `Some(true)` on a real abort.
fn cancel_job(inner: &Arc<Inner>, id: u64, why: &str) -> Option<bool> {
    let job = inner.jobs.lock().unwrap().get(&id).cloned()?;
    if job.is_done() {
        return Some(false);
    }
    job.cancel.cancel(why);
    inner.metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    let pending: Vec<u64> = {
        let mut state = job.state.lock().unwrap();
        let JobState { cells, remaining } = &mut *state;
        let pending = cells.iter_mut().filter(|slot| slot.outcome.is_none());
        pending
            .map(|slot| {
                slot.outcome = Some(CellOutcome::Failed { error: format!("job cancelled: {why}") });
                *remaining -= 1;
                slot.fingerprint
            })
            .collect()
    };
    for fingerprint in pending {
        inner.exec.detach(fingerprint, why, |(waiter, _)| waiter.id == id);
    }
    // The abort is final: close the journal record so a restart does
    // not resurrect work the client explicitly killed.
    inner.journal.append_done(id);
    job.notify_done();
    log::info("rvp-serve", "job cancelled", &[("id", id.into()), ("why", why.into())]);
    Some(true)
}

/// The drain window in 25ms polls: let in-flight jobs finish, then
/// cooperatively squash the stragglers (their journal records stay
/// pending, so the next start resumes them), then stop every thread.
/// Idempotent: SIGTERM and `POST /shutdown` can race freely.
fn drain(inner: &Arc<Inner>) {
    if inner.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.metrics.drains.fetch_add(1, Ordering::Relaxed);
    let start_us = span::now_us();
    let window = Duration::from_secs(inner.cfg.drain_secs.max(1));
    log::info(
        "rvp-serve",
        "draining: refusing new sweeps, finishing in-flight jobs",
        &[("window_secs", inner.cfg.drain_secs.into())],
    );
    let deadline = Instant::now() + window;
    let mut squashed = false;
    loop {
        let all_done = inner.jobs.lock().unwrap().values().all(|job| job.is_done());
        if all_done {
            break;
        }
        if Instant::now() >= deadline {
            squashed = true;
            log::warn(
                "rvp-serve",
                "drain window expired; squashing in-flight cells (journal preserves them)",
                &[],
            );
            inner.exec.root().cancel("drain window expired");
            // Bounded grace for the workers to squash out of their
            // cells; a cooperative squash takes milliseconds, so this
            // only runs long if a cell is wedged below the poll mask.
            let grace = Instant::now() + Duration::from_secs(10);
            while inner.metrics.queue_depth.load(Ordering::Relaxed) > 0 && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(25));
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    if span::armed() {
        span::record(
            "serve.drain",
            0,
            start_us,
            span::now_us(),
            vec![
                ("squashed".into(), u64::from(squashed).into()),
                ("jobs".into(), (inner.jobs.lock().unwrap().len() as u64).into()),
            ],
        );
    }
    log::info("rvp-serve", "drain complete; stopping", &[("squashed", squashed.into())]);
    inner.stop.store(true, Ordering::SeqCst);
    // Unblock the accept loop and stop the idle workers.
    let _ = TcpStream::connect(inner.addr);
    inner.exec.stop();
}
