//! The two daemon workloads, against the real `rvp-serve` executable
//! with two simulation workers, driven by a closed loop of two
//! keep-alive clients — callers that each send `wait:true` sweeps and
//! wait for the reply.
//!
//! `serve-cold` is the write path: every request is a cell the daemon
//! has not seen before, so each one simulates, journals (fsync), inserts
//! into the result cache and queues behind the other client. `serve-hot`
//! is the read path: every request hits cells primed during set-up, so
//! the cycle core does nothing and parse, admission, cache lookup, JSON
//! and the socket write are all there is. A third of the hot requests
//! ask for a whole 15-cell column, whose ~15 KB response is where the
//! wire shows: p50 sits in the small requests, throughput and the tail
//! in the columns.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rvp_core::span::{self, FieldValue, TraceData};
use rvp_core::{by_name, parse_recovery, Json, Runner, SampleSpec, SchemeSpec, ToJson};

use crate::calib::Probe;
use crate::check::stats_digest;
use crate::gen::{self, ColdCell, HotRequest};
use crate::http::{Connection, Response};
use crate::probe::{self, ProbeInput};
use crate::report::Outcome;
use crate::stats::{median, range_ms, tail_percentile};
use crate::sut::{self, Sut};
use crate::{Ctx, SUT_WORKERS};

/// Concurrent keep-alive clients (one per host core).
const CLIENTS: usize = 2;

/// Daemon lifetimes per untraced run at the least.
const MIN_LIFETIMES: usize = 3;

/// Requests each lifetime answers: one or two seconds of load on an
/// undisturbed two-core host, so a run holds several lifetimes, with
/// calibration between them. A cold lifetime asks for one stratified
/// block of cells — every workload × scheme pair once — so it does the
/// same simulation work under every seed.
const COLD_REQUESTS: usize = gen::COLD_BLOCK;
const HOT_REQUESTS: usize = 300;

/// Budgets of every cold request.
const COLD_MEASURE: u64 = 100_000;
const COLD_PROFILE: u64 = 300_000;

/// Profiling budget of the primed hot columns.
const HOT_PROFILE: u64 = 300_000;

/// The cold set-up sends one cell per workload under this scheme and
/// threshold (which no timed request uses), so that every workload's
/// profile and trace exist before the clock starts.
const WARMUP_SCHEME: &str = "drvp_all_dead_lv";
const WARMUP_THRESHOLD: f64 = 0.95;

/// Bound on any single wait: boot, readiness, one request, drain. The
/// longest normal one, priming a column, takes under a second.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Longest load phase of a traced run.
const TRACED_LOAD_SECONDS: f64 = 10.0;

/// A booted daemon.
struct Daemon {
    sut: Sut,
    addr: SocketAddr,
    state: PathBuf,
}

/// The address in a `rvp-serve: listening on http://ADDR (state: …)`
/// line.
fn listen_addr(line: &str) -> Option<SocketAddr> {
    line.split("http://").nth(1)?.split_whitespace().next()?.parse().ok()
}

impl Daemon {
    /// Spawns `rvp-serve` on a free loopback port over a fresh state
    /// directory and waits until `/readyz` answers 200.
    fn boot(ctx: &Ctx, state: &Path) -> io::Result<Daemon> {
        let mut cmd = sut::command(&ctx.serve_bin());
        cmd.args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(SUT_WORKERS.to_string())
            .arg("--state-dir")
            .arg(state)
            .stderr(std::fs::File::create(state.with_extension("stderr.log"))?);
        sut::settle_disk(&ctx.work)?;
        let sut = Sut::spawn(cmd)?;
        let (line, _) = sut.wait_for_line("listening on http://", TIMEOUT)?;
        let addr = listen_addr(&line)
            .ok_or_else(|| io::Error::other(format!("no address in {line:?}")))?;
        let deadline = Instant::now() + TIMEOUT;
        loop {
            let ready = Connection::open(addr, TIMEOUT)
                .and_then(|mut c| c.request("GET", "/readyz", b""))
                .is_ok_and(|r| r.status == 200);
            if ready {
                return Ok(Daemon { sut, addr, state: state.to_owned() });
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("rvp-serve never became ready"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn get(&self, path: &str) -> io::Result<Json> {
        let resp = Connection::open(self.addr, TIMEOUT)?.request("GET", path, b"")?;
        resp.json().ok_or_else(|| io::Error::other(format!("GET {path}: no JSON body")))
    }

    /// Graceful drain via `POST /shutdown`, then reap and remove the
    /// state directory. Returns the daemon's peak resident set, MB.
    fn shutdown(mut self) -> io::Result<f64> {
        let peak = self.sut.peak_rss_mb();
        Connection::open(self.addr, TIMEOUT)?.request("POST", "/shutdown", b"")?;
        let (status, _) = self.sut.wait(TIMEOUT)?;
        if status.success() {
            std::fs::remove_dir_all(&self.state)?;
            Ok(peak)
        } else {
            Err(io::Error::other(format!("rvp-serve exited with {status}")))
        }
    }
}

/// A `wait:true` sweep request body.
fn sweep_body(workloads: &[&str], schemes: &[&str], extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("workloads", Json::arr(workloads.iter().map(|w| Json::from(*w)))),
        ("schemes", Json::arr(schemes.iter().map(|s| Json::from(*s)))),
        ("wait", true.into()),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

fn cold_body(cell: &ColdCell) -> Json {
    sweep_body(
        &[cell.workload],
        &[&cell.scheme],
        vec![
            ("recovery", cell.recovery.into()),
            ("threshold", cell.threshold.into()),
            ("measure_insts", COLD_MEASURE.into()),
            ("profile_insts", COLD_PROFILE.into()),
        ],
    )
}

fn hot_body(req: &HotRequest) -> Json {
    let schemes: Vec<&str> = req.schemes.iter().map(String::as_str).collect();
    sweep_body(
        &[req.workload],
        &schemes,
        vec![("measure_insts", req.measure_insts.into()), ("profile_insts", HOT_PROFILE.into())],
    )
}

/// One answered cell of a job.
#[derive(Debug, Clone, PartialEq)]
struct CellAnswer {
    label: String,
    digest: Option<u64>,
    committed: u64,
}

/// The counters and cells of a finished job response.
#[derive(Debug, Clone, PartialEq)]
struct JobAnswer {
    total: u64,
    cached: u64,
    computed: u64,
    failed: u64,
    cells: Vec<CellAnswer>,
}

impl JobAnswer {
    fn parse(resp: &Response) -> Option<JobAnswer> {
        if resp.status != 200 {
            return None;
        }
        let json = resp.json()?;
        let count = |key: &str| json.get(key).and_then(Json::as_u64);
        let cells = json
            .get("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                let result = c.get("result");
                CellAnswer {
                    label: c.get("label").and_then(Json::as_str).unwrap_or("").to_owned(),
                    digest: result.and_then(stats_digest),
                    committed: result
                        .and_then(|r| r.get("stats")?.get("committed")?.as_u64())
                        .unwrap_or(0),
                }
            })
            .collect();
        Some(JobAnswer {
            total: count("total")?,
            cached: count("cached")?,
            computed: count("computed")?,
            failed: count("failed")?,
            cells,
        })
    }

    fn delivered_insts(&self) -> u64 {
        self.cells.iter().map(|c| c.committed).sum()
    }
}

/// How one answer was judged.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    ok: bool,
    /// Committed instructions of the answered cells.
    delivered_insts: u64,
    /// Statistics digest of a cold answer's one cell.
    digest: Option<u64>,
}

impl Verdict {
    const FAILED: Verdict = Verdict { ok: false, delivered_insts: 0, digest: None };
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Request index: which generated request was sent.
    index: usize,
    latency_ms: f64,
    verdict: Verdict,
}

/// A closed loop: `CLIENTS` threads, each on its own keep-alive
/// connection, take request indices `0..count` from one counter and
/// send the next only after the previous answer, until the indices run
/// out or `seconds` have passed. Returns the samples and the loop's
/// wall time.
fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    count: usize,
    body: &(dyn Fn(usize) -> Vec<u8> + Sync),
    judge: &(dyn Fn(usize, &Response) -> Verdict + Sync),
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut conn: Option<Connection> = None;
                let mut mine = Vec::new();
                while start.elapsed().as_secs_f64() < seconds {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= count {
                        break;
                    }
                    let payload = body(index);
                    let t0 = Instant::now();
                    let resp = match conn.take() {
                        Some(c) => Ok(c),
                        None => Connection::open(addr, TIMEOUT),
                    }
                    .and_then(|mut c| c.request("POST", "/sweep", &payload).map(|r| (c, r)));
                    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    let verdict = match resp {
                        Ok((c, r)) => {
                            conn = Some(c);
                            judge(index, &r)
                        }
                        Err(_) => Verdict::FAILED,
                    };
                    mine.push(Sample { index, latency_ms, verdict });
                }
                samples.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (samples.into_inner().expect("sample lock"), wall)
}

/// Cold set-up: one never-timed cell per workload materializes every
/// profile and trace the timed cells share.
fn warm_cold(daemon: &Daemon) -> io::Result<()> {
    let body = sweep_body(
        &gen::WORKLOADS,
        &[WARMUP_SCHEME],
        vec![
            ("threshold", WARMUP_THRESHOLD.into()),
            ("measure_insts", COLD_MEASURE.into()),
            ("profile_insts", COLD_PROFILE.into()),
        ],
    );
    let resp = Connection::open(daemon.addr, TIMEOUT)?.request(
        "POST",
        "/sweep",
        body.to_string().as_bytes(),
    )?;
    match JobAnswer::parse(&resp) {
        Some(job) if job.failed == 0 && job.total == gen::WORKLOADS.len() as u64 => Ok(()),
        _ => Err(io::Error::other(format!("cold warm-up answered {}", resp.status))),
    }
}

/// Primed cell digests by (workload, budget, label).
type Primed = BTreeMap<(&'static str, u64, String), u64>;

/// Hot set-up: simulate and cache every cell of the four hot columns.
fn prime_hot(daemon: &Daemon) -> io::Result<Primed> {
    let schemes = gen::paper_scheme_labels();
    let schemes: Vec<&str> = schemes.iter().map(String::as_str).collect();
    let mut conn = Connection::open(daemon.addr, TIMEOUT)?;
    let mut primed = Primed::new();
    for (workload, budget) in gen::HOT_COLUMNS {
        let body = sweep_body(
            &[workload],
            &schemes,
            vec![("measure_insts", budget.into()), ("profile_insts", HOT_PROFILE.into())],
        );
        let resp = conn.request("POST", "/sweep", body.to_string().as_bytes())?;
        let job = JobAnswer::parse(&resp)
            .filter(|j| j.failed == 0 && j.cells.len() == schemes.len())
            .ok_or_else(|| io::Error::other(format!("priming answered {}", resp.status)))?;
        for cell in job.cells {
            let digest = cell.digest.ok_or_else(|| io::Error::other("primed cell lacks stats"))?;
            primed.insert((workload, budget, cell.label), digest);
        }
    }
    Ok(primed)
}

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every request misses the result cache.
    Cold,
    /// Every request hits primed cells.
    Hot,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "serve-cold",
            Kind::Hot => "serve-hot",
        }
    }
}

/// Boots a daemon over a fresh state directory and warms it (cold) or
/// primes it (hot); returns it with the primed digests.
fn set_up(ctx: &Ctx, kind: Kind, k: usize) -> io::Result<(Daemon, Primed)> {
    let daemon = Daemon::boot(ctx, &ctx.work.join(format!("{}-{k}", kind.name())))?;
    let primed = match kind {
        Kind::Cold => {
            warm_cold(&daemon)?;
            Primed::new()
        }
        Kind::Hot => prime_hot(&daemon)?,
    };
    Ok((daemon, primed))
}

fn judge_cold(cells: &[ColdCell], i: usize, r: &Response) -> Verdict {
    let Some(job) = JobAnswer::parse(r) else { return Verdict::FAILED };
    let asked = &cells[i % cells.len()];
    let label = format!("{}/{}", asked.workload, asked.scheme);
    let cell = job.cells.first();
    let ok = job.total == 1
        && job.computed == 1
        && job.cached == 0
        && job.failed == 0
        && cell.is_some_and(|c| c.label == label && c.digest.is_some());
    Verdict { ok, delivered_insts: job.delivered_insts(), digest: cell.and_then(|c| c.digest) }
}

fn judge_hot(seed: u64, primed: &Primed, i: usize, r: &Response) -> Verdict {
    let Some(job) = JobAnswer::parse(r) else { return Verdict::FAILED };
    let req = gen::hot_request(seed, i);
    let width = req.schemes.len() as u64;
    let ok = job.total == width
        && job.cached == width
        && job.computed == 0
        && job.failed == 0
        && job.cells.len() == req.schemes.len()
        && job.cells.iter().zip(&req.schemes).all(|(cell, scheme)| {
            cell.label == format!("{}/{scheme}", req.workload)
                && cell.digest.is_some()
                && primed.get(&(req.workload, req.measure_insts, cell.label.clone()))
                    == cell.digest.as_ref()
        });
    Verdict { ok, delivered_insts: job.delivered_insts(), digest: None }
}

/// Re-simulates the seeded 5% of answered cold cells in-process with
/// `Runner`, split over two threads, and counts the ones whose
/// statistics differ.
fn resimulate(cells: &[ColdCell], answered: &[(usize, u64)]) -> u64 {
    let base = Runner {
        measure_insts: COLD_MEASURE,
        profile_insts: COLD_PROFILE,
        traces: None,
        ..Runner::default()
    };
    let differs = |&(i, digest): &(usize, u64)| {
        let cell = &cells[i % cells.len()];
        let runner = Runner {
            threshold: cell.threshold,
            recovery: parse_recovery(cell.recovery).expect("generated recoveries parse"),
            ..base.clone()
        };
        let wl = by_name(cell.workload).expect("generated workloads exist");
        let scheme = SchemeSpec::parse(&cell.scheme).expect("generated schemes parse");
        !runner.run(&wl, &scheme).is_ok_and(|r| stats_digest(&r.to_json()) == Some(digest))
    };
    let (left, right) = answered.split_at(answered.len() / 2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| right.iter().filter(|a| differs(a)).count());
        let mine = left.iter().filter(|a| differs(a)).count();
        (mine + other.join().expect("re-simulation thread panicked")) as u64
    })
}

/// What a load phase judges its answers against.
enum Expect<'a> {
    /// Fresh cells only.
    Cold,
    /// Cache hits equal to the primed digests.
    Hot(&'a Primed),
}

/// Runs a closed loop of requests `0..count` against `daemon` for at
/// most `seconds`, judging every answer. Returns the samples and the
/// wall time.
fn load(
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    count: usize,
    expect: Expect<'_>,
    out: &mut Outcome,
) -> (Vec<Sample>, f64) {
    let (samples, wall) = match expect {
        Expect::Cold => {
            let cells = gen::cold_cells(seed);
            closed_loop(
                daemon.addr,
                seconds,
                count,
                &|i| cold_body(&cells[i % cells.len()]).to_string().into_bytes(),
                &|i, r| judge_cold(&cells, i, r),
            )
        }
        Expect::Hot(primed) => closed_loop(
            daemon.addr,
            seconds,
            count,
            &|i| hot_body(&gen::hot_request(seed, i)).to_string().into_bytes(),
            &|i, r| judge_hot(seed, primed, i, r),
        ),
    };
    let failed = samples.iter().filter(|s| !s.verdict.ok).count() as u64;
    out.tally(samples.len() as u64, failed);
    (samples, wall)
}

/// Re-simulates the seeded 5% of the first daemon's cold answers
/// in-process, and checks that every later daemon answered each
/// repeated cell as the first one did.
fn check_cold(seed: u64, lifetimes: &[Vec<Sample>], out: &mut Outcome) {
    let Some((first, later)) = lifetimes.split_first() else { return };
    let digests: BTreeMap<usize, u64> =
        first.iter().filter_map(|s| Some((s.index, s.verdict.digest?))).collect();
    let answered: Vec<(usize, u64)> =
        digests.iter().filter(|(&i, _)| gen::resimulate(seed, i)).map(|(&i, &d)| (i, d)).collect();
    let bad = resimulate(&gen::cold_cells(seed), &answered);
    out.tally(answered.len() as u64, bad);
    out.notes
        .push(format!("{} answered cells re-simulated in-process, {bad} differ", answered.len()));
    let repeats: Vec<&Sample> = later.iter().flatten().collect();
    let differ =
        repeats.iter().filter(|s| s.verdict.digest != digests.get(&s.index).copied()).count();
    out.tally(repeats.len() as u64, differ as u64);
    if differ > 0 {
        out.notes.push(format!("{differ} repeated cells answered unlike in the first daemon"));
    }
}

fn latency_note(samples: &[Sample], wall: f64) -> String {
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    match tail_percentile(&latencies, 0.99) {
        Some(p99) => format!("{} requests in {wall:.2} s; client p99 {p99:.3} ms", samples.len()),
        None => format!("{} requests in {wall:.2} s; p99 refused (needs 1000)", samples.len()),
    }
}

/// One daemon lifetime's load phase.
struct Load {
    /// When the closed loop started.
    from: Instant,
    /// When its last answer was judged.
    to: Instant,
    /// Seconds the daemon and this process were busy or ready to run
    /// meanwhile ([`sut::busy_seconds`]).
    busy: f64,
    answered: usize,
    /// Committed instructions of the answered cells.
    insts: u64,
}

impl Load {
    fn wall(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }
}

/// The untraced run: daemon lifetimes in turn — each set up over a
/// fresh state directory, sent the same requests and drained — while
/// the next one should end within `seconds` (and at least
/// [`MIN_LIFETIMES`]). Fresh state makes every cold request miss the
/// cache again. Each lifetime is one sub-run: every metric is a median
/// over them, and times are read at the nominal host speed of the
/// probe slices timed during them.
pub fn run(ctx: &Ctx, kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let count = match kind {
        Kind::Cold => COLD_REQUESTS,
        Kind::Hot => HOT_REQUESTS,
    };
    let (mut setups, mut peaks, mut lifetimes, mut loads) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_primed: Option<Primed> = None;
    let probe = Probe::start();
    let mut load_wall = 0.0;
    let start = Instant::now();
    let mut last_lifetime_s = 0.0;
    while lifetimes.len() < MIN_LIFETIMES
        || start.elapsed().as_secs_f64() + last_lifetime_s < seconds
    {
        let k = lifetimes.len();
        let began = Instant::now();
        let (daemon, primed) = match set_up(ctx, kind, k) {
            Ok(up) => up,
            Err(e) => {
                // As with a failed sweep, end the already incorrect run.
                out.tally(1, 1);
                out.notes.push(format!("set-up {k} failed: {e}"));
                break;
            }
        };
        setups.push((daemon.sut.started, Instant::now()));
        if first_primed.get_or_insert_with(|| primed.clone()) != &primed {
            out.tally(1, 1);
            out.notes.push(format!("daemon {k} primed different results"));
        }
        let expect = match kind {
            Kind::Cold => Expect::Cold,
            Kind::Hot => Expect::Hot(&primed),
        };
        let busy_before = sut::busy_seconds(&[daemon.sut.pid()]);
        let from = Instant::now();
        let (samples, wall) = load(&daemon, seed, seconds, count, expect, &mut out);
        loads.push(Load {
            from,
            to: Instant::now(),
            busy: sut::busy_seconds(&[daemon.sut.pid()]) - busy_before,
            answered: samples.len(),
            insts: samples.iter().map(|s| s.verdict.delivered_insts).sum(),
        });
        load_wall += wall;
        lifetimes.push(samples);
        match daemon.shutdown() {
            Ok(peak) => peaks.push(peak),
            Err(e) => {
                out.tally(1, 1);
                out.notes.push(format!("drain {k} failed: {e}"));
            }
        }
        last_lifetime_s = began.elapsed().as_secs_f64();
    }
    let calib = probe.finish();
    if kind == Kind::Cold {
        check_cold(seed, &lifetimes, &mut out);
    }
    if loads.is_empty() {
        return out;
    }
    let all = lifetimes.concat();
    let n = all.len();
    let nominal: Vec<f64> = loads.iter().map(|l| calib.at_nominal(l.from, l.to, l.busy)).collect();
    let per_nominal_s = |count: fn(&Load) -> f64| {
        let rates: Vec<f64> = loads.iter().zip(&nominal).map(|(l, s)| count(l) / s).collect();
        median(&rates).unwrap_or(f64::NAN)
    };
    let setup_s: Vec<f64> = setups.iter().map(|&(from, to)| (to - from).as_secs_f64()).collect();
    let nominal_setups: Vec<f64> = setups
        .iter()
        .zip(&setup_s)
        .map(|(&(from, to), &s)| calib.cpu_at_nominal(from, to, s))
        .collect();
    out.set("setup_s", median(&nominal_setups).unwrap_or(f64::NAN), setups.len());
    out.set("ops_per_s", per_nominal_s(|l| l.answered as f64), n);
    out.set("minsts_per_s", per_nominal_s(|l| l.insts as f64 / 1e6), n);
    out.set("peak_rss_mb", median(&peaks).unwrap_or(f64::NAN), peaks.len());
    out.notes.push(latency_note(&all, load_wall));
    let latencies: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
    let measured: Vec<f64> = loads.iter().map(|l| l.answered as f64 / l.wall()).collect();
    let busy: Vec<f64> = loads
        .iter()
        .map(|l| (l.busy - calib.probe_seconds(l.from, l.to)) / (SUT_WORKERS as f64 * l.wall()))
        .collect();
    out.notes.push(format!(
        "{} lifetimes of {count} requests: p50 {:.3} ms; {:.1}-{:.1} requests/s, median {:.1}; \
         busy share {:.2}",
        lifetimes.len(),
        median(&latencies).unwrap_or(f64::NAN),
        measured.iter().copied().fold(f64::INFINITY, f64::min),
        measured.iter().copied().fold(0.0, f64::max),
        median(&measured).unwrap_or(f64::NAN),
        median(&busy).unwrap_or(f64::NAN),
    ));
    out.notes.push(calib.note());
    out.notes.push(format!("set-up {}", range_ms(&setup_s)));
    let peaks: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    out.notes.push(format!("daemon peak RSS {} MB", peaks.join(", ")));
    out
}

/// The daemon's own view of the load: request latency from its
/// `serve.request` spans, queue and cache counters from `/metrics`, and
/// per-request phase means from the other spans.
fn server_notes(
    metrics: &Json,
    trace: &TraceData,
    client_ms: (f64, Option<f64>),
    out: &mut Outcome,
) {
    let span_ms = |name: &str, path: Option<&str>| -> Vec<f64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                path.is_none_or(|p| s.field("path") == Some(&FieldValue::Str(p.to_owned())))
            })
            .map(|s| s.dur_us as f64 / 1e3)
            .collect()
    };
    let server = span_ms("serve.request", Some("/sweep"));
    let (client_p50, client_p99) = client_ms;
    if let Some(p50) = median(&server) {
        out.notes.push(format!(
            "server p50 {p50:.3} ms over {} sweeps; wire = client p50 - server p50 = {:.3} ms",
            server.len(),
            client_p50 - p50
        ));
    }
    if let (Some(p99), Some(client_p99)) = (tail_percentile(&server, 0.99), client_p99) {
        out.notes.push(format!(
            "server p99 {p99:.3} ms; client p99 / server p99 = {:.1}x",
            client_p99 / p99
        ));
    }
    let get = |key: &str| metrics.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    out.notes.push(format!(
        "queue delay EWMA {:.3} ms, cache hit rate {:.3}",
        get("queue_delay_ewma_us") / 1e3,
        get("cache_hit_rate")
    ));
    let phases: Vec<String> = [
        "serve.parse",
        "serve.admission",
        "serve.journal.append",
        "serve.queue.wait",
        "serve.cell.exec",
    ]
    .iter()
    .filter_map(|name| {
        let d = span_ms(name, None);
        (!d.is_empty()).then(|| format!("{name} {:.3} ms", d.iter().sum::<f64>() / d.len() as f64))
    })
    .collect();
    out.notes.push(format!("per-request span means: {}", phases.join(", ")));
}

/// The traced run: one set-up, a closed loop of at most
/// [`TRACED_LOAD_SECONDS`], the daemon's `GET /trace` and `/metrics`,
/// then the in-process layer probe over this workload's inputs.
pub fn traced(ctx: &Ctx, kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (daemon, primed) = match set_up(ctx, kind, 0) {
        Ok(up) => up,
        Err(e) => {
            out.tally(1, 1);
            out.notes.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    let seconds = seconds.min(TRACED_LOAD_SECONDS);
    let expect = match kind {
        Kind::Cold => Expect::Cold,
        Kind::Hot => Expect::Hot(&primed),
    };
    let (samples, wall) = load(&daemon, seed, seconds, usize::MAX, expect, &mut out);
    if kind == Kind::Cold {
        check_cold(seed, std::slice::from_ref(&samples), &mut out);
    }
    out.notes.push(latency_note(&samples, wall));
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let client_ms = (median(&latencies).unwrap_or(f64::NAN), tail_percentile(&latencies, 0.99));
    let sut_trace = daemon.get("/trace").ok();
    let trace_data = sut_trace.as_ref().and_then(span::from_chrome_trace);
    match (daemon.get("/metrics"), &trace_data) {
        (Ok(metrics), Some(trace)) => server_notes(&metrics, trace, client_ms, &mut out),
        _ => out.notes.push("could not read the daemon's /metrics or /trace".to_owned()),
    }
    if let Err(e) = daemon.shutdown() {
        out.tally(1, 1);
        out.notes.push(format!("drain failed: {e}"));
    }

    let input = match kind {
        Kind::Cold => {
            let cells = gen::cold_cells(seed);
            let mut workloads: Vec<&'static str> = Vec::new();
            for c in &cells {
                if !workloads.contains(&c.workload) && workloads.len() < 3 {
                    workloads.push(c.workload);
                }
            }
            ProbeInput {
                workloads,
                measure_insts: COLD_MEASURE,
                profile_insts: COLD_PROFILE,
                scale: 1,
                sample: SampleSpec::default(),
                request_bodies: cells.iter().take(20).map(cold_body).collect(),
                response_widths: vec![1; 20],
            }
        }
        Kind::Hot => {
            let requests: Vec<HotRequest> = (0..20).map(|i| gen::hot_request(seed, i)).collect();
            ProbeInput {
                workloads: vec!["li", "m88ksim"],
                measure_insts: gen::HOT_COLUMNS[0].1,
                profile_insts: HOT_PROFILE,
                scale: 1,
                sample: SampleSpec::default(),
                request_bodies: requests.iter().map(hot_body).collect(),
                response_widths: requests.iter().map(|r| r.schemes.len()).collect(),
            }
        }
    };
    probe::finish_traced(ctx, kind.name(), "rvp-serve", sut_trace, &input, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_yields_the_bound_address() {
        let line = "rvp-serve: listening on http://127.0.0.1:40123 (state: /x/serve-cold-0)";
        assert_eq!(listen_addr(line), Some("127.0.0.1:40123".parse().unwrap()));
        assert_eq!(listen_addr("rvp-serve: starting"), None);
    }

    #[test]
    fn job_answers_parse_counts_and_cell_digests() {
        let body = r#"{"job":3,"status":"done","cancelled":false,"total":1,"remaining":0,
            "cached":0,"computed":1,"failed":0,"cells":[{"label":"li/lvp","fingerprint":"00",
            "cached":false,"result":{"workload":"li","scheme":"lvp",
            "stats":{"cycles":10,"committed":25}}}]}"#;
        let resp = Response { status: 200, body: body.as_bytes().to_vec() };
        let job = JobAnswer::parse(&resp).unwrap();
        assert_eq!((job.total, job.cached, job.computed, job.failed), (1, 0, 1, 0));
        assert_eq!(job.cells[0].label, "li/lvp");
        assert_eq!(job.cells[0].committed, 25);
        assert!(job.cells[0].digest.is_some());
        assert_eq!(job.delivered_insts(), 25);
        let refused = Response { status: 429, body: b"{}".to_vec() };
        assert_eq!(JobAnswer::parse(&refused), None);
    }
}
