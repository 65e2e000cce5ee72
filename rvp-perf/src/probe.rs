//! The traced run's in-process layer probe.
//!
//! The probe calls each layer's public functions directly — emulator,
//! trace encode/decode, profiler, register reallocation, cycle core,
//! sampling, the `Runner` facade, and the daemon's parse, cache,
//! journal and wire paths — on the current workload's inputs, wrapping
//! every call in a bench-side span named `perf:<layer>.<call>`. A
//! layer's time is the self time of its spans (their duration minus
//! their bench-side children); the layers' self times together must
//! cover nearly all of the probe's wall time, or the breakdown misses
//! work. Library spans recorded inside the calls stay in the written
//! trace for reading but never count toward a layer.
//!
//! The program under test's own trace (`rvp-grid --trace-out`, or the
//! daemon's `GET /trace`) is merged into the same Chrome trace file as
//! a second process.

use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rvp_core::span::{self, SpanRecord, TraceData};
use rvp_core::{
    by_name, reallocate, Emulator, Input, Json, PlanScope, Profile, ProfileConfig, ReallocOptions,
    Recovery, Runner, SamplePlan, SampleSpec, Scheme, SchemeSpec, SharedSource, SimStats,
    Simulator, ToJson, TraceInput, TraceMeta, TraceStore, UarchConfig,
};
use rvp_core::{BbvConfig, BbvProfiler, PlanSource};
use rvp_serve::{JobJournal, ResultCache, SweepSpec};

use crate::report::Outcome;
use crate::stats::median;
use crate::{http, Ctx};

/// What the probe runs: this workload's programs, budgets and request
/// shapes.
#[derive(Debug, Clone)]
pub struct ProbeInput {
    /// Workloads to run every layer over.
    pub workloads: Vec<&'static str>,
    /// Measurement budget (the sampled layer profiles this many too).
    pub measure_insts: u64,
    /// Profiling budget.
    pub profile_insts: u64,
    /// Workload scale factor.
    pub scale: u64,
    /// Sampling knobs of the sampled layer and the sampled facade runs.
    pub sample: SampleSpec,
    /// Sweep request bodies this workload sends, for the parse and
    /// journal paths.
    pub request_bodies: Vec<Json>,
    /// Cells per response this workload receives, for the wire path.
    pub response_widths: Vec<usize>,
}

/// Schemes the `Runner` facade runs per workload: no prediction, the
/// paper's best profile-assisted scheme, and the reallocated program
/// (which always runs on live emulation).
const CORE_SCHEMES: [&str; 3] = ["no_predict", "drvp_all_dead_lv", "drvp_all_realloc"];

/// Schemes the cycle core runs directly: plan-free, so the bench needs
/// no copy of the facade's plan wiring.
const UARCH_SCHEMES: [&str; 2] = ["no_predict", "drvp_all"];

/// Span ring capacity while probing (library spans included).
const RING: usize = 1 << 18;

/// Repetitions of the sub-microsecond serve calls per timed batch.
const BATCH: usize = 200;

fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn plain_scheme(label: &str) -> Scheme {
    let spec = SchemeSpec::parse(label).expect("probe schemes are registry names");
    assert_eq!(spec.info().plan, PlanSource::NoPlan, "{label} needs a profile plan");
    match spec.build_predictor() {
        Some(p) => Scheme::new(label.to_owned(), spec.info().scope, p),
        None => Scheme::no_predict(),
    }
}

/// Simulated statistics summed over the probe's full detailed runs.
#[derive(Debug, Default)]
struct Model {
    runs: u64,
    ipc_sum: f64,
    cycles: u64,
    reissued: u64,
    predictions: u64,
    correct: u64,
    committed: u64,
    cond_branches: u64,
    cond_mispredicts: u64,
    dl1_accesses: u64,
    dl1_misses: u64,
}

impl Model {
    fn add(&mut self, s: &SimStats) {
        self.runs += 1;
        self.ipc_sum += s.ipc();
        self.cycles += s.cycles;
        self.reissued += s.reissued_insts;
        self.predictions += s.predictions;
        self.correct += s.correct_predictions;
        self.committed += s.committed;
        self.cond_branches += s.branch.cond_branches;
        self.cond_mispredicts += s.branch.cond_mispredicts;
        self.dl1_accesses += s.mem.l1d.accesses;
        self.dl1_misses += s.mem.l1d.misses;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Everything the probe measured besides its spans.
#[derive(Default)]
struct Tally {
    model: Model,
    sampled_insts: u64,
    represented_insts: u64,
    ipc_err_max: f64,
    plans_built: usize,
    profiles: usize,
    captures: u64,
    live_fallbacks: u64,
}

/// Runs the probe with the tracer armed and returns the drained trace.
fn probe(input: &ProbeInput, work: &Path) -> Result<(Tally, TraceData), String> {
    span::arm(RING);
    let result = {
        let _root = span::enter("perf:probe");
        run_layers(input, work)
    };
    let data = span::drain();
    span::disarm();
    result.map(|tally| (tally, data))
}

fn run_layers(input: &ProbeInput, work: &Path) -> Result<Tally, String> {
    let store_dir = work.join("probe-traces");
    let store = TraceStore::new(&store_dir).map_err(fail("trace store"))?;
    let mut tally = Tally::default();
    let runner = Runner {
        measure_insts: input.measure_insts,
        profile_insts: input.profile_insts,
        workload_scale: input.scale,
        traces: None,
        ..Runner::default()
    };
    let sampled = Runner { sampling: Some(input.sample), ..runner.clone() };
    let mut cell_texts = Vec::new();

    for &name in &input.workloads {
        let wl = by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let (program, train) = {
            let _span = span::enter("perf:emu.build");
            (
                wl.program_scaled(Input::Ref, input.scale),
                wl.program_scaled(Input::Train, input.scale),
            )
        };
        let m = input.measure_insts;

        {
            let mut s = span::enter("perf:emu.run");
            let run = Emulator::new(&program).run(m).map_err(fail("emulate"))?;
            s.add_field("insts", run.committed);
        }

        let ref_meta = TraceMeta::for_program(name, TraceInput::Ref, m, &program);
        let train_meta =
            TraceMeta::for_program(name, TraceInput::Train, input.profile_insts, &train);
        for (meta, prog) in [(&ref_meta, &program), (&train_meta, &train)] {
            let mut s = span::enter("perf:trace.encode");
            let insts = store.capture(prog, meta).map_err(fail("trace capture"))?;
            s.add_field("insts", insts);
            let bytes = std::fs::metadata(store.path_for(meta)).map_or(0, |f| f.len());
            s.add_field("bytes", bytes);
        }
        {
            let mut s = span::enter("perf:trace.decode");
            let mut n = 0u64;
            for record in store.open(&ref_meta).map_err(fail("trace open"))? {
                record.map_err(fail("trace decode"))?;
                n += 1;
            }
            s.add_field("insts", n);
        }

        let profile = {
            let mut s = span::enter("perf:profile.collect");
            let cfg = ProfileConfig { max_insts: input.profile_insts, min_execs: 32 };
            let reader = store.open(&train_meta).map_err(fail("trace open"))?;
            let profile = Profile::collect_stream(&train, &cfg, reader).map_err(fail("profile"))?;
            s.add_field("insts", profile.committed());
            profile
        };

        {
            let _s = span::enter("perf:realloc.reallocate");
            let opts = ReallocOptions {
                threshold: runner.threshold,
                scope: PlanScope::AllInsts,
                use_dead: true,
                use_lv: true,
            };
            std::hint::black_box(reallocate(&program, &profile, &opts));
        }

        let columns = {
            let mut s = span::enter("perf:uarch.capture");
            let columns = SharedSource::capture(&program, m).map_err(fail("capture"))?;
            s.add_field("insts", columns.len() as u64);
            columns
        };
        for label in UARCH_SCHEMES {
            let mut s = span::enter("perf:uarch.run");
            let mut sim =
                Simulator::new(UarchConfig::table1(), plain_scheme(label), Recovery::Selective);
            let stats = sim
                .run_with_source(&program, &mut SharedSource::new(Arc::clone(&columns)), m)
                .map_err(fail("simulate"))?;
            s.add_field("insts", stats.committed);
            s.add_field("cycles", stats.cycles);
            tally.model.add(&stats);
        }
        drop(columns);

        sample_layer(&program, m, &input.sample, &mut tally)?;

        for label in CORE_SCHEMES {
            let scheme = SchemeSpec::parse(label).expect("core schemes are registry names");
            let detailed = {
                let _s = span::enter("perf:core.run");
                runner.run(&wl, &scheme).map_err(fail("Runner::run"))?
            };
            let estimate = {
                let _s = span::enter("perf:core.run_sampled");
                sampled.run(&wl, &scheme).map_err(fail("sampled Runner::run"))?
            };
            let (want, got) = (detailed.stats.ipc(), estimate.stats.ipc());
            tally.ipc_err_max = tally.ipc_err_max.max((got - want).abs() / want);
            cell_texts.push(format!("{}\n", detailed.to_json()));
        }
    }
    tally.plans_built = sampled.samples.plans_len();
    tally.profiles = runner.profiles.len();
    let sources = runner.source_counters.total();
    tally.captures = sources.captures;
    tally.live_fallbacks = sources.live_fallbacks;

    serve_layer(input, &cell_texts, work)?;
    Ok(tally)
}

/// BBV profiling, plan building, window extraction and functional
/// warmup, with each representative window then run on the cycle core
/// exactly as a sampled cell does.
fn sample_layer(
    program: &rvp_core::Program,
    budget: u64,
    spec: &SampleSpec,
    tally: &mut Tally,
) -> Result<(), String> {
    let (interval, warmup) = spec.resolve(budget);
    let bbv = {
        let mut s = span::enter("perf:sample.bbv");
        let cfg = BbvConfig { interval_insts: interval, dims: spec.dims, seed: spec.seed };
        let mut profiler = BbvProfiler::new(program.len(), cfg);
        let mut emu = Emulator::new(program);
        let mut n = 0u64;
        while n < budget {
            match emu.step().map_err(fail("emulate"))? {
                Some(rec) => profiler.observe(rec.pc, rec.next_pc),
                None => break,
            }
            n += 1;
        }
        s.add_field("insts", n);
        profiler.finish()
    };
    let plan = {
        let _s = span::enter("perf:sample.plan");
        SamplePlan::build(&bbv, spec, warmup)
    };
    tally.sampled_insts += plan.sampled_insts();
    tally.represented_insts += plan.total_insts;
    let windows = {
        let _s = span::enter("perf:sample.extract");
        let mut emu = Emulator::new(program);
        rvp_sample::extract_windows(&plan, std::iter::from_fn(|| emu.step().transpose()))
            .map_err(fail("extract windows"))?
    };
    for w in &windows {
        for label in UARCH_SCHEMES {
            let mut sim =
                Simulator::new(UarchConfig::table1(), plain_scheme(label), Recovery::Selective);
            let warm = {
                let mut s = span::enter("perf:sample.warmup");
                s.add_field("insts", w.warmup.len() as u64);
                sim.functional_warmup(program, &w.warmup)
            };
            let mut s = span::enter("perf:uarch.window");
            let stats = sim
                .run_warmed_with_source(
                    program,
                    &mut SharedSource::new(Arc::clone(&w.detail)),
                    w.detail.len() as u64,
                    &warm,
                )
                .map_err(fail("simulate window"))?;
            s.add_field("insts", stats.committed);
            s.add_field("cycles", stats.cycles);
        }
    }
    Ok(())
}

/// The daemon's per-request paths: request parsing, result-cache
/// insert and lookup, the fsynced journal append, and a response
/// written by the daemon's own writer over loopback to the benchmark's
/// keep-alive client.
fn serve_layer(input: &ProbeInput, cell_texts: &[String], work: &Path) -> Result<(), String> {
    let base = Runner { traces: None, ..Runner::default() };
    {
        // Parses and memory lookups take well under the tracer's 1 µs
        // resolution each, so they are timed in batches.
        let mut s = span::enter("perf:serve.parse");
        for _ in 0..BATCH {
            for body in &input.request_bodies {
                SweepSpec::from_json(body, &base).map_err(fail("parse sweep"))?;
            }
        }
        s.add_field("ops", (BATCH * input.request_bodies.len()) as u64);
    }

    let state = work.join("probe-serve");
    let cache = ResultCache::open(&state).map_err(fail("result cache"))?;
    for (key, text) in (1u64..).zip(cell_texts) {
        let _s = span::enter("perf:serve.cache_put");
        cache.put(key, text).map_err(fail("cache put"))?;
    }
    {
        let mut s = span::enter("perf:serve.cache_get");
        for _ in 0..BATCH {
            for key in (1u64..).take(cell_texts.len()) {
                cache.get(key).map_err(fail("cache get"))?.ok_or("cache lost an entry")?;
            }
        }
        s.add_field("ops", (BATCH * cell_texts.len()) as u64);
    }
    let (journal, _) = JobJournal::open(&state).map_err(fail("journal"))?;
    for (id, body) in (1u64..).zip(&input.request_bodies) {
        {
            let _s = span::enter("perf:serve.journal_append");
            journal.append_job(id, body).map_err(fail("journal append"))?;
        }
        let _s = span::enter("perf:serve.journal_done");
        journal.append_done(id);
    }

    let cells: Vec<Json> = cell_texts.iter().filter_map(|t| Json::parse(t).ok()).collect();
    if cells.is_empty() {
        return Err("no cells to answer with".to_owned());
    }
    let responses: BTreeMap<usize, Json> =
        input.response_widths.iter().map(|&w| (w, job_response(&cells, w))).collect();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(fail("bind"))?;
    let addr = listener.local_addr().map_err(fail("local addr"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            while let Ok(Some(request)) = rvp_serve::http::read_request(&mut reader) {
                let width = request.path.trim_start_matches("/width/").parse::<usize>();
                let Some(body) = width.ok().and_then(|w| responses.get(&w)) else { break };
                rvp_serve::http::write_json_response(&mut writer, 200, &[], body)?;
            }
            Ok(())
        });
        let client = || -> Result<(), String> {
            let mut conn =
                http::Connection::open(addr, Duration::from_secs(10)).map_err(fail("connect"))?;
            for &width in &input.response_widths {
                let _s = span::enter("perf:serve.wire");
                let resp =
                    conn.request("GET", &format!("/width/{width}"), b"").map_err(fail("wire"))?;
                if resp.status != 200 {
                    return Err(format!("wire probe answered {}", resp.status));
                }
            }
            Ok(())
        };
        let result = client();
        let served = server.join().expect("wire probe server panicked");
        result.and(served.map_err(fail("wire server")))
    })
}

/// A finished, fully cached job of `width` cells, shaped like the
/// daemon's `wait:true` response.
fn job_response(cells: &[Json], width: usize) -> Json {
    let entries = (0..width).map(|i| {
        let cell = &cells[i % cells.len()];
        let label = format!(
            "{}/{}",
            cell.get("workload").and_then(Json::as_str).unwrap_or(""),
            cell.get("scheme").and_then(Json::as_str).unwrap_or("")
        );
        Json::obj([
            ("label", label.into()),
            ("fingerprint", format!("{i:016x}").into()),
            ("cached", true.into()),
            ("result", cell.clone()),
        ])
    });
    Json::obj([
        ("job", 1u64.into()),
        ("status", "done".into()),
        ("cancelled", false.into()),
        ("total", (width as u64).into()),
        ("remaining", 0u64.into()),
        ("cached", (width as u64).into()),
        ("computed", 0u64.into()),
        ("failed", 0u64.into()),
        ("cells", Json::arr(entries)),
    ])
}

/// Bench-side spans with self times and per-name aggregates.
pub struct BenchSpans {
    spans: Vec<SpanRecord>,
    self_us: Vec<u64>,
}

impl BenchSpans {
    /// Keeps the `perf:` spans of `data` and computes each one's self
    /// time against its `perf:` children.
    pub fn new(data: &TraceData) -> BenchSpans {
        let spans: Vec<SpanRecord> =
            data.spans.iter().filter(|s| s.name.starts_with("perf:")).cloned().collect();
        let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            *child_us.entry(s.parent).or_default() += s.dur_us;
        }
        let self_us = spans
            .iter()
            .map(|s| s.dur_us.saturating_sub(child_us.get(&s.id).copied().unwrap_or(0)))
            .collect();
        BenchSpans { spans, self_us }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        let full = format!("perf:{name}");
        self.spans.iter().filter(move |s| s.name == full)
    }

    /// Summed duration of the spans called `perf:<name>`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_us).sum::<u64>() as f64 / 1e6
    }

    /// Durations of the spans called `perf:<name>`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_us as f64 / 1e3).collect()
    }

    /// Mean duration of the spans called `perf:<name>`, milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    /// Sum of the integer field `field` over spans called `perf:<name>`.
    pub fn field_sum(&self, name: &str, field: &str) -> u64 {
        self.named(name)
            .filter_map(|s| match s.field(field) {
                Some(span::FieldValue::U64(v)) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Million `insts` per second over the spans called `perf:<name>`.
    pub fn minsts_per_s(&self, name: &str) -> f64 {
        self.field_sum(name, "insts") as f64 / self.total_s(name) / 1e6
    }

    /// Self time of a layer: every `perf:<layer>.*` span, seconds.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        let prefix = format!("perf:{layer}.");
        let us: u64 = self
            .spans
            .iter()
            .zip(&self.self_us)
            .filter(|(s, _)| s.name.starts_with(&prefix))
            .map(|(_, us)| *us)
            .sum();
        us as f64 / 1e6
    }

    /// Number of spans called `perf:<name>`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }
}

/// The layers the probe's spans are attributed to, with the metric
/// that reports each one's self time.
const LAYERS: [(&str, &str); 8] = [
    ("emu", "emu.self_s"),
    ("trace", "trace.self_s"),
    ("profile", "profile.self_s"),
    ("realloc", "realloc.self_s"),
    ("uarch", "uarch.self_s"),
    ("sample", "sample.self_s"),
    ("core", "core.self_s"),
    ("serve", "serve.self_s"),
];

fn set_probe_metrics(spans: &BenchSpans, tally: &Tally, out: &mut Outcome) {
    let n = |name: &str| spans.count(name).max(1);
    out.set("emu.minsts_per_s", spans.minsts_per_s("emu.run"), n("emu.run"));
    out.set("trace.encode_minsts_per_s", spans.minsts_per_s("trace.encode"), n("trace.encode"));
    out.set("trace.decode_minsts_per_s", spans.minsts_per_s("trace.decode"), n("trace.decode"));
    out.set(
        "trace.bytes_per_inst",
        ratio(spans.field_sum("trace.encode", "bytes"), spans.field_sum("trace.encode", "insts")),
        n("trace.encode"),
    );
    out.set("profile.minsts_per_s", spans.minsts_per_s("profile.collect"), n("profile.collect"));
    out.set("realloc.ms", spans.mean_ms("realloc.reallocate"), n("realloc.reallocate"));

    let cycles = spans.field_sum("uarch.run", "cycles") + spans.field_sum("uarch.window", "cycles");
    let insts = spans.field_sum("uarch.run", "insts") + spans.field_sum("uarch.window", "insts");
    let uarch_s = spans.total_s("uarch.run") + spans.total_s("uarch.window");
    let runs = n("uarch.run") + spans.count("uarch.window");
    out.set("uarch.minsts_per_s", insts as f64 / uarch_s / 1e6, runs);
    out.set("uarch.host_ns_per_cycle", uarch_s * 1e9 / cycles.max(1) as f64, runs);
    out.set("uarch.capture_minsts_per_s", spans.minsts_per_s("uarch.capture"), n("uarch.capture"));
    out.set(
        "uarch.cell_ms_p50",
        median(&spans.durations_ms("uarch.run")).unwrap_or(f64::NAN),
        n("uarch.run"),
    );

    let model = &tally.model;
    let runs = model.runs.max(1) as usize;
    out.set("uarch.ipc_mean", model.ipc_sum / model.runs.max(1) as f64, runs);
    out.set("uarch.cycles", model.cycles as f64, runs);
    out.set("uarch.reissued_insts", model.reissued as f64, runs);
    out.set("vpred.coverage", ratio(model.predictions, model.committed), runs);
    out.set("vpred.accuracy", ratio(model.correct, model.predictions), runs);
    out.set("bpred.mispredict_rate", ratio(model.cond_mispredicts, model.cond_branches), runs);
    out.set("mem.dl1_miss_rate", ratio(model.dl1_misses, model.dl1_accesses), runs);

    out.set("sample.bbv_minsts_per_s", spans.minsts_per_s("sample.bbv"), n("sample.bbv"));
    out.set("sample.plan_ms", spans.mean_ms("sample.plan"), n("sample.plan"));
    out.set("sample.warmup_minsts_per_s", spans.minsts_per_s("sample.warmup"), n("sample.warmup"));
    out.set(
        "sample.detail_share",
        ratio(tally.sampled_insts, tally.represented_insts),
        n("sample.plan"),
    );
    out.set("sample.plans_built", tally.plans_built as f64, 1);
    out.set("sample.ipc_err_max", tally.ipc_err_max, n("core.run_sampled"));

    out.set(
        "core.cell_ms_p50",
        median(&spans.durations_ms("core.run")).unwrap_or(f64::NAN),
        n("core.run"),
    );
    out.set("core.profiles_collected", tally.profiles as f64, 1);
    out.set("core.trace_captures", tally.captures as f64, 1);
    out.set("core.live_fallbacks", tally.live_fallbacks as f64, 1);

    let per_op_us =
        |name: &str| spans.total_s(name) * 1e6 / spans.field_sum(name, "ops").max(1) as f64;
    out.set(
        "serve.parse_us",
        per_op_us("serve.parse"),
        spans.field_sum("serve.parse", "ops") as usize,
    );
    out.set("serve.cache_put_ms", spans.mean_ms("serve.cache_put"), n("serve.cache_put"));
    out.set(
        "serve.cache_get_us",
        per_op_us("serve.cache_get"),
        spans.field_sum("serve.cache_get", "ops") as usize,
    );
    out.set(
        "serve.journal_append_ms",
        spans.mean_ms("serve.journal_append"),
        n("serve.journal_append"),
    );
    let wire = spans.durations_ms("serve.wire");
    out.set("serve.wire_ms_p50", median(&wire).unwrap_or(f64::NAN), wire.len());
    out.set("serve.wire_ms_mean", spans.mean_ms("serve.wire"), wire.len());

    for (layer, metric) in LAYERS {
        out.set(metric, spans.layer_self_s(layer), 1);
    }
    let wall = spans.total_s("probe");
    let covered: f64 = LAYERS.iter().map(|(layer, _)| spans.layer_self_s(layer)).sum();
    out.set("probe.wall_s", wall, 1);
    out.set("probe.layer_cover_frac", covered / wall, 1);
}

/// Median cell time and pool efficiency read off a program's own trace:
/// its `grid.cell.run` spans (the grid's cells, or the daemon's, which
/// run through the same containment path) over `workers` threads.
pub fn sut_cell_metrics(trace: &TraceData, workers: usize) -> Option<(f64, f64, usize)> {
    let cells: Vec<&SpanRecord> =
        trace.spans.iter().filter(|s| s.name == "grid.cell.run").collect();
    let first = cells.iter().map(|s| s.start_us).min()?;
    let last = cells.iter().map(|s| s.start_us + s.dur_us).max()?;
    let busy: u64 = cells.iter().map(|s| s.dur_us).sum();
    let p50 = median(&cells.iter().map(|s| s.dur_us as f64 / 1e3).collect::<Vec<_>>())?;
    let eff = busy as f64 / (workers as f64 * (last - first).max(1) as f64);
    Some((p50, eff, cells.len()))
}

/// Writes one Chrome trace holding the program's trace (process 1) and
/// the probe's (process 2).
fn write_merged(
    path: &Path,
    sut_name: &str,
    sut: Option<&Json>,
    probe: &TraceData,
) -> std::io::Result<()> {
    let meta = |pid: u64, name: &str| {
        Json::obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", Json::obj([("name", name.into())])),
        ])
    };
    let mut events = vec![meta(1, sut_name), meta(2, "rvp-perf probe")];
    if let Some(events_in) = sut.and_then(|t| t.get("traceEvents")).and_then(Json::as_arr) {
        events.extend(events_in.iter().cloned());
    }
    let probe_json = span::chrome_trace_json(probe);
    for event in probe_json.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]) {
        let Json::Obj(pairs) = event else { continue };
        let pairs = pairs
            .iter()
            .map(|(k, v)| (k.clone(), if k == "pid" { 2u64.into() } else { v.clone() }))
            .collect();
        events.push(Json::Obj(pairs));
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = BufWriter::new(std::fs::File::create(path)?);
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", "ms".into())])
        .to_writer(&mut file)?;
    file.write_all(b"\n")?;
    file.flush()
}

/// The common tail of every traced run: read the program's trace for
/// its cell metrics, run the probe, set every per-layer metric, and
/// write the merged Chrome trace.
pub fn finish_traced(
    ctx: &Ctx,
    workload: &str,
    sut_name: &str,
    sut_trace: Option<Json>,
    input: &ProbeInput,
    out: &mut Outcome,
) {
    let sut_data = sut_trace.as_ref().and_then(span::from_chrome_trace);
    match sut_data.as_ref().and_then(|t| sut_cell_metrics(t, crate::SUT_WORKERS)) {
        Some((p50, eff, n)) => {
            out.set("sut.cell_ms_p50", p50, n);
            out.set("sut.parallel_eff", eff, n);
        }
        None => out.notes.push(format!("{sut_name} trace holds no grid.cell.run spans")),
    }
    out.tally(1, 0);
    match probe(input, &ctx.work) {
        Ok((tally, data)) => {
            let spans = BenchSpans::new(&data);
            set_probe_metrics(&spans, &tally, out);
            let path = ctx.trace_dir.join(format!("{workload}.trace.json"));
            match write_merged(&path, sut_name, sut_trace.as_ref(), &data) {
                Ok(()) => out.notes.push(format!("chrome trace: {}", path.display())),
                Err(e) => out.notes.push(format!("cannot write {}: {e}", path.display())),
            }
            if data.dropped > 0 {
                out.notes.push(format!("{} probe spans dropped by the ring bound", data.dropped));
            }
        }
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("probe failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: Cow::Borrowed(name),
            start_us: start,
            dur_us: dur,
            tid: 1,
            fields: vec![],
        }
    }

    #[test]
    fn layer_self_time_subtracts_bench_children_only() {
        let data = TraceData {
            spans: vec![
                rec(1, 0, "perf:probe", 0, 1000),
                rec(2, 1, "perf:core.run", 0, 600),
                rec(3, 2, "runner.measure", 10, 500),
                rec(4, 1, "perf:serve.wire", 600, 300),
            ],
            dropped: 0,
        };
        let spans = BenchSpans::new(&data);
        assert_eq!(spans.layer_self_s("core"), 600e-6, "library children stay in the layer");
        assert_eq!(spans.layer_self_s("serve"), 300e-6);
        assert!((spans.total_s("probe") - 1000e-6).abs() < 1e-12);
        let covered: f64 = LAYERS.iter().map(|(layer, _)| spans.layer_self_s(layer)).sum();
        assert!((covered - 900e-6).abs() < 1e-12);
    }

    #[test]
    fn sut_cell_metrics_read_pool_efficiency() {
        let data = TraceData {
            spans: vec![
                rec(1, 0, "grid.cell.run", 0, 100),
                rec(2, 0, "grid.cell.run", 0, 100),
                rec(3, 0, "grid.cell.run", 100, 100),
                rec(4, 0, "grid.prewarm", 0, 50),
            ],
            dropped: 0,
        };
        let (p50, eff, n) = sut_cell_metrics(&data, 2).unwrap();
        assert_eq!(n, 3);
        assert_eq!(p50, 0.1);
        assert!((eff - 0.75).abs() < 1e-12);
        assert!(sut_cell_metrics(&TraceData::default(), 2).is_none());
    }
}
